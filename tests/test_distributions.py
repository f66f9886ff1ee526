import math
from bisect import bisect_right
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplearn.abstraction import AbstractState, Condition, LiteralConjunction, satisfies
from caplearn.dataset import EffectPair
from caplearn.distributions import cumulative, tv_distance
from caplearn.model import ConditionalEffectRule, apply_effect, predict
from .conftest import (
    RULE_CAP,
    draw,
    push_distribution,
    random_rule,
    random_state,
    rule_model,
    small_universe,
)


def dense_push_oracle(probs, rules, num_atoms):
    """Probability-space push over explicit per-state scans (no caching, no logs)."""
    out = {}
    for state, p in probs.items():
        fired = None
        for rule in rules:
            if satisfies(state, rule.condition):
                fired = rule
                break
        if fired is None:
            out[state] = out.get(state, 0.0) + p
        else:
            for q, eff in fired.effects:
                s2 = apply_effect(state, eff)
                out[s2] = out.get(s2, 0.0) + p * q
    return out


def random_distribution(universe, rng, max_support=6):
    support = {random_state(universe, rng) for _ in range(rng.randint(1, max_support))}
    weights = {s: rng.random() + 0.01 for s in support}
    total = sum(weights.values())
    return {s: w / total for s, w in weights.items()}


def coin_model(universe, atom, p):
    """Always fires: sets `atom` with probability p, else clears it."""
    mask = universe.mask_of([atom])
    effects = ((p, EffectPair(mask, 0)), (1.0 - p, EffectPair(0, mask)))
    rule = ConditionalEffectRule(Condition.always(universe.num_atoms), effects)
    return rule_model(universe, (rule,))


class TestPushDistribution:
    def test_total_is_one_after_pushes(self):
        rng = Random("norm")
        u = small_universe(6)
        d = random_distribution(u, rng)
        for _ in range(30):
            d = push_distribution(d, rule_model(u, (random_rule(u.num_atoms, rng),)), RULE_CAP)
        assert abs(sum(d.values()) - 1.0) <= 1e-9

    def test_no_rule_fires_is_identity(self):
        u = small_universe(3)
        s = u.encode(["p0(a)"])
        d = {s: 1.0}
        rule = ConditionalEffectRule(
            Condition.never(3), ((1.0, EffectPair(0b10, 0)),)
        )
        out = push_distribution(d, rule_model(u, (rule,)), RULE_CAP)
        assert out == pytest.approx({s: 1.0})

    def test_three_outcome_rule_three_successors(self, vacuum_universe):
        u = vacuum_universe
        s = u.encode(["has(robot,vacuum)", "charged(robot)"])
        clean1 = u.mask_of(["clean(l1)"])
        charged = u.mask_of(["charged(robot)"])
        at = u.mask_of(["at(charger,robot)"])
        rule = ConditionalEffectRule(
            Condition((LiteralConjunction(u.mask_of(["has(robot,vacuum)"]), 0),), u.num_atoms),
            (
                (0.50, EffectPair(clean1, charged)),
                (0.25, EffectPair(clean1 | at, 0)),
                (0.25, EffectPair(0, charged)),
            ),
        )
        out = push_distribution({s: 1.0}, rule_model(u, (rule,)), RULE_CAP)
        assert sorted(out.values(), reverse=True) == pytest.approx([0.50, 0.25, 0.25])

    def test_partial_firing_preserves_unmatched_mass(self):
        u = small_universe(3)
        s1, s2 = u.encode(["p0(a)"]), u.encode(["p1(a)"])
        d = {s1: 0.5, s2: 0.5}
        rule = ConditionalEffectRule(
            Condition((LiteralConjunction(u.mask_of(["p0(a)"]), 0),), 3),
            ((1.0, EffectPair(u.mask_of(["p2(a)"]), 0)),),
        )
        out = push_distribution(d, rule_model(u, (rule,)), RULE_CAP)
        assert out == pytest.approx(
            {apply_effect(s1, EffectPair(u.mask_of(["p2(a)"]), 0)): 0.5, s2: 0.5}
        )

    def test_colliding_effects_match_predict_exactly(self):
        # An optimistic-style rule accepting every state whose two effects
        # lead from s to one successor. Summed in linear space 0.1 + 0.9 is
        # exactly 1.0, so push agrees with predict to the last bit.
        u = small_universe(3)
        s = u.encode(["p0(a)"])
        rule = ConditionalEffectRule(
            Condition.always(3),
            (
                (0.1, EffectPair(u.mask_of(["p1(a)"]), 0)),
                (0.9, EffectPair(u.mask_of(["p1(a)"]), u.mask_of(["p2(a)"]))),
            ),
        )
        m = rule_model(u, (rule,))
        got = push_distribution({s: 1.0}, m, RULE_CAP)
        assert got == predict(m, s, RULE_CAP) == {u.encode(["p0(a)", "p1(a)"]): 1.0}

    def test_chained_masses_multiply_exactly(self):
        u = small_universe(3)
        s = u.encode([])
        d = push_distribution({s: 1.0}, coin_model(u, "p0(a)", 0.5), RULE_CAP)
        d = push_distribution(d, coin_model(u, "p1(a)", 0.25), RULE_CAP)
        assert d[u.encode(["p0(a)", "p1(a)"])] == 0.125

    def test_matches_dense_oracle_on_random_instances(self):
        rng = Random("push-oracle-unit")
        u = small_universe(8)
        for _ in range(300):
            d = random_distribution(u, rng)
            rules = tuple(random_rule(u.num_atoms, rng) for _ in range(rng.randint(1, 3)))
            got = push_distribution(d, rule_model(u, rules), RULE_CAP)
            want = dense_push_oracle(d, rules, u.num_atoms)
            assert set(got) == {s for s, p in want.items() if p > 0}
            for s, p in want.items():
                assert abs(got.get(s, 0.0) - p) <= 1e-9


class TestDraw:
    """The one categorical draw: `bisect_right(cumulative(weights), u)`."""

    @staticmethod
    def _pick(weights, u):
        return bisect_right(cumulative(weights), u)

    def test_first_item_whose_cumulative_weight_exceeds_u(self):
        weights = [0.25, 0.5, 0.25]
        assert [self._pick(weights, u) for u in (0.0, 0.24, 0.25, 0.74, 0.75)] == [0, 0, 1, 1, 2]

    def test_u_past_the_total_returns_last_item(self):
        assert self._pick([0.5, 0.5], 1.0) == 1
        assert self._pick([2, 1], 3.5) == 1

    def test_weights_are_not_renormalized(self):
        assert self._pick([2, 1], 1.5) == 0
        assert self._pick([2, 1], 2.5) == 1


class TestCumulative:
    """`bisect_right(cumulative(ws), u)` picks the index the reference `draw` picks for `u`."""

    @staticmethod
    def _both(weights, u):
        return bisect_right(cumulative(weights), u), draw(list(enumerate(weights)), u)

    def test_matches_draw_on_random_weight_lists(self):
        rng = Random("cumulative")
        for _ in range(400):
            raw = [rng.choice([0.0, rng.random(), rng.random()]) for _ in range(rng.randint(1, 9))]
            raw[-1] = raw[-1] or 0.5
            total = sum(raw)
            weights = [w / total for w in raw]  # sums round to just below, at or above 1.0
            acc = sum(weights)
            us = [rng.random() for _ in range(25)]
            us += [0.0, acc, math.nextafter(acc, 0.0), math.nextafter(1.0, 0.0)]
            us += [math.fsum(weights[: k + 1]) for k in range(len(weights))]
            for u in us:
                got, want = self._both(weights, u)
                assert got == want, (weights, u)

    def test_total_below_one_picks_the_last_item(self):
        weights = [0.1] * 10
        total = sum(weights)
        assert total < 1.0
        for u in (math.nextafter(total, 0.0), total, math.nextafter(1.0, 0.0)):
            assert self._both(weights, u) == (9, 9)

    def test_last_entry_is_infinite(self):
        assert cumulative([0.25, 0.5, 0.25]) == [0.25, 0.75, math.inf]
        assert cumulative([1.0]) == [math.inf]


class TestTvDistance:
    def test_identical_distributions(self):
        s = AbstractState(1, 3)
        d = {s: 0.4, AbstractState(2, 3): 0.6}
        assert tv_distance(d, d) == 0.0

    def test_disjoint_supports(self):
        d1 = {AbstractState(1, 3): 1.0}
        d2 = {AbstractState(2, 3): 1.0}
        assert tv_distance(d1, d2) == 1.0

    def test_zero_between_two_push_orders_of_one_distribution(self):
        u = small_universe(3)
        coins = [coin_model(u, f"p{i}(a)", p) for i, p in enumerate((0.5, 0.5, 0.125))]
        d1 = d2 = {u.encode([]): 1.0}
        for m1, m2 in zip(coins, reversed(coins)):
            d1 = push_distribution(d1, m1, RULE_CAP)
            d2 = push_distribution(d2, m2, RULE_CAP)
        assert tv_distance(d1, d2) == 0.0

    def test_worked_example_exact(self):
        a, b = AbstractState(1, 3), AbstractState(2, 3)
        d1 = {a: 0.5, b: 0.5}
        d2 = {a: 1.0}
        assert abs(tv_distance(d1, d2) - 0.5) <= 1e-12

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_metric_properties(self, seed):
        rng = Random(seed)
        u = small_universe(5)
        d1, d2, d3 = (random_distribution(u, rng) for _ in range(3))
        assert tv_distance(d1, d2) == pytest.approx(tv_distance(d2, d1))
        assert tv_distance(d1, d3) <= tv_distance(d1, d2) + tv_distance(d2, d3) + 1e-12
        assert 0.0 <= tv_distance(d1, d2) <= 1.0 + 1e-12
        assert (tv_distance(d1, d2) <= 1e-12) == (
            {s: round(p, 12) for s, p in d1.items()}
            == {s: round(p, 12) for s, p in d2.items()}
        )
