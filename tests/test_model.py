import copy
import dataclasses
import json
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplearn.abstraction import (
    AbstractState,
    AtomUniverse,
    Condition,
    ConfigurationError,
    LiteralConjunction,
    satisfies,
)
from caplearn.dataset import EffectPair, Transition, TransitionDataset
from caplearn.model import (
    Capability,
    CapabilityModel,
    ConditionalEffectRule,
    apply_effect,
    build_models,
    entails,
    entailed_successors,
    equivalent,
    load_model,
    model_from_json,
    model_to_json,
    model_to_text,
    optimistic_condition,
    partition,
    pessimistic_condition,
    predict,
)
from .conftest import (
    RULE_CAP,
    bits_to_index_set,
    naive_apply,
    naive_satisfies,
    random_dataset,
    random_rule,
    random_state,
    rule_model,
    small_universe,
)


def _cap(name="c"):
    return Capability(name, LiteralConjunction(1, 0))


def exhaustive_accepting_states(cond, universe):
    return {s for s in universe.all_states() if satisfies(s, cond)}


def brute_force_equivalent(m1, m2, universe):
    """Double enumeration over every (s, c, s') triple in the universe."""
    caps = sorted(set(m1.capabilities) | set(m2.capabilities))
    for s in universe.all_states():
        for c in caps:
            for s2 in universe.all_states():
                t = Transition(s, c, s2)
                if entails(m1, t) != entails(m2, t):
                    return False
    return True


class TestApply:
    def test_noop_leaves_state(self):
        s = AbstractState(0b1010, 4)
        assert apply_effect(s, EffectPair(0, 0)) == s

    def test_clean_then_drain_outcome(self, vacuum_universe):
        u = vacuum_universe
        s = u.encode(["has(robot,vacuum)", "charged(robot)"])
        eff = EffectPair(u.mask_of(["clean(l1)"]), u.mask_of(["charged(robot)"]))
        assert apply_effect(s, eff) == u.encode(["has(robot,vacuum)", "clean(l1)"])

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=200, deadline=None)
    def test_idempotent(self, s, add, dele):
        dele &= ~add
        state = AbstractState(s, 8)
        eff = EffectPair(add, dele)
        once = apply_effect(state, eff)
        assert apply_effect(once, eff) == once


class TestPartition:
    def setup_method(self):
        self.u = small_universe(4)

    def test_two_states_same_noop_effects_group_together(self):
        ds = TransitionDataset()
        a, b = self.u.encode(["p0(a)"]), self.u.encode(["p1(a)"])
        ds.add(Transition(a, "c", a))
        ds.add(Transition(b, "c", b))
        parts = partition(ds, "c")
        assert len(parts) == 1
        assert parts[0].states == frozenset({a, b})

    def test_different_effect_sets_split(self):
        ds = TransitionDataset()
        a, b = self.u.encode([]), self.u.encode(["p1(a)"])
        e1_target = apply_effect(a, EffectPair(0b1, 0))
        ds.add(Transition(a, "c", e1_target))
        ds.add(Transition(b, "c", apply_effect(b, EffectPair(0b1, 0))))
        ds.add(Transition(b, "c", b))
        parts = partition(ds, "c")
        assert len(parts) == 2
        by_state = {next(iter(p.states)): p for p in parts}
        assert len(by_state[a].effects) == 1
        assert len(by_state[b].effects) == 2

    def test_shared_three_outcome_states_form_single_partition(self, vacuum_universe):
        u = vacuum_universe
        ds = TransitionDataset()
        clean1 = u.mask_of(["clean(l1)"])
        charged = u.mask_of(["charged(robot)"])
        at = u.mask_of(["at(charger,robot)"])
        effects = [
            EffectPair(clean1, charged),
            EffectPair(clean1 | at, 0),
            EffectPair(0, charged),
        ]
        for atoms in (
            ["has(robot,vacuum)", "charged(robot)"],
            ["has(robot,vacuum)", "charged(robot)", "clean(l2)"],
        ):
            s = u.encode(atoms)
            for eff in effects:
                ds.add(Transition(s, "c2", apply_effect(s, eff)))
        parts = partition(ds, "c2")
        assert len(parts) == 1
        assert len(parts[0].effects) == 3

    def test_empty_dataset_gives_no_partitions(self):
        assert partition(TransitionDataset(), "c") == []


class TestConditions:
    def setup_method(self):
        self.u = small_universe(6)
        self.ds = TransitionDataset()

    def _parts_for(self, state_effect_pairs):
        for s, eff in state_effect_pairs:
            self.ds.add(Transition(s, "c", apply_effect(s, eff)))
        return partition(self.ds, "c")

    def test_pessimistic_single_state_accepts_exactly_it(self):
        s = self.u.encode(["p2(a)"])
        parts = self._parts_for([(s, EffectPair(1, 0))])
        cond = pessimistic_condition(parts[0], self.u)
        assert exhaustive_accepting_states(cond, self.u) == {s}

    def test_pessimistic_two_states_accept_exactly_two(self):
        s1, s2 = self.u.encode(["p0(a)"]), self.u.encode(["p1(a)", "p2(a)"])
        parts = self._parts_for([(s1, EffectPair(0b1000, 0)), (s2, EffectPair(0b1000, 0))])
        cond = pessimistic_condition(parts[0], self.u)
        assert exhaustive_accepting_states(cond, self.u) == {s1, s2}

    def test_optimistic_single_partition_accepts_everything(self):
        s = self.u.encode(["p0(a)"])
        parts = self._parts_for([(s, EffectPair(0b10, 0))])
        cond = optimistic_condition(parts, parts[0], self.u)
        assert len(exhaustive_accepting_states(cond, self.u)) == 1 << self.u.num_atoms

    def test_optimistic_two_singletons_exclude_each_other(self):
        s1, s2 = self.u.encode(["p0(a)"]), self.u.encode(["p1(a)"])
        parts = self._parts_for([(s1, EffectPair(0b100, 0)), (s2, EffectPair(0, 0b10))])
        assert len(parts) == 2
        target = next(p for p in parts if s1 in p.states)
        cond = optimistic_condition(parts, target, self.u)
        accepted = exhaustive_accepting_states(cond, self.u)
        assert s2 not in accepted
        assert s1 in accepted
        assert len(accepted) == (1 << self.u.num_atoms) - 1

    def test_observed_states_accepted_by_exactly_one_rule_each(self):
        rng = Random("one-rule-each")
        ds, caps = random_dataset(small_universe(5), rng, caps=2, transitions=40)
        u = small_universe(5)
        m_pess, m_opt = build_models(caps, ds, u)
        for cap in caps:
            for s in ds.observed_states(cap.name):
                for model in (m_pess, m_opt):
                    hits = [
                        r for r in model.capabilities[cap.name].rules
                        if satisfies(s, r.condition)
                    ]
                    assert len(hits) == 1


class TestBuildModels:
    def test_mle_probabilities_match_counts(self, vacuum_universe):
        u = vacuum_universe
        ds = TransitionDataset()
        s = u.encode(["has(robot,vacuum)", "charged(robot)"])
        effs = [
            (EffectPair(u.mask_of(["clean(l1)"]), u.mask_of(["charged(robot)"])), 2),
            (EffectPair(u.mask_of(["clean(l1)", "at(charger,robot)"]), 0), 1),
            (EffectPair(0, u.mask_of(["charged(robot)"])), 1),
        ]
        for eff, n in effs:
            ds.add(Transition(s, "c2", apply_effect(s, eff)), n)
        m_pess, _ = build_models([_cap("c2")], ds, u)
        [rule] = m_pess.capabilities["c2"].rules
        assert sorted((p for p, _ in rule.effects), reverse=True) == [0.50, 0.25, 0.25]

    def test_single_observation_probability_one(self):
        u = small_universe(3)
        ds = TransitionDataset()
        s = u.encode([])
        ds.add(Transition(s, "c", u.encode(["p0(a)"])))
        m_pess, _ = build_models([_cap()], ds, u)
        [rule] = m_pess.capabilities["c"].rules
        assert rule.effects[0][0] == 1.0

    def test_empty_dataset_entails_nothing(self):
        u = small_universe(3)
        m_pess, m_opt = build_models([_cap()], TransitionDataset(), u)
        assert m_pess.capabilities["c"].rules == ()
        for s in u.all_states():
            for s2 in u.all_states():
                assert not entails(m_pess, Transition(s, "c", s2))

    def test_rule_probabilities_sum_to_one(self):
        rng = Random("prob-sum")
        u = small_universe(5)
        ds, caps = random_dataset(u, rng, caps=3, transitions=60)
        m_pess, m_opt = build_models(caps, ds, u)
        for model in (m_pess, m_opt):
            for cap in model.capabilities.values():
                for rule in cap.rules:
                    assert abs(sum(p for p, _ in rule.effects) - 1.0) <= 1e-9


    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_some_rule_accepts_every_state_exactly_when_rules_exist(self, seed):
        # `synthesize_sampled` offers every capability with a rule at every
        # state; on fitted pairs that is exactly where some rule accepts.
        rng = Random(seed)
        u = small_universe(4)
        ds, caps = random_dataset(u, rng, caps=4, transitions=rng.randint(0, 25))
        first = build_models(caps, ds, u)
        more, _ = random_dataset(u, rng, caps=4, transitions=rng.randint(0, 10))
        for t, n in more.counts.items():
            ds.add(t, n)
        for pair in (first, build_models(caps, ds, u, first)):
            for cap in caps:
                rules = pair[0].rules_for(cap.name) + pair[1].rules_for(cap.name)
                for s in u.all_states():
                    assert any(satisfies(s, r.condition) for r in rules) == bool(rules)


class TestIncrementalBuild:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3), st.sampled_from("ab"), st.integers(0, 3), st.integers(1, 3)
            ),
            max_size=40,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_revision_changes_whenever_rules_do(self, stream):
        u = small_universe(3)
        caps = [_cap("a"), _cap("b")]
        ds = TransitionDataset()
        pair = scratch = build_models(caps, ds, u)
        for s, c, s2, n in stream:
            t = Transition(AbstractState(s, 3), c, AbstractState(s2, 3))
            repeat_of_single_outcome = t in ds.counts and len(ds.transitions_from(c, t.s)) == 1
            before = {cap.name: ds.revision(cap.name) for cap in caps}
            ds.add(t, n)
            previous_scratch, scratch = scratch, build_models(caps, ds, u)
            for name, revision in before.items():
                changed = any(
                    old.capabilities[name] != new.capabilities[name]
                    for old, new in zip(previous_scratch, scratch)
                )
                if changed:
                    assert ds.revision(name) != revision
                if name != c or repeat_of_single_outcome:
                    assert ds.revision(name) == revision
            pair = build_models(caps, ds, u, pair)
            for got, want in zip(pair, scratch):
                assert got.capabilities == want.capabilities

    def _two_capability_refit(self):
        u = small_universe(3)
        s, s1, s2 = (AbstractState(bits, 3) for bits in (0b000, 0b001, 0b010))
        caps = [_cap("a"), _cap("b")]
        ds = TransitionDataset()
        ds.add(Transition(s, "a", s1))
        ds.add(Transition(s, "b", s1))
        old = build_models(caps, ds, u)
        for m in old:
            predict(m, s, "a")
            predict(m, s, "b")
            model_to_json(m)
        ds.add(Transition(s, "a", s1))  # a repeat from a single-outcome state
        ds.add(Transition(s, "b", s2))  # a second outcome
        return u, caps, ds, old, build_models(caps, ds, u, old)

    def test_rebuilt_capability_gets_fresh_memo_and_kept_one_keeps_its_own(self):
        _, _, _, old, new = self._two_capability_refit()
        for o, n in zip(old, new):
            assert n.capabilities["a"] is o.capabilities["a"]
            assert n.capabilities["a"].memo is o.capabilities["a"].memo
            assert n.capabilities["a"].memo.predictions
            rebuilt = n.capabilities["b"]
            assert rebuilt is not o.capabilities["b"]
            assert rebuilt.memo is not o.capabilities["b"].memo
            assert rebuilt.memo.predictions == {} and rebuilt.memo.json is None

    def test_held_model_predicts_from_its_own_rules(self):
        u, _, _, old, new = self._two_capability_refit()
        s, s1, s2, s3 = (AbstractState(bits, 3) for bits in (0b000, 0b001, 0b010, 0b100))
        assert predict(old[0], s, "b") == {s1: 1.0}
        assert predict(new[0], s, "b") == {s1: 0.5, s2: 0.5}
        # A state first asked about after the refit: the old optimistic rule
        # still has its single outcome.
        assert predict(old[1], s3, "b") == {AbstractState(0b101, 3): 1.0}
        assert predict(new[1], s3, "b") == {AbstractState(0b101, 3): 0.5, AbstractState(0b110, 3): 0.5}
        assert model_to_json(old[0]) != model_to_json(new[0])

    def test_nothing_is_reused_from_another_dataset(self):
        u, caps, ds, _, new = self._two_capability_refit()
        copy = TransitionDataset.from_jsonl(ds.to_jsonl(u), u)
        again = build_models(caps, copy, u, new)
        for n, a in zip(new, again):
            assert n.capabilities == a.capabilities
            assert all(a.capabilities[name] is not cap for name, cap in n.capabilities.items())

    def test_replaced_capability_gets_a_fresh_memo(self):
        _, _, _, old, _ = self._two_capability_refit()
        cap = old[0].capabilities["a"]
        assert dataclasses.replace(cap).memo is not cap.memo


class TestEntailment:
    def test_soundness_and_completeness_on_random_datasets(self):
        rng = Random("sound-complete-unit")
        for trial in range(20):
            u = small_universe(rng.randint(2, 6))
            ds, caps = random_dataset(u, rng, caps=2, transitions=rng.randint(1, 25))
            m_pess, m_opt = build_models(caps, ds, u)
            for t in ds.counts:
                assert entails(m_pess, t), "pessimistic completeness"
                assert entails(m_opt, t), "optimistic completeness"
            for cap in caps:
                for s in u.all_states():
                    for s2 in entailed_successors(m_pess, s, cap.name):
                        assert Transition(s, cap.name, s2) in ds.counts, "soundness"

    def test_unaccepted_state_not_entailed(self):
        u = small_universe(3)
        ds = TransitionDataset()
        s = u.encode(["p0(a)"])
        ds.add(Transition(s, "c", s))
        m_pess, _ = build_models([_cap()], ds, u)
        other = u.encode(["p1(a)"])
        assert not entails(m_pess, Transition(other, "c", other))


class TestPredict:
    def test_self_loop_when_no_rule_accepts(self):
        u = small_universe(3)
        m_pess, _ = build_models([_cap()], TransitionDataset(), u)
        s = u.encode(["p1(a)"])
        assert predict(m_pess, s, "c") == {s: 1.0}
        assert predict(m_pess, s, "unknown-capability") == {s: 1.0}

    def test_three_outcome_rule_three_successors(self, vacuum_universe):
        u = vacuum_universe
        ds = TransitionDataset()
        s = u.encode(["has(robot,vacuum)", "charged(robot)"])
        effs = [
            (EffectPair(u.mask_of(["clean(l1)"]), u.mask_of(["charged(robot)"])), 2),
            (EffectPair(u.mask_of(["clean(l1)", "at(charger,robot)"]), 0), 1),
            (EffectPair(0, u.mask_of(["charged(robot)"])), 1),
        ]
        for eff, n in effs:
            ds.add(Transition(s, "c2", apply_effect(s, eff)), n)
        m_pess, _ = build_models([_cap("c2")], ds, u)
        dist = predict(m_pess, s, "c2")
        assert len(dist) == 3
        assert sorted(dist.values(), reverse=True) == [0.50, 0.25, 0.25]

    def test_colliding_effects_sum_mass(self):
        u = small_universe(2)
        s = u.encode([])
        target = u.encode(["p0(a)"])
        rule = ConditionalEffectRule(
            Condition.always(2),
            ((0.5, EffectPair(0b1, 0)), (0.5, EffectPair(0b1, 0b10))),
        )
        model = CapabilityModel(u, {"c": Capability("c", LiteralConjunction(1, 0), (rule,))}, "ground-truth")
        assert predict(model, s, "c") == {target: 1.0}


class TestEquivalence:
    def test_model_equivalent_to_itself(self):
        rng = Random("self-equiv")
        u = small_universe(4)
        ds, caps = random_dataset(u, rng, caps=2, transitions=20)
        m_pess, _ = build_models(caps, ds, u)
        assert equivalent(m_pess, m_pess, u.all_states())

    def test_full_injection_closes_the_gap(self):
        from caplearn.envs import vacuum_world
        from caplearn.evaluation import ground_truth_transitions

        b = vacuum_world(seed=3)
        truth = b.ground_truth
        states = list(b.universe.all_states())
        ds = TransitionDataset()
        for t in ground_truth_transitions(truth, states):
            ds.add(t)
        m_pess, m_opt = build_models(truth.capabilities.values(), ds, b.universe)
        assert equivalent(m_pess, m_opt, states)
        assert equivalent(m_pess, truth, states)

    def test_withholding_one_state_breaks_equivalence(self):
        u = small_universe(4)
        ds = TransitionDataset()
        s1, s2, s3 = u.encode(["p0(a)"]), u.encode(["p1(a)"]), u.encode(["p2(a)"])
        ds.add(Transition(s1, "c", apply_effect(s1, EffectPair(0b1000, 0))))
        ds.add(Transition(s2, "c", s2))
        # s3 never observed: optimistic generalizes to it, pessimistic will not
        m_pess, m_opt = build_models([_cap()], ds, u)
        assert not equivalent(m_pess, m_opt, [s3])

    def test_matches_brute_force_oracle_on_random_models(self):
        rng = Random("equiv-oracle")
        for _ in range(15):
            u = small_universe(3)
            ds1, caps = random_dataset(u, rng, caps=2, transitions=rng.randint(1, 12))
            ds2 = TransitionDataset()
            for t, n in ds1.counts.items():
                ds2.add(t, n)
            if rng.random() < 0.7:
                ds2.add(
                    Transition(random_state(u, rng), caps[0].name, random_state(u, rng))
                )
            ma, _ = build_models(caps, ds1, u)
            mb, _ = build_models(caps, ds2, u)
            assert equivalent(ma, mb, u.all_states()) == brute_force_equivalent(ma, mb, u)


class TestEntailsOracle:
    def test_matches_a_set_walk_over_every_accepting_rule(self):
        """General DNF rules, negated ones included; a state may be accepted by
        several rules, and each of them adds its successors."""
        rng = Random("entails-oracle")
        u = small_universe(4)
        negated = beyond_first = 0
        for _ in range(40):
            rules = [random_rule(u.num_atoms, rng) for _ in range(rng.randint(1, 4))]
            negated += sum(r.condition.negated for r in rules)
            model = rule_model(u, rules)
            for s in u.all_states():
                atoms = bits_to_index_set(s.bits)
                walks = [
                    {naive_apply(atoms, e) for _, e in r.effects}
                    for r in rules
                    if naive_satisfies(atoms, r.condition)
                ]
                oracle = set().union(*walks)
                beyond_first += bool(walks) and oracle != walks[0]
                for s2 in u.all_states():
                    t = Transition(s, RULE_CAP, s2)
                    assert entails(model, t) == (bits_to_index_set(s2.bits) in oracle)
        assert negated > 0 and beyond_first > 0


class TestMonotonicity:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_adding_transitions_never_removes_pessimistic_entailments(self, seed):
        rng = Random(seed)
        u = small_universe(4)
        ds, caps = random_dataset(u, rng, caps=2, transitions=10)
        m1, _ = build_models(caps, ds, u)
        entailed = [
            (s, c.name, s2)
            for c in caps
            for s in ds.observed_states(c.name)
            for s2 in entailed_successors(m1, s, c.name)
        ]
        ds.add(Transition(random_state(u, rng), caps[0].name, random_state(u, rng)))
        m2, _ = build_models(caps, ds, u)
        for s, c, s2 in entailed:
            assert entails(m2, Transition(s, c, s2))


class TestSerialization:
    def test_json_roundtrip_preserves_predictions(self, vacuum_universe):
        from caplearn.envs import vacuum_world

        truth = vacuum_world(seed=1).ground_truth
        text = model_to_json(truth)
        back = model_from_json(text)
        assert model_to_json(back) == text
        for s in truth.universe.all_states():
            for c in truth.capabilities:
                assert predict(back, s, c) == predict(truth, s, c)

    def test_compact_json_roundtrip_preserves_predictions(self):
        from caplearn.envs import road_world

        truth = road_world(seed=1).ground_truth
        text = model_to_json(truth, indent=None)
        assert "\n" not in text[:-1]
        back = model_from_json(text)
        assert model_to_json(back) == model_to_json(truth)
        n = truth.universe.num_atoms
        for s in (AbstractState(bits, n) for bits in range(0, 1 << n, 97)):
            for c in truth.capabilities:
                assert predict(back, s, c) == predict(truth, s, c)

    def test_text_export_lists_name_intent_condition_effects(self):
        from caplearn.envs import vacuum_world

        truth = vacuum_world(seed=1).ground_truth
        text = model_to_text(truth)
        assert "Capability Name: achieve__clean(l1)" in text
        assert "Intent: clean(l1)" in text
        assert "Condition:" in text
        assert "Effects:" in text
        assert "0.5000" in text


class TestMalformedModelFile:
    """`model_from_json` refuses a malformed file with `ConfigurationError`, naming the part."""

    @staticmethod
    def doc():
        from caplearn.envs import vacuum_world

        return json.loads(model_to_json(vacuum_world(seed=1).ground_truth))

    @pytest.mark.parametrize("universe", [[], "builtin", None, {"objects": {"robot": "agent"}}])
    def test_universe_not_a_predicate_and_object_map(self, universe):
        doc = self.doc()
        doc["universe"] = universe
        with pytest.raises(ConfigurationError, match="universe"):
            model_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field", ["intent pos", "intent neg", "clause pos", "clause neg",
                                       "effect add", "effect del"])
    def test_string_in_place_of_atom_list(self, field):
        doc = self.doc()
        cap = doc["capabilities"][0]
        rule = cap["rules"][0]
        part, key = field.split()
        place = {
            "intent": cap["intent"],
            "clause": rule["condition"]["clauses"][0],
            "effect": rule["effects"][0],
        }[part]
        place[key] = "clean(l1)"
        want = f"capability {cap['name']}: {field} must be a list of atom names, got 'clean(l1)'"
        with pytest.raises(ConfigurationError) as err:
            model_from_json(json.dumps(doc))
        assert str(err.value) == want
        universe = AtomUniverse(doc["universe"]["predicates"], doc["universe"]["objects"])
        with pytest.raises(ConfigurationError):
            model_from_json(json.dumps(doc), universe)


class TestIncrementalLoad:
    """`model_from_json(..., previous=m)` keeps m's capability objects for unchanged entries."""

    TARGET = "achieve__clean(l1)"

    def setup_method(self):
        from caplearn.envs import vacuum_world

        truth = vacuum_world(seed=1).ground_truth
        self.universe = truth.universe
        self.doc = json.loads(model_to_json(truth))

    def _load(self, doc, previous=None, universe=None):
        return model_from_json(json.dumps(doc), universe or self.universe, previous)

    def _entry(self, doc, name):
        return next(c for c in doc["capabilities"] if c["name"] == name)

    def test_unchanged_entries_give_the_same_objects(self, tmp_path):
        first = self._load(self.doc)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(self.doc))
        second = load_model(path, self.universe, previous=first)
        assert second.capabilities.keys() == first.capabilities.keys()
        assert all(second.capabilities[n] is cap for n, cap in first.capabilities.items())

    def test_compact_and_indented_text_of_one_model_share_objects(self):
        first = self._load(self.doc)
        text = model_to_json(first, indent=None)
        second = model_from_json(text, self.universe, first)
        assert all(second.capabilities[n] is cap for n, cap in first.capabilities.items())

    @pytest.mark.parametrize("change", ["effect_probability", "condition_clause", "intent"])
    def test_changed_entry_is_rebuilt(self, change):
        changed = copy.deepcopy(self.doc)
        entry = self._entry(changed, self.TARGET)
        if change == "effect_probability":
            effects = entry["rules"][0]["effects"]
            assert [e["p"] for e in effects] == [0.5, 0.25, 0.25]
            effects[0]["p"], effects[1]["p"] = 0.25, 0.5
        elif change == "condition_clause":
            clauses = entry["rules"][0]["condition"]["clauses"]
            assert len(clauses) == 2
            del clauses[1]
        else:
            entry["intent"] = {"pos": ["clean(l2)"], "neg": []}
        first = self._load(self.doc)
        second = self._load(changed, previous=first)
        fresh = self._load(changed)
        for name, cap in second.capabilities.items():
            assert cap == fresh.capabilities[name]
            assert (cap is first.capabilities[name]) == (name != self.TARGET)
        assert second.capabilities[self.TARGET] != first.capabilities[self.TARGET]

    def test_added_capability_is_built_and_the_rest_kept(self):
        fewer = copy.deepcopy(self.doc)
        fewer["capabilities"] = [c for c in fewer["capabilities"] if c["name"] != self.TARGET]
        first = self._load(fewer)
        second = self._load(self.doc, previous=first)
        assert second.capabilities[self.TARGET] == self._load(self.doc).capabilities[self.TARGET]
        assert all(second.capabilities[n] is cap for n, cap in first.capabilities.items())

    def test_removed_capability_is_dropped_and_the_rest_kept(self):
        fewer = copy.deepcopy(self.doc)
        fewer["capabilities"] = [c for c in fewer["capabilities"] if c["name"] != self.TARGET]
        first = self._load(self.doc)
        second = self._load(fewer, previous=first)
        assert self.TARGET not in second.capabilities
        assert len(second.capabilities) == len(first.capabilities) - 1
        assert all(cap is first.capabilities[n] for n, cap in second.capabilities.items())

    def test_other_universe_reuses_nothing(self):
        from caplearn.envs import vacuum_world

        first = self._load(self.doc)
        other = vacuum_world(seed=1).universe
        assert other is not self.universe
        for second in (
            self._load(self.doc, previous=first, universe=other),
            model_from_json(json.dumps(self.doc), None, first),
        ):
            assert second.capabilities == first.capabilities
            assert not any(second.capabilities[n] is cap for n, cap in first.capabilities.items())
