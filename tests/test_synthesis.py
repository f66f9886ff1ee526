import gc
import math
import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplearn import synthesis
from caplearn.abstraction import AbstractState, Condition, LiteralConjunction, literal_of
from caplearn.dataset import EffectPair, Transition, TransitionDataset
from caplearn.distributions import tv_distance
from caplearn.envs import road_world, stochastic_blocks, vacuum_world
from caplearn.evaluation import ground_truth_transitions, reachable_states
from caplearn.learner import LearnerConfig, run
from caplearn.model import (
    Capability,
    CapabilityModel,
    ConditionalEffectRule,
    build_models,
    equivalent,
    predict,
)
from caplearn.synthesis import (
    SequencePolicy,
    StatePolicy,
    SynthesisResult,
    random_policy_query,
    synthesize_exact,
    synthesize_sampled,
)
from .conftest import (
    RULE_CAP,
    draw,
    push_distribution,
    random_rule,
    random_state,
    rule_model,
    small_universe,
    uct_score,
)


class TestUctScore:
    def test_zero_log_numerator(self):
        assert uct_score(0.0, math.log(1), 1, math.sqrt(2)) == 0.0

    def test_zero_kappa_is_greedy(self):
        assert uct_score(0.7, math.log(50), 3, 0.0) == 0.7

    def test_formula_verbatim(self):
        got = uct_score(0.4, math.log(3), 2, 1.7)
        assert abs(got - (0.4 + 1.7 * math.sqrt(math.log(3) / 2))) <= 1e-12

    def test_worked_example_at_n_parent_e(self):
        # integer visit counts cannot hit N(s)=e, so evaluate the same formula
        # the implementation uses and check it reduces to Q + kappa there
        kappa = math.sqrt(2)
        manual = 0.4 + kappa * math.sqrt(math.log(math.e) / 1)
        assert abs(manual - (0.4 + kappa)) <= 1e-12

    def test_unvisited_edge_ranks_first(self):
        assert uct_score(1e9, math.log(100), 0, 1.0) == math.inf


class TestRandomPolicyQuery:
    def test_default_length_constant(self):
        from caplearn.learner import LearnerConfig

        assert LearnerConfig().random_policy_length == 30

    def test_single_capability_repeats(self):
        q = random_policy_query("x0", ["only"], 30, 5, Random(1))
        assert isinstance(q.policy, SequencePolicy)
        assert q.policy.sequence == ("only",) * 30
        assert q.n == 5

    def test_seeded_reproducibility(self):
        caps = ["a", "b", "c"]
        q1 = random_policy_query("x0", caps, 30, 1, Random("s"))
        q2 = random_policy_query("x0", caps, 30, 1, Random("s"))
        assert q1.policy.sequence == q2.policy.sequence

    def test_empty_capability_set_rejected(self):
        with pytest.raises(ValueError):
            random_policy_query("x0", [], 30, 1, Random(0))


def _point(state):
    return {state: 1.0}


def _withheld_vacuum_models(withhold_atoms=("has(robot,vacuum)", "charged(robot)")):
    """Models built from the full vacuum ground truth minus one state's data."""
    b = vacuum_world(seed=5)
    truth = b.ground_truth
    start = b.abstraction(b.simulator.reset())
    reach = sorted(reachable_states(truth, start), key=lambda s: s.bits)
    withheld = b.universe.encode(withhold_atoms)
    assert withheld in reach
    ds = TransitionDataset()
    for t in ground_truth_transitions(truth, reach):
        if t.s != withheld:
            ds.add(t)
    m_pess, m_opt = build_models(truth.capabilities.values(), ds, b.universe)
    return b, withheld, m_pess, m_opt


def brute_force_best_sequence_score(s0, m_pess, m_opt, depth):
    """Exhaustive search over capability sequences (the MDP is deterministic)."""
    caps = sorted(set(m_pess.capabilities) | set(m_opt.capabilities))
    best = 0.0
    frontier = [(_point(s0), _point(s0), 0.0)]
    for _ in range(depth):
        nxt = []
        for dp, do, acc in frontier:
            for c in caps:
                dp2 = push_distribution(dp, m_pess, c)
                do2 = push_distribution(do, m_opt, c)
                score = acc + tv_distance(dp2, do2)
                best = max(best, score)
                nxt.append((dp2, do2, score))
        frontier = nxt
    return best


class TestSynthesizeExact:
    def test_equivalent_models_score_zero(self):
        b = vacuum_world(seed=2)
        truth = b.ground_truth
        start = b.abstraction(b.simulator.reset())
        reach = sorted(reachable_states(truth, start), key=lambda s: s.bits)
        ds = TransitionDataset()
        for t in ground_truth_transitions(truth, reach):
            ds.add(t)
        m_pess, m_opt = build_models(truth.capabilities.values(), ds, b.universe)
        assert equivalent(m_pess, m_opt, reach)
        result = synthesize_exact(start, m_pess, m_opt, 200, math.sqrt(2), 4, Random(0))
        assert result.score == 0.0

    def test_zero_iterations_empty_policy(self):
        b, withheld, m_pess, m_opt = _withheld_vacuum_models()
        result = synthesize_exact(withheld, m_pess, m_opt, 0, 1.0, 4, Random(0))
        assert result.score == 0.0
        assert result.policy.mapping == ()

    def test_depth_one_score_is_one_step_tv(self):
        u = small_universe(3)
        s0, s1 = u.encode([]), u.encode(["p0(a)"])
        ds = TransitionDataset()
        ds.add(Transition(s1, "c", u.encode(["p0(a)", "p2(a)"])))
        cap = Capability("c", LiteralConjunction(1, 0))
        m_pess, m_opt = build_models([cap], ds, u)
        expected = tv_distance(
            push_distribution(_point(s0), m_pess, "c"),
            push_distribution(_point(s0), m_opt, "c"),
        )
        assert expected > 0.0
        result = synthesize_exact(s0, m_pess, m_opt, 50, math.sqrt(2), 1, Random(3))
        assert result.score == pytest.approx(expected)

    def test_routes_through_withheld_state(self):
        b, withheld, m_pess, m_opt = _withheld_vacuum_models()
        start = b.abstraction(b.simulator.reset())
        result = synthesize_exact(start, m_pess, m_opt, 800, math.sqrt(2), 3, Random(11))
        assert result.score > 0.0
        assert result.policy.mapping

    def test_root_score_matches_exhaustive_search_despite_pruning(self):
        b, withheld, m_pess, m_opt = _withheld_vacuum_models()
        start = b.abstraction(b.simulator.reset())
        for depth in (1, 2, 3):
            want = brute_force_best_sequence_score(start, m_pess, m_opt, depth)
            got = synthesize_exact(
                start, m_pess, m_opt, 4000, math.sqrt(2), depth, Random(7)
            ).score
            assert got == pytest.approx(want, abs=1e-9)

    def test_deterministic_under_seed(self):
        b, withheld, m_pess, m_opt = _withheld_vacuum_models()
        start = b.abstraction(b.simulator.reset())
        r1 = synthesize_exact(start, m_pess, m_opt, 300, 1.0, 3, Random("d"))
        r2 = synthesize_exact(start, m_pess, m_opt, 300, 1.0, 3, Random("d"))
        assert r1 == r2


def _toy_support_difference_models():
    """One capability; the two models disagree only in effect support at s0."""
    u = small_universe(4)
    s0 = u.encode([])
    cond = Condition((literal_of(s0),), u.num_atoms)
    eff_a = EffectPair(u.mask_of(["p0(a)"]), 0)
    eff_b = EffectPair(u.mask_of(["p1(a)"]), 0)
    eff_c = EffectPair(u.mask_of(["p2(a)"]), 0)
    intent = LiteralConjunction(1, 0)
    m1 = CapabilityModel(
        u,
        {"c": Capability("c", intent, (ConditionalEffectRule(cond, ((0.5, eff_a), (0.5, eff_b))),))},
        "pessimistic",
    )
    m2 = CapabilityModel(
        u,
        {"c": Capability("c", intent, (ConditionalEffectRule(cond, ((0.5, eff_b), (0.5, eff_c))),))},
        "optimistic",
    )
    return u, s0, m1, m2


class TestSynthesizeSampled:
    def test_equivalent_models_score_zero(self):
        b = vacuum_world(seed=2)
        truth = b.ground_truth
        start = b.abstraction(b.simulator.reset())
        reach = sorted(reachable_states(truth, start), key=lambda s: s.bits)
        ds = TransitionDataset()
        for t in ground_truth_transitions(truth, reach):
            ds.add(t)
        m_pess, m_opt = build_models(truth.capabilities.values(), ds, b.universe)
        result = synthesize_sampled(start, m_pess, m_opt, 500, math.sqrt(2), 4, Random(0))
        assert result.score == 0.0

    def test_root_q_converges_to_sd_reward(self):
        # Half the half/half mixture's mass lies on the symmetric difference
        # of the two one-step supports.
        u, s0, m1, m2 = _toy_support_difference_models()
        result = synthesize_sampled(s0, m1, m2, 10_000, math.sqrt(2), 1, Random(42))
        assert result.score == pytest.approx(0.5, abs=0.05)

    def test_steps_where_no_rule_accepts_earn_nothing(self):
        # The toy's rules accept only s0, so every successor keeps "c" as an
        # action: both models predict no change there and the step earns 0.
        u, s0, m1, m2 = _toy_support_difference_models()
        result = synthesize_sampled(s0, m1, m2, 4000, math.sqrt(2), 3, Random(5))
        successors = set(push_distribution(_point(s0), m1, "c")) | set(
            push_distribution(_point(s0), m2, "c")
        )
        assert result.policy.lookup(s0) == "c"
        assert {s for s in successors if result.policy.lookup(s) == "c"}
        assert set(dict(result.policy.mapping)) <= successors | {s0}
        assert result.score == pytest.approx(0.5, abs=0.05)

    def test_no_applicable_capability_gives_empty_policy(self):
        u = small_universe(3)
        s0 = u.encode([])
        m_pess, m_opt = build_models(
            [Capability("c", LiteralConjunction(1, 0))], TransitionDataset(), u
        )
        rng = Random(0)
        result = synthesize_sampled(s0, m_pess, m_opt, 100, 1.0, 3, rng)
        assert result == SynthesisResult(StatePolicy(()), 0.0)
        assert rng.getstate() == Random(0).getstate()

    def test_deterministic_under_seed(self):
        u, s0, m1, m2 = _toy_support_difference_models()
        r1 = synthesize_sampled(s0, m1, m2, 500, 1.0, 2, Random("s"))
        r2 = synthesize_sampled(s0, m1, m2, 500, 1.0, 2, Random("s"))
        assert r1 == r2


class _RefNode:
    def __init__(self, state, reward):
        self.state = state
        self.reward = reward
        self.children = {}
        self.n = 0
        self.n_edge = {}
        self.w_edge = {}
        self.q = {}
        self.value = reward


def _reference_synthesize_sampled(s0, m_pess, m_opt, iterations, kappa, depth, rng):
    """Sampled MCTS keyed by `AbstractState`, looking each step up through dicts.

    The tree and its statistics are dicts keyed by state and capability name;
    the actions are the capabilities with a rule in either model; each
    sampled step goes through the reference `draw` and each UCT choice
    through `uct_score`.
    """
    caps = sorted(set(m_pess.capabilities) | set(m_opt.capabilities))
    vc = [c for c in caps if m_pess.rules_for(c) or m_opt.rules_for(c)]
    if not vc or iterations <= 0:
        return SynthesisResult(StatePolicy(()), 0.0)
    step_cache = {}

    def sample_step(state, cap):
        got = step_cache.get((state, cap))
        if got is None:
            p1 = predict(m_pess, state, cap)
            p2 = predict(m_opt, state, cap)
            mix = {}
            for s2, p in p1.items():
                mix[s2] = mix.get(s2, 0.0) + 0.5 * p
            for s2, p in p2.items():
                mix[s2] = mix.get(s2, 0.0) + 0.5 * p
            ordered = sorted(mix.items(), key=lambda kv: kv[0].bits)
            got = step_cache[(state, cap)] = (ordered, frozenset(p1) ^ frozenset(p2))
        ordered, delta = got
        chosen = draw(ordered, rng.random())
        return chosen, (1.0 if chosen in delta else 0.0)

    def rollout_return(state, used_depth):
        ret = 0.0
        cur = state
        for _ in range(depth - used_depth):
            cur, r = sample_step(cur, rng.choice(vc))
            ret += r
        return ret

    root = _RefNode(s0, 0.0)
    all_nodes = [root]
    for _ in range(iterations):
        node = root
        path = []
        fresh = None
        while len(path) < depth:
            cap = None
            for c in vc:
                if node.n_edge.get(c, 0) == 0:
                    cap = c
                    break
            if cap is None:
                best = -math.inf
                log_n = math.log(node.n)
                for c in vc:
                    score = uct_score(node.q[c], log_n, node.n_edge[c], kappa)
                    if score > best:
                        best, cap = score, c
            s2, r = sample_step(node.state, cap)
            kids = node.children.setdefault(cap, {})
            child = kids.get(s2)
            if child is None:
                child = _RefNode(s2, r)
                kids[s2] = child
                all_nodes.append(child)
                path.append((node, cap, child))
                fresh = child
                break
            path.append((node, cap, child))
            node = child
        if fresh is not None:
            fresh.value = fresh.reward + rollout_return(fresh.state, len(path))
        for parent, cap, child in reversed(path):
            parent.n += 1
            parent.n_edge[cap] = parent.n_edge.get(cap, 0) + 1
            parent.w_edge[cap] = parent.w_edge.get(cap, 0.0) + child.value
            parent.q[cap] = parent.reward + parent.w_edge[cap] / parent.n_edge[cap]
            parent.value = max(parent.q.values())

    score = root.value if root.q else 0.0
    pooled = {}
    for nd in all_nodes:
        per_state = pooled.setdefault(nd.state, {})
        for c, n_e in nd.n_edge.items():
            n0, w0 = per_state.get(c, (0, 0.0))
            per_state[c] = (n0 + n_e, w0 + nd.w_edge[c])
    mapping = {
        state: min(stats, key=lambda c: (-(stats[c][1] / stats[c][0]), c))
        for state, stats in pooled.items()
        if stats
    }
    return SynthesisResult(StatePolicy.from_dict(mapping), score)


_LEARNERS = {"vacuum": vacuum_world, "roads": road_world, "blocks": stochastic_blocks}


@pytest.fixture(scope="module")
def learned_pairs():
    """(env, seed) -> (start states, model pairs) from short sampled `learner.run`s.

    A pair is rebuilt from the hook's model and dataset at query 2 and at the
    last query; the starts are the reset state and a spread of observed states.
    """
    cache = {}

    def get(env, seed):
        if (env, seed) not in cache:
            bundle = _LEARNERS[env](seed=seed)
            pairs = []

            def hook(idx, model, log, dataset):
                if idx in (2, 11):
                    pairs.append(build_models(model.capabilities.values(), dataset, model.universe))

            run(LearnerConfig(variant="sampled", mcts_iterations=60, depth=4, max_queries=12,
                              runs_per_query=5, seed=seed), bundle, checkpoint_hook=hook)
            assert len(pairs) == 2
            last = pairs[-1][0]
            observed = sorted(
                {s for c in last.capabilities for s in _observed(last, c)}, key=lambda s: s.bits
            )
            spread = observed[:: max(1, len(observed) // 3)][:3]
            starts = [bundle.abstraction(bundle.simulator.reset())] + spread
            cache[env, seed] = (starts, pairs)
        return cache[env, seed]

    return get


def _observed(model, capability):
    """States named by the full-literal clauses of the capability's pessimistic rules."""
    return [
        AbstractState(cl.positives, model.universe.num_atoms)
        for r in model.rules_for(capability)
        for cl in r.condition.clauses
    ]


def _assert_same_as_reference(s0, m_pess, m_opt, iterations, kappa, depth, seed):
    rng_new, rng_ref = Random(seed), Random(seed)
    got = synthesize_sampled(s0, m_pess, m_opt, iterations, kappa, depth, rng_new)
    want = _reference_synthesize_sampled(s0, m_pess, m_opt, iterations, kappa, depth, rng_ref)
    assert got.policy.mapping == want.policy.mapping
    assert got.score == want.score
    assert rng_new.getstate() == rng_ref.getstate()
    return got


def _always_applicable_models(k, num_atoms=5):
    """k capabilities that fire in every state; the models disagree on every one."""
    u = small_universe(num_atoms)
    always = Condition.always(u.num_atoms)
    intent = LiteralConjunction(1, 0)
    pess, opt = {}, {}
    for i in range(k):
        name = f"c{i:02d}"
        bit = [1 << (i + d) % num_atoms for d in range(3)]
        move = EffectPair(bit[0], bit[1])
        pess[name] = Capability(name, intent, (ConditionalEffectRule(always, ((1.0, move),)),))
        opt[name] = Capability(name, intent, (
            ConditionalEffectRule(always, ((0.5, move), (0.5, EffectPair(bit[2], 0)))),
        ))
    return u, u.encode([]), CapabilityModel(u, pess, "pessimistic"), CapabilityModel(u, opt, "optimistic")


def _falling_best_edge_models():
    """Two noisy capabilities whose running means keep overtaking each other.

    From the empty state, `a` earns reward 1 with probability 0.5 and `b`
    with probability 0.2, so the edge holding a node's best Q often falls.
    """
    u = small_universe(5)
    always = Condition.always(u.num_atoms)
    intent = LiteralConjunction(1, 0)
    p = [EffectPair(1 << i, 0) for i in range(5)]

    def model(a_effects, b_effects, flavor):
        return CapabilityModel(u, {
            "a": Capability("a", intent, (ConditionalEffectRule(always, a_effects),)),
            "b": Capability("b", intent, (ConditionalEffectRule(always, b_effects),)),
        }, flavor)

    m_pess = model(((0.5, p[0]), (0.5, p[1])), ((1.0, p[3]),), "pessimistic")
    m_opt = model(((0.5, p[0]), (0.5, p[2])), ((0.6, p[3]), (0.4, p[4])), "optimistic")
    return u, u.encode([]), m_pess, m_opt


def _deep_disagreement_models(k):
    """k capabilities that climb a chain of 3 steps; only `c00` at its top disagrees.

    Each capability adds the next chain atom (p0, p1, p2) in both models.
    At the top, `c00` adds p3 in the pessimistic model and p3 or p4 (half
    each) in the optimistic one; every other step is a no change. So the
    only reward lies 3 steps from s0, and nodes on the chain keep the value
    0.0 until a path reaches the top and draws the optimistic successor.
    """
    u = small_universe(5)
    bit = [u.mask_of([f"p{i}(a)"]) for i in range(5)]
    chain = [u.encode([f"p{i}(a)" for i in range(j)]) for j in range(4)]
    climb = tuple(
        ConditionalEffectRule(Condition((literal_of(s),), u.num_atoms), ((1.0, EffectPair(bit[j], 0)),))
        for j, s in enumerate(chain[:3])
    )
    top = Condition((literal_of(chain[3]),), u.num_atoms)
    split = {
        "pessimistic": ((1.0, EffectPair(bit[3], 0)),),
        "optimistic": ((0.5, EffectPair(bit[3], 0)), (0.5, EffectPair(bit[4], 0))),
    }
    intent = LiteralConjunction(1, 0)

    def model(flavor):
        caps = {f"c{i:02d}": Capability(f"c{i:02d}", intent, climb) for i in range(1, k)}
        caps["c00"] = Capability("c00", intent, climb + (ConditionalEffectRule(top, split[flavor]),))
        return CapabilityModel(u, caps, flavor)

    return u, chain[0], model("pessimistic"), model("optimistic")


def _guard_threshold(iterations):
    """The least kappa `_exploration_falls` accepts for `iterations`.

    It lies within a few ulps of `float_info.min / sqrt(log 2 / (iterations + 1))`.
    """
    kappa = sys.float_info.min / math.sqrt(math.log(2) / (iterations + 1))
    for _ in range(8):
        kappa = math.nextafter(kappa, 0.0)
    for _ in range(16):
        above = math.nextafter(kappa, math.inf)
        if not synthesis._exploration_falls(kappa, iterations) and synthesis._exploration_falls(
            above, iterations
        ):
            return above
        kappa = above
    raise AssertionError("no threshold near the expected one")


class TestSynthesizeSampledReference:
    @pytest.mark.parametrize("depth", [1, 2, 6])
    @pytest.mark.parametrize("run", [1, 2])
    def test_toy_support_difference_models(self, depth, run):
        u, s0, m1, m2 = _toy_support_difference_models()
        got = _assert_same_as_reference(s0, m1, m2, 300, math.sqrt(2), depth, f"toy{depth}/{run}")
        assert got.score > 0.0

    @pytest.mark.parametrize("env,seed", [
        ("vacuum", 0), ("vacuum", 1), ("roads", 0), ("roads", 1), ("roads", 2),
        ("blocks", 0), ("blocks", 1),
    ])
    def test_learned_model_pairs(self, learned_pairs, env, seed):
        starts, pairs = learned_pairs(env, seed)
        scored = 0
        for m_pess, m_opt in pairs:
            for k, s0 in enumerate(starts):
                for depth in (1, 6):
                    got = _assert_same_as_reference(
                        s0, m_pess, m_opt, 150, math.sqrt(2), depth, f"{env}/{seed}/{k}/{depth}"
                    )
                    scored += got.score > 0.0
        assert scored  # some searches found a distinguishing step

    def test_greedy_kappa_and_few_iterations(self, learned_pairs):
        starts, pairs = learned_pairs("roads", 0)
        for m_pess, m_opt in pairs:
            for iterations in (1, 2, 7):
                _assert_same_as_reference(starts[0], m_pess, m_opt, iterations, 0.0, 6, "g")

    def test_no_applicable_capability(self):
        u = small_universe(3)
        s0 = u.encode([])
        m_pess, m_opt = build_models(
            [Capability("c", LiteralConjunction(1, 0))], TransitionDataset(), u
        )
        got = _assert_same_as_reference(s0, m_pess, m_opt, 100, 1.0, 3, 0)
        assert got == SynthesisResult(StatePolicy(()), 0.0)

    @pytest.mark.parametrize("env", ["vacuum", "roads", "blocks"])
    @pytest.mark.parametrize("kappa", [0.0, 5e-324, 1e-300, 0.3, math.sqrt(2), 1e6])
    def test_kappa_range(self, learned_pairs, env, kappa):
        # kappa 0 and the subnormal kappa make the exploration terms of
        # neighbouring visit counts round to the same float.
        starts, pairs = learned_pairs(env, 0)
        for m_pess, m_opt in pairs:
            for k, s0 in enumerate(starts):
                _assert_same_as_reference(s0, m_pess, m_opt, 400, kappa, 6, f"{kappa}/{k}")

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 17, 33])
    def test_rollout_capability_draws(self, k):
        # k = 1, 3, 17 and 33 make the rollout's draw reject values >= k.
        u, s0, m1, m2 = _always_applicable_models(k)
        for depth in (6, 12):
            got = _assert_same_as_reference(s0, m1, m2, 300, math.sqrt(2), depth, f"k{k}")
            assert got.score > 0.0

    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("kappa", [0.0, 0.3, math.sqrt(2)])
    def test_best_edge_mean_falls(self, depth, kappa):
        u, s0, m1, m2 = _falling_best_edge_models()
        for seed in range(3):
            got = _assert_same_as_reference(s0, m1, m2, 200, kappa, depth, seed)
            assert got.score > 0.0

    @pytest.mark.parametrize("k", [1, 2, 17, 22])
    def test_disagreement_three_steps_deep(self, k):
        # A run of k iterations is the first k iterations of a longer run
        # under the same seed, so a 0.0 score there means the root passed its
        # first k visits at value 0.0; the longer run's score is its later,
        # positive value.
        u, s0, m1, m2 = _deep_disagreement_models(k)
        zero_after_k = 0
        for seed in range(3):
            early = _assert_same_as_reference(s0, m1, m2, k, math.sqrt(2), 6, f"deep{k}/{seed}")
            zero_after_k += early.score == 0.0
            got = _assert_same_as_reference(s0, m1, m2, 600, math.sqrt(2), 6, f"deep{k}/{seed}")
            assert got.score > 0.0
        assert zero_after_k

    @pytest.mark.parametrize("env", ["roads", "blocks"])
    def test_kappa_that_absorbs_q(self, learned_pairs, env):
        # At kappa 1e300 each q vanishes in `q + kappa * sqrt(log N / n)`, so
        # positive-Q and zero-Q edges with equal counts tie on score.
        starts, pairs = learned_pairs(env, 0)
        for m_pess, m_opt in pairs:
            for k, s0 in enumerate(starts):
                _assert_same_as_reference(s0, m_pess, m_opt, 400, 1e300, 6, f"absorb/{k}")
        u, s0, m1, m2 = _deep_disagreement_models(17)
        _assert_same_as_reference(s0, m1, m2, 600, 1e300, 6, "absorb/deep")

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_learned_roads_pairs_at_benchmark_settings(self, learned_pairs, seed):
        # The roads-sampled benchmark searches with 600 iterations, depth 6
        # and kappa sqrt(2).
        starts, pairs = learned_pairs("roads", seed)
        for m_pess, m_opt in pairs:
            for k, s0 in enumerate(starts):
                _assert_same_as_reference(s0, m_pess, m_opt, 600, math.sqrt(2), 6, f"b{seed}/{k}")

    def test_guard_implies_strictly_falling_exploration_terms(self):
        # N = 1 is left out: log(1) is 0, but a node makes a choice at N = 1
        # after its first visit only when there is one capability.
        threshold = _guard_threshold(300)
        kappas = [0.0, 5e-324, 1e-300, 0.3, math.sqrt(2), 1e6, 1e308]
        kappas += [threshold, math.nextafter(threshold, 0.0)]
        accepted = []
        for kappa in kappas:
            if not synthesis._exploration_falls(kappa, 300):
                continue
            accepted.append(kappa)
            for big_n in range(2, 301):
                log_n = math.log(big_n)
                terms = [kappa * math.sqrt(log_n / c) for c in range(1, big_n + 2)]
                assert all(a > b for a, b in zip(terms, terms[1:])), (kappa, big_n)
        assert accepted == [1e-300, 0.3, math.sqrt(2), 1e6, threshold]

    @pytest.mark.parametrize("side", ["above", "below", "overflowing"])
    def test_kappas_at_the_guard_threshold(self, learned_pairs, side):
        threshold = _guard_threshold(300)
        kappa = {"above": threshold, "below": math.nextafter(threshold, 0.0), "overflowing": 1e308}
        starts, pairs = learned_pairs("roads", 0)
        for m_pess, m_opt in pairs:
            for k, s0 in enumerate(starts):
                _assert_same_as_reference(s0, m_pess, m_opt, 300, kappa[side], 6, f"{side}/{k}")

    def test_call_leaves_no_reference_cycles(self, learned_pairs):
        # Garbage in cycles waits for the collector and raises peak memory.
        starts, pairs = learned_pairs("roads", 0)
        m_pess, m_opt = pairs[-1]
        gc.collect()
        gc.disable()
        try:
            for s0 in starts:
                synthesize_sampled(s0, m_pess, m_opt, 300, math.sqrt(2), 6, Random(3))
                assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("env", ["roads", "blocks"])
    def test_predict_once_per_model_state_and_capability(self, learned_pairs, env, monkeypatch):
        starts, pairs = learned_pairs(env, 0)
        m_pess, m_opt = pairs[-1]
        calls: dict[tuple[str, int, str], int] = {}

        def counting_predict(model, state, capability):
            key = (model.flavor, state.bits, capability)
            calls[key] = calls.get(key, 0) + 1
            return predict(model, state, capability)

        monkeypatch.setattr(synthesis, "predict", counting_predict)
        for s0 in starts:
            calls.clear()
            synthesize_sampled(s0, m_pess, m_opt, 300, math.sqrt(2), 6, Random(1))
            assert calls
            assert max(calls.values()) == 1


class _RefDistNode:
    __slots__ = ("dist_p", "dist_o", "reward", "children", "untried", "n", "n_edge", "q", "value")

    def __init__(self, dist_p, dist_o, caps):
        self.dist_p = dist_p
        self.dist_o = dist_o
        self.reward = tv_distance(dist_p, dist_o)
        self.children = {}
        self.untried = list(caps)
        self.n = 0
        self.n_edge = {}
        self.q = {}
        self.value = self.reward


def _reference_synthesize_exact(s0, m_pess, m_opt, iterations, kappa, depth, rng):
    """Exact MCTS pushing each side through the reference `push_distribution`.

    Every child, rollout step and reward is computed afresh from `predict`,
    each UCT choice goes through `uct_score`, each rollout capability
    through `rng.choice`, and every backup recomputes `max(q)`.
    """
    caps = sorted(set(m_pess.capabilities) | set(m_opt.capabilities))
    if not caps or iterations <= 0:
        return SynthesisResult(StatePolicy(()), 0.0)
    root = _RefDistNode({s0: 1.0}, {s0: 1.0}, caps)
    seen_supports = {(frozenset(root.dist_p), frozenset(root.dist_o))}

    def rollout_value(node, used_depth):
        total = 0.0
        for _ in range(synthesis.EXACT_ROLLOUTS):
            ret = node.reward
            dp, do = node.dist_p, node.dist_o
            for _ in range(depth - used_depth):
                cap = rng.choice(caps)
                dp = push_distribution(dp, m_pess, cap)
                do = push_distribution(do, m_opt, cap)
                ret += tv_distance(dp, do)
            total += ret
        return total / synthesis.EXACT_ROLLOUTS

    for _ in range(iterations):
        node = root
        path = []
        fresh = None
        while len(path) < depth:
            for _ in range(synthesis.EXPAND_PER_VISIT):
                if not node.untried:
                    break
                cap = node.untried.pop(0)
                child_p = push_distribution(node.dist_p, m_pess, cap)
                child_o = push_distribution(node.dist_o, m_opt, cap)
                key = (frozenset(child_p), frozenset(child_o))
                if key in seen_supports:
                    continue
                seen_supports.add(key)
                node.children[cap] = _RefDistNode(child_p, child_o, caps)
                node.n_edge[cap] = 0
            if not node.children:
                break
            best_cap = None
            best = -math.inf
            log_n = math.log(max(node.n, 1))
            for cap in node.children:
                score = uct_score(node.q.get(cap, 0.0), log_n, node.n_edge[cap], kappa)
                if score > best:
                    best, best_cap = score, cap
            child = node.children[best_cap]
            path.append((node, best_cap, child))
            if node.n_edge[best_cap] == 0:
                fresh = child
                break
            node = child
        if fresh is not None:
            fresh.value = rollout_value(fresh, len(path))
        for parent, cap, child in reversed(path):
            parent.n += 1
            parent.n_edge[cap] += 1
            parent.q[cap] = parent.reward + child.value
            parent.value = max(parent.q.values())

    score = root.value if root.q else 0.0
    mapping = {}
    node = root
    for _ in range(depth):
        visited = {c: q for c, q in node.q.items() if node.n_edge.get(c, 0) > 0}
        if not visited:
            break
        best_cap = min(visited, key=lambda c: (-visited[c], c))
        for s in node.dist_p.keys() | node.dist_o.keys():
            mapping.setdefault(s, best_cap)
        node = node.children[best_cap]
    return SynthesisResult(StatePolicy.from_dict(mapping), score)


def _assert_exact_same_as_reference(s0, m_pess, m_opt, iterations, kappa, depth, seed):
    rng_new, rng_ref = Random(seed), Random(seed)
    got = synthesize_exact(s0, m_pess, m_opt, iterations, kappa, depth, rng_new)
    want = _reference_synthesize_exact(s0, m_pess, m_opt, iterations, kappa, depth, rng_ref)
    assert got.policy.mapping == want.policy.mapping
    assert got.score == want.score
    assert rng_new.getstate() == rng_ref.getstate()
    return got


class TestSynthesizeExactReference:
    @pytest.mark.parametrize("depth", [1, 2, 6])
    @pytest.mark.parametrize("kappa", [0.0, 0.3, math.sqrt(2)])
    def test_toy_pairs(self, depth, kappa):
        toys = [_toy_support_difference_models(), _falling_best_edge_models(),
                _always_applicable_models(3), _always_applicable_models(17)]
        for t, (u, s0, m1, m2) in enumerate(toys):
            for seed in range(2):
                _assert_exact_same_as_reference(s0, m1, m2, 120, kappa, depth, f"{t}/{seed}")

    def test_withheld_vacuum_pair(self):
        b, withheld, m_pess, m_opt = _withheld_vacuum_models()
        start = b.abstraction(b.simulator.reset())
        for s0 in (start, withheld):
            for depth in (1, 3, 6):
                got = _assert_exact_same_as_reference(s0, m_pess, m_opt, 300, math.sqrt(2), depth, depth)
        assert got.score > 0.0

    @pytest.mark.parametrize("env,seed", [
        ("vacuum", 0), ("vacuum", 1), ("roads", 0), ("roads", 1), ("blocks", 0), ("blocks", 1),
    ])
    def test_learned_model_pairs(self, learned_pairs, env, seed):
        starts, pairs = learned_pairs(env, seed)
        scored = 0
        for m_pess, m_opt in pairs:
            for k, s0 in enumerate(starts):
                for depth in (1, 4):
                    got = _assert_exact_same_as_reference(
                        s0, m_pess, m_opt, 60, math.sqrt(2), depth, f"{env}/{seed}/{k}/{depth}"
                    )
                    scored += got.score > 0.0
        assert scored

    @pytest.mark.parametrize("env", ["vacuum", "roads", "blocks"])
    @pytest.mark.parametrize("kappa", [0.0, 5e-324, 0.3, 1e6])
    def test_kappa_range(self, learned_pairs, env, kappa):
        starts, pairs = learned_pairs(env, 0)
        m_pess, m_opt = pairs[-1]
        for k, s0 in enumerate(starts[:2]):
            _assert_exact_same_as_reference(s0, m_pess, m_opt, 80, kappa, 3, f"{kappa}/{k}")

    def test_few_iterations(self, learned_pairs):
        starts, pairs = learned_pairs("roads", 0)
        for m_pess, m_opt in pairs:
            for iterations in (1, 2, 7):
                _assert_exact_same_as_reference(starts[0], m_pess, m_opt, iterations, 0.0, 6, "f")

    @pytest.mark.parametrize("env", ["roads", "blocks"])
    def test_predict_once_per_model_state_and_capability(self, learned_pairs, env, monkeypatch):
        starts, pairs = learned_pairs(env, 0)
        m_pess, m_opt = pairs[-1]
        calls: dict[tuple[str, int, str], int] = {}

        def counting_predict(model, state, capability):
            key = (model.flavor, state.bits, capability)
            calls[key] = calls.get(key, 0) + 1
            return predict(model, state, capability)

        monkeypatch.setattr(synthesis, "predict", counting_predict)
        for s0 in starts:
            calls.clear()
            synthesize_exact(s0, m_pess, m_opt, 100, math.sqrt(2), 4, Random(1))
            assert calls
            assert max(calls.values()) == 1


def _partly_shared_pair(seed):
    """A random pair over one capability that agrees on some states only.

    The optimistic model puts one extra rule first; the states its condition
    accepts may get a different successor distribution.
    """
    rng = Random(seed)
    u = small_universe(rng.randint(2, 6))
    rules = tuple(random_rule(u.num_atoms, rng) for _ in range(rng.randint(1, 3)))
    extra = random_rule(u.num_atoms, rng)
    return u, rng, rule_model(u, rules), rule_model(u, (extra,) + rules)


def _random_distribution(u, rng):
    dist = {}
    for _ in range(rng.randint(1, 6)):
        dist[random_state(u, rng)] = rng.random() + 0.01
    return dist


class TestPairPush:
    @given(st.integers(0, 10**9), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_equals_two_reference_pushes(self, seed, one_dict):
        u, rng, m_pess, m_opt = _partly_shared_pair(seed)
        table = synthesis._PairTable(m_pess, m_opt, RULE_CAP)
        dp = _random_distribution(u, rng)
        do = dp if one_dict else dict(reversed(_random_distribution(u, rng).items()))
        for _ in range(4):
            got_p, got_o = table.push_pair(dp, do)
            want_p = push_distribution(dp, m_pess, RULE_CAP)
            want_o = push_distribution(do, m_opt, RULE_CAP)
            assert list(got_p.items()) == list(want_p.items())
            assert list(got_o.items()) == list(want_o.items())
            shared = all(predict(m_pess, s, RULE_CAP) == predict(m_opt, s, RULE_CAP)
                         and list(predict(m_pess, s, RULE_CAP)) == list(predict(m_opt, s, RULE_CAP))
                         for s in dp)
            assert (got_p is got_o) == (dp is do and shared)
            dp, do = got_p, got_o

    def test_partly_shared_pairs_occur(self):
        # The generator above must reach both outcomes of the shared check.
        outcomes = set()
        for seed in range(200):
            u, rng, m_pess, m_opt = _partly_shared_pair(seed)
            table = synthesis._PairTable(m_pess, m_opt, RULE_CAP)
            dist = _random_distribution(u, rng)
            flags = {table.entry(s)[2] for s in dist}
            outcomes.add(frozenset(flags))
        assert frozenset({True, False}) in outcomes


class TestPolicyTypes:
    def test_state_policy_lookup(self):
        u = small_universe(2)
        s = u.encode(["p0(a)"])
        p = StatePolicy.from_dict({s: "cap"})
        assert p.lookup(s) == "cap"
        assert p.lookup(u.encode([])) is None
