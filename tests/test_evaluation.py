import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import caplearn
from caplearn import evaluation
from caplearn.abstraction import Condition, LiteralConjunction
from caplearn.dataset import EffectPair, Transition, TransitionDataset
from caplearn.envs import road_world, vacuum_world
from caplearn.evaluation import (
    EvalConfig,
    evaluation_filter,
    exact_vd,
    generate_eval_dataset,
    ground_truth_transitions,
    model_replay,
    reachable_states,
    sampled_vd,
)
from caplearn.learner import LearnerConfig, run, run_capability
from caplearn.model import (
    Capability,
    CapabilityModel,
    ConditionalEffectRule,
    predict,
)
from .conftest import draw, random_dataset, small_universe


def _ds(universe, triples):
    ds = TransitionDataset()
    for s, c, s2, n in triples:
        ds.add(Transition(universe.encode(s), c, universe.encode(s2)), n)
    return ds


class TestSampledVd:
    def test_identical_datasets_zero(self):
        u = small_universe(3)
        ds = _ds(u, [(["p0(a)"], "c", ["p1(a)"], 3), ([], "c", [], 2)])
        assert sampled_vd(ds, ds) == 0.0

    def test_disjoint_successors_give_one(self):
        u = small_universe(3)
        agent = _ds(u, [([], "c", ["p0(a)"], 1)])
        model = _ds(u, [([], "c", ["p1(a)"], 1)])
        assert abs(sampled_vd(agent, model) - 1.0) <= 1e-12

    def test_worked_ratio_example(self):
        u = small_universe(3)
        agent = _ds(u, [([], "c", ["p0(a)"], 3), ([], "c", ["p1(a)"], 1)])
        model = _ds(u, [([], "c", ["p0(a)"], 2), ([], "c", ["p1(a)"], 2)])
        assert abs(sampled_vd(agent, model) - 0.25) <= 1e-12

    def test_both_empty_defined_zero(self):
        assert sampled_vd(TransitionDataset(), TransitionDataset()) == 0.0

    def test_symmetry_on_random_datasets(self):
        rng = Random("vd-sym")
        u = small_universe(4)
        for _ in range(20):
            d1, _ = random_dataset(u, rng, caps=2, transitions=rng.randint(0, 15))
            d2, _ = random_dataset(u, rng, caps=2, transitions=rng.randint(0, 15))
            assert sampled_vd(d1, d2) == pytest.approx(sampled_vd(d2, d1))
            assert sampled_vd(d1, d1) == 0.0

    def test_same_value_under_any_string_hash_seed(self):
        # Transition hashes include the capability string, so set order and
        # a naive sum's rounding would change with PYTHONHASHSEED.
        code = """
from random import Random
from caplearn import AbstractState, Transition, TransitionDataset, sampled_vd
rng = Random(7)
pair = []
for _ in range(2):
    ds = TransitionDataset()
    for _ in range(300):
        s, s2 = (AbstractState(rng.randrange(16), 4) for _ in range(2))
        ds.add(Transition(s, f"cap{rng.randrange(5)}", s2), rng.randint(1, 7))
    pair.append(ds)
print(repr(sampled_vd(*pair)))
"""
        src = str(Path(caplearn.__file__).resolve().parent.parent)
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True, timeout=120,
            ).stdout
            for seed in ("1", "2")
        ]
        assert outputs[0] == outputs[1]


class TestModelReplay:
    def test_deterministic_model_replays_exactly(self):
        u = small_universe(3)
        s0, s1 = u.encode([]), u.encode(["p0(a)"])
        rule = ConditionalEffectRule(
            Condition.always(3), ((1.0, EffectPair(u.mask_of(["p0(a)"]), 0)),)
        )
        model = CapabilityModel(u, {"c": Capability("c", LiteralConjunction(1, 0), (rule,))}, "x")
        ds = model_replay(model, [["c", "c"]] * 4, s0, seed=1)
        assert ds.counts[Transition(s0, "c", s1)] == 4
        assert ds.counts[Transition(s1, "c", s1)] == 4

    def test_empty_model_self_loops(self):
        u = small_universe(3)
        s0 = u.encode([])
        model = CapabilityModel(u, {}, "x")
        ds = model_replay(model, [["c", "d"]], s0, seed=0)
        assert set(ds.counts) == {Transition(s0, "c", s0), Transition(s0, "d", s0)}

    def test_ground_truth_replay_close_to_agent(self):
        b = vacuum_world(seed="replay")
        truth = b.ground_truth
        caps = {n: truth.capabilities[n] for n in truth.capabilities}
        cfg = EvalConfig(episodes=1000, min_len=10, max_len=30, seed=17)
        agent_ds, sequences = generate_eval_dataset(b, caps, cfg)
        start = b.abstraction(b.simulator.reset())
        model_ds = model_replay(truth, sequences, start, seed=17)
        assert sampled_vd(agent_ds, model_ds) < 0.05


def _per_step_replay(model, sequences, start, seed):
    """Reference replay: look up, sort, draw and record on every step."""
    rng = Random(f"{seed}/replay")
    dataset = TransitionDataset()
    for seq in sequences:
        s = start
        for cap_name in seq:
            dist = predict(model, s, cap_name)
            s2 = draw(sorted(dist.items(), key=lambda kv: kv[0].bits), rng.random())
            dataset.add(Transition(s, cap_name, s2))
            s = s2
    return dataset


@pytest.fixture(scope="module")
def roads_replay_case():
    """Roads start state, random sequences over its capabilities, and three models."""
    bundle = road_world(seed=0)
    truth = bundle.ground_truth
    start = bundle.abstraction(bundle.simulator.reset())
    learned, _ = run(
        LearnerConfig(variant="exact", mcts_iterations=50, depth=4, max_queries=20,
                      runs_per_query=10, seed=0),
        road_world(seed=0),
    )
    learned = evaluation_filter(learned)
    rng = Random("replay-sequences")
    names = sorted(truth.capabilities)
    sequences = [
        [rng.choice(names) for _ in range(rng.randint(10, 30))] for _ in range(300)
    ]
    models = {
        "truth": truth,
        "learned": learned,
        "empty": CapabilityModel(bundle.universe, {}, "pessimistic"),
    }
    return start, sequences, models


class TestModelReplayTable:
    @pytest.mark.parametrize("which", ["truth", "learned", "empty"])
    @pytest.mark.parametrize("seed", [0, 1, 17, "x"])
    def test_counts_equal_per_step_replay(self, roads_replay_case, which, seed):
        start, sequences, models = roads_replay_case
        model = models[which]
        got = model_replay(model, sequences, start, seed=seed)
        want = _per_step_replay(model, sequences, start, seed)
        assert got.counts == want.counts

    @pytest.mark.parametrize("which", ["truth", "learned"])
    def test_counts_in_first_visit_order(self, roads_replay_case, which):
        """Transitions come grouped by (state, capability) in first-visit order,
        each group's successors in bit order."""
        start, sequences, models = roads_replay_case
        got = model_replay(models[which], sequences, start, seed=5)
        rank: dict = {}
        for t in _per_step_replay(models[which], sequences, start, 5).counts:
            rank.setdefault((t.s, t.c), len(rank))
        assert list(got.counts) == sorted(
            got.counts, key=lambda t: (rank[(t.s, t.c)], t.s_next.bits)
        )

    def test_learned_model_has_stochastic_drive_rules(self, roads_replay_case):
        start, _, models = roads_replay_case
        learned, truth = models["learned"], models["truth"]
        drives = [c for c in learned.capabilities if c.startswith("achieve__at(")]
        assert any(
            len(predict(learned, s, c)) > 1
            for s in reachable_states(truth, start)
            for c in drives
        )

    @pytest.mark.parametrize("which", ["truth", "learned", "empty"])
    def test_predict_once_per_state_and_capability(self, roads_replay_case, which, monkeypatch):
        start, sequences, models = roads_replay_case
        calls: dict[tuple[int, str], int] = {}

        def counting_predict(model, state, capability):
            key = (state.bits, capability)
            calls[key] = calls.get(key, 0) + 1
            return predict(model, state, capability)

        monkeypatch.setattr(evaluation, "predict", counting_predict)
        model_replay(models[which], sequences, start, seed=3)
        assert calls
        assert max(calls.values()) == 1


class TestExactVd:
    def test_truth_against_itself_zero(self):
        b = vacuum_world(seed=1)
        truth = b.ground_truth
        start = b.abstraction(b.simulator.reset())
        reach = sorted(reachable_states(truth, start), key=lambda s: s.bits)
        trans = ground_truth_transitions(truth, reach)
        assert exact_vd(truth, truth, trans) == 0.0

    def test_missing_outcome_renormalization_by_hand(self):
        u = small_universe(3)
        s = u.encode([])
        e1, e2, e3 = EffectPair(0b1, 0), EffectPair(0b10, 0), EffectPair(0b100, 0)
        intent = LiteralConjunction(1, 0)
        truth = CapabilityModel(
            u,
            {"c": Capability("c", intent, (ConditionalEffectRule(
                Condition.always(3), ((0.50, e1), (0.25, e2), (0.25, e3))),))},
            "ground-truth",
        )
        # learner saw only the first two outcomes, with counts 2 and 1
        learned = CapabilityModel(
            u,
            {"c": Capability("c", intent, (ConditionalEffectRule(
                Condition.always(3), ((2 / 3, e1), (1 / 3, e2))),))},
            "pessimistic",
        )
        trans = ground_truth_transitions(truth, [s])
        # terms: |2/3 - 1/2| + |1/3 - 1/4| + |0 - 1/4| over 3 transitions
        want = (abs(2 / 3 - 0.5) + abs(1 / 3 - 0.25) + 0.25) / 3
        assert exact_vd(learned, truth, trans) == pytest.approx(want)

    def test_empty_model_each_term_is_truth_probability(self):
        u = small_universe(3)
        s = u.encode([])
        e1, e2 = EffectPair(0b1, 0), EffectPair(0b10, 0)
        intent = LiteralConjunction(1, 0)
        truth = CapabilityModel(
            u,
            {"c": Capability("c", intent, (ConditionalEffectRule(
                Condition.always(3), ((0.7, e1), (0.3, e2))),))},
            "ground-truth",
        )
        empty = CapabilityModel(u, {}, "pessimistic")
        trans = ground_truth_transitions(truth, [s])
        assert exact_vd(empty, truth, trans) == pytest.approx((0.7 + 0.3) / 2)

    def test_checkpoint_curve_decreases_on_vacuum(self):
        curves = []
        for seed in (31, 32):
            b = vacuum_world(seed=f"{seed}/env")
            start = b.abstraction(b.simulator.reset())
            reach = sorted(reachable_states(b.ground_truth, start), key=lambda s: s.bits)
            trans = ground_truth_transitions(b.ground_truth, reach)
            curve = []

            def hook(idx, model, log, dataset):
                curve.append(exact_vd(model, b.ground_truth, trans))

            cfg = LearnerConfig(
                variant="exact", mcts_iterations=80, depth=5, max_queries=40, seed=seed
            )
            run(cfg, b, checkpoint_hook=hook)
            curves.append(curve)
        for curve in curves:
            for before, after in zip(curve, curve[1:]):
                assert after <= before + 0.02
            assert curve[-1] < curve[0]


class TestEvaluationFilter:
    def test_noop_rule_for_positive_intent_removed(self, vacuum_universe):
        u = vacuum_universe
        intent = LiteralConjunction(u.mask_of(["clean(l1)"]), 0)
        noop_rule = ConditionalEffectRule(Condition.always(u.num_atoms), ((1.0, EffectPair(0, 0)),))
        model = CapabilityModel(u, {"c": Capability("c", intent, (noop_rule,))}, "pessimistic")
        filtered = evaluation_filter(model)
        assert "c" not in filtered.capabilities

    def test_intent_achieving_stochastic_rule_retained(self, vacuum_universe):
        u = vacuum_universe
        intent = LiteralConjunction(u.mask_of(["clean(l1)"]), 0)
        rule = ConditionalEffectRule(
            Condition.always(u.num_atoms),
            (
                (0.50, EffectPair(u.mask_of(["clean(l1)"]), u.mask_of(["charged(robot)"]))),
                (0.25, EffectPair(u.mask_of(["clean(l1)", "at(charger,robot)"]), 0)),
                (0.25, EffectPair(0, u.mask_of(["charged(robot)"]))),
            ),
        )
        model = CapabilityModel(u, {"c": Capability("c", intent, (rule,))}, "pessimistic")
        filtered = evaluation_filter(model)
        assert "c" in filtered.capabilities
        assert len(filtered.capabilities["c"].rules) == 1

    def test_negative_intent_requires_delete(self, vacuum_universe):
        u = vacuum_universe
        intent = LiteralConjunction(0, u.mask_of(["charged(robot)"]))
        good = ConditionalEffectRule(
            Condition.always(u.num_atoms),
            ((1.0, EffectPair(0, u.mask_of(["charged(robot)"]))),),
        )
        bad = ConditionalEffectRule(
            Condition.never(u.num_atoms), ((1.0, EffectPair(u.mask_of(["clean(l1)"]), 0)),)
        )
        model = CapabilityModel(
            u, {"c": Capability("c", intent, (good, bad))}, "pessimistic"
        )
        filtered = evaluation_filter(model)
        assert len(filtered.capabilities["c"].rules) == 1
        assert filtered.capabilities["c"].rules[0] == good


class TestGenerateEvalDataset:
    def test_sequences_reproducible_under_seed(self):
        b1 = vacuum_world(seed="gen")
        caps = dict(b1.ground_truth.capabilities)
        cfg = EvalConfig(episodes=5, min_len=2, max_len=4, seed=3)
        _, seq1 = generate_eval_dataset(b1, caps, cfg)
        b2 = vacuum_world(seed="gen")
        _, seq2 = generate_eval_dataset(b2, caps, cfg)
        assert seq1 == seq2
        assert all(2 <= len(s) <= 4 for s in seq1)

    @pytest.mark.parametrize("theta", [None, 2])
    def test_dataset_matches_re_abstracting_reference(self, theta):
        """Each attempt starts from the state the previous one ended in, as
        abstracting the simulator's state before every attempt would give."""
        got_b, want_b = road_world(seed=4), road_world(seed=4)
        caps = dict(got_b.ground_truth.capabilities)
        cfg = EvalConfig(episodes=40, seed=3)
        got, sequences = generate_eval_dataset(got_b, caps, cfg, theta=theta)
        want = TransitionDataset()
        for seq in sequences:
            want_b.simulator.reset()
            for cap_name in seq:
                states, _ = run_capability(
                    want_b.agent, want_b.simulator, caps[cap_name].intent, want_b.abstraction,
                    theta, 100, want_b.abstraction(want_b.simulator.current),
                )
                want.record(states, cap_name)
        assert got.counts == want.counts
        assert len({t.s for t in got.counts}) >= 10

    @pytest.mark.parametrize("theta", [None, 2])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_dataset_matches_per_capability_reference_loop(self, seed, theta):
        """The loop `generate_eval_dataset` ran before each episode became one
        `execute_query` run: reset, then one `run_capability` per element."""
        got_b, want_b = road_world(seed=seed), road_world(seed=seed)
        caps = dict(got_b.ground_truth.capabilities)
        cfg = EvalConfig(episodes=30, min_len=2, max_len=12, seed=seed)
        got, sequences = generate_eval_dataset(got_b, caps, cfg, theta=theta)
        rng = Random(f"{seed}/eval")
        names = sorted(caps)
        want = TransitionDataset()
        for seq in sequences:
            s = want_b.abstraction(want_b.simulator.reset())
            assert seq == [rng.choice(names) for _ in range(rng.randint(2, 12))]
            for cap_name in seq:
                states, _ = run_capability(
                    want_b.agent, want_b.simulator, caps[cap_name].intent, want_b.abstraction,
                    theta, 100, s,
                )
                want.record(states, cap_name)
                s = states[-1]
        assert list(got.counts.items()) == list(want.counts.items())
        assert got_b.simulator.rng_state() == want_b.simulator.rng_state()

    def test_failing_agent_fails_the_dataset(self):
        b = vacuum_world(seed="fail")
        caps = dict(b.ground_truth.capabilities)

        def attempt(*args, **kwargs):
            raise RuntimeError("agent crashed")

        b.agent.attempt = attempt
        with pytest.raises(RuntimeError, match="agent crashed"):
            generate_eval_dataset(b, caps, EvalConfig(episodes=2, min_len=1, max_len=2))

    def test_single_capability_episodes(self):
        b = vacuum_world(seed="single")
        caps = dict(b.ground_truth.capabilities)
        cfg = EvalConfig(episodes=3, min_len=1, max_len=1, seed=0)
        ds, seqs = generate_eval_dataset(b, caps, cfg)
        assert all(len(s) == 1 for s in seqs)

    def test_eval_config_validation(self):
        with pytest.raises(Exception):
            EvalConfig(episodes=3, min_len=5, max_len=4).validate()
