"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The learning-run criteria share one module-scoped batch of runs.
"""

import json
import math
import time
from random import Random
from statistics import median

import pytest

from caplearn.abstraction import AtomUniverse, parse_literal
from caplearn.dataset import Transition, TransitionDataset
from caplearn.distributions import tv_distance
from caplearn.envs import road_world, vacuum_world
from caplearn.evaluation import (
    exact_vd,
    ground_truth_transitions,
    reachable_states,
    sampled_vd,
)
from caplearn.learner import LearnerConfig, run, run_capability
from caplearn.model import (
    build_models,
    entailed_successors,
    entails,
    equivalent,
    satisfies,
)
from caplearn.synthesis import _PairTable
from .conftest import RULE_CAP, random_dataset, random_rule, rule_model
from .test_distributions import dense_push_oracle, random_distribution

SEEDS = range(10)
MCTS_ITER = {"exact": 120, "sampled": 600, "random": 120}


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def _universe_of_size(rng: Random) -> "AtomUniverse":
    n_preds = rng.randint(1, 4)
    n_objs = rng.randint(1, 3)
    while n_preds * n_objs > 12:
        n_preds = rng.randint(1, 4)
        n_objs = rng.randint(1, 3)
    return AtomUniverse(
        {f"p{i}": ["x"] for i in range(n_preds)},
        {f"o{j}": "x" for j in range(n_objs)},
    )


class _Curve:
    """Per-run record: executions at each query and the exact-VD curve."""

    def __init__(self, bundle):
        self.bundle = bundle
        start = bundle.abstraction(bundle.simulator.reset())
        reach = sorted(reachable_states(bundle.ground_truth, start), key=lambda s: s.bits)
        self.transitions = ground_truth_transitions(bundle.ground_truth, reach)
        self.executions = 0
        self.crossing_at = {}
        self.vd_curve = []

    def hook(self, idx, model, log, dataset):
        self.executions += log.records[-1].executions
        vd = exact_vd(model, self.bundle.ground_truth, self.transitions)
        self.vd_curve.append(vd)
        for threshold in (0.1, 0.05):
            if vd < threshold and threshold not in self.crossing_at:
                self.crossing_at[threshold] = self.executions
        self.final_vd = vd


def _learning_run(builder, variant, seed, max_queries):
    bundle = builder(seed=f"{seed}/env")
    curve = _Curve(bundle)
    cfg = LearnerConfig(
        variant=variant,
        mcts_iterations=MCTS_ITER[variant],
        depth=6,
        max_queries=max_queries,
        seed=seed,
    )
    model, log = run(cfg, bundle, checkpoint_hook=curve.hook)
    curve.final_vd = exact_vd(model, bundle.ground_truth, curve.transitions)
    return curve


@pytest.fixture(scope="module")
def learning_batch():
    batch = {"vacuum_wall": 0.0}
    t0 = time.monotonic()
    for variant in ("exact", "sampled"):
        batch[("vacuum", variant)] = [
            _learning_run(vacuum_world, variant, s, 200) for s in SEEDS
        ]
    batch["vacuum_wall"] = time.monotonic() - t0
    batch[("vacuum", "random")] = [
        _learning_run(vacuum_world, "random", s, 200) for s in SEEDS
    ]
    for variant in ("exact", "sampled", "random"):
        batch[("roads", variant)] = [
            _learning_run(road_world, variant, s, 150) for s in SEEDS
        ]
    return batch


class TestCriterion1SoundnessCompleteness:
    def test_soundness_and_completeness_on_random_datasets(self):
        t0 = time.monotonic()
        rng = Random("acceptance-sound-complete")
        failures = 0
        for _ in range(100):
            universe = _universe_of_size(rng)
            ds, caps = random_dataset(
                universe, rng, caps=rng.randint(1, 3), transitions=rng.randint(1, 40)
            )
            m_pess, m_opt = build_models(caps, ds, universe)
            for t in ds.counts:
                if not entails(m_pess, t) or not entails(m_opt, t):
                    failures += 1
            for cap in caps:
                for s in universe.all_states():
                    for s2 in entailed_successors(m_pess, s, cap.name):
                        if Transition(s, cap.name, s2) not in ds.counts:
                            failures += 1
        elapsed = time.monotonic() - t0
        _report(
            1,
            "soundness/completeness suite",
            failures == 0 and elapsed < 60.0,
            f"failures={failures}, elapsed={elapsed:.1f}s",
        )


class TestCriterion2ExhaustiveInjection:
    def test_models_coincide_with_ground_truth(self):
        t0 = time.monotonic()
        bundle = vacuum_world(seed="acceptance-2")
        truth = bundle.ground_truth
        states = list(bundle.universe.all_states())
        ds = TransitionDataset()
        for t in ground_truth_transitions(truth, states):
            ds.add(t)
        m_pess, m_opt = build_models(truth.capabilities.values(), ds, bundle.universe)
        ok = (
            equivalent(m_pess, m_opt, states)
            and equivalent(m_pess, truth, states)
            and equivalent(m_opt, truth, states)
        )
        elapsed = time.monotonic() - t0
        _report(
            2,
            "exhaustive-data equivalence",
            ok and elapsed < 10.0,
            f"equivalent={ok}, elapsed={elapsed:.1f}s",
        )


class TestCriterion3VacuumConvergence:
    def test_mean_exact_vd_below_threshold(self, learning_batch):
        means = {
            variant: sum(c.final_vd for c in learning_batch[("vacuum", variant)]) / len(SEEDS)
            for variant in ("exact", "sampled")
        }
        elapsed = learning_batch["vacuum_wall"]
        ok = all(m < 0.05 for m in means.values()) and elapsed < 600.0
        _report(
            3,
            "vacuum convergence",
            ok,
            f"mean vd exact={means['exact']:.4f}, sampled={means['sampled']:.4f}, "
            f"elapsed={elapsed:.0f}s",
        )


class TestCriterion4CleanRuleFidelity:
    def test_clean_rule_probabilities(self):
        bundle = vacuum_world(seed="acceptance-4")
        u = bundle.universe
        intent = parse_literal("clean(l1)", u)
        start_atoms = frozenset({"has(robot,vacuum)", "charged(robot)"})
        ds = TransitionDataset()
        for _ in range(2000):
            bundle.simulator.revert(start_atoms)
            states, _ = run_capability(
                bundle.agent, bundle.simulator, intent, bundle.abstraction, None, 100,
                bundle.abstraction(start_atoms),
            )
            ds.record(states, "achieve__clean(l1)")
        caps = [bundle.ground_truth.capabilities["achieve__clean(l1)"]]
        m_pess, _ = build_models(caps, ds, u)
        state = u.encode(start_atoms)
        rule = next(
            r
            for r in m_pess.capabilities["achieve__clean(l1)"].rules
            if satisfies(state, r.condition)
        )
        probs = sorted((p for p, _ in rule.effects), reverse=True)
        ok = (
            len(probs) == 3
            and abs(probs[0] - 0.50) <= 0.03
            and abs(probs[1] - 0.25) <= 0.03
            and abs(probs[2] - 0.25) <= 0.03
        )
        _report(4, "clean-rule fidelity", ok, f"probs={[round(p, 4) for p in probs]}")


class TestCriterion5PushOracle:
    def test_dense_enumeration_agreement(self):
        rng = Random("acceptance-push")
        worst = 0.0
        ok = True
        for _ in range(1000):
            universe = _universe_of_size(rng)
            dist = random_distribution(universe, rng)
            rules = tuple(random_rule(universe.num_atoms, rng) for _ in range(rng.randint(1, 3)))
            # The library's pair push, against a pair that fires the rules in
            # opposite orders, so it agrees on some states and not on others.
            table = _PairTable(rule_model(universe, rules), rule_model(universe, rules[::-1]), RULE_CAP)
            for got, order in zip(table.push_pair(dist, dist), (rules, rules[::-1])):
                want = dense_push_oracle(dist, order, universe.num_atoms)
                for s in set(got) | set(want):
                    gap = abs(got.get(s, 0.0) - want.get(s, 0.0))
                    worst = max(worst, gap)
                    if gap > 1e-9:
                        ok = False
        _report(5, "distribution-update oracle", ok, f"worst per-state gap={worst:.2e}")


class TestCriterion6QueryEfficiency:
    def test_both_variants_beat_random_baseline(self, learning_batch):
        details = []
        ok = True
        for env in ("vacuum", "roads"):
            medians = {}
            for variant in ("exact", "sampled", "random"):
                crossings = [
                    c.crossing_at.get(0.1, math.inf)
                    for c in learning_batch[(env, variant)]
                ]
                medians[variant] = median(crossings)
            ok = ok and medians["exact"] < medians["random"]
            ok = ok and medians["sampled"] < medians["random"]
            details.append(
                f"{env}: exact={medians['exact']:.0f} sampled={medians['sampled']:.0f} "
                f"random={medians['random']:.0f}"
            )
        _report(6, "query-efficiency ordering", ok, "; ".join(details))


class TestVdCurveMonotonicity:
    """Supporting invariant, not a numbered criterion: on the vacuum exact
    runs, exact VD never rises by more than the sampling tolerance between
    consecutive checkpoints."""

    def test_curves_decrease_within_tolerance(self, learning_batch):
        for curve_rec in learning_batch[("vacuum", "exact")]:
            curve = curve_rec.vd_curve
            for before, after in zip(curve, curve[1:]):
                assert after <= before + 0.02


class TestCriterion7MetricCorrectness:
    def test_worked_examples_to_twelve_decimals(self):
        u = AtomUniverse({"p": ["x"], "q": ["x"], "r": ["x"]}, {"a": "x"})
        a, b, c = (u.encode([n]) for n in ("p(a)", "q(a)", "r(a)"))
        tv_cases = [
            ({a: 0.5, b: 0.5}, {a: 1.0}, 0.5),
            ({a: 1.0}, {a: 1.0}, 0.0),
            ({a: 1.0}, {b: 1.0}, 1.0),
        ]
        worst = 0.0
        for d1, d2, want in tv_cases:
            worst = max(worst, abs(tv_distance(d1, d2) - want))

        agent = TransitionDataset()
        model = TransitionDataset()
        agent.add(Transition(a, "c", b), 1)
        model.add(Transition(a, "c", c), 1)
        worst = max(worst, abs(sampled_vd(agent, model) - 1.0))

        agent2 = TransitionDataset()
        model2 = TransitionDataset()
        agent2.add(Transition(a, "c", b), 3)
        agent2.add(Transition(a, "c", c), 1)
        model2.add(Transition(a, "c", b), 2)
        model2.add(Transition(a, "c", c), 2)
        worst = max(worst, abs(sampled_vd(agent2, model2) - 0.25))

        _report(7, "metric correctness", worst <= 1e-12, f"worst gap={worst:.2e}")


class TestCriterion8Determinism:
    def test_byte_identical_model_json(self, tmp_path):
        from caplearn.cli import main

        def config_at(path, out):
            path.write_text(
                json.dumps(
                    {
                        "environment": {"name": "vacuum", "params": {}},
                        "learner": {
                            "variant": "exact",
                            "mcts_iterations": 80,
                            "depth": 5,
                            "max_queries": 10,
                        },
                        "output_dir": str(out),
                        "seed": 23,
                    }
                )
            )
            return path

        cfg1 = config_at(tmp_path / "c1.json", tmp_path / "run1")
        cfg2 = config_at(tmp_path / "c2.json", tmp_path / "run2")
        code1 = main(["learn", "--config", str(cfg1), "--quiet"])
        code2 = main(["learn", "--config", str(cfg2), "--quiet"])
        b1 = (tmp_path / "run1" / "final_model.json").read_bytes()
        b2 = (tmp_path / "run2" / "final_model.json").read_bytes()
        ok = code1 == 0 and code2 == 0 and b1 == b2
        _report(8, "seeded determinism", ok, f"{len(b1)} bytes compared")
