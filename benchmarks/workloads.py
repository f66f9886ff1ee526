"""The benchmark's workloads: set-up, one timed pass, and the output checks.

A learn workload runs `learner.run` once per seed, one after another, each
into its own output directory as `caplearn learn` writes it. roads-evaluate
learns one run directory during set-up and times
`caplearn.cli.main(["evaluate", RUN_DIR])` on it. Everything runs in this
process, on one thread.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from caplearn import cli, learner
from caplearn.config import RunConfig, make_bundle
from caplearn.dataset import TransitionDataset
from caplearn.abstraction import satisfies
from caplearn.evaluation import EvalConfig, ground_truth_transitions, reachable_states
from caplearn.learner import LearnerConfig
from caplearn.model import entails, load_model, model_to_json

DEPTH = 6
VD_TARGET = 0.1
SETUP_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    env: str
    variant: str
    mcts_iterations: int
    max_queries: int
    seeds_per_run: int
    evaluate: bool = False


# Seed counts keep one pass near 25-35 s on a 2-core x86 box. Over seeds
# 0-29, the learn time of 10 vacuum or 4 roads seeds varies by about a tenth
# between seed sets (interquartile range over median).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("vacuum-exact", "vacuum", "exact", 120, 200, 10),
        Workload("roads-sampled", "roads", "sampled", 600, 150, 4),
        # max_queries 120 gives every seed's run directory 120 or 121
        # checkpoints, so `evaluate` does the same amount of work on each.
        Workload("roads-evaluate", "roads", "exact", 120, 120, 1, evaluate=True),
    )
}


def default_seeds(workload: Workload, seed: int) -> list[int]:
    k = workload.seeds_per_run
    return list(range(seed * k, seed * k + k))


def run_config(workload: Workload, seed: int, out_dir: Path) -> RunConfig:
    return RunConfig(
        environment=workload.env,
        learner=LearnerConfig(
            variant=workload.variant,
            mcts_iterations=workload.mcts_iterations,
            depth=DEPTH,
            max_queries=workload.max_queries,
            seed=seed,
        ),
        evaluation=EvalConfig(seed=seed),
        output_dir=str(out_dir),
        seed=seed,
    )


@dataclass
class Truth:
    """Ground truth to score learned models against."""

    universe: object
    model: object
    transitions: list


def set_up(workload: Workload, seed: int) -> tuple[float, Truth]:
    """Bundle construction plus the ground-truth reachable set and transitions.

    Repeated and timed; returns the median time and the last result.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        bundle = make_bundle(run_config(workload, seed, Path(".")))
        start = bundle.abstraction(bundle.simulator.reset())
        states = sorted(reachable_states(bundle.ground_truth, start), key=lambda s: s.bits)
        truth = Truth(bundle.universe, bundle.ground_truth,
                      ground_truth_transitions(bundle.ground_truth, states))
        times.append(time.perf_counter() - t0)
    return statistics.median(times), truth


def exact_vd(model, truth, transitions) -> float:
    """Mean |P_model - P_truth| over the truth's transitions.

    Written here rather than imported, so that the check of `evaluate`'s
    vd_exact column does not rest on the `predict` it is checking. The first
    rule whose condition accepts the state fires; with none, the state stays.
    """

    def prob(m, t) -> float:
        for rule in m.rules_for(t.c):
            if satisfies(t.s, rule.condition):
                return sum(p for p, e in rule.effects
                           if t.s.bits & ~e.delete | e.add == t.s_next.bits)
        return 1.0 if t.s == t.s_next else 0.0

    total = 0.0
    for t in transitions:
        total += abs(prob(model, t) - prob(truth, t))
    return total / len(transitions)


@dataclass
class Operation:
    """One learning run or one evaluate call, with what its check found."""

    kind: str
    seed: int
    wall_s: float = 0.0
    latencies_s: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    result: dict = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def learn(workload: Workload, seed: int, out_dir: Path, tracer=None) -> Operation:
    """One closed-loop learning run; only `learner.run` is inside the clock."""
    op = Operation("learn", seed)
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    config = run_config(workload, seed, out_dir)
    (out_dir / "config.json").write_text(config.to_json())
    bundle = make_bundle(config)
    run = learner.run
    if tracer is not None:
        tracer.instrument(bundle)
        tracer.query = (seed, 0)
        run = tracer.wrap("learner.run", run)
    stamps: list[float] = []
    executions: list[int] = []
    final: dict = {}

    def hook(idx, model, log, dataset) -> None:
        stamps.append(time.perf_counter())
        executions.append(log.records[-1].executions)
        final["dataset"] = dataset
        if tracer is not None:
            tracer.query = (seed, idx + 1)

    t0 = time.perf_counter()
    try:
        _, log = run(config.learner, bundle, out_dir, checkpoint_hook=hook)
    except Exception as exc:  # noqa: BLE001 - a raising run is a counted failure
        op.problems.append(f"learner.run raised {type(exc).__name__}: {exc}")
        return op
    op.wall_s = time.perf_counter() - t0
    op.latencies_s = [b - a for a, b in zip([t0] + stamps, stamps)]
    dataset = final.get("dataset")
    op.result = {
        "queries": len(log.records),
        "stop_reason": log.stop_reason,
        "stamps_s": [t - t0 for t in stamps],
        "executions": executions,
        "unique_transitions": len(dataset) if dataset is not None else 0,
        "observed_states": len({t.s for t in dataset.counts}) if dataset is not None else 0,
    }
    return op


def check_learn(op: Operation, out_dir: Path, truth: Truth) -> None:
    """Check a learning run from its files, then score its VD curve.

    The final model must round-trip through `load_model` and entail every
    transition of `dataset.jsonl`; `runlog.jsonl` must hold one record per
    query. Exact VD is scored from the snapshot files in order, up to the
    first one below VD_TARGET.
    """
    if op.failed:
        return
    res = op.result
    final_path = out_dir / "final_model.json"
    text = final_path.read_text()
    res["final_model_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    model = load_model(final_path, truth.universe)
    if model_to_json(model) != text:
        op.problems.append("final_model.json does not round-trip through load_model")
    dataset = TransitionDataset.load(out_dir / "dataset.jsonl", truth.universe)
    missing = sum(1 for t in dataset.counts if not entails(model, t))
    if missing:
        op.problems.append(f"final model does not entail {missing} recorded transitions")
    records = [json.loads(line) for line in (out_dir / "runlog.jsonl").read_text().splitlines()]
    indices = [r["index"] for r in records if "index" in r]
    if indices != list(range(res["queries"])) or len(res["stamps_s"]) != res["queries"]:
        op.problems.append(f"runlog.jsonl has {len(indices)} query records for {res['queries']} queries")
    res["final_vd_exact"] = exact_vd(model, truth.model, truth.transitions)
    res["crossing"] = None
    for i, rec in enumerate(r for r in records if "index" in r):
        snapshot = load_model(out_dir / "snapshots" / rec["snapshot"], truth.universe)
        if exact_vd(snapshot, truth.model, truth.transitions) < VD_TARGET:
            res["crossing"] = i
            break
    crossing = res["crossing"]
    res["time_to_vd10_s"] = math.inf if crossing is None else res["stamps_s"][crossing]
    res["execs_to_vd10"] = math.inf if crossing is None else sum(res["executions"][: crossing + 1])


def evaluate(run_dir: Path, seed: int, tracer=None) -> Operation:
    """One `caplearn evaluate RUN_DIR` call with the default settings."""
    op = Operation("evaluate", seed)
    main = cli.main
    if tracer is not None:
        main = tracer.wrap("cli.evaluate", main)
    t0 = time.perf_counter()
    try:
        code = main(["evaluate", str(run_dir), "--quiet"])
    except Exception as exc:  # noqa: BLE001 - a raising call is a counted failure
        op.problems.append(f"evaluate raised {type(exc).__name__}: {exc}")
        return op
    op.wall_s = time.perf_counter() - t0
    if code != 0:
        op.problems.append(f"evaluate exited with {code}")
    return op


def check_evaluate(op: Operation, run_dir: Path, truth: Truth) -> None:
    """One CSV row per checkpoint plus the final model, every VD in [0, 1],
    and the final row's vd_exact equal to our own exact VD of the final model.
    """
    if op.failed:
        return
    with open(run_dir / "evaluation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = sorted(p.name for p in (run_dir / "snapshots").glob("query_*.json"))
    expected.append("final_model.json")
    if [r["checkpoint"] for r in rows] != expected:
        op.problems.append(f"evaluation.csv has {len(rows)} rows for {len(expected)} checkpoints")
        return
    vds = [(float(r["vd_sampled"]), float(r["vd_exact_if_available"])) for r in rows]
    if not all(0.0 <= v <= 1.0 for pair in vds for v in pair):
        op.problems.append("evaluation.csv has a VD outside [0, 1]")
    final = load_model(run_dir / "final_model.json", truth.universe)
    ours = exact_vd(final, truth.model, truth.transitions)
    if abs(vds[-1][1] - ours) > 1e-12:
        op.problems.append(f"final vd_exact {vds[-1][1]!r} differs from {ours!r}")
    walls = [float(r["wall_seconds"]) for r in rows]
    op.latencies_s = [b - a for a, b in zip([0.0] + walls, walls)]
    op.result = {
        "checkpoints": len(rows),
        "final_vd_exact": vds[-1][1],
        "final_vd_sampled": vds[-1][0],
        "vd_rows": vds,
    }


@dataclass
class Pass:
    """One timed pass over a workload's operations."""

    operations: list[Operation]

    @property
    def wall_s(self) -> float:
        return sum(op.wall_s for op in self.operations)

    @property
    def checkpoints(self) -> int:
        return sum(len(op.latencies_s) for op in self.operations)

    def fingerprint(self) -> list:
        """What must repeat exactly between passes of one process."""
        return [
            (op.seed, op.result.get("final_model_sha256"), op.result.get("vd_rows"))
            for op in self.operations
        ]


class Runner:
    """A workload's set-up and passes, under one working directory."""

    def __init__(self, workload: Workload, seeds: list[int], work_dir: Path) -> None:
        self.workload = workload
        self.seeds = seeds
        self.work_dir = work_dir
        self.setup_ops: list[Operation] = []
        self.setup_s, self.truth = set_up(workload, seeds[0])
        if workload.evaluate:
            self.run_dir = work_dir / f"seed-{seeds[0]}"
            t0 = time.perf_counter()
            op = learn(workload, seeds[0], self.run_dir)
            self.setup_s += time.perf_counter() - t0
            check_learn(op, self.run_dir, self.truth)
            self.setup_ops.append(op)

    def run_pass(self, tracer=None) -> Pass:
        """The timed operations; nothing here scores or checks outputs."""
        if self.workload.evaluate:
            return Pass([evaluate(self.run_dir, self.seeds[0], tracer)])
        return Pass([
            learn(self.workload, seed, self.work_dir / f"seed-{seed}", tracer)
            for seed in self.seeds
        ])

    def check(self, p: Pass) -> None:
        for op in p.operations:
            if op.kind == "evaluate":
                check_evaluate(op, self.run_dir, self.truth)
            else:
                check_learn(op, self.work_dir / f"seed-{op.seed}", self.truth)

    def learned(self, p: Pass) -> list[Operation]:
        """The learning runs whose models a pass produced or scored."""
        return self.setup_ops if self.workload.evaluate else p.operations
