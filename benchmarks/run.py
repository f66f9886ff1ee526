"""Benchmark of caplearn's learn loop and `evaluate`, end to end and per module.

Run from the repository root:

    python3 benchmarks/run.py --workload vacuum-exact --seed 0 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload roads-sampled --seeds 10-13 --trace 1
    python3 benchmarks/run.py --compare OLD.json NEW.json

With `--trace 0` the workload's operations run untraced, in passes, until
another pass would overrun `--seconds` (at least one pass); the end-to-end
metrics come from those passes. With `--trace 1` one untraced and one traced
pass run over the same seeds; the per-layer metrics come from the traced
pass, and its final models must hash equal to the untraced pass's.

Human-readable lines come first. The last line of standard output is one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
A fuller record (seed list, per-seed model digests, every metric the notes
name) goes to `--results`. See benchmarks/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

VD_SAMPLED_REL_TOL = 1e-9


def parse_seeds(text: str) -> list[int]:
    """`10-19` or `3,5,8`."""
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20)[-1] if len(values) > 1 else values[0]


def finite(x: float) -> float | None:
    return x if math.isfinite(x) else None


def compare(old_path: str, new_path: str) -> int:
    """List the seeds whose final model changed between two result files.

    Reported, not gated. `final_vd_sampled` is compared with a relative
    tolerance, because it differs between processes in the last ulp.
    """
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    digests = [{r["seed"]: r.get("final_model_sha256") for r in doc["runs"]} for doc in (old, new)]
    seeds = sorted(set(digests[0]) | set(digests[1]))
    changed = [s for s in seeds if digests[0].get(s) != digests[1].get(s)]
    print(f"seeds compared: {seeds}")
    print(f"final_model.json changed for seeds: {changed if changed else 'none'}")
    vd_old, vd_new = old.get("final_vd_sampled"), new.get("final_vd_sampled")
    if vd_old is not None and vd_new is not None:
        same = math.isclose(vd_old, vd_new, rel_tol=VD_SAMPLED_REL_TOL, abs_tol=1e-15)
        print(f"final_vd_sampled {vd_old!r} vs {vd_new!r}: "
              f"{'equal within' if same else 'differs beyond'} rel tol {VD_SAMPLED_REL_TOL}")
    return 0


def learn_metrics(learned) -> dict[str, tuple[float, str]]:
    """Convergence and quality of the learning runs a workload produced."""
    ok = [op for op in learned if not op.failed]
    if not ok:
        return {}
    latencies = [x for op in ok for x in op.latencies_s]
    return {
        "learn_s": (sum(op.wall_s for op in ok), "s"),
        "query_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "query_ms_p95": (p95(latencies) * 1e3, "ms"),
        "time_to_vd10_s": (statistics.median(op.result["time_to_vd10_s"] for op in ok), "s"),
        "execs_to_vd10": (statistics.median(op.result["execs_to_vd10"] for op in ok), "count"),
        "final_vd_exact": (statistics.fmean(op.result["final_vd_exact"] for op in ok), "VD"),
    }


def coverage(traced) -> dict[str, int]:
    """What the traced pass's learning runs report about their own data."""
    ok = [op.result for op in traced.operations if op.kind == "learn" and not op.failed]
    return {
        "queries": sum(r["queries"] for r in ok),
        "agent_executions": sum(sum(r["executions"]) for r in ok),
        "unique_transitions": sum(r["unique_transitions"] for r in ok),
        "observed_states": sum(r["observed_states"] for r in ok),
    }


def run_untraced(runner, seconds: float):
    passes = []
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        p = runner.run_pass()
        runner.check(p)
        passes.append(p)
        if time.perf_counter() - started + (time.perf_counter() - t0) > seconds:
            return passes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0, help="derives the seed list")
    parser.add_argument("--seeds", type=parse_seeds, help="explicit learner seeds, e.g. 10-19")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", help="result file (default under .bench_work/results)")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    if not (ROOT / "src" / "caplearn" / "__init__.py").is_file():
        print(f"error: no caplearn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import workloads
    from spans import Tracer

    import_s = time.perf_counter() - t0

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    seeds = args.seeds or workloads.default_seeds(workload, args.seed)
    if workload.evaluate and len(seeds) != 1:
        parser.error(f"{workload.name} learns exactly one run directory; give one seed")

    work_dir = WORK / "runs" / workload.name
    try:
        runner = workloads.Runner(workload, seeds, work_dir)
        setup_s = import_s + runner.setup_s
        if args.trace:
            untraced = runner.run_pass()
            runner.check(untraced)
            tracer = Tracer()
            tracer.install()
            try:
                traced = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            runner.check(traced)
            passes = [untraced, traced]
        else:
            passes = run_untraced(runner, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    ops = runner.setup_ops + [op for p in passes for op in p.operations]
    problems = [f"seed {op.seed} {op.kind}: {msg}" for op in ops for msg in op.problems]
    if any(p.fingerprint() != passes[0].fingerprint() for p in passes):
        problems.append("outputs differ between passes of the same seeds"
                        + (" (traced vs untraced)" if args.trace else ""))
    learned = runner.learned(passes[0])
    report = learn_metrics(learned)

    final_vd_sampled = None
    if workload.evaluate and not passes[0].operations[0].failed:
        final_vd_sampled = passes[0].operations[0].result["final_vd_sampled"]
        report["final_vd_sampled"] = (final_vd_sampled, "VD")

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        metrics = tracer.layer_metrics(coverage(traced))
        overhead = traced.wall_s / untraced.wall_s - 1.0 if untraced.wall_s else 0.0
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        trace_path = WORK / f"trace-{workload.name}-{seeds[0]}.json"
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        trace_path.write_text(json.dumps(tracer.dump()))
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    elif not problems:
        walls = [p.wall_s for p in passes]
        latencies = [x for p in passes for op in p.operations for x in op.latencies_s]
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(walls), "s"),
            "checkpoints_per_s": (statistics.median(p.checkpoints / p.wall_s for p in passes), "1/s"),
            "checkpoint_ms_p95": (p95(latencies) * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        report["checkpoint_ms_p50"] = (statistics.median(latencies) * 1e3, "ms")
        if workload.evaluate:
            report["evaluate_s"] = metrics["wall_s"]
    report["failed_frac"] = (sum(op.failed for op in ops) / len(ops), "ratio")

    print(f"{workload.name}: seeds {seeds}, {len(passes)} pass(es), "
          f"{'traced' if args.trace else 'untraced'}")
    for name, (value, unit) in {**metrics, **report}.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    for msg in problems:
        print(f"  FAILED {msg}", file=sys.stderr)

    results = {
        "workload": workload.name,
        "seeds": seeds,
        "trace": args.trace,
        "passes": len(passes),
        "metrics": {k: {"value": finite(v), "unit": u} for k, (v, u) in {**metrics, **report}.items()},
        "runs": [
            {"seed": op.seed, "queries": op.result.get("queries"),
             "final_model_sha256": op.result.get("final_model_sha256"),
             "final_vd_exact": op.result.get("final_vd_exact"),
             "execs_to_vd10": finite(op.result.get("execs_to_vd10", math.inf)),
             "time_to_vd10_s": finite(op.result.get("time_to_vd10_s", math.inf))}
            for op in learned
        ],
        "final_vd_sampled": final_vd_sampled,
        "problems": problems,
    }
    results_path = Path(args.results) if args.results else (
        WORK / "results" / f"{workload.name}-seed{seeds[0]}-trace{args.trace}.json")
    results_path.parent.mkdir(parents=True, exist_ok=True)
    results_path.write_text(json.dumps(results, indent=2) + "\n")

    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
