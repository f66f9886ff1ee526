"""Command-line front end: learn, evaluate, inspect.

Exit codes: 0 success, 1 runtime failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

from .abstraction import ConfigurationError
from .config import RunConfig, load_config, make_bundle
from .envs import environment_names, make_environment
from .evaluation import (
    evaluation_filter,
    exact_vd,
    generate_eval_dataset,
    ground_truth_transitions,
    model_replay,
    reachable_states,
    sampled_vd,
)
from .learner import VARIANTS, run as run_learner
from .model import load_model, model_to_text

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2


def _apply_overrides(config: RunConfig, args: argparse.Namespace) -> None:
    if args.variant is not None:
        config.learner.variant = args.variant
    if args.seed is not None:
        config.seed = args.seed
        config.learner.seed = args.seed
        config.evaluation.seed = args.seed
    if args.max_queries is not None:
        config.learner.max_queries = args.max_queries
    if args.output is not None:
        config.output_dir = args.output
    config.learner.validate()


def cmd_learn(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    _apply_overrides(config, args)
    bundle = make_bundle(config)
    out_dir = config.resolved_output_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.json").write_text(config.to_json())

    def print_progress(index, model, log, dataset) -> None:
        r = log.records[-1]
        print(f"query {r.index:4d}  novel={r.novel:3d}  |D|={r.unique_transitions:5d}  "
              f"elapsed={r.elapsed:.2f}s")

    model, log = run_learner(config.learner, bundle, out_dir, None if args.quiet else print_progress)
    if not args.quiet:
        print(f"stopped: {log.stop_reason} after {len(log.records)} queries "
              f"({log.wall_seconds:.1f}s); model written to {out_dir / 'final_model.json'}")
    return EXIT_OK


def _query_records(run_dir: Path) -> list[dict]:
    """The per-query records of the run's runlog.jsonl, in order; none if it is missing."""
    path = run_dir / "runlog.jsonl"
    if not path.is_file():
        return []
    records = (json.loads(line) for line in path.read_text().splitlines() if line.strip())
    return [r for r in records if "index" in r]


def _query_index(snapshot: Path) -> int:
    """The query index in a `query_<index>.json` snapshot name."""
    return int(snapshot.stem.split("_")[1])


def cmd_evaluate(args: argparse.Namespace) -> int:
    run_dir = Path(args.run_dir)
    config_path = run_dir / "config.json"
    if not config_path.is_file():
        print(f"error: {run_dir} has no config.json", file=sys.stderr)
        return EXIT_RUNTIME
    config = load_config(config_path)
    if args.episodes is not None:
        config.evaluation.episodes = args.episodes
    if args.min_len is not None:
        config.evaluation.min_len = args.min_len
    if args.max_len is not None:
        config.evaluation.max_len = args.max_len
    config.evaluation.validate()

    snap_dir = run_dir / "snapshots"
    snapshots = sorted(snap_dir.glob("query_*.json"), key=_query_index) if snap_dir.is_dir() else []
    final = run_dir / "final_model.json"
    targets = list(snapshots)
    if final.is_file():
        targets.append(final)
    if not targets:
        print(f"error: no model snapshots under {run_dir}", file=sys.stderr)
        return EXIT_RUNTIME
    if args.last_only:
        targets = targets[-1:]

    bundle = make_bundle(config)
    truth = bundle.ground_truth
    start = bundle.abstraction(bundle.simulator.reset())
    truth_transitions = ground_truth_transitions(truth, sorted(
        reachable_states(truth, start), key=lambda s: s.bits
    ))
    agent_ds, sequences = generate_eval_dataset(
        bundle, dict(truth.capabilities), config.evaluation,
        theta=config.learner.theta, horizon=config.learner.horizon,
    )

    uniques = {r["index"]: r["unique_transitions"] for r in _query_records(run_dir)}
    rows = []
    model = None
    wall0 = time.monotonic()
    for path in targets:
        # Capabilities unchanged since the previous checkpoint carry over with
        # their memos; only that checkpoint's model is held.
        model = load_model(path, bundle.universe, previous=model)
        filtered = evaluation_filter(model)
        model_ds = model_replay(filtered, sequences, start, seed=config.seed)
        if path.name == "final_model.json":
            query_idx = _query_index(snapshots[-1]) + 1 if snapshots else 0
            unique = next(reversed(uniques.values()), None)
        else:
            query_idx = _query_index(path)
            unique = uniques.get(query_idx)
        rows.append([
            path.name, query_idx, "" if unique is None else unique,
            sampled_vd(agent_ds, model_ds), exact_vd(model, truth, truth_transitions),
            time.monotonic() - wall0,
        ])
    out_csv = Path(args.csv) if args.csv else run_dir / "evaluation.csv"
    with open(out_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["checkpoint", "queries", "unique_transitions", "vd_sampled",
                         "vd_exact_if_available", "wall_seconds"])
        writer.writerows(rows)
    if not args.quiet:
        print(f"wrote {len(rows)} checkpoint rows to {out_csv}")
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    if args.model is not None:
        model = load_model(args.model)
        print(model_to_text(model), end="")
        return EXIT_OK
    if args.dataset is not None:
        path = Path(args.dataset)
        if not path.is_file():
            print(f"error: no dataset at {path}", file=sys.stderr)
            return EXIT_RUNTIME
        print(path.read_text(), end="")
        return EXIT_OK
    if args.last_query is not None:
        records = _query_records(Path(args.last_query))
        if not records:
            print(f"error: no last query under {args.last_query}", file=sys.stderr)
            return EXIT_RUNTIME
        print(json.dumps(records[-1]["policy"], indent=2, sort_keys=True))
        return EXIT_OK
    if args.ground_truth is not None:
        bundle = make_environment(args.ground_truth)
        print(model_to_text(bundle.ground_truth), end="")
        return EXIT_OK
    print("error: nothing to inspect (see --help)", file=sys.stderr)
    return EXIT_CONFIG


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="caplearn",
        description="Learn probabilistic capability models of black-box agents.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    learn = sub.add_parser("learn", help="run the learning loop from a config file")
    learn.add_argument("--config", required=True, help="path to run-config JSON")
    learn.add_argument("--variant", choices=VARIANTS)
    learn.add_argument("--seed", type=int)
    learn.add_argument("--max-queries", type=int, dest="max_queries")
    learn.add_argument("--output", help="output directory (overrides config)")
    learn.add_argument("--quiet", action="store_true")
    learn.set_defaults(func=cmd_learn)

    ev = sub.add_parser("evaluate", help="compute VD metrics for a finished run")
    ev.add_argument("run_dir", help="directory written by `learn`")
    ev.add_argument("--episodes", type=int)
    ev.add_argument("--min-len", type=int, dest="min_len")
    ev.add_argument("--max-len", type=int, dest="max_len")
    ev.add_argument("--csv", help="output CSV path (default: <run_dir>/evaluation.csv)")
    ev.add_argument("--last-only", action="store_true", help="evaluate only the final model")
    ev.add_argument("--quiet", action="store_true")
    ev.set_defaults(func=cmd_evaluate)

    insp = sub.add_parser("inspect", help="pretty-print models, datasets, queries")
    group = insp.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="model JSON path")
    group.add_argument("--dataset", help="dataset JSONL path")
    group.add_argument("--last-query", dest="last_query", help="run directory")
    group.add_argument("--ground-truth", dest="ground_truth", choices=environment_names())
    insp.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
