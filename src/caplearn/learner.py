"""The active learning loop: bootstrap, query synthesis, execution, refit.

Each iteration synthesizes a distinguishing policy from the current
pessimistic/optimistic model pair (or samples a random one), executes it
against the black-box agent, folds the observed transitions into the dataset,
rediscovers capabilities, refits the model pair (rebuilding only the
capabilities whose rules the new data can change), and picks the next query's
initial state from the previous query's outcomes.
"""

from __future__ import annotations

import json
import math
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from typing import Callable, Iterable, Mapping, Sequence

from .abstraction import AbstractState, AbstractionFn, AtomUniverse, ConfigurationError, LiteralConjunction
from .dataset import TransitionDataset
from .distributions import cumulative
from .envs.base import EnvironmentBundle
from .model import (
    Capability,
    CapabilityModel,
    build_models,
    capability_name,
    model_to_json,
    model_to_text,
)
from .synthesis import (
    Query,
    SequencePolicy,
    policy_to_json,
    random_policy_query,
    synthesize_exact,
    synthesize_sampled,
)

VARIANTS = ("exact", "sampled", "random")
# The parts of one query, in order, as timed in `QueryRecord.phases`.
PHASES = ("synthesize", "execute", "record", "refit", "snapshot")


@dataclass
class LearnerConfig:
    """Run settings; defaults follow the reported hyperparameter table."""

    variant: str = "exact"
    runs_per_query: int = 25
    horizon: int = 100
    theta: int | None = None
    mcts_iterations: int = 1000
    kappa: float = math.sqrt(2)
    depth: int = 20
    early_stop_window: int = 20
    max_queries: int | None = None
    wall_clock_budget: float | None = None
    random_policy_length: int = 30
    bootstrap_steps: int | None = None
    seed: int = 0

    def validate(self) -> None:
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        positive = {
            "runs_per_query": self.runs_per_query,
            "horizon": self.horizon,
            "mcts_iterations": self.mcts_iterations,
            "depth": self.depth,
            "early_stop_window": self.early_stop_window,
            "random_policy_length": self.random_policy_length,
        }
        for name, value in positive.items():
            if value < 1:
                raise ConfigurationError(f"{name} must be positive, got {value}")
        if self.theta is not None and self.theta < 1:
            raise ConfigurationError("theta must be >= 1 or null")
        if self.max_queries is not None and self.max_queries < 0:
            raise ConfigurationError("max_queries must be >= 0")
        if self.bootstrap_steps is not None and self.bootstrap_steps < 0:
            raise ConfigurationError("bootstrap_steps must be >= 0")
        if not (math.isfinite(self.kappa) and self.kappa >= 0):
            raise ConfigurationError(f"kappa must be finite and >= 0, got {self.kappa}")
        budget = self.wall_clock_budget
        if budget is not None and not (math.isfinite(budget) and budget > 0):
            raise ConfigurationError(f"wall_clock_budget must be > 0 or null, got {budget}")


@dataclass
class QueryRecord:
    """One query of a run, as written to `runlog.jsonl`.

    `source` says where the executed policy came from: `synthesized` (the
    search scored above 0), `fallback` (it did not, so a random sequence ran)
    or `random` (the random variant). `phases` maps each name in `PHASES` to
    the seconds the query spent in it, and `elapsed` spans all five;
    `snapshot` covers only writing the model snapshot. `rebuilt` counts the
    capabilities whose rules the query's refit rebuilt rather than carried
    over, and `observed_states` the distinct transition source states
    recorded so far.
    """

    index: int
    policy: dict
    initial_state: list[str]
    novel: int
    unique_transitions: int
    total_transitions: int
    executions: int
    score: float | None
    elapsed: float
    snapshot: str | None
    failures: int = 0
    source: str = ""
    phases: dict[str, float] = field(default_factory=dict)
    rebuilt: int = 0
    observed_states: int = 0


@dataclass
class RunLog:
    records: list[QueryRecord] = field(default_factory=list)
    stop_reason: str = ""
    capabilities: int = 0
    wall_seconds: float = 0.0


def random_walk(simulator, steps: int, rng: Random) -> list:
    """Uniform-random low-level actions from the reset state.

    Draws from `available_actions()`, which lists them in name order. Stops
    early if no action applies (environment dead end).
    """
    if steps < 0:
        raise ConfigurationError("steps must be >= 0")
    traj = [simulator.reset()]
    for _ in range(steps):
        actions = simulator.available_actions()
        if not actions:
            break
        traj.append(simulator.step(rng.choice(actions)))
    return traj


def discover_capabilities(
    sequences: Iterable[Sequence[AbstractState]], universe: AtomUniverse
) -> dict[str, Capability]:
    """Single-literal intents from observed one-step deltas, re-grounded.

    Each changed atom between consecutive abstract states contributes the
    literal with its post-change polarity; every type-consistent re-grounding
    of that atom's predicate is added with the same polarity.
    """
    schemas: set[tuple[str, bool]] = set()
    for seq in sequences:
        for prev, cur in zip(seq, seq[1:]):
            added = cur.bits & ~prev.bits
            removed = prev.bits & ~cur.bits
            for i in range(universe.num_atoms):
                if added >> i & 1:
                    schemas.add((universe.atoms[i].predicate, True))
                elif removed >> i & 1:
                    schemas.add((universe.atoms[i].predicate, False))

    caps: dict[str, Capability] = {}
    for predicate, positive in sorted(schemas):
        for i, atom in enumerate(universe.atoms):
            if atom.predicate != predicate:
                continue
            bit = 1 << i
            intent = LiteralConjunction(bit, 0) if positive else LiteralConjunction(0, bit)
            name = capability_name(intent, universe)
            caps[name] = Capability(name, intent)
    return caps


def tally_segments(
    segments: Iterable[tuple[str, Sequence[AbstractState]]],
) -> tuple[list[list], list[Sequence[AbstractState]]]:
    """Count segments by (first state, capability, last state), in first-occurrence order.

    Returns `[capability, states, count]` per distinct triple, with its first
    segment's states, and the state sequences `discover_capabilities` needs
    to see every change the segments show: each first segment of more than
    one state, and each later one of more than two, whose inner states the
    triple does not fix.
    """
    tally: dict[tuple[AbstractState, str, AbstractState], list] = {}
    moves: list[Sequence[AbstractState]] = []
    for cap_name, states in segments:
        key = (states[0], cap_name, states[-1])
        entry = tally.get(key)
        if entry is None:
            tally[key] = [cap_name, states, 1]
            if len(states) > 1:
                moves.append(states)
        else:
            entry[2] += 1
            if len(states) > 2:
                moves.append(states)
    return list(tally.values()), moves


@dataclass
class RunResult:
    """One policy-execution run: (capability, abstract states) segments and where it ended.

    `final_state` is the env state the run ended in, and `end` its abstraction.
    """

    segments: list[tuple[str, list[AbstractState]]]
    final_state: object
    end: AbstractState
    env_steps: int
    error: str | None = None


def run_capability(
    agent,
    simulator,
    intent: LiteralConjunction,
    abstraction: AbstractionFn,
    theta: int | None,
    horizon: int,
    start: AbstractState,
) -> tuple[list[AbstractState], int]:
    """One capability attempt from `simulator.current`: its abstract states and env steps.

    `start` is the abstraction of `simulator.current`, which the caller
    already holds (the previous attempt's last state, or its own start).
    Every later state is abstracted once. Consecutive repeats are collapsed,
    and the sequence ends at the theta-th distinct abstract state
    (`theta=None` keeps them all; theta=2 keeps one abstract change). At a
    cut the simulator is left at the cut's env state, so callers continue
    from exactly what was observed.
    """
    if theta is not None and theta < 1:
        raise ValueError("theta must be >= 1 or None")
    traj = agent.attempt(intent, simulator, simulator.current, horizon)
    if not traj:
        raise ValueError("trajectory must contain at least the start state")
    states = [start]
    idx, last = 0, len(traj) - 1
    while idx < last and len(states) != theta:
        idx += 1
        s = abstraction(traj[idx])
        if s != states[-1]:
            states.append(s)
    if idx < last:
        simulator.revert(traj[idx])
    return states, idx


def execute_query(
    agent,
    simulator,
    query: Query,
    capabilities: Mapping[str, Capability],
    abstraction: AbstractionFn,
    theta: int | None,
    horizon: int,
    max_policy_steps: int,
) -> list[RunResult]:
    """Run the query's policy `n` times from its initial state.

    Each step takes the next sequence element (or, for a state policy, the
    capability for the current abstract state, at most `max_policy_steps`
    times), hands its intent to the agent, and stops when the policy is
    undefined or exhausted. Agent exceptions are captured per run. `x0` is
    abstracted once per call and every later env state once, as
    `run_capability` reaches it; only a run whose agent raised abstracts the
    env state it was left in, which the failed attempt may have moved.
    """
    if query.n < 1:
        raise ConfigurationError("query repetition count must be >= 1")
    start = abstraction(query.x0)
    policy = query.policy
    sequence = policy.sequence if isinstance(policy, SequencePolicy) else None
    length = len(sequence) if sequence is not None else max_policy_steps
    results: list[RunResult] = []
    for _ in range(query.n):
        simulator.revert(query.x0)
        segments: list[tuple[str, list[AbstractState]]] = []
        # The agent leaves the simulator where the last segment ended.
        state = start
        steps = 0
        error = None
        for k in range(length):
            cap_name = sequence[k] if sequence is not None else policy.lookup(state)
            cap = capabilities.get(cap_name)
            if cap is None:
                break
            try:
                states, env_steps = run_capability(
                    agent, simulator, cap.intent, abstraction, theta, horizon, state
                )
            except Exception as exc:  # noqa: BLE001 - agent is untrusted
                error = f"{type(exc).__name__}: {exc}"
                state = abstraction(simulator.current)
                break
            segments.append((cap_name, states))
            steps += env_steps
            state = states[-1]
        results.append(RunResult(segments, simulator.current, state, steps, error))
    return results


def sample_initial_state(
    outcomes: Sequence[tuple[object, int, AbstractState]],
    previous_initial: tuple[object, int, AbstractState],
    dataset: TransitionDataset,
    reset: tuple[object, int, AbstractState],
    horizon: int,
    rng: Random,
) -> tuple[object, int, AbstractState]:
    """Pick the next query's start from the previous query's outcome states.

    Every start, the candidates, the previous start and the reset start
    (the simulator's reset state at distance 0), is an `(env state,
    distance, abstract state)` triple, and the one picked is returned as
    given; nothing is abstracted or simulated here. Sampling weight is
    inversely proportional to how often a state has been an observed
    transition source. Outcomes (and a previous start) that ended beyond the
    step horizon leave the pool. The reset start always competes in it, so
    saturated regions are eventually abandoned; when no candidate other than
    the previous start remains, the next start is the reset start.
    """
    candidates: dict[AbstractState, tuple[object, int, AbstractState]] = {}
    for start in [*outcomes, previous_initial]:
        if start[1] <= horizon:
            candidates.setdefault(start[2], start)
    if not candidates or set(candidates) == {previous_initial[2]}:
        return reset
    candidates.setdefault(reset[2], reset)

    ordered = sorted(candidates.items(), key=lambda kv: kv[0].bits)
    visit = [dataset.state_visit_count(s) for s, _ in ordered]
    n_max = max(visit)
    weights = [n_max + 1 - v for v in visit]
    return ordered[bisect_right(cumulative(weights), rng.random() * sum(weights))][1]


def run(
    config: LearnerConfig,
    bundle: EnvironmentBundle,
    out_dir: str | Path | None = None,
    checkpoint_hook: Callable[[int, CapabilityModel, "RunLog", TransitionDataset], None]
    | None = None,
) -> tuple[CapabilityModel, RunLog]:
    """Execute the full learning loop and return the final pessimistic model."""
    config.validate()
    universe = bundle.universe
    simulator = bundle.simulator
    abstraction = bundle.abstraction
    seed = config.seed
    walk_rng = Random(f"{seed}/walk")
    synth_rng = Random(f"{seed}/synth")
    policy_rng = Random(f"{seed}/policy")
    init_rng = Random(f"{seed}/init")

    out_path = Path(out_dir) if out_dir is not None else None
    snap_dir = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        snap_dir = out_path / "snapshots"
        snap_dir.mkdir(exist_ok=True)
        (out_path / "runlog.jsonl").write_text("")

    def journal(doc: dict) -> None:
        """Append one line to `runlog.jsonl`, closing the file so it survives a crash."""
        if out_path is not None:
            with open(out_path / "runlog.jsonl", "a") as fh:
                fh.write(json.dumps(doc, sort_keys=True) + "\n")

    started = time.monotonic()
    bootstrap_steps = config.horizon if config.bootstrap_steps is None else config.bootstrap_steps
    # One horizon's worth of random-walk steps; a walk that dies in a dead end
    # (no applicable action) restarts from reset until the budget is consumed.
    walks = []
    remaining = bootstrap_steps
    while remaining > 0:
        walk = random_walk(simulator, remaining, walk_rng)
        walks.append(walk)
        remaining -= max(len(walk) - 1, 1)
    capabilities = discover_capabilities(
        [[abstraction(x) for x in walk] for walk in walks], universe
    )
    dataset = TransitionDataset()
    m_pess, m_opt = build_models(capabilities.values(), dataset, universe)

    reset_state = simulator.reset()
    x_i = reset = (reset_state, 0, abstraction(reset_state))
    log = RunLog()
    quiet_queries = 0  # queries since the last one that found something new
    query_idx = 0

    def stop_reason() -> str | None:
        if config.max_queries is not None and query_idx >= config.max_queries:
            return "max_queries"
        if (
            config.wall_clock_budget is not None
            and time.monotonic() - started >= config.wall_clock_budget
        ):
            return "wall_clock"
        if quiet_queries >= config.early_stop_window:
            return "early_stop"
        if not capabilities:
            return "no_capabilities"
        return None

    while True:
        reason = stop_reason()
        if reason is not None:
            log.stop_reason = reason
            break
        x0, distance, s0 = x_i
        score: float | None = None
        marks = [time.perf_counter()]  # one more at the end of each phase
        if config.variant == "random":
            source = "random"
        else:
            synthesize = synthesize_exact if config.variant == "exact" else synthesize_sampled
            result = synthesize(
                s0, m_pess, m_opt, config.mcts_iterations, config.kappa, config.depth, synth_rng
            )
            score = result.score
            source = "synthesized" if score > 0.0 and result.policy.mapping else "fallback"
        if source == "synthesized":
            query = Query(x0, result.policy, config.runs_per_query)
        else:
            query = random_policy_query(
                x0, list(capabilities), config.random_policy_length,
                config.runs_per_query, policy_rng,
            )
        marks.append(time.perf_counter())

        results = execute_query(
            bundle.agent, simulator, query, capabilities, abstraction,
            config.theta, config.horizon, config.depth,
        )
        marks.append(time.perf_counter())

        novel = 0
        executions = sum(len(res.segments) for res in results)
        failures = sum(res.error is not None for res in results)
        outcomes = [(res.final_state, distance + res.env_steps, res.end) for res in results]
        # One record per distinct transition keeps `novel`, every count and
        # whether each capability's revision moved, as one per segment would.
        tally, moves = tally_segments(seg for res in results for seg in res.segments)
        for cap_name, states, count in tally:
            _, is_new = dataset.record(states, cap_name, count)
            novel += int(is_new)
        discovered = discover_capabilities(moves, universe)
        for name, cap in discovered.items():
            if name not in capabilities:
                capabilities[name] = cap
                novel += 1
        marks.append(time.perf_counter())

        kept = m_pess.capabilities
        m_pess, m_opt = build_models(capabilities.values(), dataset, universe, (m_pess, m_opt))
        rebuilt = sum(cap is not kept.get(name) for name, cap in m_pess.capabilities.items())
        quiet_queries = 0 if novel else quiet_queries + 1
        marks.append(time.perf_counter())

        snapshot_name = None
        if snap_dir is not None:
            snapshot_name = f"query_{query_idx:04d}.json"
            (snap_dir / snapshot_name).write_text(model_to_json(m_pess, indent=None))
        marks.append(time.perf_counter())
        record = QueryRecord(
            index=query_idx,
            policy=policy_to_json(query.policy, universe),
            initial_state=universe.atom_names(s0),
            novel=novel,
            unique_transitions=len(dataset),
            total_transitions=dataset.total(),
            executions=executions,
            score=score,
            elapsed=marks[-1] - marks[0],
            snapshot=snapshot_name,
            failures=failures,
            source=source,
            phases={name: b - a for name, a, b in zip(PHASES, marks, marks[1:])},
            rebuilt=rebuilt,
            observed_states=dataset.observed_state_count(),
        )
        log.records.append(record)
        journal(vars(record))
        if checkpoint_hook is not None:
            checkpoint_hook(query_idx, m_pess, log, dataset)

        x_i = sample_initial_state(outcomes, x_i, dataset, reset, config.horizon, init_rng)
        query_idx += 1

    log.capabilities = len(capabilities)
    log.wall_seconds = time.monotonic() - started
    if out_path is not None:
        (out_path / "final_model.json").write_text(model_to_json(m_pess))
        (out_path / "final_model.txt").write_text(model_to_text(m_pess))
        (out_path / "dataset.jsonl").write_text(dataset.to_jsonl(universe))
    journal({"stop_reason": log.stop_reason, "capabilities": log.capabilities,
             "wall_seconds": log.wall_seconds})
    return m_pess, log
