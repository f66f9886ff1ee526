"""Variational-distance evaluation against ground truth and by paired replay."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Iterable, Mapping, Sequence

from .abstraction import AbstractState, ConfigurationError
from .dataset import Transition, TransitionDataset
from .distributions import draw
from .envs.base import EnvironmentBundle
from .learner import run_capability
from .model import Capability, CapabilityModel, predict


@dataclass
class EvalConfig:
    episodes: int = 1000
    min_len: int = 10
    max_len: int = 30
    seed: int = 0

    def validate(self) -> None:
        if self.episodes < 1:
            raise ConfigurationError("episodes must be positive")
        if not 1 <= self.min_len <= self.max_len:
            raise ConfigurationError("need 1 <= min_len <= max_len")


def generate_eval_dataset(
    bundle: EnvironmentBundle,
    capabilities: Mapping[str, Capability],
    config: EvalConfig,
    theta: int | None = None,
    horizon: int = 100,
) -> tuple[TransitionDataset, list[list[str]]]:
    """Drive the agent through uniform-random capability sequences from reset.

    Returns the observed transitions and the exact sequences used, so a model
    can replay them.
    """
    config.validate()
    rng = Random(f"{config.seed}/eval")
    names = sorted(capabilities)
    if not names:
        raise ConfigurationError("no capabilities to evaluate")
    dataset = TransitionDataset()
    sequences: list[list[str]] = []
    for _ in range(config.episodes):
        bundle.simulator.reset()
        seq = [rng.choice(names) for _ in range(rng.randint(config.min_len, config.max_len))]
        sequences.append(seq)
        for cap_name in seq:
            states, _ = run_capability(
                bundle.agent,
                bundle.simulator,
                capabilities[cap_name].intent,
                bundle.abstraction,
                theta,
                horizon,
            )
            dataset.record(states, cap_name)
    return dataset, sequences


def model_replay(
    model: CapabilityModel,
    sequences: Sequence[Sequence[str]],
    start: AbstractState,
    seed: int | str = 0,
) -> TransitionDataset:
    """Replay capability sequences inside the model, open loop from `start`.

    Every step draws exactly one uniform from `Random(f"{seed}/replay")`,
    whatever the model, and picks a successor in bit order. Each distinct
    (state, capability) is looked up in the model once per call; later visits
    reuse its successor list and add to its per-successor hit counts, which
    become the returned dataset's counts.
    """
    rng = Random(f"{seed}/replay")
    # (state bits, capability) -> (state, successors in bit order,
    # (index, probability) pairs to draw from, hits per successor)
    table: dict[
        tuple[int, str],
        tuple[AbstractState, list[AbstractState], list[tuple[int, float]], list[int]],
    ] = {}
    for seq in sequences:
        s = start
        for cap_name in seq:
            entry = table.get((s.bits, cap_name))
            if entry is None:
                ordered = sorted(predict(model, s, cap_name).items(), key=lambda kv: kv[0].bits)
                entry = table[(s.bits, cap_name)] = (
                    s,
                    [s2 for s2, _ in ordered],
                    [(i, p) for i, (_, p) in enumerate(ordered)],
                    [0] * len(ordered),
                )
            _, successors, weighted, hits = entry
            i = draw(weighted, rng.random())
            hits[i] += 1
            s = successors[i]
    dataset = TransitionDataset()
    for (_, cap_name), (s, successors, _, hits) in table.items():
        for s2, n in zip(successors, hits):
            if n:
                dataset.add(Transition(s, cap_name, s2), n)
    return dataset


def _marginals(ds: TransitionDataset) -> dict[tuple[AbstractState, str], int]:
    out: dict[tuple[AbstractState, str], int] = {}
    for t, n in ds.counts.items():
        key = (t.s, t.c)
        out[key] = out.get(key, 0) + n
    return out


def sampled_vd(agent_ds: TransitionDataset, model_ds: TransitionDataset) -> float:
    """Mean absolute difference of conditional transition ratios.

    Ranges over the union of unique transitions; a missing (s, c) marginal
    contributes ratio 0 for that dataset. Terms are summed in a fixed order,
    so the result does not depend on the process's string-hash seed.
    """
    union = set(agent_ds.counts) | set(model_ds.counts)
    if not union:
        return 0.0
    me = _marginals(agent_ds)
    mm = _marginals(model_ds)
    total = 0.0
    for t in sorted(union, key=lambda t: (t.c, t.s.bits, t.s_next.bits)):
        key = (t.s, t.c)
        ne = me.get(key, 0)
        nm = mm.get(key, 0)
        re = agent_ds.counts.get(t, 0) / ne if ne else 0.0
        rm = model_ds.counts.get(t, 0) / nm if nm else 0.0
        total += abs(re - rm)
    return total / len(union)


def ground_truth_transitions(
    truth: CapabilityModel, states: Iterable[AbstractState]
) -> list[Transition]:
    """All non-zero-probability transitions of `truth` from the given states."""
    out = []
    for s in states:
        for c in truth.capability_names():
            for s2 in sorted(predict(truth, s, c), key=lambda x: x.bits):
                out.append(Transition(s, c, s2))
    return out


def reachable_states(truth: CapabilityModel, start: AbstractState) -> set[AbstractState]:
    """Closure of `start` under the truth model's non-zero transitions."""
    seen = {start}
    frontier = [start]
    while frontier:
        s = frontier.pop()
        for c in truth.capabilities:
            for s2 in predict(truth, s, c):
                if s2 not in seen:
                    seen.add(s2)
                    frontier.append(s2)
    return seen


def exact_vd(
    model: CapabilityModel, truth: CapabilityModel, transitions: Sequence[Transition]
) -> float:
    """Average absolute probability gap over the given transition set."""
    if not transitions:
        return 0.0
    total = 0.0
    for t in transitions:
        p_model = predict(model, t.s, t.c).get(t.s_next, 0.0)
        p_truth = predict(truth, t.s, t.c).get(t.s_next, 0.0)
        total += abs(p_model - p_truth)
    return total / len(transitions)


def evaluation_filter(model: CapabilityModel) -> CapabilityModel:
    """Drop rules that cannot achieve their capability's intent, then empty capabilities."""
    kept: dict[str, Capability] = {}
    for name, cap in model.capabilities.items():
        rules = tuple(
            r
            for r in cap.rules
            if any(
                eff.add & cap.intent.positives == cap.intent.positives
                and eff.delete & cap.intent.negatives == cap.intent.negatives
                for _, eff in r.effects
            )
        )
        if rules:
            kept[name] = Capability(cap.name, cap.intent, rules)
    return CapabilityModel(model.universe, kept, model.flavor)


@dataclass
class CheckpointRow:
    checkpoint: str
    queries: int
    unique_transitions: int | None
    vd_sampled: float
    vd_exact: float | None
    wall_seconds: float


def write_csv(rows: Sequence[CheckpointRow], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["checkpoint", "queries", "unique_transitions", "vd_sampled",
                         "vd_exact_if_available", "wall_seconds"])
        for r in rows:
            writer.writerow(
                [r.checkpoint, r.queries,
                 "" if r.unique_transitions is None else r.unique_transitions, r.vd_sampled,
                 "" if r.vd_exact is None else r.vd_exact, r.wall_seconds]
            )
