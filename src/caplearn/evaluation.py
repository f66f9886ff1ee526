"""Variational-distance evaluation against ground truth and by paired replay."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain
from random import Random
from typing import Iterable, Iterator, Mapping, Sequence

from .abstraction import AbstractState, ConfigurationError
from .dataset import Transition, TransitionDataset
from .distributions import cumulative
from .envs.base import EnvironmentBundle
from .learner import execute_query, tally_segments
from .model import Capability, CapabilityModel, intent_achieving, predict
from .synthesis import random_policy_query


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

    Each episode is one run of `learner.execute_query` on its sequence; an
    episode whose agent raised raises here. Returns the observed transitions,
    recorded once per distinct transition with its count, and the exact
    sequences used, so a model can replay them.
    """
    config.validate()
    rng = Random(f"{config.seed}/eval")
    names = sorted(capabilities)
    if not names:
        raise ConfigurationError("no capabilities to evaluate")
    sequences: list[list[str]] = []

    def segments() -> Iterator[tuple[str, list[AbstractState]]]:
        for episode in range(config.episodes):
            length = rng.randint(config.min_len, config.max_len)
            query = random_policy_query(bundle.simulator.reset(), names, length, 1, rng)
            sequences.append(list(query.policy.sequence))
            (result,) = execute_query(
                bundle.agent, bundle.simulator, query, capabilities, bundle.abstraction,
                theta, horizon, length,
            )
            if result.error is not None:
                raise RuntimeError(f"evaluation episode {episode}: {result.error}")
            yield from result.segments

    dataset = TransitionDataset()
    for cap_name, states, count in tally_segments(segments())[0]:
        dataset.record(states, cap_name, count)
    return dataset, sequences


def model_replay(
    model: CapabilityModel,
    sequences: Sequence[Sequence[str]],
    start: AbstractState,
    seed: int | str = 0,
) -> TransitionDataset:
    """Replay capability sequences inside the model, open loop from `start`.

    Every step draws exactly one uniform `u` from `Random(f"{seed}/replay")`,
    whatever the model, and picks the successor at `bisect_right` of `u` in
    the `cumulative` weights of the successors in bit order. Each distinct
    (state, capability) is looked up in the model once per call; later
    visits reuse its successor list and add to its per-successor hit counts,
    which become the returned dataset's counts, in the order the pairs were
    first visited.
    """
    random = Random(f"{seed}/replay").random
    # capability -> state bits -> (successors in bit order, their
    # `cumulative` weights or None for a single successor, hits per successor)
    tables: dict[str, dict[int, tuple[list[AbstractState], list[float] | None, list[int]]]] = {
        name: {} for name in set(chain.from_iterable(sequences))
    }
    visits: list[tuple[AbstractState, str, list[AbstractState], list[int]]] = []
    for seq in sequences:
        s = start
        for cap_name in seq:
            table = tables[cap_name]
            try:
                successors, cum, hits = table[s.bits]
            except KeyError:
                ordered = sorted(predict(model, s, cap_name).items(), key=lambda kv: kv[0].bits)
                successors = [s2 for s2, _ in ordered]
                cum = cumulative(p for _, p in ordered) if len(ordered) > 1 else None
                hits = [0] * len(ordered)
                table[s.bits] = (successors, cum, hits)
                visits.append((s, cap_name, successors, hits))
            u = random()
            i = 0 if cum is None else bisect_right(cum, u)
            hits[i] += 1
            s = successors[i]
    dataset = TransitionDataset()
    for s, cap_name, successors, hits in visits:
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
        for c in sorted(truth.capabilities):
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
    """Keep each capability's intent-achieving rules, then drop capabilities left empty."""
    kept: dict[str, Capability] = {}
    for name, cap in model.capabilities.items():
        filtered = intent_achieving(cap)
        if filtered.rules:
            kept[name] = filtered
    return CapabilityModel(model.universe, kept, model.flavor)
