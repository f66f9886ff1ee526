"""State distributions, plain probability dicts as `predict` returns them, and their distances."""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .abstraction import AbstractState
from .model import CapabilityModel, predict


def push_distribution(
    dist: Mapping[AbstractState, float], model: CapabilityModel, capability: str
) -> dict[AbstractState, float]:
    """One-step image of `dist` under one capability of `model`.

    Each state's successors come from the memoized `predict` (a state
    no condition accepts keeps its mass); successors reached from several
    states have their masses summed. A product that underflows to 0.0 keeps
    its state in the support.
    """
    out: dict[AbstractState, float] = {}
    for state, q in dist.items():
        for s2, p in predict(model, state, capability).items():
            out[s2] = out.get(s2, 0.0) + q * p
    return out


def tv_distance(d1: Mapping[AbstractState, float], d2: Mapping[AbstractState, float]) -> float:
    """Total-variation distance: half the L1 gap over the union of supports."""
    total = 0.0
    for s in d1.keys() | d2.keys():
        total += abs(d1.get(s, 0.0) - d2.get(s, 0.0))
    return 0.5 * total


def cumulative(weights: Iterable[float]) -> list[float]:
    """Running sums of the non-empty `weights`, the last raised to infinity.

    `bisect_right(cumulative(ws), u)` is the inverse-CDF categorical pick for
    `u` from items weighted `ws`: the first index whose running sum exceeds
    `u`. Weights are summed as given, never renormalized, so callers scale
    `u` to their total; a `u` past the rounded total falls on the last item.
    """
    cum: list[float] = []
    acc = 0.0
    for w in weights:
        acc += w
        cum.append(acc)
    cum[-1] = math.inf
    return cum
