"""State distributions, plain probability dicts as `predict` returns them, and their distances."""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .abstraction import AbstractState


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
