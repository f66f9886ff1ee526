"""Sparse log-space distributions over abstract states and their distances."""

from __future__ import annotations

import math
from typing import Mapping, Sequence, TypeVar

from .abstraction import AbstractState
from .model import CapabilityModel, predict

T = TypeVar("T")


class StateDistribution:
    """Sparse map from abstract state to log-probability mass.

    Only states with nonzero mass are stored. Masses of merged successors are
    combined with log-sum-exp, so long push chains stay numerically stable.
    """

    __slots__ = ("log_mass",)

    def __init__(self, log_mass: Mapping[AbstractState, float] | None = None) -> None:
        self.log_mass: dict[AbstractState, float] = dict(log_mass or {})

    @classmethod
    def point(cls, state: AbstractState) -> "StateDistribution":
        return cls({state: 0.0})

    @classmethod
    def from_probs(cls, probs: Mapping[AbstractState, float]) -> "StateDistribution":
        return cls({s: math.log(p) for s, p in probs.items() if p > 0.0})

    def probs(self) -> dict[AbstractState, float]:
        return {s: math.exp(lp) for s, lp in self.log_mass.items()}

    def support(self) -> frozenset[AbstractState]:
        return frozenset(self.log_mass)

    def mass(self, state: AbstractState) -> float:
        lp = self.log_mass.get(state)
        return 0.0 if lp is None else math.exp(lp)

    def total(self) -> float:
        return sum(math.exp(lp) for lp in self.log_mass.values())

    def __len__(self) -> int:
        return len(self.log_mass)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, StateDistribution) and self.log_mass == other.log_mass


def _logaddexp(a: float, b: float) -> float:
    if a < b:
        a, b = b, a
    return a + math.log1p(math.exp(b - a))


def push_distribution(
    dist: StateDistribution, model: CapabilityModel, capability: str
) -> StateDistribution:
    """One-step image of `dist` under one capability of `model`.

    Each state's successors come from the memoized `predict` (a state
    no condition accepts keeps its mass); successors reached from several
    states are merged in log space.
    """
    out: dict[AbstractState, float] = {}
    for state, lp in dist.log_mass.items():
        for s2, p in predict(model, state, capability).items():
            total = lp + math.log(p)
            prev = out.get(s2)
            out[s2] = total if prev is None else _logaddexp(prev, total)
    return StateDistribution(out)


def tv_distance(d1: StateDistribution, d2: StateDistribution) -> float:
    """Total-variation distance: half the L1 gap over the union of supports."""
    total = 0.0
    for s in d1.support() | d2.support():
        total += abs(d1.mass(s) - d2.mass(s))
    return 0.5 * total


def sd_reward(d1: StateDistribution, d2: StateDistribution) -> float:
    """Half-mixture mass on the symmetric difference of the two supports."""
    sup1, sup2 = d1.support(), d2.support()
    total = 0.0
    for s in sup1 ^ sup2:
        total += 0.5 * d1.mass(s) + 0.5 * d2.mass(s)
    return total


def draw(weighted: Sequence[tuple[T, float]], u: float) -> T:
    """Inverse-CDF categorical draw: the first item whose cumulative weight exceeds `u`.

    Weights are summed as given, never renormalized, so callers scale `u` to
    their total; when rounding leaves `u` past the last cumulative weight, the
    last item is returned.
    """
    acc = 0.0
    for item, w in weighted:
        acc += w
        if u < acc:
            return item
    return weighted[-1][0]
