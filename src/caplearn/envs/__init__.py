"""Built-in desk-scale environments with scripted agents and known ground truth.

Each ground truth is derived from the agent's table and the simulator's
actions by `TableAgent.ground_truth`; no world writes its model by hand.
"""

from __future__ import annotations

from ..abstraction import ConfigurationError
from .base import ActionDef, ActionOutcome, AtomSimulator, EnvironmentBundle, TableAgent
from .blocks import stochastic_blocks
from .roads import road_world
from .vacuum import vacuum_world

_BUILDERS = {
    "vacuum": vacuum_world,
    "roads": road_world,
    "blocks": stochastic_blocks,
}


def environment_names() -> list[str]:
    return sorted(_BUILDERS)


def make_environment(name: str, seed: int | str = 0, **params) -> EnvironmentBundle:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown environment {name!r}; choose from {environment_names()}"
        ) from None
    return builder(seed=seed, **params)


__all__ = [
    "ActionDef",
    "ActionOutcome",
    "AtomSimulator",
    "EnvironmentBundle",
    "TableAgent",
    "environment_names",
    "make_environment",
    "road_world",
    "stochastic_blocks",
    "vacuum_world",
]
