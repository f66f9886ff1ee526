"""One-way road network with flat tires and consumable spare-tire pickups.

Driving any edge has an 80% chance of flattening the tire; a flat tire blocks
all driving until fixed, and a fix consumes the carried spare. Spares can be
picked up at stocked locations (each stock holds one). The road graph is a
lollipop (l1 feeds a 5-cycle), so l1 is unreachable from everywhere else.
"""

from __future__ import annotations

from ..abstraction import AtomUniverse
from .base import ActionDef, ActionOutcome, AtomSimulator, EnvironmentBundle, TableAgent, clause, dnf

LOCATIONS = ["l1", "l2", "l3", "l4", "l5", "l6"]
EDGES = [("l1", "l2"), ("l2", "l3"), ("l3", "l4"), ("l4", "l5"), ("l5", "l6"), ("l6", "l2")]
SPARE_LOCATIONS = ["l2", "l5"]
FLAT = "flat(tire)"
CARRYING = "carrying(spare)"
FLAT_CHANCE = 0.8


def _at(loc: str) -> str:
    return f"at({loc})"


def _spare(loc: str) -> str:
    return f"spare_at({loc})"


def road_world(seed: int | str = 0) -> EnvironmentBundle:
    universe = AtomUniverse(
        predicates={
            "at": ["location"],
            "flat": ["tire"],
            "spare_at": ["location"],
            "carrying": ["spare"],
        },
        objects={
            **{l: "location" for l in LOCATIONS},
            "tire": "tire",
            "spare": "spare",
        },
    )

    actions = []
    for src, dst in EDGES:
        actions.append(
            ActionDef(
                f"drive_{src}_{dst}",
                dnf(universe, [clause(universe, pos=[_at(src)], neg=[FLAT, _at(dst)])]),
                (
                    ActionOutcome(FLAT_CHANCE, frozenset({_at(dst), FLAT}), frozenset({_at(src)})),
                    ActionOutcome(1 - FLAT_CHANCE, frozenset({_at(dst)}), frozenset({_at(src)})),
                ),
            )
        )
    for loc in SPARE_LOCATIONS:
        actions.append(
            ActionDef(
                f"pickup_spare_{loc}",
                dnf(universe, [clause(universe, pos=[_at(loc), _spare(loc)], neg=[CARRYING])]),
                (ActionOutcome(1.0, frozenset({CARRYING}), frozenset({_spare(loc)})),),
            )
        )
    actions.append(
        ActionDef(
            "fix_tire",
            dnf(universe, [clause(universe, pos=[FLAT, CARRYING])]),
            (ActionOutcome(1.0, frozenset(), frozenset({FLAT, CARRYING})),),
        )
    )

    reset = frozenset({_at("l1")} | {_spare(l) for l in SPARE_LOCATIONS})
    simulator = AtomSimulator(universe, reset, actions, seed)

    table = {
        f"!{FLAT}": ("fix_tire",),
        CARRYING: tuple(f"pickup_spare_{l}" for l in SPARE_LOCATIONS),
    }
    for dst in LOCATIONS:
        drives = tuple(f"drive_{src}_{d}" for src, d in EDGES if d == dst)
        if drives:
            table[_at(dst)] = drives
    agent = TableAgent(universe, table)

    return EnvironmentBundle(
        universe, simulator, agent, universe.encode, agent.ground_truth(simulator.actions)
    )
