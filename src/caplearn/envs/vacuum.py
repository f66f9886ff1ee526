"""Vacuum-cleaning robot: two rooms, a charger dock, and a stochastic cleaner.

The clean capability fires only with the vacuum in hand and either charge or
dock contact, and then has three outcomes: clean and drain the battery (0.50),
clean while ending up on the dock (0.25), or just drain the battery (0.25).
"""

from __future__ import annotations

from ..abstraction import AtomUniverse
from .base import ActionDef, ActionOutcome, AtomSimulator, EnvironmentBundle, TableAgent, clause, dnf

CHARGED = "charged(robot)"
AT = "at(charger,robot)"
HAS = "has(robot,vacuum)"


def _clean_action(universe, room: str) -> ActionDef:
    target = f"clean({room})"
    pre = dnf(
        universe,
        [
            clause(universe, pos=[HAS, CHARGED], neg=[target]),
            clause(universe, pos=[HAS, AT], neg=[target]),
        ],
    )
    return ActionDef(
        f"clean_{room}",
        pre,
        (
            ActionOutcome(0.50, frozenset({target}), frozenset({CHARGED})),
            ActionOutcome(0.25, frozenset({target, AT}), frozenset()),
            ActionOutcome(0.25, frozenset(), frozenset({CHARGED})),
        ),
    )


def vacuum_world(seed: int | str = 0) -> EnvironmentBundle:
    universe = AtomUniverse(
        predicates={
            "charged": ["agent"],
            "at": ["dock", "agent"],
            "has": ["agent", "tool"],
            "clean": ["room"],
        },
        objects={
            "robot": "agent",
            "vacuum": "tool",
            "charger": "dock",
            "l1": "room",
            "l2": "room",
        },
    )

    actions = [
        ActionDef(
            "grab",
            dnf(universe, [clause(universe, neg=[HAS])]),
            (ActionOutcome(1.0, frozenset({HAS}), frozenset()),),
        ),
        ActionDef(
            "dock",
            dnf(universe, [clause(universe, neg=[AT])]),
            (ActionOutcome(1.0, frozenset({AT}), frozenset()),),
        ),
        ActionDef(
            "undock",
            dnf(universe, [clause(universe, pos=[AT])]),
            (ActionOutcome(1.0, frozenset(), frozenset({AT})),),
        ),
        ActionDef(
            "dock_and_charge",
            dnf(universe, [clause(universe, neg=[CHARGED])]),
            (ActionOutcome(1.0, frozenset({CHARGED, AT}), frozenset()),),
        ),
        # Battery drains when idling off-dock; keeps discharge (and hence
        # recharge) reachable for random walks even after both rooms are clean.
        ActionDef(
            "drain",
            dnf(universe, [clause(universe, pos=[CHARGED], neg=[AT])]),
            (ActionOutcome(1.0, frozenset(), frozenset({CHARGED})),),
        ),
        _clean_action(universe, "l1"),
        _clean_action(universe, "l2"),
    ]

    simulator = AtomSimulator(universe, frozenset({CHARGED}), actions, seed)
    agent = TableAgent(
        universe,
        {
            HAS: ("grab",),
            AT: ("dock",),
            f"!{AT}": ("undock",),
            CHARGED: ("dock_and_charge",),
            "clean(l1)": ("clean_l1",),
            "clean(l2)": ("clean_l2",),
        },
    )

    return EnvironmentBundle(
        universe, simulator, agent, universe.encode, agent.ground_truth(simulator.actions)
    )
