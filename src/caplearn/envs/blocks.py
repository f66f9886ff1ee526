"""Stochastic blocksworld: pick/place with a slippery gripper.

Stacking drops the held block back onto the table with the configured slip
probability; picking and putting down are deterministic. The scripted agent
acts only when a single primitive directly serves the intent.
"""

from __future__ import annotations

from itertools import permutations

from ..abstraction import AtomUniverse, ConfigurationError
from .base import ActionDef, ActionOutcome, AtomSimulator, EnvironmentBundle, TableAgent, clause, dnf


def stochastic_blocks(n_blocks: int = 3, slip: float = 0.25, seed: int | str = 0) -> EnvironmentBundle:
    if not 3 <= n_blocks <= 5:
        raise ConfigurationError(f"n_blocks must be in [3, 5], got {n_blocks}")
    if not 0.0 <= slip < 1.0:
        raise ConfigurationError(f"slip must be in [0, 1), got {slip}")
    blocks = [f"b{i}" for i in range(1, n_blocks + 1)]
    universe = AtomUniverse(
        predicates={
            "on": ["block", "block"],
            "ontable": ["block"],
            "clear": ["block"],
            "holding": ["block"],
        },
        objects={b: "block" for b in blocks},
    )
    holding_all = [f"holding({b})" for b in blocks]

    def on(a, b):
        return f"on({a},{b})"

    def ontable(a):
        return f"ontable({a})"

    def clear_(a):
        return f"clear({a})"

    def holding(a):
        return f"holding({a})"

    actions = []
    for a in blocks:
        actions.append(
            ActionDef(
                f"pickup_{a}",
                dnf(universe, [clause(universe, pos=[ontable(a), clear_(a)], neg=holding_all)]),
                (ActionOutcome(1.0, frozenset({holding(a)}), frozenset({ontable(a), clear_(a)})),),
            )
        )
        actions.append(
            ActionDef(
                f"putdown_{a}",
                dnf(universe, [clause(universe, pos=[holding(a)])]),
                (ActionOutcome(1.0, frozenset({ontable(a), clear_(a)}), frozenset({holding(a)})),),
            )
        )
    for a, b in permutations(blocks, 2):
        actions.append(
            ActionDef(
                f"unstack_{a}_{b}",
                dnf(universe, [clause(universe, pos=[on(a, b), clear_(a)], neg=holding_all)]),
                (
                    ActionOutcome(
                        1.0, frozenset({holding(a), clear_(b)}), frozenset({on(a, b), clear_(a)})
                    ),
                ),
            )
        )
        stack_outcomes = [
            ActionOutcome(
                1.0 - slip,
                frozenset({on(a, b), clear_(a)}),
                frozenset({holding(a), clear_(b)}),
            )
        ]
        if slip > 0.0:
            stack_outcomes.append(
                ActionOutcome(slip, frozenset({ontable(a), clear_(a)}), frozenset({holding(a)}))
            )
        actions.append(
            ActionDef(
                f"stack_{a}_{b}",
                dnf(universe, [clause(universe, pos=[holding(a), clear_(b)])]),
                tuple(stack_outcomes),
            )
        )

    reset = frozenset({ontable(a) for a in blocks} | {clear_(a) for a in blocks})
    simulator = AtomSimulator(universe, reset, actions, seed)

    table = {}
    for a in blocks:
        table[holding(a)] = tuple([f"pickup_{a}"] + [f"unstack_{a}_{b}" for b in blocks if b != a])
        table[ontable(a)] = (f"putdown_{a}",)
    for a, b in permutations(blocks, 2):
        table[on(a, b)] = (f"stack_{a}_{b}",)
    agent = TableAgent(universe, table)

    return EnvironmentBundle(
        universe, simulator, agent, universe.encode, agent.ground_truth(simulator.actions)
    )
