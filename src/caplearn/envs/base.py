"""Simulator and scripted-agent machinery shared by the built-in environments.

Environment states are frozensets of ground-atom names. The abstraction,
simulator and agent all map them to bits through the universe's memoized
`encode`. All stochasticity lives in the simulator's RNG, which can be
snapshotted and restored so reverting to a previously encountered state
reproduces trajectory suffixes exactly. Each environment's ground-truth
capability model is derived from its agent's table and its simulator's
actions (`TableAgent.ground_truth`), so the dynamics are written once.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from random import Random
from typing import Callable, Mapping, Sequence

from ..abstraction import (
    AbstractState,
    AtomUniverse,
    Condition,
    ConfigurationError,
    LiteralConjunction,
    literal_string,
    parse_literal,
)
from ..dataset import EffectPair
from ..distributions import cumulative
from ..model import Capability, CapabilityModel, ConditionalEffectRule, capability_name

EnvState = frozenset


@dataclass(frozen=True)
class ActionOutcome:
    prob: float
    add: frozenset[str]
    delete: frozenset[str]


@dataclass(frozen=True)
class ActionDef:
    """A primitive action: DNF precondition plus stochastic atom edits."""

    name: str
    precondition: Condition
    outcomes: tuple[ActionOutcome, ...]

    def __post_init__(self) -> None:
        total = sum(o.prob for o in self.outcomes)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"action {self.name}: outcome probabilities sum to {total}")


class AtomSimulator:
    """Stateful, seedable simulator over atom-set environment states.

    What an action does from a state is worked out on the first visit of
    the pair and kept: `None` when the action is inapplicable, else its
    cumulative outcome weights and the successor state of each outcome.
    Each applicable `step` draws one `random()`.
    """

    def __init__(
        self,
        universe: AtomUniverse,
        reset_atoms: frozenset[str],
        actions: Sequence[ActionDef],
        seed: int | str = 0,
    ) -> None:
        self.universe = universe
        self._reset_state = frozenset(reset_atoms)
        self.actions: dict[str, ActionDef] = {a.name: a for a in sorted(actions, key=lambda a: a.name)}
        if len(self.actions) != len(actions):
            raise ValueError("duplicate action names")
        self._cumulative = {n: cumulative(o.prob for o in a.outcomes) for n, a in self.actions.items()}
        # (state, action) -> None if inapplicable, else (cumulative weights, successor per outcome)
        self._moves: dict[tuple[EnvState, str], tuple[list[float], list[EnvState]] | None] = {}
        self._rng = Random(f"{seed}/sim")
        self._state = self._reset_state

    @property
    def current(self) -> EnvState:
        return self._state

    def reset(self) -> EnvState:
        self._state = self._reset_state
        return self._state

    def revert(self, state: EnvState) -> None:
        self._state = frozenset(state)

    def _move(self, state: EnvState, action: str) -> tuple[list[float], list[EnvState]] | None:
        """What `action` does from `state`, computed on the first visit of the pair."""
        key = (state, action)
        try:
            return self._moves[key]
        except KeyError:
            pass
        adef = self.actions[action]
        move = None
        if adef.precondition.accepts_bits(self.universe.encode(state).bits):
            move = (self._cumulative[action], [frozenset(state - o.delete | o.add) for o in adef.outcomes])
        self._moves[key] = move
        return move

    def applicable(self, action: str, state: EnvState | None = None) -> bool:
        atoms = self._state if state is None else frozenset(state)
        return self._move(atoms, action) is not None

    def available_actions(self, state: EnvState | None = None) -> list[str]:
        atoms = self._state if state is None else frozenset(state)
        return [n for n in self.actions if self._move(atoms, n) is not None]

    def step(self, action: str) -> EnvState:
        """Apply `action`; an inapplicable action leaves the state unchanged."""
        move = self._move(self._state, action)
        if move is None:
            return self._state
        cum, successors = move
        self._state = successors[bisect_right(cum, self._rng.random())]
        return self._state

    def rng_state(self):
        return self._rng.getstate()

    def set_rng_state(self, state) -> None:
        self._rng.setstate(state)


class TableAgent:
    """Black-box agent driven by an intent-to-primitive lookup table.

    For each intent the table lists candidate primitives in priority order;
    the agent executes the first applicable one. If the intent already holds,
    or no candidate applies, it returns the trivial one-state trajectory.
    The choice is made once per (simulator, start state, intent) and kept;
    the trajectory always begins with the caller's `start` object.
    """

    def __init__(self, universe: AtomUniverse, table: Mapping[str, Sequence[str]]) -> None:
        self.universe = universe
        self.table: dict[str, tuple[str, ...]] = {k: tuple(v) for k, v in table.items()}
        # (simulator, start, intent) -> the primitive `attempt` runs, or None
        self._choices: dict[tuple[AtomSimulator, EnvState, LiteralConjunction], str | None] = {}

    def attempt(
        self,
        intent: LiteralConjunction,
        simulator: AtomSimulator,
        start: EnvState,
        horizon: int,
    ) -> list[EnvState]:
        current = simulator.current
        if current is not start and current != start:
            simulator.revert(start)
        traj = [start]
        if horizon < 1:
            return traj
        key = (simulator, start, intent)
        try:
            action = self._choices[key]
        except KeyError:
            action = self._choices[key] = self._choose(intent, simulator, start)
        if action is not None:
            traj.append(simulator.step(action))
        return traj

    def _choose(self, intent: LiteralConjunction, simulator: AtomSimulator, start: EnvState) -> str | None:
        """The first candidate applicable in `start`; None if the intent holds or none applies."""
        u = self.universe
        if intent.satisfied_by(u.encode(frozenset(start)).bits):
            return None
        for action in self.table.get(literal_string(intent, u), ()):
            if simulator.applicable(action, start):
                return action
        return None

    def ground_truth(self, actions: Mapping[str, ActionDef]) -> CapabilityModel:
        """The capability model that `attempt` realizes over `actions`.

        An intent that already holds leaves the state unchanged; otherwise the
        first applicable candidate runs. So each candidate, in priority order,
        gives one rule: its precondition clauses, each conjoined with the
        denied intent literal, with its outcomes as effects; outcomes with the
        same edit are one effect of summed probability, as the simulator
        treats them. A final rule leaves every state no candidate accepts
        unchanged. This holds only for single-literal intents over unnegated
        preconditions.
        """
        u = self.universe
        caps: dict[str, Capability] = {}
        for key, candidates in self.table.items():
            intent = parse_literal(key, u)
            # `attempt` finds a key by its canonical rendering; any other
            # spelling would be a capability the agent never performs.
            if intent.touched.bit_count() != 1 or literal_string(intent, u) != key:
                raise ConfigurationError(f"agent table key {key!r} is not one literal in canonical form")
            rules = []
            acting: list[LiteralConjunction] = []
            for name in candidates:
                action = actions[name]
                if action.precondition.negated:
                    raise ConfigurationError(f"action {name}: negated precondition")
                clauses = tuple(
                    LiteralConjunction(cl.positives | intent.negatives, cl.negatives | intent.positives)
                    for cl in action.precondition.clauses
                )
                acting.extend(clauses)
                effects: dict[EffectPair, float] = {}
                for o in action.outcomes:
                    eff = EffectPair(u.mask_of(o.add), u.mask_of(o.delete))
                    effects[eff] = effects.get(eff, 0.0) + o.prob
                rules.append(ConditionalEffectRule(
                    Condition(clauses, u.num_atoms), tuple((p, eff) for eff, p in effects.items())
                ))
            noop = Condition(tuple(acting), u.num_atoms, negated=True)
            rules.append(ConditionalEffectRule(noop, ((1.0, EffectPair(0, 0)),)))
            name = capability_name(intent, u)
            caps[name] = Capability(name, intent, tuple(rules))
        return CapabilityModel(u, caps, "ground-truth")


@dataclass
class EnvironmentBundle:
    """Everything a learner needs for one (environment, agent) pair."""

    universe: AtomUniverse
    simulator: AtomSimulator
    agent: TableAgent
    abstraction: Callable[[EnvState], AbstractState]
    ground_truth: CapabilityModel


def clause(universe: AtomUniverse, pos: Sequence[str] = (), neg: Sequence[str] = ()) -> LiteralConjunction:
    return LiteralConjunction(universe.mask_of(pos), universe.mask_of(neg))


def dnf(universe: AtomUniverse, clauses: Sequence[LiteralConjunction], negated: bool = False) -> Condition:
    return Condition(tuple(clauses), universe.num_atoms, negated=negated)
