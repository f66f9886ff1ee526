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
)
from ..dataset import EffectPair
from ..distributions import cumulative
from ..model import Capability, CapabilityModel, ConditionalEffectRule, capability_name, make_intent

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
    """Stateful, seedable simulator over atom-set environment states."""

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

    def applicable(self, action: str, state: EnvState | None = None) -> bool:
        atoms = self._state if state is None else frozenset(state)
        return self.actions[action].precondition.accepts_bits(self.universe.encode(atoms).bits)

    def available_actions(self, state: EnvState | None = None) -> list[str]:
        atoms = self._state if state is None else frozenset(state)
        bits = self.universe.encode(atoms).bits
        return [n for n, a in self.actions.items() if a.precondition.accepts_bits(bits)]

    def step(self, action: str) -> EnvState:
        """Apply `action`; an inapplicable action leaves the state unchanged."""
        adef = self.actions[action]
        if not adef.precondition.accepts_bits(self.universe.encode(self._state).bits):
            return self._state
        chosen = adef.outcomes[bisect_right(self._cumulative[action], self._rng.random())]
        self._state = frozenset(self._state - chosen.delete | chosen.add)
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
    """

    def __init__(self, universe: AtomUniverse, table: Mapping[str, Sequence[str]]) -> None:
        self.universe = universe
        self.table: dict[str, tuple[str, ...]] = {k: tuple(v) for k, v in table.items()}
        self._intent_keys: dict[LiteralConjunction, str] = {}

    def attempt(
        self,
        intent: LiteralConjunction,
        simulator: AtomSimulator,
        start: EnvState,
        horizon: int,
    ) -> list[EnvState]:
        if simulator.current != start:
            simulator.revert(start)
        traj = [start]
        bits = self.universe.encode(frozenset(start)).bits
        if intent.satisfied_by(bits) or horizon < 1:
            return traj
        key = self._intent_keys.get(intent)
        if key is None:
            key = self._intent_keys[intent] = literal_string(intent, self.universe)
        for action in self.table.get(key, ()):
            if simulator.applicable(action):
                traj.append(simulator.step(action))
                break
        return traj

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
            intent = make_intent(key, u)
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

    name: str
    universe: AtomUniverse
    simulator: AtomSimulator
    agent: TableAgent
    abstraction: Callable[[EnvState], AbstractState]
    ground_truth: CapabilityModel


def clause(universe: AtomUniverse, pos: Sequence[str] = (), neg: Sequence[str] = ()) -> LiteralConjunction:
    return LiteralConjunction(universe.mask_of(pos), universe.mask_of(neg))


def dnf(universe: AtomUniverse, clauses: Sequence[LiteralConjunction], negated: bool = False) -> Condition:
    return Condition(tuple(clauses), universe.num_atoms, negated=negated)
