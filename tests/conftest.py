"""Shared fixtures and independent oracle helpers for the test suite.

The oracles here deliberately avoid the library's bit-mask machinery:
states are frozensets of atom indices and everything is evaluated with set
operations, so agreement with the implementation is meaningful.
"""

from __future__ import annotations

import copy
import math
import pickle
from random import Random

import pytest

from caplearn.abstraction import (
    AbstractState,
    AtomUniverse,
    Condition,
    LiteralConjunction,
)
from caplearn.dataset import EffectPair, Transition, TransitionDataset
from caplearn.model import Capability, CapabilityModel, ConditionalEffectRule, predict


@pytest.fixture
def two_atom_universe() -> AtomUniverse:
    return AtomUniverse({"clean": ["loc"]}, {"l1": "loc", "l2": "loc"})


@pytest.fixture
def vacuum_universe() -> AtomUniverse:
    return AtomUniverse(
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


def bits_to_index_set(bits: int) -> frozenset[int]:
    return frozenset(i for i in range(bits.bit_length()) if bits >> i & 1)


def naive_satisfies(state_indices: frozenset[int], condition: Condition) -> bool:
    """Set-based DNF evaluation, independent of the bit-mask implementation."""
    hit = False
    for cl in condition.clauses:
        pos = bits_to_index_set(cl.positives)
        neg = bits_to_index_set(cl.negatives)
        if pos <= state_indices and not (neg & state_indices):
            hit = True
            break
    return not hit if condition.negated else hit


def naive_apply(state_indices: frozenset[int], effect: EffectPair) -> frozenset[int]:
    return (state_indices - bits_to_index_set(effect.delete)) | bits_to_index_set(effect.add)


def check_value_contract(value, fields: dict, text: str) -> None:
    """An immutable tuple of `fields`: C-level hash and equality, dataclass repr."""
    cls = type(value)
    assert cls.__hash__ is tuple.__hash__ and cls.__eq__ is tuple.__eq__
    plain = tuple(fields.values())
    assert hash(value) == hash(plain)
    assert value == plain
    assert repr(value) == text
    for name, field_value in fields.items():
        assert getattr(value, name) == field_value
        with pytest.raises(AttributeError):
            setattr(value, name, field_value)
    with pytest.raises(AttributeError):
        value.extra = 0
    for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(back) is cls
        assert back == value


def draw(weighted, u):
    """Reference categorical draw: the first item whose running weight sum exceeds `u`.

    Weights are summed as given, never renormalized; when rounding leaves `u`
    past the last running sum, the last item is returned.
    """
    acc = 0.0
    for item, w in weighted:
        acc += w
        if u < acc:
            return item
    return weighted[-1][0]


def push_distribution(dist, model: CapabilityModel, capability: str) -> dict[AbstractState, float]:
    """Reference one-step image of `dist` under one capability of `model`.

    Each state's successors come from `predict` (a state no condition
    accepts keeps its mass); successors reached from several states have
    their masses summed, in the order they are first reached. A product
    that underflows to 0.0 keeps its state in the support.
    """
    out: dict[AbstractState, float] = {}
    for state, q in dist.items():
        for s2, p in predict(model, state, capability).items():
            out[s2] = out.get(s2, 0.0) + q * p
    return out


def uct_score(q: float, log_n_parent: float, n_edge: int, kappa: float) -> float:
    """Reference UCT score given log N(parent); an unvisited edge ranks above every visited one."""
    if n_edge == 0:
        return math.inf
    return q + kappa * math.sqrt(log_n_parent / n_edge)


def random_state(universe: AtomUniverse, rng: Random) -> AbstractState:
    return AbstractState(rng.randrange(1 << universe.num_atoms), universe.num_atoms)


def random_clause(num_atoms: int, rng: Random) -> LiteralConjunction:
    pos = neg = 0
    for i in range(num_atoms):
        r = rng.random()
        if r < 0.25:
            pos |= 1 << i
        elif r < 0.5:
            neg |= 1 << i
    return LiteralConjunction(pos, neg)


def random_condition(num_atoms: int, rng: Random) -> Condition:
    clauses = tuple(random_clause(num_atoms, rng) for _ in range(rng.randint(0, 3)))
    return Condition(clauses, num_atoms, negated=rng.random() < 0.3)


def random_effect(num_atoms: int, rng: Random) -> EffectPair:
    add = delete = 0
    for i in range(num_atoms):
        r = rng.random()
        if r < 0.2:
            add |= 1 << i
        elif r < 0.4:
            delete |= 1 << i
    return EffectPair(add, delete)


def random_rule(num_atoms: int, rng: Random, max_effects: int = 3) -> ConditionalEffectRule:
    effects: dict[EffectPair, float] = {}
    for _ in range(rng.randint(1, max_effects)):
        effects[random_effect(num_atoms, rng)] = rng.random() + 0.05
    total = sum(effects.values())
    return ConditionalEffectRule(
        random_condition(num_atoms, rng),
        tuple((w / total, e) for e, w in effects.items()),
    )


RULE_CAP = "c"


def rule_model(universe: AtomUniverse, rules) -> CapabilityModel:
    """A model whose one capability, `RULE_CAP`, has exactly `rules`."""
    cap = Capability(RULE_CAP, LiteralConjunction(1, 0), tuple(rules))
    return CapabilityModel(universe, {RULE_CAP: cap}, "ground-truth")


def small_universe(num_atoms: int) -> AtomUniverse:
    return AtomUniverse(
        {f"p{i}": ["x"] for i in range(num_atoms)}, {"a": "x"}
    )


def random_dataset(
    universe: AtomUniverse, rng: Random, caps: int = 3, transitions: int = 30
) -> tuple[TransitionDataset, list[Capability]]:
    ds = TransitionDataset()
    names = [f"cap{i}" for i in range(caps)]
    for _ in range(transitions):
        ds.add(
            Transition(
                random_state(universe, rng),
                rng.choice(names),
                random_state(universe, rng),
            ),
            rng.randint(1, 3),
        )
    capabilities = [
        Capability(n, LiteralConjunction(1, 0)) for n in names
    ]
    return ds, capabilities
