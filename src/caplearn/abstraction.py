"""Ground-atom universes, bit-vector abstract states, and literal conditions.

An abstract state is an integer bitset over a fixed, canonically ordered
universe of well-typed ground atoms. Conditions are disjunctions of literal
conjunctions (or the negation of one such disjunction), each clause stored as
a pair of positive/negative bit masks so satisfaction checks reduce to two
bitwise operations per clause.

The hot value types, `AbstractState` and `LiteralConjunction` here and
`dataset.EffectPair` and `dataset.Transition`, are immutable named tuples of
their fields, e.g. ``(bits, num_atoms)``. Hashing, equality and field access
run in C, and a value hashes exactly as the plain tuple of its fields does.
Equality is by fields alone, so a state equals the plain tuple
``(bits, num_atoms)``; no container mixes the value types.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence


class ConfigurationError(ValueError):
    """Invalid universe, environment, or run configuration."""


class EncodingError(ValueError):
    """An atom set cannot be encoded against the given universe."""


class DimensionError(ValueError):
    """States and conditions belong to universes of different sizes."""


_ATOM_RE = re.compile(r"^([A-Za-z_][\w-]*)\((.*)\)$")


@dataclass(frozen=True, order=True)
class GroundAtom:
    """A predicate applied to a tuple of object names, e.g. ``clean(l1)``."""

    predicate: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.predicate}({','.join(self.args)})"

    @staticmethod
    def parse(text: str) -> "GroundAtom":
        m = _ATOM_RE.match(text.strip())
        if m is None:
            raise EncodingError(f"malformed atom: {text!r}")
        args = tuple(a.strip() for a in m.group(2).split(",")) if m.group(2).strip() else ()
        return GroundAtom(m.group(1), args)


class _StateFields(NamedTuple):
    bits: int
    num_atoms: int


class AbstractState(_StateFields):
    """Bit vector over a universe's atoms; bit j is the truth of atom j.

    An immutable ``(bits, num_atoms)`` tuple: it hashes as that tuple and
    equals any tuple with the same fields, including a plain one.
    """

    __slots__ = ()

    def __new__(cls, bits: int, num_atoms: int) -> "AbstractState":
        if bits < 0 or bits >> num_atoms:
            raise DimensionError(f"bits 0x{bits:x} exceed {num_atoms} atoms")
        return tuple.__new__(cls, (bits, num_atoms))


class _LiteralFields(NamedTuple):
    positives: int
    negatives: int


class LiteralConjunction(_LiteralFields):
    """A conjunction of literals: asserted atoms and denied atoms as masks.

    An immutable ``(positives, negatives)`` tuple: it hashes as that tuple and
    equals any tuple with the same fields, including a plain one.
    """

    __slots__ = ()

    def __new__(cls, positives: int, negatives: int) -> "LiteralConjunction":
        if positives & negatives:
            raise ConfigurationError("an atom is both asserted and denied")
        return tuple.__new__(cls, (positives, negatives))

    def satisfied_by(self, bits: int) -> bool:
        return bits & self.positives == self.positives and bits & self.negatives == 0

    @property
    def touched(self) -> int:
        return self.positives | self.negatives


@dataclass(frozen=True)
class Condition:
    """DNF over literal conjunctions, optionally negated as a whole.

    An empty clause list is the vacuous disjunction: it accepts nothing,
    and its negation accepts everything.
    """

    clauses: tuple[LiteralConjunction, ...]
    num_atoms: int
    negated: bool = False

    @cached_property
    def _exact_states(self) -> frozenset[int] | None:
        # Learned conditions are disjunctions of full literals, each clause
        # matching exactly one state; those test as a set-membership lookup.
        full = (1 << self.num_atoms) - 1
        if all(cl.touched == full for cl in self.clauses):
            return frozenset(cl.positives for cl in self.clauses)
        return None

    def accepts_bits(self, bits: int) -> bool:
        exact = self._exact_states
        if exact is not None:
            hit = bits in exact
        else:
            hit = any(cl.satisfied_by(bits) for cl in self.clauses)
        return not hit if self.negated else hit

    @staticmethod
    def always(num_atoms: int) -> "Condition":
        return Condition((), num_atoms, negated=True)

    @staticmethod
    def never(num_atoms: int) -> "Condition":
        return Condition((), num_atoms, negated=False)


class AtomUniverse:
    """The totally ordered set of well-typed ground atoms for one problem.

    Built from two maps: predicate name -> list of parameter type names, and
    object name -> type name. Any other shape, or a parameter type no object
    has, raises `ConfigurationError`. The ordering is lexicographic by
    predicate name, then by the object-name tuple, so rebuilding from the
    same definition always yields identical bit positions. Canonical atom
    names map to bits by dict lookup; other spellings, such as
    ``clean( l1 )``, are parsed to their canonical name first. `encode`
    memoizes the successful encodes of frozensets (environment states), and
    `names_of` the names of each mask. The memos hold pure functions, so
    instances stay immutable from outside and safe to share.
    """

    def __init__(self, predicates: Mapping[str, Sequence[str]], objects: Mapping[str, str]) -> None:
        for key, value in (("predicates", predicates), ("objects", objects)):
            if not isinstance(value, Mapping):
                raise ConfigurationError(f"universe definition needs object map {key!r}")
        by_type: dict[str, list[str]] = {}
        for obj, t in sorted(objects.items()):
            if not isinstance(t, str):
                raise ConfigurationError(f"object {obj} has type {t!r}, not a type name")
            by_type.setdefault(t, []).append(obj)
        for name, types in predicates.items():
            if not isinstance(types, (list, tuple)):
                raise ConfigurationError(f"predicate {name} needs a list of type names, got {types!r}")
            for t in types:
                if not isinstance(t, str) or t not in by_type:
                    raise ConfigurationError(f"predicate {name} uses unknown type {t!r}")
        self.predicates: dict[str, tuple[str, ...]] = {
            name: tuple(types) for name, types in predicates.items()
        }
        self.objects: dict[str, str] = dict(objects)

        atoms: list[GroundAtom] = []
        for name in sorted(self.predicates):
            pools = [by_type[t] for t in self.predicates[name]]
            for combo in product(*pools):
                atoms.append(GroundAtom(name, combo))
        atoms.sort()
        self.atoms: tuple[GroundAtom, ...] = tuple(atoms)
        self.num_atoms = len(self.atoms)
        self._names: tuple[str, ...] = tuple(str(a) for a in atoms)
        self._index_of_name: dict[str, int] = {n: i for i, n in enumerate(self._names)}
        self._encoded: dict[frozenset, AbstractState] = {}
        self._named: dict[int, tuple[str, ...]] = {}

    def atom_index(self, atom: GroundAtom | str) -> int:
        got = self._index_of_name.get(str(atom))
        if got is None:
            name = str(GroundAtom.parse(str(atom)))
            got = self._index_of_name.get(name)
            if got is None:
                raise EncodingError(f"unknown atom: {name}")
        return got

    def encode(self, atoms: Iterable[GroundAtom | str]) -> AbstractState:
        if not isinstance(atoms, frozenset):
            return AbstractState(self.mask_of(atoms), self.num_atoms)
        got = self._encoded.get(atoms)
        if got is None:
            got = self._encoded[atoms] = AbstractState(self.mask_of(atoms), self.num_atoms)
        return got

    def atom_names(self, state: AbstractState) -> list[str]:
        if state.num_atoms != self.num_atoms:
            raise DimensionError("state does not belong to this universe")
        return self.names_of(state.bits)

    def names_of(self, mask: int) -> list[str]:
        """Names of the atoms whose bits are set in `mask`, in atom order (a fresh list)."""
        got = self._named.get(mask)
        if got is None:
            got = self._named[mask] = tuple(
                name for i, name in enumerate(self._names) if mask >> i & 1
            )
        return list(got)

    def mask_of(self, atoms: Iterable[GroundAtom | str]) -> int:
        bits = 0
        for atom in atoms:
            bits |= 1 << self.atom_index(atom)
        return bits

    def all_states(self) -> Iterable[AbstractState]:
        """Every abstract state; only sensible for small universes."""
        for bits in range(1 << self.num_atoms):
            yield AbstractState(bits, self.num_atoms)


AbstractionFn = Callable[[object], AbstractState]


def literal_of(state: AbstractState) -> LiteralConjunction:
    """Full literal representation: every atom asserted or denied as in `state`."""
    full = (1 << state.num_atoms) - 1
    return LiteralConjunction(state.bits, full & ~state.bits)


def satisfies(state: AbstractState, condition: Condition) -> bool:
    """Whether `state` satisfies the (possibly negated) DNF `condition`."""
    if state.num_atoms != condition.num_atoms:
        raise DimensionError(
            f"state has {state.num_atoms} atoms, condition {condition.num_atoms}"
        )
    return condition.accepts_bits(state.bits)


def literal_string(lit: LiteralConjunction, universe: AtomUniverse) -> str:
    """Render a conjunction as ``a(x) & !b(y)`` in atom-index order."""
    parts = []
    for i, atom in enumerate(universe.atoms):
        if lit.positives >> i & 1:
            parts.append(str(atom))
        elif lit.negatives >> i & 1:
            parts.append(f"!{atom}")
    return " & ".join(parts) if parts else "true"


def parse_literal(text: str, universe: AtomUniverse) -> LiteralConjunction:
    """Parse ``a(x) & !b(y)`` back into masks over `universe`."""
    pos = neg = 0
    text = text.strip()
    if text in ("", "true"):
        return LiteralConjunction(0, 0)
    for part in text.split("&"):
        part = part.strip()
        if part.startswith("!"):
            neg |= 1 << universe.atom_index(part[1:])
        else:
            pos |= 1 << universe.atom_index(part)
    return LiteralConjunction(pos, neg)
