"""The multiset of observed capability transitions."""

from __future__ import annotations

import json
from pathlib import Path
from typing import NamedTuple, Sequence

from .abstraction import AbstractState, AtomUniverse


class Transition(NamedTuple):
    """One observed abstract transition under a capability.

    An immutable ``(s, c, s_next)`` tuple: it hashes as that tuple and equals
    any tuple with the same fields, including a plain one.
    """

    s: AbstractState
    c: str
    s_next: AbstractState


class _EffectFields(NamedTuple):
    add: int
    delete: int


class EffectPair(_EffectFields):
    """Atoms gained and atoms lost across a transition, as bit masks.

    An immutable ``(add, delete)`` tuple: it hashes as that tuple and equals
    any tuple with the same fields, including a plain one.
    """

    __slots__ = ()

    def __new__(cls, add: int, delete: int) -> "EffectPair":
        if add & delete:
            raise ValueError("effect adds and deletes the same atom")
        return tuple.__new__(cls, (add, delete))

    @property
    def is_noop(self) -> bool:
        return self.add == 0 and self.delete == 0


def effects_of(transition: Transition) -> EffectPair:
    """add = atoms that became true, delete = atoms that became false."""
    s, s2 = transition.s.bits, transition.s_next.bits
    return EffectPair(add=s2 & ~s, delete=s & ~s2)


class TransitionDataset:
    """Multiset of (s, c, s') triples indexed by capability, then source state.

    `revision(c)` grows whenever an `add` can change the rules `build_models`
    fits for capability `c`: when the triple is novel, or when its source
    state already has two or more successors under `c`. Rules depend on the
    partition of `c`'s source states by effect set and, through the MLE
    effect probabilities, on counts; a source state with one successor has a
    single effect, which gets probability 1.0 whatever its count.
    """

    def __init__(self) -> None:
        self.counts: dict[Transition, int] = {}
        self._by_cap_state: dict[str, dict[AbstractState, set[Transition]]] = {}
        self._state_counts: dict[AbstractState, int] = {}
        self._revisions: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.counts)

    def total(self) -> int:
        return sum(self.counts.values())

    def add(self, transition: Transition, count: int = 1) -> bool:
        """Insert `count` occurrences; returns True iff the triple was unseen."""
        if count < 1:
            raise ValueError("count must be positive")
        s, c, _ = transition
        seen = self.counts.get(transition, 0)
        self.counts[transition] = seen + count
        if not seen:
            self._by_cap_state.setdefault(c, {}).setdefault(s, set()).add(transition)
            self._revisions[c] = self._revisions.get(c, 0) + 1
        elif len(self._by_cap_state[c][s]) > 1:
            self._revisions[c] += 1
        self._state_counts[s] = self._state_counts.get(s, 0) + count
        return not seen

    def record(
        self, states: Sequence[AbstractState], capability: str, count: int = 1
    ) -> tuple[Transition, bool]:
        """Record `count` executions whose abstract states start and end as `states` do."""
        t = Transition(states[0], capability, states[-1])
        return t, self.add(t, count)

    def transitions_from(self, capability: str, state: AbstractState) -> set[Transition]:
        return self._by_cap_state.get(capability, {}).get(state, set())

    def effect_set(self, capability: str, state: AbstractState) -> frozenset[EffectPair]:
        return frozenset(effects_of(t) for t in self.transitions_from(capability, state))

    def observed_states(self, capability: str) -> set[AbstractState]:
        return set(self._by_cap_state.get(capability, {}))

    def state_visit_count(self, state: AbstractState) -> int:
        """Total recorded transitions that start in `state`, across capabilities."""
        return self._state_counts.get(state, 0)

    def observed_state_count(self) -> int:
        """Distinct source states of recorded transitions, across capabilities."""
        return len(self._state_counts)

    def revision(self, capability: str) -> int:
        """A counter that changes with every `add` that may change `capability`'s rules."""
        return self._revisions.get(capability, 0)

    # -- JSON-lines persistence ------------------------------------------

    def to_jsonl(self, universe: AtomUniverse) -> str:
        lines = []
        for t in sorted(
            self.counts, key=lambda t: (t.c, t.s.bits, t.s_next.bits)
        ):
            lines.append(
                json.dumps(
                    {
                        "s": universe.atom_names(t.s),
                        "c": t.c,
                        "s_next": universe.atom_names(t.s_next),
                        "count": self.counts[t],
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_jsonl(cls, text: str, universe: AtomUniverse) -> "TransitionDataset":
        ds = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            t = Transition(
                universe.encode(rec["s"]), rec["c"], universe.encode(rec["s_next"])
            )
            ds.add(t, rec["count"])
        return ds

    @classmethod
    def load(cls, path: str | Path, universe: AtomUniverse) -> "TransitionDataset":
        return cls.from_jsonl(Path(path).read_text(), universe)
