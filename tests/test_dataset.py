from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplearn.abstraction import AbstractState, AtomUniverse
from caplearn.dataset import (
    EffectPair,
    Transition,
    TransitionDataset,
    effects_of,
)
from caplearn.model import apply_effect
from .conftest import bits_to_index_set, check_value_contract, naive_apply, random_state


def _state(bits, n=5):
    return AbstractState(bits, n)


class TestEffectsOf:
    def test_identity_transition(self):
        t = Transition(_state(0b101), "c", _state(0b101))
        assert effects_of(t) == EffectPair(0, 0)

    def test_pure_addition(self, vacuum_universe):
        u = vacuum_universe
        s = u.encode(["charged(robot)"])
        s2 = u.encode(["charged(robot)", "clean(l1)"])
        eff = effects_of(Transition(s, "c", s2))
        assert u.atom_names(AbstractState(eff.add, u.num_atoms)) == ["clean(l1)"]
        assert eff.delete == 0

    def test_clean_outcome_adds_clean_deletes_charge(self, vacuum_universe):
        u = vacuum_universe
        s = u.encode(["has(robot,vacuum)", "charged(robot)"])
        s2 = u.encode(["has(robot,vacuum)", "clean(l1)"])
        eff = effects_of(Transition(s, "clean_l1", s2))
        assert bits_to_index_set(eff.add) == {u.atom_index("clean(l1)")}
        assert bits_to_index_set(eff.delete) == {u.atom_index("charged(robot)")}

    def test_add_delete_disjoint_rejected(self):
        with pytest.raises(ValueError, match="^effect adds and deletes the same atom$"):
            EffectPair(0b1, 0b1)

    @given(st.integers(0, 31), st.integers(0, 31))
    @settings(max_examples=300, deadline=None)
    def test_apply_recovers_target(self, a, b):
        t = Transition(_state(a), "c", _state(b))
        assert apply_effect(t.s, effects_of(t)) == t.s_next

    @given(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))
    @settings(max_examples=300, deadline=None)
    def test_apply_agrees_with_set_oracle(self, s, add, dele):
        dele &= ~add
        state = AbstractState(s, 8)
        eff = EffectPair(add, dele)
        expected = naive_apply(bits_to_index_set(s), eff)
        assert bits_to_index_set(apply_effect(state, eff).bits) == expected


class TestRecord:
    def setup_method(self):
        self.u = AtomUniverse({"p": ["x"], "q": ["x"]}, {"a": "x"})

    def states(self, *atom_sets):
        return [self.u.encode(atoms) for atoms in atom_sets]

    def test_constant_trajectory_records_self_loop(self):
        ds = TransitionDataset()
        t, novel = ds.record(self.states({"p(a)"}), "c")
        assert t.s == t.s_next
        assert novel
        assert ds.counts[t] == 1

    def test_repeat_recording_increments_count(self):
        ds = TransitionDataset()
        ds.record(self.states(set(), {"p(a)"}), "c")
        t, novel = ds.record(self.states(set(), {"p(a)"}), "c")
        assert not novel
        assert ds.counts[t] == 2

    def test_endpoints_of_collapsed_sequence(self):
        ds = TransitionDataset()
        t, _ = ds.record(self.states(set(), {"p(a)"}, {"q(a)"}), "c")
        assert t.s == self.u.encode([])
        assert t.s_next == self.u.encode(["q(a)"])


class TestEffectSet:
    def setup_method(self):
        self.u = AtomUniverse({"p": ["x"], "q": ["x"]}, {"a": "x"})

    def test_no_data_is_empty(self):
        ds = TransitionDataset()
        assert ds.effect_set("c", self.u.encode([])) == frozenset()

    def test_self_loop_gives_noop_effect(self):
        ds = TransitionDataset()
        s = self.u.encode(["p(a)"])
        ds.add(Transition(s, "c", s))
        assert ds.effect_set("c", s) == frozenset({EffectPair(0, 0)})

    def test_three_outcomes_three_effects(self, vacuum_universe):
        u = vacuum_universe
        ds = TransitionDataset()
        s = u.encode(["has(robot,vacuum)", "charged(robot)"])
        outcomes = [
            u.encode(["has(robot,vacuum)", "clean(l1)"]),
            u.encode(["has(robot,vacuum)", "charged(robot)", "clean(l1)", "at(charger,robot)"]),
            u.encode(["has(robot,vacuum)"]),
        ]
        for s2 in outcomes:
            ds.add(Transition(s, "clean_l1", s2))
        assert len(ds.effect_set("clean_l1", s)) == 3

    def test_effect_set_equality_is_an_equivalence(self):
        rng = Random("effect-equiv")
        u = AtomUniverse({f"p{i}": ["x"] for i in range(4)}, {"a": "x"})
        ds = TransitionDataset()
        for _ in range(40):
            ds.add(Transition(random_state(u, rng), "c", random_state(u, rng)))
        states = list(ds.observed_states("c"))
        sets = {s: ds.effect_set("c", s) for s in states}
        for a in states:
            assert sets[a] == sets[a]
            for b in states:
                assert (sets[a] == sets[b]) == (sets[b] == sets[a])
                for c in states:
                    if sets[a] == sets[b] and sets[b] == sets[c]:
                        assert sets[a] == sets[c]


class TestSerialization:
    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_jsonl_roundtrip_bit_exact(self, data):
        u = AtomUniverse({"p": ["x"], "q": ["x"]}, {"a": "x", "b": "x"})
        rng = Random(data.draw(st.integers(0, 10_000)))
        ds = TransitionDataset()
        for _ in range(data.draw(st.integers(0, 20))):
            ds.add(
                Transition(random_state(u, rng), rng.choice("cd"), random_state(u, rng)),
                rng.randint(1, 4),
            )
        back = TransitionDataset.from_jsonl(ds.to_jsonl(u), u)
        assert back.counts == ds.counts
        assert back.to_jsonl(u) == ds.to_jsonl(u)

    def test_indexes_consistent_after_load(self, two_atom_universe):
        u = two_atom_universe
        ds = TransitionDataset()
        s0, s1 = u.encode([]), u.encode(["clean(l1)"])
        ds.add(Transition(s0, "c", s1), 3)
        ds.add(Transition(s0, "c", s0), 2)
        back = TransitionDataset.from_jsonl(ds.to_jsonl(u), u)
        assert back.total() == 5
        assert back.state_visit_count(s0) == 5
        assert back.transitions_from("c", s0) == ds.transitions_from("c", s0)


class TestValueTypes:
    def test_effect_pair_contract(self):
        eff = EffectPair(0b01, 0b10)
        check_value_contract(eff, {"add": 0b01, "delete": 0b10}, "EffectPair(add=1, delete=2)")
        assert not eff.is_noop and EffectPair(delete=0, add=0).is_noop

    def test_transition_contract(self):
        s, s2 = AbstractState(1, 2), AbstractState(2, 2)
        check_value_contract(
            Transition(s, "go", s2),
            {"s": s, "c": "go", "s_next": s2},
            "Transition(s=AbstractState(bits=1, num_atoms=2), c='go', "
            "s_next=AbstractState(bits=2, num_atoms=2))",
        )
        assert hash(Transition(s_next=s2, c="go", s=s)) == hash(((1, 2), "go", (2, 2)))
