import re
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from caplearn.abstraction import (
    AbstractState,
    AtomUniverse,
    Condition,
    ConfigurationError,
    DimensionError,
    EncodingError,
    GroundAtom,
    LiteralConjunction,
    literal_of,
    literal_string,
    parse_literal,
    satisfies,
)
from .conftest import (
    bits_to_index_set,
    check_value_contract,
    naive_satisfies,
    random_condition,
    random_state,
)


class TestBuildUniverse:
    def test_unary_predicate_grounding(self, two_atom_universe):
        assert [str(a) for a in two_atom_universe.atoms] == ["clean(l1)", "clean(l2)"]
        assert two_atom_universe.num_atoms == 2

    def test_type_consistency_excludes_bad_orders(self):
        u = AtomUniverse({"at": ["loc", "agent"]}, {"l1": "loc", "robot": "agent"})
        assert [str(a) for a in u.atoms] == ["at(l1,robot)"]

    def test_vacuum_domain_atoms_present(self, vacuum_universe):
        names = {str(a) for a in vacuum_universe.atoms}
        assert {
            "charged(robot)",
            "at(charger,robot)",
            "has(robot,vacuum)",
            "clean(l1)",
        } <= names

    def test_duplicate_predicates_rejected(self):
        """Only a non-mapping can repeat a predicate name, and it is refused."""
        with pytest.raises(ConfigurationError, match="needs object map 'predicates'"):
            AtomUniverse([("p", ["x"]), ("q", ["x"])], {"a": "x"})

    def test_duplicate_objects_rejected(self):
        """Only a non-mapping can repeat an object name, and it is refused."""
        with pytest.raises(ConfigurationError, match="needs object map 'objects'"):
            AtomUniverse({"p": ["x"]}, [("a", "x"), ("b", "x")])

    def test_unknown_parameter_type_rejected(self):
        with pytest.raises(ConfigurationError):
            AtomUniverse({"p": ["ghost"]}, {"a": "x"})

    def test_canonical_ordering_stable(self, vacuum_universe):
        again = AtomUniverse(
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
        assert again.atoms == vacuum_universe.atoms
        names = [str(a) for a in vacuum_universe.atoms]
        assert [again.atom_index(n) for n in names] == [vacuum_universe.atom_index(n) for n in names]


class TestEncodeDecode:
    def test_empty_set_is_zero(self, two_atom_universe):
        assert two_atom_universe.encode([]).bits == 0

    def test_full_set_is_all_ones(self, two_atom_universe):
        full = two_atom_universe.encode(str(a) for a in two_atom_universe.atoms)
        assert full.bits == 0b11

    def test_single_atom_position_matches_canonical_order(self, two_atom_universe):
        state = two_atom_universe.encode(["clean(l1)"])
        expected_index = two_atom_universe.atom_index("clean(l1)")
        assert state.bits == 1 << expected_index
        assert expected_index == 0

    def test_unknown_atom_names_the_atom(self, two_atom_universe):
        with pytest.raises(EncodingError, match="clean\\(l9\\)"):
            two_atom_universe.encode(["clean(l9)"])

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, data):
        u = AtomUniverse({"p": ["x"], "q": ["x"]}, {"a": "x", "b": "x", "c": "x"})
        subset = data.draw(st.sets(st.sampled_from([str(a) for a in u.atoms])))
        assert set(u.atom_names(u.encode(subset))) == subset


class TestEncodeMemo:
    def test_repeated_frozenset_matches_uncached_encode(self, vacuum_universe):
        u = vacuum_universe
        state = frozenset({"charged(robot)", "clean(l2)"})
        first, second = u.encode(state), u.encode(state)
        assert first == second == u.encode(list(state))
        assert u.names_of(first.bits) == ["charged(robot)", "clean(l2)"]

    def test_names_of_returns_a_fresh_list_each_call(self, vacuum_universe):
        u = vacuum_universe
        mask = u.mask_of(["clean(l1)", "charged(robot)"])
        first = u.names_of(mask)
        first.append("mutated")
        assert u.names_of(mask) == ["charged(robot)", "clean(l1)"]
        assert u.names_of(mask) is not u.names_of(mask)
        assert u.names_of(0) == []

    def test_unknown_atom_raises_every_time(self, two_atom_universe):
        state = frozenset({"clean(l1)", "clean(l9)"})
        for _ in range(2):
            with pytest.raises(EncodingError, match="clean\\(l9\\)"):
                two_atom_universe.encode(state)

    def test_non_canonical_spelling_parses(self, vacuum_universe):
        u = vacuum_universe
        spaced = frozenset({" at( charger , robot )", "clean( l1 )"})
        assert u.encode(spaced) == u.encode(["at(charger,robot)", "clean(l1)"])
        assert u.atom_index("clean( l1 )") == u.atom_index("clean(l1)")


class TestLiteralOf:
    def test_all_zero_state(self, two_atom_universe):
        lit = literal_of(two_atom_universe.encode([]))
        assert lit.positives == 0
        assert lit.negatives == 0b11

    def test_full_conjunction_identifies_state_uniquely(self, vacuum_universe):
        u = vacuum_universe
        state = u.encode(["charged(robot)", "clean(l2)"])
        cond = Condition((literal_of(state),), u.num_atoms)
        matches = [s for s in u.all_states() if satisfies(s, cond)]
        assert matches == [state]

    def test_two_atom_example(self):
        u = AtomUniverse({"charged": ["a"], "clean": ["l"]}, {"robot": "a", "l1": "l"})
        state = u.encode(["charged(robot)"])
        lit = literal_of(state)
        assert bits_to_index_set(lit.positives) == {u.atom_index("charged(robot)")}
        assert bits_to_index_set(lit.negatives) == {u.atom_index("clean(l1)")}

    def test_overlapping_masks_rejected(self):
        with pytest.raises(ConfigurationError, match="^an atom is both asserted and denied$"):
            LiteralConjunction(0b01, 0b01)


class TestSatisfies:
    def test_empty_dnf_and_its_negation(self, two_atom_universe):
        state = two_atom_universe.encode(["clean(l1)"])
        assert not satisfies(state, Condition.never(2))
        assert satisfies(state, Condition.always(2))

    def test_vacuum_condition_two_clause_dnf(self, vacuum_universe):
        u = vacuum_universe
        has, charged, at = "has(robot,vacuum)", "charged(robot)", "at(charger,robot)"
        cond = Condition(
            (
                parse_literal(f"{has} & {charged}", u),
                parse_literal(f"{has} & {at}", u),
            ),
            u.num_atoms,
        )
        assert satisfies(u.encode([has, charged]), cond)
        assert not satisfies(u.encode([has]), cond)

    def test_dimension_mismatch(self, two_atom_universe, vacuum_universe):
        state = vacuum_universe.encode([])
        with pytest.raises(DimensionError):
            satisfies(state, Condition.never(two_atom_universe.num_atoms))

    def test_agrees_with_naive_evaluator_on_random_pairs(self):
        u = AtomUniverse({f"p{i}": ["x"] for i in range(8)}, {"a": "x"})
        rng = Random("satisfies-oracle")
        for _ in range(1000):
            state = random_state(u, rng)
            cond = random_condition(u.num_atoms, rng)
            assert satisfies(state, cond) == naive_satisfies(
                bits_to_index_set(state.bits), cond
            )

    def test_literal_of_dnf_matches_only_origin_state(self):
        u = AtomUniverse({f"p{i}": ["x"] for i in range(4)}, {"a": "x"})
        for s in u.all_states():
            cond = Condition((literal_of(s),), u.num_atoms)
            for s2 in u.all_states():
                assert satisfies(s2, cond) == (s2 == s)


class TestStateValidation:
    def test_bits_must_fit(self):
        for bits, message in [(0b100, "bits 0x4 exceed 2 atoms"), (-1, "bits 0x-1 exceed 2 atoms")]:
            with pytest.raises(DimensionError, match=f"^{re.escape(message)}$"):
                AbstractState(bits, 2)

    def test_literal_string_roundtrip(self, vacuum_universe):
        u = vacuum_universe
        lit = parse_literal("charged(robot) & !clean(l1)", u)
        assert parse_literal(literal_string(lit, u), u) == lit

    def test_atom_parse_rejects_garbage(self):
        with pytest.raises(EncodingError):
            GroundAtom.parse("not an atom")


class TestValueTypes:
    def test_abstract_state_contract(self):
        check_value_contract(
            AbstractState(0b101, 3),
            {"bits": 0b101, "num_atoms": 3},
            "AbstractState(bits=5, num_atoms=3)",
        )

    def test_literal_conjunction_contract(self):
        lit = LiteralConjunction(0b001, 0b110)
        check_value_contract(
            lit,
            {"positives": 0b001, "negatives": 0b110},
            "LiteralConjunction(positives=1, negatives=6)",
        )
        assert lit.touched == 0b111
        assert lit.satisfied_by(0b001) and not lit.satisfied_by(0b011)

    def test_frozenset_order_matches_plain_tuples(self):
        rng = Random("frozenset-order")
        fields = [(rng.randrange(1 << n), n) for n in rng.choices(range(1, 40), k=300)]
        states = [AbstractState(bits, n) for bits, n in fields]
        assert [tuple(s) for s in frozenset(states)] == list(frozenset(fields))
        assert [tuple(s) for s in set(states)] == list(set(fields))
