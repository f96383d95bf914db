"""Alphabets, nested words, matching, distance, and serialization."""

import dataclasses
import inspect
from types import MappingProxyType, MemberDescriptorType

import pytest
from hypothesis import given, settings, strategies as st

from nwtk import automata, circularity, core, grids, logic, sphere_automaton, spheres
from nwtk.core import (
    CallReturnAlphabet,
    NestedWord,
    alphabet_to_json,
    distance,
    format_word,
    is_well_formed,
    iter_token_tuples,
    load_alphabet,
    nested,
    parse_word_line,
    read_word_file,
    string,
    validate_alphabet,
    word_to_dot,
)
from nwtk.errors import (
    DuplicateSymbol,
    EmptyAlphabet,
    EmptyWord,
    PositionOutOfRange,
    UnknownSymbol,
)

from fixtures import S2, S2C, S3, WORD10, loop_mnwa, loop_mvpa, word10
from oracles import declarative_matches, distances_by_search, grammar_well_formed


# ---------------------------------------------------------------------------
# alphabets

class TestAlphabet:
    def test_running_example(self):
        assert S2.k == 2
        assert S2.symbols == ("a", "a~", "b", "b~")
        assert S2.classify("a").kind == "call"
        assert S2.classify("a").stack == 1
        assert S2.classify("b~").kind == "return"
        assert S2.classify("b~").stack == 2

    def test_validate_round_trip(self):
        raw = alphabet_to_json(S2C)
        again = validate_alphabet(raw)
        assert again == S2C
        assert again.classify("c").kind == "internal"

    def test_duplicate_symbol(self):
        with pytest.raises(DuplicateSymbol):
            CallReturnAlphabet(((("a",), ("a",)),))
        with pytest.raises(DuplicateSymbol):
            CallReturnAlphabet(((("a",), ("a~",)),), internal=("a",))

    def test_empty_alphabet(self):
        with pytest.raises(EmptyAlphabet):
            CallReturnAlphabet(())

    def test_one_stack_with_internal(self):
        alpha = CallReturnAlphabet(((("a",), ("a~",)),), internal=("c",))
        assert alpha.k == 1
        assert alpha.classify("c").kind == "internal"
        assert alpha.classify("c").stack is None

    def test_classify_unknown(self):
        with pytest.raises(UnknownSymbol):
            S2.classify("z")


# ---------------------------------------------------------------------------
# well-formedness

class TestWellFormed:
    def test_empty(self):
        assert is_well_formed(S2, (), 1)

    def test_single_pair(self):
        assert is_well_formed(S2, ("a", "a~"), 1)

    def test_leading_other_stack_return(self):
        assert not is_well_formed(S2, ("b", "a~", "b~"), 1)
        # but the same string is balanced for stack 2
        assert is_well_formed(S2, ("b", "a~", "b~"), 2)

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            is_well_formed(S2, ("a", "z"), 1)

    def test_unknown_symbol_after_an_unmatched_return(self):
        # the whole sequence is read, as by every other reader of tokens,
        # even where its prefix already settles the answer
        with pytest.raises(UnknownSymbol):
            is_well_formed(S2, ("a~", "z"), 1)

    def test_matches_grammar_oracle(self):
        for tokens in iter_token_tuples(S2C, 6):
            for s in (1, 2):
                assert is_well_formed(S2C, tokens, s) == grammar_well_formed(
                    S2C, tokens, s
                ), (tokens, s)


# ---------------------------------------------------------------------------
# nested words

class TestNested:
    def test_running_example(self):
        w = word10()
        assert w.mu == {3: 5, 1: 6, 4: 8, 2: 9}
        assert w.stack_of == {3: 1, 1: 1, 4: 2, 2: 2}
        assert w.pending == frozenset({7, 10})

    def test_single_pending_call(self):
        w = nested(S2, ("a",))
        assert w.mu == {}
        assert w.pending == frozenset({1})

    def test_interleaved_stacks(self):
        w = nested(S2, ("b", "a", "a~", "b~"))
        assert w.mu == {2: 3, 1: 4}
        assert w.stack_of == {2: 1, 1: 2}

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            nested(S2, ("a", "z"))

    def test_empty_word(self):
        with pytest.raises(EmptyWord):
            nested(S2, ())

    def test_string_round_trips(self):
        assert string(nested(S2, ("a", "a~"))) == ("a", "a~")
        assert string(word10()) == tuple(WORD10.split())
        assert string(nested(S2, ("b", "a", "a~", "b~"))) == (
            "b",
            "a",
            "a~",
            "b~",
        )

    def test_matches_declarative_definition(self):
        for tokens in iter_token_tuples(S2C, 5):
            w = nested(S2C, tokens)
            got = sorted((i, j, w.stack_of[i]) for i, j in w.mu.items())
            assert got == declarative_matches(S2C, tokens), tokens

    def test_three_stacks(self):
        w = nested(S3, ("a", "c", "c~", "a~"))
        assert w.mu == {1: 4, 2: 3}
        assert w.stack_of == {1: 1, 2: 3}


# ---------------------------------------------------------------------------
# distance

class TestDistance:
    def test_matching_edge(self):
        assert distance(word10(), 1, 6) == 1

    def test_pending_tail(self):
        assert distance(word10(), 7, 10) == 3

    def test_reflexive(self):
        w = word10()
        for i in w.positions():
            assert distance(w, i, i) == 0

    def test_symmetric(self):
        w = word10()
        for i in w.positions():
            for j in w.positions():
                assert distance(w, i, j) == distance(w, j, i)

    def test_agrees_with_a_search_over_the_declarative_matching(self):
        for alphabet, max_len in ((S2C, 6), (S3, 5)):
            for tokens in iter_token_tuples(alphabet, max_len):
                w = nested(alphabet, tokens)
                want = distances_by_search(alphabet, tokens)
                got = {(i, j): distance(w, i, j) for i in w.positions() for j in w.positions()}
                assert got == want, tokens

    def test_out_of_range(self):
        with pytest.raises(PositionOutOfRange):
            distance(word10(), 0, 3)
        with pytest.raises(PositionOutOfRange):
            distance(word10(), 1, 11)


# ---------------------------------------------------------------------------
# structural invariants over a small corpus

def test_corpus_sizes():
    assert sum(1 for _ in iter_token_tuples(S2, 1)) == 4
    assert sum(1 for _ in iter_token_tuples(S2, 2)) == 20
    assert sum(1 for _ in iter_token_tuples(S2, 3)) == 84


def test_corpus_invariants():
    for tokens in iter_token_tuples(S2, 5):
        w = nested(S2, tokens)
        # round trip
        assert nested(S2, string(w)) == w
        # every position in at most one arc
        seen = set()
        for i, j in w.mu.items():
            assert i < j
            assert i not in seen and j not in seen
            seen.update((i, j))
        # per-stack arcs never cross
        arcs = sorted((i, j, w.stack_of[i]) for i, j in w.mu.items())
        for i1, j1, s1 in arcs:
            for i2, j2, s2 in arcs:
                if s1 == s2 and i1 < i2 < j1:
                    assert j2 < j1
        # Gaifman degree is at most 3
        for i in w.positions():
            deg = (i > 1) + (i < len(w)) + (i in w.mu or i in w.mu_inv)
            assert deg <= 3


# ---------------------------------------------------------------------------
# randomized words over the 3-stack alphabet

@st.composite
def s3_tokens(draw):
    return draw(
        st.lists(st.sampled_from(S3.symbols), min_size=1, max_size=12)
    )


@given(s3_tokens())
@settings(max_examples=200, deadline=None)
def test_nested_matches_oracle_random(tokens):
    w = nested(S3, tokens)
    got = sorted((i, j, w.stack_of[i]) for i, j in w.mu.items())
    assert got == declarative_matches(S3, tokens)
    assert string(w) == tuple(tokens)


@given(s3_tokens())
@settings(max_examples=100, deadline=None)
def test_interiors_are_well_formed(tokens):
    w = nested(S3, tokens)
    for i, j in w.mu.items():
        s = w.stack_of[i]
        assert is_well_formed(S3, tokens[i : j - 1], s)


# ---------------------------------------------------------------------------
# files and rendering

def test_word_file_round_trip(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text(f"{WORD10}\na a~\n")
    words = read_word_file(path, S2)
    assert len(words) == 2
    assert words[0] == word10()
    assert format_word(words[0]) == WORD10


def test_parse_word_line_strips():
    assert parse_word_line(S2, "  a   a~ \n") == nested(S2, ("a", "a~"))


def test_alphabet_file_round_trip(tmp_path):
    import json

    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(alphabet_to_json(S2C)))
    assert load_alphabet(path) == S2C


def test_values_are_immutable():
    w = word10()
    with pytest.raises(AttributeError):
        w.mu = {}
    with pytest.raises(AttributeError):
        del w.labels
    with pytest.raises(AttributeError):
        S2.stacks = ()
    with pytest.raises(AttributeError):
        del S2.internal
    for view in (w.mu, w.mu_inv, w.stack_of):
        with pytest.raises(TypeError):
            view[1] = 4
        with pytest.raises(TypeError):
            del view[1]
    assert w.labels == tuple(WORD10.split()) and S2.k == 2
    assert w.mu == {3: 5, 1: 6, 4: 8, 2: 9} and w.mu_inv[6] == 1 and w.stack_of[2] == 2


def test_slot_setters_store_the_field_they_are_named_after():
    # each value type binds its slots' setters at module level, one name per
    # slot, by unpacking them in slot order; a name out of order would store
    # a field into another slot
    stored = {}
    for module in (core, automata, spheres, sphere_automaton, grids, logic):
        for name, value in vars(module).items():
            slot = getattr(value, "__self__", None)
            if isinstance(slot, MemberDescriptorType):
                cls = slot.__objclass__
                assert name == f"_{cls.__name__}_{slot.__name__.lstrip('_')}"
                stored.setdefault(cls, set()).add(slot.__name__)
    assert {cls.__name__ for cls in stored} == {
        "CallReturnAlphabet", "NestedWord", "Mvpa", "Mnwa", "Sphere", "ExtendedSphere",
        "SphereState", "Grid", "CompiledConstraint",
    }
    assert all(fields == set(cls.__slots__) for cls, fields in stored.items())


def _value_fixtures():
    """One instance of each public class of the library, by class."""
    a = spheres.sphere(nested(S2, ("a",)), 1, 0)
    eq, count = logic.Eq("x", "y"), logic.CountGt(a, 0)
    state = sphere_automaton.canonical_run(word10(), 1)[2]
    # the word side of succ1 holds on (u, u): the report carries a failure
    broken = {**grids.reduction_formulas(), "succ1": logic.Eq("x1", "x2")}
    values = [
        loop_mvpa(), loop_mnwa(), logic.Succ("x", "y"), eq, logic.In("x", "X"),
        logic.Not(eq), logic.Or(eq, eq), logic.ExistsFO("x", eq), logic.ExistsSO("X", eq),
        logic.CountEq(a, 1), count, logic.CAnd(count, count), logic.COr(count, count),
        logic.compile_constraint(count, 0), spheres.sphere(word10(), 3, 1), state.members[0],
        state, sphere_automaton.chi_coloring(word10(), 1), grids.Grid(2, 2), grids.encode(2, 2),
        grids.verify_reduction(1, 1, broken), word10(), S2, S2.classify("a"),
    ]
    return {type(v): v for v in values}


def _public_fields(cls) -> set:
    names = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    for klass in cls.__mro__:
        for name, attr in vars(klass).items():
            if not name.startswith("_") and isinstance(attr, (property, MemberDescriptorType)):
                names.add(name)
    return names


def test_value_types_share_no_mutable_state():
    # every public class refuses assignment and deletion, and hands out
    # each field as a hashable value, a read-only view or a fresh object
    classes = {core.NestedWord, core.CallReturnAlphabet, core.SymbolClass}
    for module in (automata, circularity, logic, spheres, sphere_automaton, grids):
        classes.update(v for v in map(vars(module).get, module.__all__) if inspect.isclass(v))
    fixtures = _value_fixtures()
    assert classes == fixtures.keys()
    for cls, value in fixtures.items():
        names = _public_fields(cls)
        assert names, cls
        for name in sorted(names) + ["unknown"]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        for name in names:
            field = getattr(value, name)
            if isinstance(field, MappingProxyType) or getattr(value, name) is not field:
                continue
            try:
                hash(field)
            except TypeError:
                pytest.fail(f"{cls.__name__}.{name} is a shared mutable {type(field).__name__}")


def test_word_keeps_its_own_maps():
    mu, stack_of = {1: 2}, {1: 1}
    w = NestedWord(S2, ("a", "a~"), mu, stack_of, ())
    mu[1] = 3
    stack_of[1] = 2
    assert w.mu == {1: 2} and w.stack_of == {1: 1} and w.mu_inv == {2: 1}


def test_word_to_dot():
    dot = word_to_dot(word10())
    assert dot.startswith("digraph")
    assert "p1 -> p2;" in dot
    assert "p1 -> p6 [style=dashed" in dot
