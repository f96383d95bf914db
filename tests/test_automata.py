"""Stack machines, nested-word automata, and the three constructions."""

import json
import random
import tracemalloc

import pytest
from hypothesis import assume, given, settings, strategies as st

from nwtk.automata import (
    Mnwa,
    Mvpa,
    automaton_from_json,
    automaton_to_json,
    degeneralize,
    mnwa_accepts,
    mnwa_run_check,
    mnwa_to_mvpa,
    mvpa_accepts,
    mvpa_initial_configs,
    mvpa_step,
    mvpa_to_mnwa,
    product,
)
from nwtk.core import CALL, NestedWord, iter_token_tuples, nested
from nwtk.errors import (
    AlphabetMismatch,
    CallingStatesPresent,
    EmptyWord,
    LengthMismatch,
    NwtkError,
    UnknownSymbol,
)

from fixtures import S2, S2C, S3, chain_gmnwa, guessing_mvpa, loop_mnwa, loop_mvpa, word10
from oracles import (
    accepts_by_run_search,
    find_accepting_run,
    flag_trace,
    lplus_member,
    random_mnwa,
    random_mvpa,
)

ACCEPT = "a b a~ a~ b~ b~".split()
REJECT = "a b a~ b~".split()
DOUBLE = ACCEPT + ACCEPT


def accept_all_mnwa(alphabet) -> Mnwa:
    delta1 = [("t", a, "t") for a in alphabet.symbols]
    delta2 = [("t", "t", a, "t") for a in alphabet.returns()]
    return Mnwa(alphabet, ("t",), ("t",), ("t",), delta1, delta2)


def contains_mnwa(alphabet, symbol) -> Mnwa:
    """Accepts words with at least one occurrence of ``symbol``."""
    delta1 = [("n", symbol, "y")]
    delta1 += [("n", a, "n") for a in alphabet.symbols if a != symbol]
    delta1 += [("y", a, "y") for a in alphabet.symbols]
    delta2 = [
        (p, q, a, "y" if q == "y" or a == symbol else "n")
        for p in ("n", "y")
        for q in ("n", "y")
        for a in alphabet.returns()
    ]
    return Mnwa(alphabet, ("n", "y"), ("n",), ("y",), delta1, delta2)


# ---------------------------------------------------------------------------
# stack-machine acceptance

class TestMvpa:
    def test_accepts_one_block(self):
        assert mvpa_accepts(loop_mvpa(), ACCEPT)

    def test_rejects_short_block(self):
        assert not mvpa_accepts(loop_mvpa(), REJECT)

    def test_accepts_two_blocks(self):
        assert mvpa_accepts(loop_mvpa(), DOUBLE)

    def test_agrees_with_scanner_spotwise(self):
        assert lplus_member(ACCEPT)
        assert not lplus_member(REJECT)
        assert lplus_member(DOUBLE)

    def test_empty_word(self):
        with pytest.raises(EmptyWord):
            mvpa_accepts(loop_mvpa(), ())

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            mvpa_accepts(loop_mvpa(), ("a", "z"))

    def test_rejects_bottom_push(self):
        with pytest.raises(NwtkError):
            Mvpa(S2, ("q",), ("$",), "#", ("q",), ("q",),
                 (("q", "a", "#", "q"),), (), ())

    def test_rejects_misclassified_rows(self):
        with pytest.raises(AlphabetMismatch):
            Mvpa(S2, ("q",), ("$",), "#", ("q",), ("q",),
                 (("q", "a~", "$", "q"),), (), ())

    @pytest.mark.parametrize(
        "field, column", [(0, 0), (1, 0), (2, 0), (2, 3), (3, 0), (3, 3), (4, 0), (4, 2)]
    )
    def test_rejects_an_unknown_state_in_each_column(self, field, column):
        # initial, final, delta_call, delta_return, delta_internal
        fields = [["q"], ["q"], [("q", "a", "$", "q")], [("q", "a~", "$", "q")], [("q", "c", "q")]]
        row = fields[field][0]
        bad = "z" if field < 2 else row[:column] + ("z",) + row[column + 1 :]
        fields[field] = [bad] + fields[field]
        initial, final, *rows = fields
        with pytest.raises(NwtkError, match="unknown state 'z'"):
            Mvpa(S2C, ("q",), ("$",), "#", initial, final, *rows)

    def test_stack_heights_are_input_driven(self):
        rng = random.Random(7)
        for _ in range(10):
            a = random_mvpa(rng, S2)
            tokens = [rng.choice(S2.symbols) for _ in range(rng.randint(1, 8))]
            configs = mvpa_initial_configs(a)
            for sym in tokens:
                configs = mvpa_step(a, configs, sym)
                heights = {
                    tuple(len(st) for st in stacks) for _, stacks in configs
                }
                assert len(heights) <= 1

    def test_pending_calls_push_nothing(self):
        # every call of (a b)^4 is pending: keeping them on the stacks would
        # give 4**8 configurations at the end
        guessing = guessing_mvpa()
        tracemalloc.start()
        try:
            accepted = mvpa_accepts(guessing, ("a", "b") * 4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert accepted
        assert peak < 1_000_000


# ---------------------------------------------------------------------------
# run checking

class TestRunCheck:
    def test_hand_run(self):
        w = nested(S2, ACCEPT)
        assert mnwa_run_check(
            loop_mnwa(), w, ["q2", "q3", "q3", "q4", "q4", "q0"]
        )

    def test_nonfinal_tail(self):
        w = nested(S2, ACCEPT)
        assert not mnwa_run_check(
            loop_mnwa(), w, ["q2", "q3", "q3", "q4", "q4", "q4"]
        )

    def test_single_symbol_nonfinal(self):
        w = nested(S2, ("a",))
        assert not mnwa_run_check(loop_mnwa(), w, ["q2"])

    def test_length_mismatch(self):
        w = nested(S2, ACCEPT)
        with pytest.raises(LengthMismatch):
            mnwa_run_check(loop_mnwa(), w, ["q2", "q3"])

    def test_empty_word(self):
        # built directly, since nested refuses empty input
        empty = NestedWord(S2, (), {}, {}, ())
        with pytest.raises(EmptyWord):
            mnwa_run_check(loop_mnwa(), empty, [])

    def test_found_runs_pass_the_checker(self):
        b = loop_mnwa()
        for tokens in iter_token_tuples(S2, 6):
            w = nested(S2, tokens)
            run = find_accepting_run(b, w)
            if run is not None:
                assert mnwa_run_check(b, w, run)

    def test_calling_states_only_at_matched_calls(self):
        rng = random.Random(37)
        checked = 0
        for _ in range(6):
            b = random_mnwa(rng, S2, n_states=4, with_calling=True)
            bad = min(b.calling)
            for tokens in iter_token_tuples(S2, 5):
                w = nested(S2, tokens)
                run = find_accepting_run(b, w)
                if run is None:
                    continue
                assert mnwa_run_check(b, w, run), tokens
                for i in w.positions():
                    if i not in w.mu:
                        changed = run[: i - 1] + [bad] + run[i:]
                        assert not mnwa_run_check(b, w, changed), (tokens, i)
                        checked += 1
        assert checked > 100


class TestMnwaAcceptance:
    def test_one_block(self):
        assert mnwa_accepts(loop_mnwa(), nested(S2, ACCEPT))

    def test_running_example_word(self):
        assert mnwa_accepts(loop_mnwa(), word10())

    def test_lone_return(self):
        assert not mnwa_accepts(loop_mnwa(), nested(S2, ("a~",)))

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            mnwa_accepts(loop_mnwa(), nested(S3, ("a", "a~")))

    def test_rejects_nonreturn_delta2(self):
        with pytest.raises(AlphabetMismatch):
            Mnwa(S2, ("q",), ("q",), ("q",), (), (("q", "q", "a", "q"),))

    @pytest.mark.parametrize(
        "field, column", [(0, 0), (0, 2), (1, 0), (1, 1), (1, 3), (2, 0), (3, 0), (4, 0)]
    )
    def test_rejects_an_unknown_state_in_each_column(self, field, column):
        # delta1, delta2, initial, final, calling
        fields = [[("q", "a", "q")], [("q", "q", "a~", "q")], ["q"], ["q"], ["q"]]
        row = fields[field][0]
        bad = "z" if field > 1 else row[:column] + ("z",) + row[column + 1 :]
        fields[field] = [bad] + fields[field]
        delta1, delta2, initial, final, calling = fields
        with pytest.raises(NwtkError, match="unknown state 'z'"):
            Mnwa(S2, ("q",), initial, final, delta1, delta2, calling)

    def test_agrees_with_run_search(self):
        b = loop_mnwa()
        for tokens in iter_token_tuples(S2, 6):
            w = nested(S2, tokens)
            assert mnwa_accepts(b, w) == accepts_by_run_search(b, w), tokens


# ---------------------------------------------------------------------------
# conversions

class TestMvpaToMnwa:
    def test_state_count(self):
        b = mvpa_to_mnwa(loop_mvpa())
        assert len(b.states) == 10

    def test_writes_only_live_rows(self):
        b = mvpa_to_mnwa(loop_mvpa())
        assert (len(b.states), len(b.delta1), len(b.delta2)) == (10, 10, 9)
        calls = {row for row in b.delta1 if S2.classify(row[1]).kind == CALL}
        assert all(q2[1] == "#" for q, x, q2 in b.delta1 - calls)
        assert all(q2[1] == "#" for p, q, x, q2 in b.delta2)
        entered = {q2 for q, x, q2 in calls}
        assert {p for p, q, x, q2 in b.delta2} <= entered
        assert (("q2", "$"), ("q3", "$"), "a~", ("q3", "#")) in b.delta2
        assert (("q2", "$"), ("q3", "#"), "a~", ("q3", "$")) not in b.delta2

    def test_empty_delta(self):
        a = Mvpa(S2, ("q",), ("$",), "#", ("q",), ("q",), (), (), ())
        b = mvpa_to_mnwa(a)
        assert b.delta1 == frozenset() and b.delta2 == frozenset()

    def test_language_preserved(self):
        a = loop_mvpa()
        b = mvpa_to_mnwa(a)
        for tokens in iter_token_tuples(S2, 6):
            assert mvpa_accepts(a, tokens) == mnwa_accepts(b, nested(S2, tokens))

    def test_pair_names_are_injective(self):
        # (x|y, z) and (x, y|z) must stay two states: the stack machine rejects "a"
        a = Mvpa(S2, ("x", "x|y"), ("y|z", "z"), "#", ("x",), ("x|y",),
                 (("x", "a", "y|z", "x"),), (), ())
        b = mvpa_to_mnwa(a)
        assert len(b.states) == 6
        assert not mvpa_accepts(a, ("a",))
        assert not mnwa_accepts(b, nested(S2, ("a",)))

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.text(alphabet="x|&.\\", min_size=1, max_size=2), min_size=5, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_separator_names_keep_the_language(self, seed, parts):
        a, b, c, d, e = parts
        # the pairs (a, b|c) and (a|b, c) read alike when glued with a bare "|"
        states, letters = [a, f"{a}|{b}", d], {"A": f"{b}|{c}", "B": c, "#": e}
        assume(len(set(states)) == 3 and len(set(letters.values())) == 3)
        bare = Mvpa(S2, states, (letters["A"], c), e, states[:1], (), (), (), ())
        assert len(mvpa_to_mnwa(bare).states) == 9
        to = {f"s{i}": name for i, name in enumerate(states)}
        m = random_mvpa(random.Random(seed), S2, n_states=3)
        m = Mvpa(
            S2,
            [to[q] for q in m.states],
            [letters[A] for A in m.gamma],
            letters[m.bottom],
            [to[q] for q in m.initial],
            [to[q] for q in m.final],
            [(to[q], x, letters[A], to[q2]) for q, x, A, q2 in m.delta_call],
            [(to[q], x, letters[A], to[q2]) for q, x, A, q2 in m.delta_return],
            (),
        )
        converted = mvpa_to_mnwa(m)
        for tokens in iter_token_tuples(S2, 4):
            assert mvpa_accepts(m, tokens) == mnwa_accepts(converted, nested(S2, tokens)), tokens


class TestMnwaToMvpa:
    def test_gamma_is_the_state_set(self):
        a = mnwa_to_mvpa(loop_mnwa())
        assert a.gamma == loop_mnwa().states
        assert ("q2", "b", "q1", "q1") in a.delta_call

    def test_empty_delta(self):
        b = Mnwa(S2, ("q",), ("q",), ("q",), (), ())
        a = mnwa_to_mvpa(b)
        assert not a.delta_call and not a.delta_return and not a.delta_internal

    def test_calling_states_block_conversion(self):
        b = Mnwa(S2, ("q",), ("q",), ("q",), (), (), calling=("q",))
        with pytest.raises(CallingStatesPresent):
            mnwa_to_mvpa(b)

    def test_language_preserved(self):
        b = loop_mnwa()
        a = mnwa_to_mvpa(b)
        for tokens in iter_token_tuples(S2, 6):
            assert mnwa_accepts(b, nested(S2, tokens)) == mvpa_accepts(a, tokens)


# ---------------------------------------------------------------------------
# degeneralization

EXPECTED_FLAGS = ["00", "10", "21", "22", "22", "22", "02", "02", "02", "00", "00"]


class TestDegeneralize:
    def test_flag_trace_on_running_example(self):
        w = word10()
        chain = chain_gmnwa(w, {1, 2, 3, 4})
        run = find_accepting_run(degeneralize(chain), w)
        assert run is not None
        assert ["00"] + [q[1] for q in run] == EXPECTED_FLAGS

    def test_flag_trace_oracle_agrees(self):
        vecs = flag_trace(word10(), {1, 2, 3, 4})
        assert ["".join(map(str, v)) for v in vecs] == EXPECTED_FLAGS

    def test_calling_obligation_enforced(self):
        w = word10()
        # position 7 is a pending return; a calling state there kills the run
        chain = chain_gmnwa(w, {7})
        assert not mnwa_accepts(chain, w)
        assert not accepts_by_run_search(chain, w)
        # the same chain without the obligation accepts
        assert mnwa_accepts(chain_gmnwa(w, ()), w)

    def test_no_calling_states_is_identity_on_language(self):
        b = loop_mnwa()
        d = degeneralize(b)
        assert not d.calling
        for tokens in iter_token_tuples(S2, 5):
            w = nested(S2, tokens)
            assert mnwa_accepts(b, w) == mnwa_accepts(d, w)

    def test_matches_generalized_search(self):
        rng = random.Random(11)
        for _ in range(5):
            b = random_mnwa(rng, S2, n_states=3, with_calling=True)
            d = degeneralize(b)
            reached = set(d.initial)
            while True:
                more = {q2 for q, _, q2 in d.delta1 if q in reached}
                more |= {q2 for p, q, _, q2 in d.delta2 if p in reached and q in reached}
                if more <= reached:
                    break
                reached |= more
            assert reached == d.states
            # a matched return reads the state at its call, which a call of its stack entered
            entered = {(S2.classify(a).stack, q2) for _, a, q2 in d.delta1 if S2.classify(a).kind == CALL}
            assert {(S2.classify(a).stack, p) for p, _, a, _ in d.delta2} <= entered
            for tokens in iter_token_tuples(S2, 4):
                w = nested(S2, tokens)
                assert accepts_by_run_search(b, w) == mnwa_accepts(d, w), (
                    tokens,
                    sorted(b.delta1),
                )


# ---------------------------------------------------------------------------
# the acceptance engine against references that share none of its code

def accepts_by_stepping(a: Mvpa, tokens) -> bool:
    """Final-state test over a fold of ``mvpa_step``, where every call pushes."""
    configs = mvpa_initial_configs(a)
    for symbol in tokens:
        configs = mvpa_step(a, configs, symbol)
    return any(q in a.final for q, _ in configs)


class TestEngine:
    @pytest.mark.parametrize("alphabet, n", [(S2, 6), (S2C, 6), (S3, 5)], ids=["S2", "S2C", "S3"])
    def test_mnwa_matches_run_search(self, alphabet, n):
        rng = random.Random(23)
        words = [nested(alphabet, tokens) for tokens in iter_token_tuples(alphabet, n)]
        verdicts = set()
        for k in range(6):
            b = random_mnwa(rng, alphabet, n_states=4, with_calling=k % 2 == 0)
            for w in words:
                verdict = accepts_by_run_search(b, w)
                assert mnwa_accepts(b, w) == verdict, (k, w.labels)
                verdicts.add((bool(b.calling), verdict))
        assert len(verdicts) == 4

    @pytest.mark.parametrize("alphabet", [S2, S2C], ids=["S2", "S2C"])
    def test_mvpa_matches_stepping(self, alphabet):
        rng = random.Random(29)
        verdicts = set()
        for k in range(6):
            a = random_mvpa(rng, alphabet)
            for tokens in iter_token_tuples(alphabet, 6):
                verdict = accepts_by_stepping(a, tokens)
                assert mvpa_accepts(a, tokens) == verdict, (k, tokens)
                verdicts.add(verdict)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("alphabet, n", [(S2, 5), (S2C, 4), (S3, 4)], ids=["S2", "S2C", "S3"])
    def test_constructions_agree_with_engine(self, alphabet, n):
        rng = random.Random(31)
        for k in range(4):
            b = random_mnwa(rng, alphabet, n_states=3, with_calling=k % 2 == 0)
            plain = degeneralize(b)
            stack = mnwa_to_mvpa(plain if b.calling else b)
            for tokens in iter_token_tuples(alphabet, n):
                w = nested(alphabet, tokens)
                verdict = mnwa_accepts(b, w)
                assert mnwa_accepts(plain, w) == verdict, (k, tokens)
                assert mvpa_accepts(stack, tokens) == verdict, (k, tokens)

    @pytest.mark.parametrize("alphabet, n", [(S2, 5), (S2C, 5), (S3, 4)], ids=["S2", "S2C", "S3"])
    def test_mvpa_to_mnwa_agrees_with_stepping(self, alphabet, n):
        rng = random.Random(37)
        verdicts = set()
        for k in range(4):
            a = random_mvpa(rng, alphabet, n_states=4)
            b = mvpa_to_mnwa(a)
            for tokens in iter_token_tuples(alphabet, n):
                verdict = accepts_by_stepping(a, tokens)
                assert mnwa_accepts(b, nested(alphabet, tokens)) == verdict, (k, tokens)
                verdicts.add(verdict)
        assert verdicts == {True, False}


def test_automata_are_immutable():
    for machine in (loop_mvpa(), loop_mnwa()):
        with pytest.raises(AttributeError):
            machine.states = frozenset()
        with pytest.raises(AttributeError):
            del machine.final
        with pytest.raises(AttributeError):
            machine.alphabet = S3
    assert mvpa_accepts(loop_mvpa(), ACCEPT) and mnwa_accepts(loop_mnwa(), nested(S2, ACCEPT))


# ---------------------------------------------------------------------------
# products

def renamed(b: Mnwa, names) -> Mnwa:
    """The same machine with its states s0, s1, ... called names[0], names[1], ..."""
    to = {f"s{i}": name for i, name in enumerate(names)}
    return Mnwa(
        b.alphabet,
        [to[q] for q in b.states],
        [to[q] for q in b.initial],
        [to[q] for q in b.final],
        [(to[q], a, to[q2]) for q, a, q2 in b.delta1],
        [(to[p], to[q], a, to[q2]) for p, q, a, q2 in b.delta2],
        [to[q] for q in b.calling],
    )


class TestProduct:
    def test_intersection_with_accept_all(self):
        b = loop_mnwa()
        p = product(b, accept_all_mnwa(S2), "intersection")
        for tokens in iter_token_tuples(S2, 5):
            w = nested(S2, tokens)
            assert mnwa_accepts(p, w) == mnwa_accepts(b, w)

    def test_union_idempotent(self):
        b = loop_mnwa()
        p = product(b, b, "union")
        for tokens in iter_token_tuples(S2, 5):
            w = nested(S2, tokens)
            assert mnwa_accepts(p, w) == mnwa_accepts(b, w)

    def test_intersection_of_predicates(self):
        p = product(contains_mnwa(S2, "a"), contains_mnwa(S2, "b"), "intersection")
        for tokens in iter_token_tuples(S2, 6):
            w = nested(S2, tokens)
            assert mnwa_accepts(p, w) == ("a" in tokens and "b" in tokens)

    def test_union_of_predicates(self):
        p = product(contains_mnwa(S2, "a"), contains_mnwa(S2, "b"), "union")
        for tokens in iter_token_tuples(S2, 5):
            w = nested(S2, tokens)
            assert mnwa_accepts(p, w) == ("a" in tokens or "b" in tokens)

    def test_calling_union_semantics(self):
        b1 = Mnwa(S2, ("p",), ("p",), ("p",), (), (), calling=("p",))
        b2 = Mnwa(S2, ("q",), ("q",), ("q",), (), ())
        inter = product(b1, b2, "intersection")
        assert inter.calling == frozenset({("p", "q")})
        uni = product(b1, b2, "union")
        assert uni.calling == frozenset({(1, "p")})

    def test_pair_names_are_injective(self):
        # (x&y, z) and (x, y&z) must stay two states: each operand rejects "a"
        left = Mnwa(S2, ("x", "x&y"), ("x",), ("x&y",), (("x", "a", "x"),), ())
        right = Mnwa(S2, ("y&z", "z"), ("y&z",), ("z",), (("y&z", "a", "y&z"),), ())
        inter = product(left, right, "intersection")
        assert len(inter.states) == 4
        assert not mnwa_accepts(inter, nested(S2, ("a",)))

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(st.text(alphabet="x&|.\\", min_size=1, max_size=2), min_size=5, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_separator_names_keep_the_language(self, seed, parts):
        a, b, c, d, e = parts
        # the pairs (a, b&c) and (a&b, c) read alike when glued with a bare "&"
        left, right = [a, f"{a}&{b}", d], [f"{b}&{c}", c, e]
        assume(len(set(left)) == 3 and len(set(right)) == 3)
        bare = [Mnwa(S2, names, names[:1], (), (), ()) for names in (left, right)]
        assert len(product(*bare, "intersection").states) == 9
        rng = random.Random(seed)
        b1 = renamed(random_mnwa(rng, S2, n_states=3, with_calling=True), left)
        b2 = renamed(random_mnwa(rng, S2, n_states=3), right)
        inter = product(b1, b2, "intersection")
        uni = product(b1, b2, "union")
        for tokens in iter_token_tuples(S2, 3):
            w = nested(S2, tokens)
            v1 = accepts_by_run_search(b1, w)
            v2 = accepts_by_run_search(b2, w)
            assert mnwa_accepts(inter, w) == (v1 and v2), tokens
            assert mnwa_accepts(uni, w) == (v1 or v2), tokens

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatch):
            product(loop_mnwa(), accept_all_mnwa(S3), "intersection")

    def test_unknown_mode(self):
        with pytest.raises(NwtkError):
            product(loop_mnwa(), loop_mnwa(), "xor")


# ---------------------------------------------------------------------------
# serialization

def test_json_round_trips():
    derived = (
        mvpa_to_mnwa(loop_mvpa()),
        degeneralize(chain_gmnwa(word10(), {1, 2})),
        product(loop_mnwa(), contains_mnwa(S2, "a"), "union"),
    )
    for a in (loop_mvpa(), loop_mnwa(), chain_gmnwa(word10(), {1, 2})) + derived:
        data = automaton_to_json(a)
        again = automaton_from_json(data)
        assert automaton_to_json(again) == data
        # derived names are tuples, written as arrays and read back as tuples
        assert automaton_from_json(json.dumps(data)).states == a.states


_S2_DOC = {
    "stacks": [{"calls": ["a"], "returns": ["a~"]}, {"calls": ["b"], "returns": ["b~"]}],
    "internal": [],
}


def test_json_documents_are_pinned():
    # the reader mirrors the writer, so a round trip alone cannot catch a
    # writer that drops or mangles a field
    assert automaton_to_json(loop_mvpa()) == {
        "kind": "mvpa",
        "alphabet": _S2_DOC,
        "states": ["q0", "q1", "q2", "q3", "q4"],
        "gamma": ["$"],
        "bottom": "#",
        "initial": ["q0"],
        "final": ["q0"],
        "delta_call": [
            ["q0", "a", "$", "q2"],
            ["q1", "a", "$", "q2"],
            ["q2", "b", "$", "q1"],
            ["q2", "b", "$", "q3"],
        ],
        "delta_return": [
            ["q3", "a~", "#", "q4"],
            ["q3", "a~", "$", "q3"],
            ["q4", "b~", "#", "q0"],
            ["q4", "b~", "$", "q4"],
        ],
        "delta_internal": [],
    }
    assert automaton_to_json(loop_mnwa()) == {
        "kind": "mnwa",
        "alphabet": _S2_DOC,
        "states": ["q0", "q1", "q2", "q3", "q4"],
        "initial": ["q0"],
        "final": ["q0"],
        "delta1": [
            ["q0", "a", "q2"],
            ["q1", "a", "q2"],
            ["q2", "b", "q1"],
            ["q2", "b", "q3"],
            ["q3", "a~", "q4"],
            ["q4", "b~", "q0"],
        ],
        "delta2": [["q1", "q4", "b~", "q4"], ["q2", "q3", "a~", "q3"], ["q3", "q4", "b~", "q4"]],
        "calling": [],
    }
    with pytest.raises(NwtkError):
        automaton_to_json(object())


def test_json_rejects_unknown_kind():
    with pytest.raises(NwtkError):
        automaton_from_json({"kind": "dfa", "alphabet": {"stacks": []}})
