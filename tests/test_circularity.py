"""Direction walks, the bounded circularity search, and the drawing map."""

import itertools
import random
from collections import Counter

import pytest

from nwtk.circularity import (
    CANONICAL_ALPHABET,
    circular_witness,
    f_map,
    is_circular,
    parse_directions,
    path_exists,
)
from nwtk.core import nested
from nwtk.errors import (
    BoundTooSmall,
    EmptyWord,
    InvalidDirection,
    PositionOutOfRange,
)

from fixtures import (
    CIRC1,
    CIRC2,
    NONCIRC,
    S2,
    S3,
    WALK10,
    WALK12_3,
    word10,
    word12,
    word12_3,
)
from oracles import declarative_matches, walk as declarative_walk

DIRS2 = ("fwd", "bwd", "jump1", "back1", "jump2", "back2")
DIRS3 = DIRS2 + ("jump3", "back3")


class TestParse:
    def test_round_trip(self):
        assert parse_directions("jump1 fwd back2 fwd") == CIRC1
        assert parse_directions(" fwd\n bwd ") == ("fwd", "bwd")

    def test_higher_stacks_allowed(self):
        assert parse_directions("jump3 back3") == ("jump3", "back3")

    def test_invalid_tokens(self):
        for bad in ("up", "fwd1", "jump", "back0", "jumper2"):
            with pytest.raises(InvalidDirection):
                parse_directions(bad)


class TestPathExists:
    def test_square_walk(self):
        w = nested(S2, ("b", "a", "a~", "b~"))
        assert path_exists(w, CIRC1, 2, distinct=True) == {2}
        assert path_exists(w, CIRC1, 2) == {2}

    def test_no_successor_of_last(self):
        w = word10()
        assert path_exists(w, ("fwd",), len(w)) == set()
        assert path_exists(w, ("fwd",), len(w), distinct=True) == set()

    def test_out_of_range(self):
        w = nested(S2, ("a",))
        with pytest.raises(PositionOutOfRange):
            path_exists(w, ("fwd",), 0)
        with pytest.raises(PositionOutOfRange):
            path_exists(w, ("fwd",), 2)

    def test_class_side_conditions(self):
        w = word10()
        # jump2 from an a-call dies; back1 from a pending return dies
        assert path_exists(w, ("jump2",), 1) == set()
        assert path_exists(w, ("back1",), 7) == set()
        assert path_exists(w, ("jump1",), 1) == {6}

    def test_doubled_walk_returns_only_loosely(self):
        w = word12()
        single = path_exists(w, WALK10, 3, distinct=True)
        assert single == {1}
        doubled = WALK10 + WALK10
        assert path_exists(w, doubled, 3) == {3}
        assert path_exists(w, doubled, 3, distinct=True) == set()

    def test_three_stacks_close_the_circle(self):
        w = word12_3()
        assert path_exists(w, WALK12_3, 3, distinct=True) == {1}
        doubled = WALK12_3 + WALK12_3
        assert path_exists(w, doubled, 3, distinct=True) == {3}

    def test_strict_implies_loose(self):
        rng = random.Random(11)
        for _ in range(60):
            tokens = [rng.choice(S2.symbols) for _ in range(rng.randint(1, 8))]
            w = nested(S2, tokens)
            walk = tuple(rng.choice(DIRS2) for _ in range(rng.randint(1, 4)))
            for i in w.positions():
                strict = path_exists(w, walk, i, distinct=True)
                assert strict <= path_exists(w, walk, i)

    def test_agrees_with_the_declarative_walk(self):
        rng = random.Random(20)
        pending_calls = pending_returns = 0
        taken = Counter()
        for _ in range(3000):
            tokens = tuple(rng.choice(S3.symbols) for _ in range(rng.randint(1, 5)))
            w = nested(S3, tokens)
            i = rng.randint(1, len(tokens))
            directions = [rng.choice(DIRS3) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                # open with the jump or back step of the start's own stack
                # (S3.symbols runs a, a~, b, b~, c, c~)
                s = S3.symbols.index(tokens[i - 1])
                directions[0] = ("jump", "back")[s % 2] + str(s // 2 + 1)
            for distinct in (False, True):
                expected = declarative_walk(S3, tokens, i, directions, distinct)
                assert path_exists(w, directions, i, distinct) == expected, (tokens, directions, i)
                if expected:
                    taken.update(directions)
            matched = {p for c, r, _ in declarative_matches(S3, tokens) for p in (c, r)}
            unmatched = [tokens[p - 1] for p in w.positions() if p not in matched]
            pending_calls += any(t in S3.calls() for t in unmatched)
            pending_returns += any(t in S3.returns() for t in unmatched)
        # the sample holds pending calls and returns, and walks that take
        # each stack's matching edges both ways
        assert min(pending_calls, pending_returns) > 1000
        assert min(taken[d] for d in DIRS3) > 20, taken


class TestCircularity:
    def test_first_listed_string(self):
        word, start = circular_witness(CIRC1, 12)
        assert len(word) <= 12
        assert path_exists(word, CIRC1, start, distinct=True) == {start}

    def test_second_listed_string(self):
        word, start = circular_witness(CIRC2, 12)
        assert path_exists(word, CIRC2, start, distinct=True) == {start}

    def test_non_circular_string(self):
        assert not is_circular(NONCIRC, 20)
        assert circular_witness(NONCIRC, 20) is None

    def test_witnesses_use_canonical_alphabet(self):
        word, _ = circular_witness(CIRC1, 12)
        assert word.alphabet == CANONICAL_ALPHABET

    def test_bound_floor(self):
        with pytest.raises(BoundTooSmall):
            is_circular(CIRC1, 4)
        with pytest.raises(EmptyWord):
            is_circular((), 5)

    def test_length_two_census(self):
        inverses = {
            ("fwd", "bwd"), ("bwd", "fwd"),
            ("jump1", "back1"), ("back1", "jump1"),
            ("jump2", "back2"), ("back2", "jump2"),
            ("jump1", "bwd"), ("bwd", "jump1"),
            ("fwd", "back1"), ("back1", "fwd"),
            ("jump2", "bwd"), ("bwd", "jump2"),
            ("fwd", "back2"), ("back2", "fwd"),
        }
        for w in itertools.product(DIRS2, repeat=2):
            assert is_circular(w, 12) == (w in inverses), w
        for d in DIRS2:
            assert not is_circular((d,), 12)

    def test_doubling_kills_circularity(self):
        assert not is_circular(CIRC1 + CIRC1, 2 * (2 * len(CIRC1)) + 4)


class TestFMap:
    def test_documented_rewrite(self):
        w = ("bwd", "back1", "fwd", "jump2", "fwd", "back1", "fwd", "back2")
        assert f_map(w) == (
            "bwd2", "bwd2", "ccw", "fwd2", "fwd2", "bwd2", "ccw", "cw",
        )

    def test_single_rules(self):
        assert f_map(("jump1",)) == ("fwd2",)
        assert f_map(("back1", "fwd")) == ("bwd2", "ccw")
        assert f_map(("jump1", "bwd")) == ("fwd2", "cw")
        assert f_map(("bwd", "jump2")) == ("bwd2", "ccw")
        assert f_map(("fwd", "back2")) == ("fwd2", "cw")

    def test_two_stack_only(self):
        with pytest.raises(InvalidDirection):
            f_map(("jump3",))
