"""Grid structures, the word encoding, reduction replay, image checks."""

import re

import pytest

from nwtk import logic
from nwtk.core import iter_token_tuples, nested
from nwtk.errors import AlphabetMismatch, BoundsExceeded, UnknownSymbol
from nwtk.grids import (
    GRID_ALPHABET,
    Grid,
    ReductionReport,
    encode,
    image_membership,
    image_property_formulas,
    reduction_formulas,
    verify_reduction,
)
from nwtk.logic import And, Eq, ExistsFO, Label, Match, Not, Rel, Succ

from fixtures import GRID34


class TestGrid:
    def test_universe_column_major(self):
        assert Grid(2, 2).universe() == [(1, 1), (2, 1), (1, 2), (2, 2)]

    def test_relations(self):
        g = Grid(2, 3)
        assert g.has("P_a", ((1, 1),))
        assert not g.has("P_a", ((1, 2),))
        assert g.has("P_b", ((2, 2),))
        assert g.has("succ1", ((1, 1), (2, 1)))
        assert not g.has("succ1", ((2, 1), (1, 1)))
        assert g.has("succ2", ((2, 2), (2, 3)))
        assert not g.has("succ2", ((1, 1), (2, 2)))

    def test_unknown_relation(self):
        with pytest.raises(UnknownSymbol):
            Grid(1, 1).has("P_c", ((1, 1),))

    @pytest.mark.parametrize("name, args", [
        ("succ1", ("u",)), ("succ2", ("u", "u", "u")), ("P_a", ("u", "u")), ("P_b", ()),
    ])
    def test_wrong_arity(self, name, args):
        with pytest.raises(UnknownSymbol):
            logic.eval(Grid(2, 2), Rel(name, args), {"u": (1, 1)})

    def test_degenerate_sizes_rejected(self):
        with pytest.raises(BoundsExceeded):
            Grid(0, 1)
        with pytest.raises(BoundsExceeded):
            Grid(1, -2)

    def test_is_immutable(self):
        g = Grid(2, 3)
        for field in ("n", "m"):
            with pytest.raises(AttributeError):
                setattr(g, field, 5)
            with pytest.raises(AttributeError):
                delattr(g, field)
        assert (g.n, g.m) == (2, 3) and g == Grid(2, 3) and hash(g) == hash(Grid(2, 3))


class TestEncode:
    def test_three_by_four(self):
        assert list(encode(3, 4).word.labels) == GRID34.split()

    def test_one_by_one(self):
        assert encode(1, 1).word == nested(GRID_ALPHABET, ("a", "a~"))

    def test_cell_to_position(self):
        enc = encode(3, 4)
        assert enc.chi[(1, 2)] == 9
        assert enc.chi[(1, 1)] == 1
        assert enc.chi_bar[(2, (1, 2))] == enc.word.mu[9]

    def test_size_matching_bijection(self):
        for n in range(1, 5):
            for m in range(1, 5):
                enc = encode(n, m)
                assert len(enc.word.labels) == 2 * n * m
                assert not enc.word.pending
                assert sorted(enc.chi_bar.values()) == list(
                    range(1, 2 * n * m + 1)
                )
                for u, p in enc.chi.items():
                    assert enc.chi_bar[(1, u)] == p
                    assert enc.chi_bar[(2, u)] == enc.word.mu[p]

    def test_injective_on_range(self):
        words = {
            encode(n, m).word.labels
            for n in range(1, 5)
            for m in range(1, 5)
        }
        assert len(words) == 16


class TestVerifyReduction:
    def test_smallest(self):
        report = verify_reduction(1, 1)
        assert report.ok and report.checked == 25

    def test_two_by_two(self):
        report = verify_reduction(2, 2)
        assert report.ok and report.checked == 265

    def test_three_by_four(self):
        report = verify_reduction(3, 4)
        assert report.ok and report.checked == 2137

    def test_broken_column_formula_is_caught(self):
        fs = reduction_formulas()
        fs["succ2"] = ExistsFO("z", And(Succ("x1", "z"), Succ("z", "x2")))
        report = verify_reduction(2, 2, fs)
        assert not report.ok
        assert report.failure["relation"] == "succ2"
        assert report.failure["tuple"] == ((1, 1), (1, 2))
        assert report.failure["grid"] and not report.failure["word"]

    # wrong tables, each with its first failing tuple in check order and
    # the number of checks that passed before it
    WRONG_TABLES = {
        "succ": (
            lambda fs: fs["succ"].__setitem__((2, 1), Not(Eq("u1", "u1"))),
            {(2, 2): 131, (3, 4): 964},
            {"condition": "word-relation", "relation": "succ", "kappa": (2, 1),
             "tuple": ((1, 1), (1, 2)), "grid": False, "word": True},
        ),
        "psi": (
            lambda fs: fs.__setitem__("psi", Succ("x1", "x2")),
            {(2, 2): 2, (3, 4): 2},
            {"condition": "pairing", "tuple": (1, 2), "word": True},
        ),
        "label": (
            lambda fs: fs["label"].__setitem__(("b~", 2), Rel("P_a", ("u1",))),
            {(2, 2): 93, (3, 4): 661},
            {"condition": "word-relation", "relation": "label:b~", "kappa": (2,),
             "tuple": ((1, 1),), "grid": True, "word": False},
        ),
        "P": (
            lambda fs: fs["P"].__setitem__("b", Label("x1", "b~")),
            {(2, 2): 231, (3, 4): 1840},
            {"condition": "grid-relation", "relation": "P_b", "tuple": ((1, 2),),
             "grid": True, "word": False},
        ),
        "match": (
            lambda fs: fs["match"].__setitem__((1, 2), Not(Eq("u1", "u1"))),
            {(2, 2): 177, (3, 4): 1393},
            {"condition": "word-relation", "relation": "match", "kappa": (1, 2),
             "tuple": ((1, 1), (1, 1)), "grid": False, "word": True},
        ),
        "succ1": (
            lambda fs: fs.__setitem__("succ1", Succ("x1", "x2")),
            {(2, 2): 244, (3, 4): 1889},
            {"condition": "grid-relation", "relation": "succ1",
             "tuple": ((1, 2), (2, 2)), "grid": True, "word": False},
        ),
        "succ2": (
            lambda fs: fs.__setitem__("succ2", Match("x1", "x2")),
            {(2, 2): 251, (3, 4): 1996},
            {"condition": "grid-relation", "relation": "succ2",
             "tuple": ((1, 1), (1, 2)), "grid": True, "word": False},
        ),
    }

    @pytest.mark.parametrize("table", sorted(WRONG_TABLES))
    @pytest.mark.parametrize("n, m", [(2, 2), (3, 4)])
    def test_failure_report_is_pinned(self, table, n, m):
        edit, checked, failure = self.WRONG_TABLES[table]
        fs = reduction_formulas()
        edit(fs)
        report = verify_reduction(n, m, fs)
        assert report == ReductionReport(n, m, False, checked[(n, m)], failure)

    def test_cap(self):
        with pytest.raises(BoundsExceeded):
            verify_reduction(5, 7)


# the block shape, as an independent regex over one-letter codes
_CODES = {"a": "A", "a~": "x", "b": "B", "b~": "y"}
_SHAPE = re.compile(r"A+((xB)+(yA)+)*(x+|(xB)+y+)$")


def shape_matches(labels) -> bool:
    return _SHAPE.fullmatch("".join(_CODES[t] for t in labels)) is not None


class TestImage:
    def test_all_encodings_accepted(self):
        for n in range(1, 5):
            for m in range(1, 5):
                assert image_membership(encode(n, m).word)

    def test_examples(self):
        assert image_membership(nested(GRID_ALPHABET, ("a", "a~")))
        assert not image_membership(nested(GRID_ALPHABET, ("a", "b", "a~", "b~")))

    def test_foreign_alphabet(self):
        from fixtures import S2C

        with pytest.raises(AlphabetMismatch):
            image_membership(nested(S2C, ("a", "a~")))

    def test_single_mutations_of_two_by_two(self):
        base = list(encode(2, 2).word.labels)
        for i in range(len(base)):
            for sym in GRID_ALPHABET.symbols:
                if sym == base[i]:
                    continue
                mutant = base[:i] + [sym] + base[i + 1 :]
                assert not image_membership(nested(GRID_ALPHABET, mutant))

    def test_against_logical_encoding(self):
        # the block shape and the two formulas, which share no code with
        # image_membership, on every word to length 8 and every encoding
        # of at most 18 positions
        fs = image_property_formulas()
        words = [
            nested(GRID_ALPHABET, tokens)
            for tokens in iter_token_tuples(GRID_ALPHABET, 8)
        ]
        words += [
            encode(n, m).word for n in range(1, 10) for m in range(1, 10) if n * m <= 9
        ]
        for w in words:
            logical = (
                shape_matches(w.labels)
                and logic.eval(w, fs["total"])
                and logic.eval(w, fs["offsets"])
            )
            assert image_membership(w) == logical, w.labels

    def test_image_formulas_try_only_partners(self):
        # each quantifier over a partner is guarded by its Match, so the
        # 4x4 word (32 positions) costs thousands of relation queries, not
        # the millions of an n^4 walk over all quadruples
        word = encode(4, 4).word

        class Counting:
            calls = 0

            def universe(self):
                return word.universe()

            def has(self, name, args):
                self.calls += 1
                return word.has(name, args)

        fs = image_property_formulas()
        counting = Counting()
        assert logic.eval(counting, fs["total"])
        assert logic.eval(counting, fs["offsets"])
        assert counting.calls <= 20_000

    def test_total_matching_formula(self):
        fs = image_property_formulas()
        for tokens in iter_token_tuples(GRID_ALPHABET, 4):
            w = nested(GRID_ALPHABET, tokens)
            assert logic.eval(w, fs["total"]) == (not w.pending)
