"""Labeled grids, their nested-word encoding, and the machinery to check
that the encoding is a strong first-order reduction.

A grid cell (i, j) with odd column j is represented by a call labeled a,
with even j by a call labeled b; the cell's second representative is the
matching return.  Columns alternate direction: odd columns read top to
bottom, even columns bottom to top.  ``verify_reduction`` replays every
defining equivalence of the reduction mechanically from one table of
checks, quantifying over all cell tuples and evaluating both sides with the
formula evaluator; each formula is compiled once, outside the loop over its
tuples.

``image_membership`` decides the image of the encoding by re-encoding;
``image_property_formulas``, its logical characterization, is checked
against it in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .circularity import CANONICAL_ALPHABET
from .core import NestedWord, _immutable, _slot_setters, nested
from .errors import AlphabetMismatch, BoundsExceeded, UnknownSymbol
from .logic import (
    And,
    Eq,
    ExistsFO,
    Forall,
    Implies,
    Label,
    Match,
    Not,
    Or,
    Rel,
    Succ,
    _bind,
)

__all__ = [
    "GRID_ALPHABET",
    "Grid",
    "GridEncoding",
    "encode",
    "reduction_formulas",
    "ReductionReport",
    "verify_reduction",
    "image_membership",
    "image_property_formulas",
]

# the paper's two-stack alphabet a/a~, b/b~, as for direction strings
GRID_ALPHABET = CANONICAL_ALPHABET

VERIFY_CAP = 64


class Grid:
    """The (n, m) grid: cells [n] x [m], row steps succ1, column steps
    succ2, odd columns in P_a, even columns in P_b."""

    __slots__ = ("n", "m")

    def __init__(self, n: int, m: int):
        if n < 1 or m < 1:
            raise BoundsExceeded("grids need at least one row and column")
        _Grid_n(self, n)
        _Grid_m(self, m)

    __setattr__ = __delattr__ = _immutable

    def universe(self):
        return [(i, j) for j in range(1, self.m + 1) for i in range(1, self.n + 1)]

    def has(self, name: str, args) -> bool:
        try:
            if name == "P_a":
                ((_, j),) = args
                return j % 2 == 1
            if name == "P_b":
                ((_, j),) = args
                return j % 2 == 0
            if name == "succ1":
                (i, j), (i2, j2) = args
                return i2 == i + 1 and j2 == j
            if name == "succ2":
                (i, j), (i2, j2) = args
                return i2 == i and j2 == j + 1
        except ValueError:
            raise UnknownSymbol(
                f"grids have no relation {name!r} on {len(args)} argument(s)"
            ) from None
        raise UnknownSymbol(f"grids have no relation {name!r}")

    def __eq__(self, other):
        return isinstance(other, Grid) and (self.n, self.m) == (other.n, other.m)

    def __hash__(self):
        return hash((self.n, self.m))

    def __repr__(self):
        return f"Grid({self.n}, {self.m})"


_Grid_n, _Grid_m = _slot_setters(Grid)


@dataclass(frozen=True)
class GridEncoding:
    """A grid with its word, the cell-to-call map chi, and the two-copy
    bijection chi_bar (copy 1 the call, copy 2 its return); both maps are
    read-only views."""

    grid: Grid
    word: NestedWord
    chi: MappingProxyType
    chi_bar: MappingProxyType


def _tokens(n: int, m: int) -> tuple:
    """The labels of the (n, m) grid's word: a^n, then (a~ b)^n (b~ a)^n
    repeated (m - 1) // 2 times, then a~^n when m is odd and (a~ b)^n b~^n
    when it is even."""
    ab = ("a~", "b") * n
    ba = ("b~", "a") * n
    last = ("a~",) * n if m % 2 else ab + ("b~",) * n
    return ("a",) * n + (ab + ba) * ((m - 1) // 2) + last


def encode(n: int, m: int) -> GridEncoding:
    grid = Grid(n, m)
    word = nested(GRID_ALPHABET, _tokens(n, m))
    mu = word.mu
    calls = sorted(mu)  # column by column, odd ones top down, even ones bottom up
    chi = {
        (i, j): calls[n * (j - 1) + (i - 1 if j % 2 else n - i)]
        for j in range(1, m + 1)
        for i in range(1, n + 1)
    }
    chi_bar = {}
    for u, p in chi.items():
        chi_bar[(1, u)] = p
        chi_bar[(2, u)] = mu[p]
    return GridEncoding(grid, word, MappingProxyType(chi), MappingProxyType(chi_bar))


def _false():
    return Not(Eq("u1", "u1"))


def reduction_formulas() -> dict:
    """The defining formulas of the reduction, keyed by relation.

    Grid-side formulas (for word relations) use variables u1, u2; word-side
    formulas (for grid relations) use x1, x2.
    """
    P_a = Rel("P_a", ("u1",))
    P_b = Rel("P_b", ("u1",))
    label: dict = {}
    for c in ("a", "b"):
        label[(c, 1)] = Rel(f"P_{c}", ("u1",))
        label[(c, 2)] = _false()
        label[(c + "~", 1)] = _false()
        label[(c + "~", 2)] = Rel(f"P_{c}", ("u1",))

    succ = {
        (1, 1): And(
            Rel("succ1", ("u1", "u2")),
            Not(ExistsFO("z", Rel("succ2", ("z", "u1")))),
        ),
        (1, 2): Or(
            Or(
                And(
                    And(Eq("u1", "u2"), P_a),
                    Not(ExistsFO("z", Rel("succ1", ("u1", "z")))),
                ),
                And(
                    And(Eq("u1", "u2"), P_b),
                    Not(ExistsFO("z", Rel("succ1", ("z", "u1")))),
                ),
            ),
            Or(
                And(
                    And(P_a, Rel("P_b", ("u2",))),
                    ExistsFO(
                        "z",
                        And(Rel("succ1", ("u1", "z")), Rel("succ2", ("u2", "z"))),
                    ),
                ),
                And(
                    And(P_b, Rel("P_a", ("u2",))),
                    ExistsFO(
                        "z",
                        And(Rel("succ1", ("z", "u1")), Rel("succ2", ("u2", "z"))),
                    ),
                ),
            ),
        ),
        (2, 1): Rel("succ2", ("u1", "u2")),
        (2, 2): Or(
            And(
                And(P_a, Rel("succ1", ("u2", "u1"))),
                Not(ExistsFO("z", Rel("succ2", ("u1", "z")))),
            ),
            And(
                And(P_b, Rel("succ1", ("u1", "u2"))),
                Not(ExistsFO("z", Rel("succ2", ("u1", "z")))),
            ),
        ),
    }
    match = {
        (1, 1): _false(),
        (1, 2): Eq("u1", "u2"),
        (2, 1): _false(),
        (2, 2): _false(),
    }

    def two_apart(v, w, mid_label):
        return ExistsFO(
            "z", And(And(Succ(v, "z"), Succ("z", w)), Label("z", mid_label))
        )

    succ1 = Or(
        And(
            And(Label("x1", "a"), Label("x2", "a")),
            Or(Succ("x1", "x2"), two_apart("x1", "x2", "b~")),
        ),
        And(
            And(Label("x1", "b"), Label("x2", "b")),
            two_apart("x2", "x1", "a~"),
        ),
    )
    succ2 = ExistsFO("z", And(Match("x1", "z"), Succ("z", "x2")))
    return {
        "psi": Match("x1", "x2"),
        "label": label,
        "succ": succ,
        "match": match,
        "P": {"a": Label("x1", "a"), "b": Label("x1", "b")},
        "succ1": succ1,
        "succ2": succ2,
    }


@dataclass(frozen=True)
class ReductionReport:
    n: int
    m: int
    ok: bool
    checked: int
    failure: MappingProxyType | None


def verify_reduction(n: int, m: int, formulas=None) -> ReductionReport:
    """Replay every defining equivalence of the reduction on (n, m).

    Checks, in order: chi_bar is a bijection; the pairing formula matches
    the copy pairing; each word relation agrees with its grid formula on
    all cell tuples and copy assignments; each grid relation agrees with
    its word formula.  Stops at the first failing tuple.
    """
    if 2 * n * m > VERIFY_CAP:
        raise BoundsExceeded(
            f"word has {2 * n * m} positions, verification cap is {VERIFY_CAP}"
        )
    enc = encode(n, m)
    grid, word, chi_bar = enc.grid, enc.word, enc.chi_bar
    chi = dict(enc.chi)  # the grid rows look it up per tuple: a plain dict
    fs = formulas if formulas is not None else reduction_formulas()
    cells = grid.universe()
    checked = 0

    def report(failure):
        return ReductionReport(n, m, False, checked, MappingProxyType(failure))

    values = sorted(chi_bar.values())
    if values != list(word.positions()):
        return report({"condition": "bijection", "got": values})
    checked += 1

    pairing = {(chi_bar[(1, u)], chi_bar[(2, u)]) for u in cells}
    psi = _bind(word, fs["psi"], {"x1": False, "x2": False})
    for p in word.positions():
        for q in word.positions():
            lhs = psi({"x1": p, "x2": q})
            if lhs != ((p, q) in pairing):
                return report(
                    {"condition": "pairing", "tuple": (p, q), "word": lhs}
                )
            checked += 1

    # one row per equivalence: the failure's fields, the grid-side and the
    # word-side formula, and per argument the map from a cell to a position
    copy = {k: {u: chi_bar[(k, u)] for u in cells} for k in (1, 2)}
    checks = [
        ({"condition": "word-relation", "relation": f"label:{c}", "kappa": (k,)},
         phi, Label("x1", c), (copy[k],))
        for (c, k), phi in fs["label"].items()
    ] + [
        ({"condition": "word-relation", "relation": rel, "kappa": (k1, k2)},
         phi, Rel(rel, ("x1", "x2")), (copy[k1], copy[k2]))
        for rel in ("succ", "match")
        for (k1, k2), phi in fs[rel].items()
    ] + [
        ({"condition": "grid-relation", "relation": f"P_{c}"},
         Rel(f"P_{c}", ("u1",)), fs["P"][c], (chi,))
        for c in ("a", "b")
    ] + [
        ({"condition": "grid-relation", "relation": rel},
         Rel(rel, ("u1", "u2")), fs[rel], (chi, chi))
        for rel in ("succ1", "succ2")
    ]

    for fields, grid_phi, word_phi, maps in checks:
        grid_side = _bind(grid, grid_phi, dict.fromkeys(("u1", "u2")[: len(maps)], False))
        word_side = _bind(word, word_phi, dict.fromkeys(("x1", "x2")[: len(maps)], False))
        if len(maps) == 1:
            (to_word,) = maps
            for u in cells:
                lhs = grid_side({"u1": u})
                rhs = word_side({"x1": to_word[u]})
                if lhs != rhs:
                    return report({**fields, "tuple": (u,), "grid": lhs, "word": rhs})
                checked += 1
            continue
        to_word1, to_word2 = maps
        for u1 in cells:
            for u2 in cells:
                lhs = grid_side({"u1": u1, "u2": u2})
                rhs = word_side({"x1": to_word1[u1], "x2": to_word2[u2]})
                if lhs != rhs:
                    return report({**fields, "tuple": (u1, u2), "grid": lhs, "word": rhs})
                checked += 1
    return ReductionReport(n, m, True, checked, None)


# ---------------------------------------------------------------------------
# the image of the encoding

def image_membership(word: NestedWord) -> bool:
    """Whether the word encodes some grid.  The (n, m) grid's word starts
    with exactly n calls a, then a~, and has 2nm positions, so the word is
    a member exactly when it is the encoding of the grid it names."""
    if word.alphabet != GRID_ALPHABET:
        raise AlphabetMismatch("image membership is defined over the grid alphabet")
    labels = word.labels
    n = next((i for i, t in enumerate(labels) if t != "a"), len(labels))
    if n == 0 or len(labels) % (2 * n):
        return False
    return labels == _tokens(n, len(labels) // (2 * n))


def image_property_formulas() -> dict:
    """The first-order part of the image's definition: ``total`` says every
    position is matched, and ``offsets`` states five implications over pairs
    of equally labeled matched calls.  With the block shape of the labels,
    a regular condition, they define the set ``image_membership`` decides.
    Each quantifier over a partner yi opens with the ``Match`` that names
    it, so the evaluator tries that one partner rather than every position."""
    total = Forall("x", Or(ExistsFO("y", Match("x", "y")), ExistsFO("y", Match("y", "x"))))

    counter = [0]

    def fresh():
        counter[0] += 1
        return f"z{counter[0]}"

    def same_label(v, w):
        out = None
        for c in GRID_ALPHABET.symbols:
            clause = And(Label(v, c), Label(w, c))
            out = clause if out is None else Or(out, clause)
        return out

    def dist1(v, w):
        return Succ(v, w)

    def dist2(v, w):
        z = fresh()
        return ExistsFO(z, And(Succ(v, z), Succ(z, w)))

    def dist12(v, w):
        return Or(dist1(v, w), dist2(v, w))

    def next_differs(v):
        z = fresh()
        return ExistsFO(z, And(Succ(v, z), Not(same_label(v, z))))

    clauses = And(
        And(
            Implies(And(Label("x1", "a"), dist1("x1", "x2")), dist12("y2", "y1")),
            Implies(And(Label("y1", "a~"), dist1("y2", "y1")), dist12("x1", "x2")),
        ),
        And(
            Implies(And(Label("y1", "b~"), dist1("y2", "y1")), dist2("x1", "x2")),
            And(
                Implies(
                    And(dist2("x1", "x2"), next_differs("x1")), dist12("y2", "y1")
                ),
                Implies(
                    And(dist2("y2", "y1"), next_differs("y2")), dist12("x1", "x2")
                ),
            ),
        ),
    )
    offsets = Forall("x1", Forall("y1", Implies(
        Match("x1", "y1"),
        Forall("x2", Forall("y2", Implies(
            Match("x2", "y2"), Implies(same_label("x1", "x2"), clauses)))),
    )))
    return {"total": total, "offsets": offsets}
