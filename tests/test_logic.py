"""Formula evaluation, the prefix parser, counting constraints, markers."""

import collections
import functools
import json
import random

import pytest

from nwtk import logic
from nwtk.automata import Mnwa, mnwa_accepts
from nwtk.core import iter_token_tuples, nested
from nwtk.grids import Grid, encode, reduction_formulas
from nwtk.errors import (
    FormulaParseError,
    MixedRadius,
    NotAnExpandedAlphabet,
    PositionOutOfRange,
    UnboundVariable,
    UnknownSymbol,
    WordTooLargeForSO,
)
from nwtk.logic import (
    And,
    CAnd,
    COr,
    CountEq,
    CountGt,
    Eq,
    ExistsFO,
    ExistsSO,
    Forall,
    Implies,
    In,
    Label,
    Match,
    Not,
    Or,
    Rel,
    Succ,
    compile_constraint,
    constraint_holds,
    expand_alphabet,
    free_vars,
    parse_constraint,
    parse_formula,
    project,
)
from nwtk.spheres import sphere, sphere_to_json

from fixtures import S2, S2C, WORD16, word10, word16
from oracles import eval2, random_formula

CALLS_MATCH_B = Forall(
    "x",
    Forall(
        "y",
        Implies(And(Label("x", "a"), Match("x", "y")), Label("y", "b")),
    ),
)

TOTALLY_MATCHED = Forall(
    "x", ExistsFO("y", Or(Match("x", "y"), Match("y", "x")))
)


# ---------------------------------------------------------------------------
# evaluation

class TestEval:
    def test_vacuous_matching_condition(self):
        assert logic.eval(nested(S2, ("a", "b~")), CALLS_MATCH_B)

    def test_falsified_matching_condition(self):
        assert not logic.eval(nested(S2, ("a", "a~")), CALLS_MATCH_B)

    def test_pending_positions_break_totality(self):
        assert not logic.eval(word10(), TOTALLY_MATCHED)
        assert logic.eval(nested(S2, ("a", "a~")), TOTALLY_MATCHED)

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable):
            logic.eval(nested(S2, ("a",)), Label("x", "a"))

    def test_env_supplies_free_variables(self):
        w = nested(S2, ("a", "b"))
        assert logic.eval(w, Label("x", "b"), env={"x": 2})
        assert not logic.eval(w, Label("x", "b"), env={"x": 1})

    def test_env_values_lie_in_the_structure(self):
        w = nested(S2, ("a", "b"))
        for env in (
            {"x": 0},
            {"x": 3},
            {"x": 2, "X": frozenset({1, 3})},
            {"x": 1, "y": "a"},
            # values equal to a position but of another type
            {"x": True},
            {"x": 1.0},
            {"x": 2, "X": frozenset({1.0})},
        ):
            with pytest.raises(PositionOutOfRange):
                logic.eval(w, Label("x", "b"), env)
        assert logic.eval(w, In("x", "X"), {"x": 2, "X": {1, 2}})
        assert not logic.eval(w, In("x", "X"), {"x": 2, "X": frozenset()})
        # cells whose components equal a cell's but are of another type
        for cell in ((3, 1), (1.0, 1), (True, 1)):
            with pytest.raises(PositionOutOfRange):
                logic.eval(Grid(2, 2), Rel("P_a", ("u",)), {"u": cell})
        assert logic.eval(Grid(2, 2), Rel("P_a", ("u",)), {"u": (1, 1)})

    def test_second_order_cap(self):
        w = nested(S2, ("a",) * 4)
        formula = ExistsSO("X", Forall("x", In("x", "X")))
        assert logic.eval(w, formula)
        with pytest.raises(WordTooLargeForSO):
            logic.eval(w, formula, so_limit=3)

    def test_free_vars(self):
        assert free_vars(CALLS_MATCH_B) == frozenset()
        assert free_vars(Match("x", "y")) == {"x", "y"}
        assert free_vars(ExistsFO("x", In("x", "X"))) == {"X"}
        assert free_vars(ExistsSO("X", In("x", "X"))) == {"x"}

    def test_non_formula_node(self):
        w = nested(S2, ("a",))
        for f in (42, Not("x"), Or(Eq("x", "x"), None), ExistsFO("x", 1.5)):
            with pytest.raises(FormulaParseError):
                logic.eval(w, f, env={"x": 1})
        with pytest.raises(FormulaParseError):
            free_vars(42)

    def test_ill_sorted_formula(self):
        w = nested(S2, ("a", "b"))
        # a bound variable used at the other sort, in a hand-built formula
        for structure, f in (
            (w, ExistsSO("X", Label("X", "a"))),
            (w, ExistsFO("x", In("x", "x"))),
            (w, ExistsFO("x", ExistsSO("X", In("X", "X")))),
            (w, ExistsSO("X", Eq("X", "X"))),
            (Grid(2, 2), ExistsSO("X", Rel("P_a", ("X",)))),
        ):
            with pytest.raises(FormulaParseError):
                logic.eval(structure, f)
        # a free variable used at the other sort than its value's
        for f, env in (
            (Label("X", "a"), {"X": frozenset({1})}),
            (In("x", "y"), {"x": 1, "y": 2}),
            (Or(Label("x", "a"), In("y", "x")), {"x": 1, "y": 1}),
        ):
            with pytest.raises(FormulaParseError):
                logic.eval(w, f, env)
        # a rebinding at the other sort is fine inside its own scope
        assert logic.eval(w, ExistsFO("x", And(Label("x", "a"), ExistsSO("x", In("y", "x")))),
                          env={"y": 1})

    def test_evaluation_is_lazy_left_to_right(self):
        w = nested(S2, ("a",) * 4)
        # the unknown relation and the oversized set quantifier are never reached
        assert logic.eval(w, Or(Eq("x", "x"), Rel("foo", ("x",))), env={"x": 1})
        with pytest.raises(UnknownSymbol):
            logic.eval(w, Or(Not(Eq("x", "x")), Rel("foo", ("x",))), env={"x": 1})
        cheap_then_set = Or(ExistsFO("x", Label("x", "a")), ExistsSO("X", Eq("y", "y")))
        assert logic.eval(w, cheap_then_set, env={"y": 1}, so_limit=3)
        reached = And(ExistsFO("x", Label("x", "a")), ExistsSO("X", Eq("y", "y")))
        with pytest.raises(WordTooLargeForSO):
            logic.eval(w, reached, env={"y": 1}, so_limit=3)
        assert not logic.eval(w, And(Label("y", "b"), ExistsSO("X", Eq("y", "y"))),
                              env={"y": 1}, so_limit=3)

    def test_caller_env_is_unchanged(self):
        w = nested(S2, ("a", "b"))
        env = {"x": 2, "y": 1}
        # rebinds x to a position, then to sets, and fails; x is 2 again after it
        never = ExistsFO(
            "x", And(Label("x", "a"), ExistsSO("x", And(In("y", "x"), Not(In("y", "x")))))
        )
        assert not logic.eval(w, Or(never, Label("x", "a")), env=env)
        assert env == {"x": 2, "y": 1}
        for raising in (ExistsFO("x", Rel("foo", ("x",))),
                        ExistsFO("z", ExistsSO("x", Eq("z", "z")))):
            with pytest.raises((UnknownSymbol, WordTooLargeForSO)):
                logic.eval(w, raising, env=env, so_limit=1)
            assert env == {"x": 2, "y": 1}

    def test_eq_and_succ(self):
        w = nested(S2, ("a", "a~"))
        assert logic.eval(w, ExistsFO("x", ExistsFO("y", Succ("x", "y"))))
        assert logic.eval(
            w, Forall("x", Forall("y", Implies(Match("x", "y"), Not(Eq("x", "y")))))
        )


# ---------------------------------------------------------------------------
# concrete syntax

class TestParser:
    def test_documented_example(self):
        f = parse_formula(
            "(forall x (forall y (implies (and (label x a) (match x y))"
            " (label y b))))"
        )
        assert f == CALLS_MATCH_B

    def test_bare_relation_fallback(self):
        assert parse_formula("(exists x (exists y (succ x y)))") == ExistsFO(
            "x", ExistsFO("y", Rel("succ", ("x", "y")))
        )

    def test_chained_and(self):
        f = parse_formula("(exists x (and (label x a) (label x b) (label x a)))")
        body = f.body
        assert isinstance(body, Not)  # And desugars through Or

    def test_exists_set(self):
        f = parse_formula("(exists-set X (exists x (in x X)))")
        assert isinstance(f, ExistsSO)
        assert logic.eval(nested(S2, ("a",)), f)

    def test_parse_errors(self):
        for text in (
            "x",
            "()",
            "(not)",
            "(label x)",
            "(exists (x) (label x a))",
            "(label x a) trailing",
            "(or (label x a)",
            "(exists-set X (label X a))",
            "(exists-set X (succ X X))",
            "(exists x (exists y (in x y)))",
            "(exists-set X (exists X (in X X)))",
        ):
            with pytest.raises(FormulaParseError):
                parse_formula(text)

    def test_parsed_formula_evaluates(self):
        f = parse_formula("(forall x (exists y (or (match x y) (match y x))))")
        assert not logic.eval(word10(), f)


# ---------------------------------------------------------------------------
# the two evaluators agree

def test_eval_matches_independent_evaluator():
    rng = random.Random(20240817)
    words = [
        nested(S2, [rng.choice(S2.symbols) for _ in range(rng.randint(1, 6))])
        for _ in range(12)
    ]
    checked = 0
    for _ in range(60):
        f = random_formula(rng, S2.symbols)
        for w in words:
            assert logic.eval(w, f) == eval2(w, f), (f, w.labels)
            checked += 1
    assert checked == 720


def test_eval_matches_independent_evaluator_under_set_quantifiers():
    rng = random.Random(20261018)
    words = [
        nested(S2, [rng.choice(S2.symbols) for _ in range(rng.randint(1, 6))])
        for _ in range(8)
    ]
    formulas = []
    while len(formulas) < 40:
        f = random_formula(rng, S2.symbols)
        if "ExistsSO(" in repr(f):
            formulas.append(f)
    values = set()
    for f in formulas:
        for w in words:
            value = logic.eval(w, f)
            assert value == eval2(w, f), (f, w.labels)
            values.add(value)
    assert values == {True, False}


def random_grid_formula(rng, depth):
    """A random formula over the grid relations, free in u1 and u2; set
    quantifiers do not nest."""

    def gen(depth, fo, so):
        if depth == 0 or rng.random() < 0.25:
            v, w = rng.choice(fo), rng.choice(fo)
            kind = rng.choice(("P_a", "P_b", "succ1", "succ2", "eq", "in"))
            if kind in ("P_a", "P_b"):
                return Rel(kind, (v,))
            if kind == "eq":
                return Eq(v, w)
            if kind == "in" and so:
                return In(v, rng.choice(so))
            return Rel(rng.choice(("succ1", "succ2")), (v, w))
        choice = rng.random()
        if choice < 0.3:
            var = f"z{depth}"
            quantifier = ExistsFO if rng.random() < 0.5 else Forall
            return quantifier(var, gen(depth - 1, fo + (var,), so))
        if choice < 0.4 and not so:
            var = f"Z{depth}"
            return ExistsSO(var, gen(depth - 1, fo, so + (var,)))
        if choice < 0.55:
            return Not(gen(depth - 1, fo, so))
        combine = rng.choice((Or, And, Implies))
        return combine(gen(depth - 1, fo, so), gen(depth - 1, fo, so))

    return gen(depth, ("u1", "u2"), ())


def test_eval_matches_independent_evaluator_on_grids():
    rng = random.Random(4242)
    fs = reduction_formulas()
    formulas = [*fs["label"].values(), *fs["succ"].values(), *fs["match"].values()]
    formulas += [random_grid_formula(rng, 3) for _ in range(40)]
    checked = 0
    values = set()
    for n, m in ((1, 1), (2, 2), (2, 3)):
        grid = Grid(n, m)
        cells = grid.universe()
        for f in formulas:
            for u1 in cells:
                for u2 in cells:
                    env = {"u1": u1, "u2": u2}
                    value = logic.eval(grid, f, env)
                    assert value == eval2(grid, f, env), (f, (n, m), env)
                    values.add(value)
                    checked += 1
    assert values == {True, False}
    assert checked == (16 + 40) * (1 + 16 + 36)


# ---------------------------------------------------------------------------
# guarded quantifiers

def random_body(rng, unary, binary, fo, so, depth):
    """A random formula over the variables ``fo`` and set variables ``so``,
    with unary relations ``unary`` (names), binary relations ``binary``
    (constructors) and quantifiers that may be guarded themselves."""
    if depth == 0 or rng.random() < 0.3:
        v, w = rng.choice(fo), rng.choice(fo)
        kind = rng.choice(("unary", "binary", "eq", "in"))
        if kind == "unary":
            return Rel(rng.choice(unary), (v,))
        if kind == "eq":
            return Eq(v, w)
        if kind == "in" and so:
            return In(v, rng.choice(so))
        return rng.choice(binary)(v, w)
    choice = rng.random()
    if choice < 0.25:
        var = f"q{depth}"
        quantifier = ExistsFO if rng.random() < 0.5 else Forall
        return quantifier(var, random_body(rng, unary, binary, fo + (var,), so, depth - 1))
    if choice < 0.4:
        return Not(random_body(rng, unary, binary, fo, so, depth - 1))
    combine = rng.choice((Or, And, Implies))
    return combine(random_body(rng, unary, binary, fo, so, depth - 1),
                   random_body(rng, unary, binary, fo, so, depth - 1))


# each shape builds a quantifier over z guarded by R on x and z, from a body
# maker phi(fo, so) free in those variables
GUARD_SHAPES = {
    "exists R(x, z) and": lambda R, phi: ExistsFO("z", And(R("x", "z"), phi(("x", "z"), ()))),
    "exists R(z, x) and": lambda R, phi: ExistsFO("z", And(R("z", "x"), phi(("x", "z"), ()))),
    "exists R(x, z)": lambda R, phi: ExistsFO("z", R("x", "z")),
    "not exists R and": lambda R, phi: Not(ExistsFO("z", And(R("z", "x"), phi(("x", "z"), ())))),
    "forall R implies": lambda R, phi: Forall("z", Implies(R("x", "z"), phi(("x", "z"), ()))),
    "leftmost of three": lambda R, phi: ExistsFO(
        "z", And(And(R("x", "z"), phi(("x", "z"), ())), phi(("x", "z"), ()))
    ),
    "inside exists-set": lambda R, phi: ExistsSO(
        "X", And(Forall("z", Implies(R("z", "x"), phi(("x", "z"), ("X",)))), phi(("x",), ("X",)))
    ),
}


def guarded_formula(rng, shape, binary, unary):
    """A closed formula: ∃x or ∀x around the shape with a random guard
    relation, beside a random formula on x."""
    phi = functools.partial(random_body, rng, unary, binary, depth=2)
    guarded = GUARD_SHAPES[shape](rng.choice(binary), phi)
    other = phi(("x",), ())
    body = rng.choice((And, Or, Implies))(guarded, other) if rng.random() < 0.5 else guarded
    return (ExistsFO if rng.random() < 0.5 else Forall)("x", body)


def test_guards_are_found():
    # bodies as the compiler passes them: a universal's is the formula that
    # must hold for every value
    phi = Label("z", "a")
    for body, universal, guard in [
        (And(Succ("x", "z"), phi), False, ("succ", "x", False)),
        (And(Match("z", "x"), phi), False, ("match", "x", True)),
        (Succ("x", "z"), False, ("succ", "x", False)),
        (And(And(Succ("x", "z"), phi), phi), False, ("succ", "x", False)),
        (Implies(Succ("x", "z"), phi), True, ("succ", "x", False)),  # ∀z (R → φ)
        (Or(Not(Match("z", "x")), Not(phi)), True, ("match", "x", True)),  # ¬∃z (R ∧ φ)
        (Implies(And(Succ("x", "z"), phi), phi), True, ("succ", "x", False)),
    ]:
        assert logic._guard("z", body, universal) == guard, body


def test_unguarded_shapes_are_not_guarded():
    phi = Label("z", "a")
    for body, universal in [
        (And(phi, Succ("x", "z")), False),  # the relation is not evaluated first
        (Or(Succ("x", "z"), phi), False),  # its falsity does not decide an Or
        (Implies(phi, Not(Succ("x", "z"))), True),
        (Succ("z", "z"), False),  # no other variable
        (Succ("x", "y"), False),  # not on the quantified variable
        (Rel("r", ("x", "z", "y")), False),  # not binary
        (Succ("x", "z"), True),  # a universal needs the relation's negation
    ]:
        assert logic._guard("z", body, universal) is None, body


def test_guarded_eval_matches_independent_evaluator_on_words():
    # every S2C word to length 6, each shape in turn with a fresh formula
    rng = random.Random(20261020)
    values = {shape: set() for shape in GUARD_SHAPES}
    shapes = list(GUARD_SHAPES)
    for i, tokens in enumerate(iter_token_tuples(S2C, 6)):
        w = nested(S2C, tokens)
        shape = shapes[i % len(shapes)]
        f = guarded_formula(rng, shape, (Succ, Match), [f"label:{c}" for c in S2C.symbols])
        value = logic.eval(w, f)
        assert value == eval2(w, f), (f, tokens)
        values[shape].add(value)
    assert all(seen == {True, False} for seen in values.values()), values


def test_guarded_eval_matches_independent_evaluator_on_grids():
    rng = random.Random(20261021)
    values = {shape: set() for shape in GUARD_SHAPES}
    successors = (lambda v, w: Rel("succ1", (v, w)), lambda v, w: Rel("succ2", (v, w)))
    for n in range(1, 4):
        for m in range(1, 4):
            grid = Grid(n, m)
            for shape in GUARD_SHAPES:
                for _ in range(8):
                    f = guarded_formula(rng, shape, successors, ("P_a", "P_b"))
                    value = logic.eval(grid, f)
                    assert value == eval2(grid, f), (f, (n, m))
                    values[shape].add(value)
    assert all(seen == {True, False} for seen in values.values()), values


class TestGuardLaziness:
    def test_unreached_unknown_guard_is_never_evaluated(self):
        w = nested(S2, ("a", "a~"))
        unknown = ExistsFO("z", And(Rel("nope", ("x", "z")), Label("z", "a")))
        assert logic.eval(w, Or(Eq("x", "x"), unknown), env={"x": 1})
        with pytest.raises(UnknownSymbol, match=r"^nested words have no relation 'nope'$"):
            logic.eval(w, Or(Not(Eq("x", "x")), unknown), env={"x": 1})

    def test_guard_of_the_wrong_arity_raises_when_reached(self):
        guarded = ExistsFO("z", And(Rel("P_a", ("u", "z")), Eq("u", "z")))
        with pytest.raises(
            UnknownSymbol, match=r"^grids have no relation 'P_a' on 2 argument\(s\)$"
        ):
            logic.eval(Grid(2, 2), guarded, env={"u": (1, 1)})


class CountingStructure:
    """A structure that forwards to another and counts ``has`` calls by
    relation name."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = collections.Counter()

    def universe(self):
        return self.inner.universe()

    def has(self, name, args):
        self.calls[name] += 1
        return self.inner.has(name, args)


def test_guarded_quantifier_scans_once_per_guard_value():
    # ∃z (match(x1, z) ∧ succ(z, x2)) over every pair of the 4x8 grid word:
    # one universe scan per value of x1 and one re-check per candidate
    word = encode(4, 8).word
    counting = CountingStructure(word)
    succ2 = reduction_formulas()["succ2"]
    run = logic._bind(counting, succ2, {"x1": False, "x2": False})
    positions = list(word.positions())
    assert len(positions) == 64
    for p in positions:
        for q in positions:
            env = {"x1": p, "x2": q}
            assert run(dict(env)) == eval2(word, succ2, env), env
    assert counting.calls["match"] <= 2 * 64 * 64


# ---------------------------------------------------------------------------
# counting constraints

def a_singleton():
    return sphere(nested(S2, ("a",)), 1, 0)


class TestConstraints:
    def test_at_least_one_a(self):
        acceptor = compile_constraint(CountGt(a_singleton(), 0), 0)
        for tokens in iter_token_tuples(S2, 5):
            w = nested(S2, tokens)
            assert acceptor.accepts(w) == ("a" in tokens)
            assert constraint_holds(w, acceptor.expr) == ("a" in tokens)

    def test_a_free(self):
        acceptor = compile_constraint(CountEq(a_singleton(), 0), 0)
        for tokens in iter_token_tuples(S2, 5):
            w = nested(S2, tokens)
            assert acceptor.accepts(w) == ("a" not in tokens)

    def test_embedded_sphere_count(self):
        w = word16()
        target = sphere(w, 10, 2)
        acceptor = compile_constraint(CountEq(target, 2), 2)
        assert acceptor.accepts(w)
        relabeled = list(WORD16.split())
        relabeled[13] = "b~"
        assert not acceptor.accepts(nested(S2C, relabeled))

    def test_boolean_combinations(self):
        b_singleton = sphere(nested(S2, ("b",)), 1, 0)
        expr = COr(
            CAnd(CountGt(a_singleton(), 0), CountGt(b_singleton, 0)),
            CountEq(a_singleton(), 2),
        )
        acceptor = compile_constraint(expr, 0)
        for tokens in iter_token_tuples(S2, 4):
            w = nested(S2, tokens)
            direct = ("a" in tokens and "b" in tokens) or tokens.count("a") == 2
            assert acceptor.accepts(w) == direct
            assert constraint_holds(w, expr) == direct

    def test_mixed_radius(self):
        r1 = sphere(nested(S2, ("a", "a~")), 1, 1)
        with pytest.raises(MixedRadius):
            compile_constraint(CAnd(CountEq(a_singleton(), 0), CountGt(r1, 0)), 0)

    def test_compiled_constraint_is_immutable(self):
        acceptor = compile_constraint(CountGt(a_singleton(), 0), 0)
        with pytest.raises(AttributeError):
            acceptor.radius = 5
        with pytest.raises(AttributeError):
            del acceptor.expr
        with pytest.raises(AttributeError):
            acceptor.cache = {}
        assert acceptor.radius == 0 and acceptor.accepts(nested(S2, ("a",)))

    def test_negative_threshold(self):
        with pytest.raises(FormulaParseError):
            compile_constraint(CountEq(a_singleton(), -1), 0)

    def test_parse_constraint_files(self, tmp_path):
        (tmp_path / "s1.json").write_text(
            json.dumps(sphere_to_json(a_singleton()))
        )
        (tmp_path / "s2.json").write_text(
            json.dumps(sphere_to_json(sphere(nested(S2, ("b~",)), 1, 0)))
        )
        expr, radius = parse_constraint(
            "(and (count-gt s1.json 0) (count-eq s2.json 1))", tmp_path
        )
        assert radius == 0
        w = nested(S2, ("a", "b~"))
        assert compile_constraint(expr, radius).accepts(w)
        assert not compile_constraint(expr, radius).accepts(
            nested(S2, ("a", "b~", "b~"))
        )

    def test_parse_constraint_rejects_mixed_radii(self, tmp_path):
        (tmp_path / "s1.json").write_text(
            json.dumps(sphere_to_json(a_singleton()))
        )
        (tmp_path / "s2.json").write_text(
            json.dumps(sphere_to_json(sphere(nested(S2, ("a", "a~")), 1, 1)))
        )
        with pytest.raises(MixedRadius):
            parse_constraint(
                "(or (count-eq s1.json 0) (count-gt s2.json 0))", tmp_path
            )

    def test_parse_constraint_syntax_errors(self, tmp_path):
        with pytest.raises(FormulaParseError):
            parse_constraint("(count-eq only-one-arg)", tmp_path)
        with pytest.raises(FormulaParseError):
            parse_constraint("(maybe x 1)", tmp_path)


# ---------------------------------------------------------------------------
# marker expansion and projection

EXP1 = expand_alphabet(S2, 1)


def oblivious_contains(symbol):
    """Marker-blind acceptor over the expanded alphabet."""
    delta1 = []
    for sym in EXP1.symbols:
        base = sym.rpartition("@")[0]
        delta1.append(("n", sym, "y" if base == symbol else "n"))
        delta1.append(("y", sym, "y"))
    delta2 = [
        (p, q, sym, q)
        for p in ("n", "y")
        for q in ("n", "y")
        for sym in EXP1.returns()
    ]
    return Mnwa(EXP1, ("n", "y"), ("n",), ("y",), delta1, delta2)


def marked_a_acceptor():
    """Accepts words with at least one position labeled a and marked {1}."""
    delta1 = [("n", sym, "n") for sym in EXP1.symbols]
    delta1.append(("n", "a@1", "y"))
    delta1 += [("y", sym, "y") for sym in EXP1.symbols]
    delta2 = [
        (p, q, sym, q)
        for p in ("n", "y")
        for q in ("n", "y")
        for sym in EXP1.returns()
    ]
    return Mnwa(EXP1, ("n", "y"), ("n",), ("y",), delta1, delta2)


class TestExpansion:
    def test_single_marker_doubles(self):
        assert len(EXP1.symbols) == 8
        assert "a@" in EXP1.symbols and "a@1" in EXP1.symbols

    def test_two_markers_quadruple(self):
        exp2 = expand_alphabet(S2, 2)
        assert len(exp2.symbols) == 16
        assert "b~@12" in exp2.symbols

    def test_class_preserved(self):
        for tag in ("", "1"):
            cls = EXP1.classify(f"a@{tag}")
            assert cls.kind == "call" and cls.stack == 1
            cls = EXP1.classify(f"b~@{tag}")
            assert cls.kind == "return" and cls.stack == 2

    def test_zero_markers_rejected(self):
        with pytest.raises(FormulaParseError):
            expand_alphabet(S2, 0)


class TestProjection:
    def test_oblivious_round_trip(self):
        projected = project(oblivious_contains("a"), 1)
        assert projected.alphabet == S2
        for tokens in iter_token_tuples(S2, 4):
            w = nested(S2, tokens)
            assert mnwa_accepts(projected, w) == ("a" in tokens)

    def test_marked_acceptor_projects_to_exists_a(self):
        projected = project(marked_a_acceptor(), 1)
        for tokens in iter_token_tuples(S2, 5):
            w = nested(S2, tokens)
            assert mnwa_accepts(projected, w) == ("a" in tokens)

    def test_empty_language_stays_empty(self):
        dead = Mnwa(EXP1, ("n",), ("n",), (), (), ())
        projected = project(dead, 1)
        for tokens in iter_token_tuples(S2, 3):
            assert not mnwa_accepts(projected, nested(S2, tokens))

    def test_unmarked_alphabet_rejected(self):
        from fixtures import loop_mnwa

        with pytest.raises(NotAnExpandedAlphabet):
            project(loop_mnwa(), 1)

    def test_partial_family_rejected(self):
        from nwtk.core import CallReturnAlphabet

        partial = CallReturnAlphabet(((("a@", "a@1"), ("a~@",)),))
        b = Mnwa(partial, ("q",), ("q",), ("q",), (), ())
        with pytest.raises(NotAnExpandedAlphabet):
            project(b, 1)
