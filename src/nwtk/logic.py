"""Monadic second-order formulas over matched structures, and acceptors
for counting constraints on sphere realizations.

Formulas are evaluated on any structure exposing ``universe()`` and
``has(name, args)``; nested words and grids both do.  One walk compiles a
formula against a structure (its ``has``, its universe list and the set
quantification cap) into nested closures and collects its free variables;
the closure is then applied to any number of environments.  ``eval``
compiles and applies, after checking that each environment value is an
element or a set of elements of the structure.  Set quantification
enumerates all subsets, so it is capped by a configurable universe size and
refuses larger inputs loudly, when evaluation reaches it.

A first-order quantifier over z is guarded when its body evaluates a binary
relation R on z and another variable x first, and R's falsity decides the
body: ∃z (R(x, z) ∧ φ), ∃z R(z, x), ∀z (R(x, z) → φ) and their nestings.
Such a quantifier tries only the values v with R(env[x], v) (or R(v,
env[x])), listed by one universe scan per value of x and kept as long as
the compiled closure.  So a structure's ``has`` must be a pure function of
``(name, args)``: the same arguments give the same answer, or raise the
same error, for as long as a compiled closure lives.

Counting constraints are positive Boolean combinations of threshold
atoms over spheres.  Their compiled form is a decision procedure: it
extracts every position's sphere, counts realizations with a counter
saturating just above the threshold, and compares.  The contract is
language-level agreement with direct counting, not a materialized state
space.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path

from .core import CallReturnAlphabet, _immutable, _slot_setters
from .errors import (
    FormulaParseError,
    MixedRadius,
    NotAnExpandedAlphabet,
    PositionOutOfRange,
    UnboundVariable,
    WordTooLargeForSO,
)
from .spheres import Sphere, _keys, sphere_count, sphere_from_json

__all__ = [
    "Rel",
    "Eq",
    "In",
    "Not",
    "Or",
    "ExistsFO",
    "ExistsSO",
    "Label",
    "Succ",
    "Match",
    "And",
    "Implies",
    "Forall",
    "free_vars",
    "parse_formula",
    "eval",
    "DEFAULT_SO_LIMIT",
    "CountEq",
    "CountGt",
    "CAnd",
    "COr",
    "CompiledConstraint",
    "compile_constraint",
    "constraint_holds",
    "parse_constraint",
    "expand_alphabet",
    "project",
]

DEFAULT_SO_LIMIT = 18


@dataclass(frozen=True)
class Rel:
    name: str
    args: tuple


@dataclass(frozen=True)
class Eq:
    x: str
    y: str


@dataclass(frozen=True)
class In:
    x: str
    X: str


@dataclass(frozen=True)
class Not:
    body: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class ExistsFO:
    var: str
    body: object


@dataclass(frozen=True)
class ExistsSO:
    var: str
    body: object


def Label(x: str, a: str) -> Rel:
    return Rel(f"label:{a}", (x,))


def Succ(x: str, y: str) -> Rel:
    return Rel("succ", (x, y))


def Match(x: str, y: str) -> Rel:
    return Rel("match", (x, y))


def And(left, right):
    return Not(Or(Not(left), Not(right)))


def Implies(left, right):
    return Or(Not(left), right)


def Forall(var: str, body):
    return Not(ExistsFO(var, Not(body)))


def free_vars(formula) -> frozenset:
    return _compile(formula, (None, None, None), {})[0]


_UNSET = object()


def _compile(f, structure, sorts):
    """Walk ``f`` once against ``structure``: a structure's ``has``, its
    universe list and the set quantification cap.  Returns the free
    variables of ``f`` and a closure from an environment dict to the truth
    value.  No closure touches the structure until it is applied.

    ``sorts`` maps each variable bound around ``f`` or by the environment to
    True for a set, False for a position; a use at the other sort is
    rejected here, as evaluation would hand a set to a relation or look
    inside a position.

    A closure evaluates lazily, left to right: an unknown relation or an
    oversized set quantifier raises only when evaluation reaches it.
    Quantifiers rebind their variable in the dict and restore it before
    they return; on an exception they leave it changed.  A guarded
    quantifier (see ``_guard``) evaluates its whole body on each witness of
    its guard only; it lists the witnesses once per closure and value of the
    guard's other variable, which relies on ``has`` being a pure function.
    """
    if isinstance(f, Rel):
        name, args = f.name, f.args
        for a in args:
            _check_sort(name, sorts, a, False)
        has = structure[0]
        if len(args) == 1:
            (a,) = args
            return frozenset(args), lambda env: has(name, (env[a],))
        if len(args) == 2:
            a, b = args
            return frozenset(args), lambda env: has(name, (env[a], env[b]))
        return frozenset(args), lambda env: has(name, tuple([env[a] for a in args]))
    if isinstance(f, Eq):
        x, y = f.x, f.y
        _check_sort("eq", sorts, x, False)
        _check_sort("eq", sorts, y, False)
        return frozenset((x, y)), lambda env: env[x] == env[y]
    if isinstance(f, In):
        x, X = f.x, f.X
        _check_sort("in", sorts, x, False)
        _check_sort("in", sorts, X, True)
        return frozenset((x, X)), lambda env: env[x] in env[X]
    if isinstance(f, Not):
        g = f.body
        if isinstance(g, Or) and isinstance(g.left, Not) and isinstance(g.right, Not):
            # And(left, right), as one closure instead of four
            free_l, left = _compile(g.left.body, structure, sorts)
            free_r, right = _compile(g.right.body, structure, sorts)
            return free_l | free_r, lambda env: left(env) and right(env)
        if isinstance(g, ExistsFO) and isinstance(g.body, Not):
            # Forall(var, body), stopping at the first counterexample
            return _quantifier(g.var, g.body.body, structure, sorts, universal=True)
        free, body = _compile(g, structure, sorts)
        return free, lambda env: not body(env)
    if isinstance(f, Or):
        free_l, left = _compile(f.left, structure, sorts)
        free_r, right = _compile(f.right, structure, sorts)
        return free_l | free_r, lambda env: left(env) or right(env)
    if isinstance(f, ExistsFO):
        return _quantifier(f.var, f.body, structure, sorts)
    if isinstance(f, ExistsSO):
        return _quantifier(f.var, f.body, structure, sorts, second_order=True)
    raise FormulaParseError(f"not a formula node: {f!r}")


def _check_sort(head, sorts, var, is_set):
    if sorts.get(var, is_set) != is_set:
        used, bound = ("a set", "a position") if is_set else ("a position", "a set")
        raise FormulaParseError(f"{head} uses {var!r} as {used}, but it is bound as {bound}")


def _quantifier(var, body, structure, sorts, second_order=False, universal=False):
    """Compile a quantifier over ``var``: existential, or universal with
    ``body`` the formula that must hold for every value.  Either stops at
    the first value that decides it.  A guarded first-order quantifier
    tries only its guard's witnesses."""
    free, run = _compile(body, structure, {**sorts, var: second_order})
    has, universe, so_limit = structure
    if second_order:
        values = _subsets(universe, so_limit)
    else:
        guard = _guard(var, body, universal)
        values = _witnesses(has, universe, *guard) if guard else lambda env: universe

    def quantify(env):
        saved = env.get(var, _UNSET)
        holds = universal
        for value in values(env):
            env[var] = value
            if (not run(env)) is universal:
                holds = not universal
                break
        _restore(env, var, saved)
        return holds
    return free - {var}, quantify


def _guard(var, body, universal):
    """The guard of a first-order quantifier over ``var``, as ``(name, x,
    var_first)``, or None.

    The guard is a relation ``Rel(name, (x, var))`` or ``Rel(name, (var,
    x))``, x another variable, that ``body`` evaluates first and whose
    falsity decides ``body`` the way that makes the quantifier go on to the
    next value: false for an existential, true for a universal.  Walking
    down ``Not`` flips the value sought, and a true value may be read off
    an ``Or``'s left side.  So ∃z (R ∧ φ), ∃z R, ∀z (R → φ) and ¬∃z (R ∧ φ)
    are guarded by R, also when R is the leftmost of nested conjuncts."""
    decides = universal
    while True:
        if isinstance(body, Not):
            body, decides = body.body, not decides
        elif isinstance(body, Or) and decides:
            body = body.left
        else:
            break
    if decides or not isinstance(body, Rel) or len(body.args) != 2:
        return None
    a, b = body.args
    if a == b or var not in (a, b):
        return None
    return (body.name, b, True) if a == var else (body.name, a, False)


def _witnesses(has, universe, name, x, var_first):
    """The values of a guarded quantifier: the elements v, in universe
    order, with ``has(name, (v, env[x]))`` (``var_first``) or ``has(name,
    (env[x], v))``.  They are listed by one universe scan per value of x,
    on first use, and kept as long as the compiled closure."""
    index = {}

    def values(env):
        key = env[x]
        found = index.get(key)
        if found is None:
            if var_first:
                found = [v for v in universe if has(name, (v, key))]
            else:
                found = [v for v in universe if has(name, (key, v))]
            index[key] = found
        return found
    return values


def _restore(env, var, saved):
    if saved is _UNSET:
        env.pop(var, None)
    else:
        env[var] = saved


def _subsets(universe, so_limit):
    """The values of a set variable, enumerated when the quantifier is
    reached; the cap is checked there too."""

    def values(env):
        n = len(universe)
        if n > so_limit:
            raise WordTooLargeForSO(
                f"set quantification over {n} elements exceeds the cap {so_limit}"
            )
        for mask in range(1 << n):
            yield frozenset(universe[b] for b in range(n) if mask >> b & 1)
    return values


def _bind(structure, formula, sorts, so_limit: int = DEFAULT_SO_LIMIT):
    """Compile ``formula`` against ``structure``.  The closure takes an
    environment dict with the variables of ``sorts``, which maps each to
    True for a set, False for a position, and must cover the formula's
    free variables."""
    free, run = _compile(formula, (structure.has, list(structure.universe()), so_limit), sorts)
    missing = free.difference(sorts)
    if missing:
        raise UnboundVariable(f"unbound variable(s): {', '.join(sorted(missing))}")
    return run


def eval(structure, formula, env=None, so_limit: int = DEFAULT_SO_LIMIT) -> bool:
    """Standard satisfaction; ``env`` must cover the free variables, each
    bound to an element of the structure or a set of elements.  A guarded
    quantifier scans the universe once per value of its guard's other
    variable, so ``structure.has`` must answer the same for the same
    arguments throughout the call."""
    env = dict(env) if env else {}
    sorts = {var: isinstance(value, (set, frozenset)) for var, value in env.items()}
    run = _bind(structure, formula, sorts, so_limit)
    universe = structure.universe()
    # a value of another type may equal an element (True == 1.0 == 1), also inside a cell
    types = _types(next(iter(universe), None))

    def inside(value):
        return _types(value) == types and value in universe

    for var, value in env.items():
        if not (all(map(inside, value)) if sorts[var] else inside(value)):
            raise PositionOutOfRange(
                f"variable {var!r} is bound to {value!r}, outside the structure"
            )
    return run(env)


def _types(value):
    """The type of a value, with the types of its components for a tuple."""
    return (tuple, *map(type, value)) if type(value) is tuple else type(value)


# ---------------------------------------------------------------------------
# concrete syntax

def _read(text: str, what: str):
    """The one s-expression that makes up ``text``, as nested lists of
    tokens; ``what`` names it in the trailing-input error."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()
    node, pos = _read_sexpr(tokens, 0)
    if pos != len(tokens):
        raise FormulaParseError(f"trailing input after the {what}")
    return node


def _fold(head, rest, combine, build):
    """The n-ary ``and``/``or`` form ``rest`` as a left fold of ``combine``
    over the built operands."""
    if len(rest) < 2:
        raise FormulaParseError(f"{head} takes at least 2 arguments")
    return functools.reduce(combine, map(build, rest))


def _read_sexpr(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise FormulaParseError("unexpected end of input")
    tok = tokens[pos]
    if tok == ")":
        raise FormulaParseError("unexpected ')'")
    if tok != "(":
        return tok, pos + 1
    out = []
    pos += 1
    while True:
        if pos >= len(tokens):
            raise FormulaParseError("missing ')'")
        if tokens[pos] == ")":
            return out, pos + 1
        node, pos = _read_sexpr(tokens, pos)
        out.append(node)


def _build(node):
    """The formula of a parsed s-expression, before its sorts are checked."""
    if isinstance(node, str):
        raise FormulaParseError(f"bare token {node!r} is not a formula")
    if not node or not isinstance(node[0], str):
        raise FormulaParseError("every form starts with an operator name")
    head, *rest = node

    def arity(n):
        if len(rest) != n:
            raise FormulaParseError(f"{head} takes {n} argument(s), got {len(rest)}")

    def names(items):
        for x in items:
            if not isinstance(x, str):
                raise FormulaParseError(f"{head} expects variable/symbol names")
        return rest

    if head == "not":
        arity(1)
        return Not(_build(rest[0]))
    if head in ("or", "and"):
        return _fold(head, rest, Or if head == "or" else And, _build)
    if head == "implies":
        arity(2)
        return Implies(_build(rest[0]), _build(rest[1]))
    if head in ("exists", "forall", "exists-set"):
        arity(2)
        var = rest[0]
        if not isinstance(var, str):
            raise FormulaParseError(f"{head} binds a single variable name")
        body = _build(rest[1])
        if head == "exists":
            return ExistsFO(var, body)
        if head == "forall":
            return Forall(var, body)
        return ExistsSO(var, body)
    if head in ("eq", "in", "label"):
        arity(2)
    names(rest)
    if head == "in":
        return In(rest[0], rest[1])
    if head == "label":
        return Label(rest[0], rest[1])
    if head == "eq":
        return Eq(rest[0], rest[1])
    return Rel(head, tuple(rest))


def parse_formula(text: str):
    """Parse one parenthesized prefix formula, e.g.
    (forall x (implies (and (label x a) (match x y)) (label y b)))."""
    formula = _build(_read(text, "formula"))
    free_vars(formula)  # the walk that checks sorts
    return formula


# ---------------------------------------------------------------------------
# sphere-count constraints

@dataclass(frozen=True)
class CountEq:
    sphere: Sphere
    t: int


@dataclass(frozen=True)
class CountGt:
    sphere: Sphere
    t: int


@dataclass(frozen=True)
class CAnd:
    left: object
    right: object


@dataclass(frozen=True)
class COr:
    left: object
    right: object


def _atoms(expr):
    if isinstance(expr, (CountEq, CountGt)):
        yield expr
    elif isinstance(expr, (CAnd, COr)):
        yield from _atoms(expr.left)
        yield from _atoms(expr.right)
    else:
        raise FormulaParseError(f"not a constraint node: {expr!r}")


class CompiledConstraint:
    """Acceptor for a counting constraint at one radius.

    Per word it runs the sphere analysis once, then decides each atom
    with a counter that saturates one past the threshold.
    """

    __slots__ = ("expr", "radius")

    def __init__(self, expr, radius: int):
        for atom in _atoms(expr):
            if atom.sphere.radius != radius:
                raise MixedRadius(
                    f"atom sphere has radius {atom.sphere.radius}, expected {radius}"
                )
            if atom.t < 0:
                raise FormulaParseError("thresholds must be non-negative")
        _CompiledConstraint_expr(self, expr)
        _CompiledConstraint_radius(self, radius)

    __setattr__ = __delattr__ = _immutable

    def accepts(self, word) -> bool:
        keys = _keys(word, self.radius)

        def count_to(target_key, cap):
            c = 0
            for key in keys:
                if key == target_key:
                    c += 1
                    if c > cap:
                        return c
            return c

        def ev(e) -> bool:
            if isinstance(e, CountEq):
                return count_to(e.sphere.key, e.t) == e.t
            if isinstance(e, CountGt):
                return count_to(e.sphere.key, e.t) > e.t
            if isinstance(e, CAnd):
                return ev(e.left) and ev(e.right)
            return ev(e.left) or ev(e.right)

        return ev(self.expr)


_CompiledConstraint_expr, _CompiledConstraint_radius = _slot_setters(CompiledConstraint)


def compile_constraint(expr, r: int) -> CompiledConstraint:
    """Build the acceptor; all atom spheres must have radius r."""
    return CompiledConstraint(expr, r)


def constraint_holds(word, expr) -> bool:
    """Decide a constraint by direct, unsaturated sphere counting."""
    if isinstance(expr, CountEq):
        return sphere_count(word, expr.sphere, expr.sphere.radius) == expr.t
    if isinstance(expr, CountGt):
        return sphere_count(word, expr.sphere, expr.sphere.radius) > expr.t
    if isinstance(expr, CAnd):
        return constraint_holds(word, expr.left) and constraint_holds(word, expr.right)
    if isinstance(expr, COr):
        return constraint_holds(word, expr.left) or constraint_holds(word, expr.right)
    raise FormulaParseError(f"not a constraint node: {expr!r}")


def parse_constraint(text: str, base_dir=".") -> tuple:
    """Parse a constraint file: (and (count-gt sphere.json 0) ...);
    sphere paths are resolved relative to ``base_dir``.
    Returns (expr, radius)."""
    def build(n):
        if isinstance(n, str) or not n or not isinstance(n[0], str):
            raise FormulaParseError("every constraint form starts with an operator")
        head, *rest = n
        if head in ("and", "or"):
            return _fold(head, rest, CAnd if head == "and" else COr, build)
        if head in ("count-eq", "count-gt"):
            if len(rest) != 2 or not all(isinstance(x, str) for x in rest):
                raise FormulaParseError(f"{head} takes a sphere path and a threshold")
            with open(Path(base_dir) / rest[0], "r", encoding="utf-8") as handle:
                s = sphere_from_json(json.load(handle))
            try:
                t = int(rest[1])
            except ValueError:
                raise FormulaParseError(f"bad threshold {rest[1]!r}") from None
            return (CountEq if head == "count-eq" else CountGt)(s, t)
        raise FormulaParseError(f"unknown constraint operator {head!r}")

    expr = build(_read(text, "constraint"))
    radii = {atom.sphere.radius for atom in _atoms(expr)}
    if len(radii) != 1:
        raise MixedRadius(f"constraint mixes radii {sorted(radii)}")
    return expr, radii.pop()


# ---------------------------------------------------------------------------
# marker expansion and projection

def _subset_tags(m: int) -> list[str]:
    sep = "" if m <= 9 else ","
    tags = []
    for mask in range(1 << m):
        tags.append(sep.join(str(b + 1) for b in range(m) if mask >> b & 1))
    return tags


def expand_alphabet(alphabet: CallReturnAlphabet, m: int) -> CallReturnAlphabet:
    """Attach every subset of [m] as a marker: symbol a becomes the family
    a@<tag>, class preserved; the alphabet grows by the factor 2^m."""
    if m < 1:
        raise FormulaParseError("marker count must be at least 1")
    tags = _subset_tags(m)

    def fam(sym):
        return [f"{sym}@{t}" for t in tags]

    stacks = [
        ([x for c in calls for x in fam(c)], [x for r in returns for x in fam(r)])
        for calls, returns in alphabet.stacks
    ]
    internal = [x for c in alphabet.internal for x in fam(c)]
    return CallReturnAlphabet(stacks, internal)


def _strip(sym: str) -> str:
    base, _, _ = sym.rpartition("@")
    return base


def project(b, m: int):
    """Erase markers: each base-symbol transition is the union of its
    marked variants, so the language becomes the erasure of L(b)."""
    from .automata import Mnwa

    expected = sorted(_subset_tags(m))
    size = 1 << m

    def base_group(symbols):
        groups: dict[str, list[str]] = {}
        order: list[str] = []
        for sym in symbols:
            base, at, tag = sym.rpartition("@")
            if at != "@" or not base:
                raise NotAnExpandedAlphabet(f"symbol {sym!r} carries no marker")
            if base not in groups:
                groups[base] = []
                order.append(base)
            groups[base].append(tag)
        for base, seen in groups.items():
            if len(seen) != size or sorted(seen) != expected:
                raise NotAnExpandedAlphabet(
                    f"symbol family {base!r} is not a full marker family"
                )
        return order

    stacks = [
        (base_group(calls), base_group(returns))
        for calls, returns in b.alphabet.stacks
    ]
    internal = base_group(b.alphabet.internal) if b.alphabet.internal else []
    alphabet = CallReturnAlphabet(stacks, internal)
    delta1 = {(q, _strip(a), q2) for q, a, q2 in b.delta1}
    delta2 = {(p, q, _strip(a), q2) for p, q, a, q2 in b.delta2}
    return Mnwa(alphabet, b.states, b.initial, b.final, delta1, delta2, b.calling)
