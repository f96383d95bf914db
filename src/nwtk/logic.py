"""Monadic second-order formulas over matched structures, and acceptors
for counting constraints on sphere realizations.

Formulas are evaluated directly on any structure exposing ``universe()``
and ``has(name, args)``; nested words and grids both do.  Set
quantification enumerates all subsets, so it is capped by a configurable
universe size and refuses larger inputs loudly.

Counting constraints are positive Boolean combinations of threshold
atoms over spheres.  Their compiled form is a decision procedure: it
extracts every position's sphere, counts realizations with a counter
saturating just above the threshold, and compares.  The contract is
language-level agreement with direct counting, not a materialized state
space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .core import CallReturnAlphabet
from .errors import (
    FormulaParseError,
    MixedRadius,
    NotAnExpandedAlphabet,
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
    def walk(f, bound, out):
        if isinstance(f, Rel):
            out.update(a for a in f.args if a not in bound)
        elif isinstance(f, Eq):
            out.update(v for v in (f.x, f.y) if v not in bound)
        elif isinstance(f, In):
            out.update(v for v in (f.x, f.X) if v not in bound)
        elif isinstance(f, Not):
            walk(f.body, bound, out)
        elif isinstance(f, Or):
            walk(f.left, bound, out)
            walk(f.right, bound, out)
        else:
            walk(f.body, bound | {f.var}, out)

    out: set = set()
    walk(formula, frozenset(), out)
    return frozenset(out)


def eval(structure, formula, env=None, so_limit: int = DEFAULT_SO_LIMIT) -> bool:
    """Standard satisfaction; ``env`` must cover the free variables."""
    env = dict(env) if env else {}
    missing = free_vars(formula) - set(env)
    if missing:
        raise UnboundVariable(f"unbound variable(s): {', '.join(sorted(missing))}")
    universe = list(structure.universe())

    def ev(f) -> bool:
        if isinstance(f, Rel):
            return structure.has(f.name, tuple(env[a] for a in f.args))
        if isinstance(f, Not):
            return not ev(f.body)
        if isinstance(f, Or):
            return ev(f.left) or ev(f.right)
        if isinstance(f, Eq):
            return env[f.x] == env[f.y]
        if isinstance(f, In):
            return env[f.x] in env[f.X]
        if isinstance(f, ExistsFO):
            var, body = f.var, f.body
            saved = env.get(var)
            had = var in env
            try:
                for u in universe:
                    env[var] = u
                    if ev(body):
                        return True
                return False
            finally:
                if had:
                    env[var] = saved
                else:
                    env.pop(var, None)
        if isinstance(f, ExistsSO):
            n = len(universe)
            if n > so_limit:
                raise WordTooLargeForSO(
                    f"set quantification over {n} elements exceeds the cap {so_limit}"
                )
            var, body = f.var, f.body
            saved = env.get(var)
            had = var in env
            try:
                for mask in range(1 << n):
                    env[var] = frozenset(
                        universe[b] for b in range(n) if mask >> b & 1
                    )
                    if ev(body):
                        return True
                return False
            finally:
                if had:
                    env[var] = saved
                else:
                    env.pop(var, None)
        raise FormulaParseError(f"not a formula node: {f!r}")

    return ev(formula)


# ---------------------------------------------------------------------------
# concrete syntax

def _tokenize(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


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
        if len(rest) < 2:
            raise FormulaParseError(f"{head} takes at least 2 arguments")
        combine = Or if head == "or" else And
        out = _build(rest[0])
        for sub in rest[1:]:
            out = combine(out, _build(sub))
        return out
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
    if head == "eq":
        arity(2)
        names(rest)
        return Eq(rest[0], rest[1])
    if head == "in":
        arity(2)
        names(rest)
        return In(rest[0], rest[1])
    if head == "label":
        arity(2)
        names(rest)
        return Label(rest[0], rest[1])
    names(rest)
    return Rel(head, tuple(rest))


def parse_formula(text: str):
    """Parse one parenthesized prefix formula, e.g.
    (forall x (implies (and (label x a) (match x y)) (label y b)))."""
    tokens = _tokenize(text)
    node, pos = _read_sexpr(tokens, 0)
    if pos != len(tokens):
        raise FormulaParseError("trailing input after the formula")
    return _build(node)


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

    def __init__(self, expr, radius: int):
        for atom in _atoms(expr):
            if atom.sphere.radius != radius:
                raise MixedRadius(
                    f"atom sphere has radius {atom.sphere.radius}, expected {radius}"
                )
            if atom.t < 0:
                raise FormulaParseError("thresholds must be non-negative")
        self.expr = expr
        self.radius = radius

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
    tokens = _tokenize(text)
    node, pos = _read_sexpr(tokens, 0)
    if pos != len(tokens):
        raise FormulaParseError("trailing input after the constraint")

    def build(n):
        if isinstance(n, str) or not n or not isinstance(n[0], str):
            raise FormulaParseError("every constraint form starts with an operator")
        head, *rest = n
        if head in ("and", "or"):
            if len(rest) < 2:
                raise FormulaParseError(f"{head} takes at least 2 arguments")
            combine = CAnd if head == "and" else COr
            out = build(rest[0])
            for sub in rest[1:]:
                out = combine(out, build(sub))
            return out
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

    expr = build(node)
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
