"""Independent reference implementations backing the test suite.

Everything here recomputes, by a different route than the library takes,
a fact the tests compare against: a block scanner for the running example
language, a declarative all-pairs matching, a run search honoring calling
states, a second logic evaluator, a forced-propagation sphere isomorphism,
a direct flag transcript, and seeded random generators.
"""

from __future__ import annotations

import random
from functools import lru_cache

from nwtk.core import CALL, INTERNAL, RETURN
from nwtk import logic
from nwtk.automata import Mnwa, Mvpa
from nwtk.errors import WordTooLargeForSO

# ---------------------------------------------------------------------------
# membership scanner for L+ = { (ab)^k a~^{k+1} b~^{k+1} : k >= 1 }+

DEAD = "dead"
START = "start"


def lplus_step(state, sym):
    """One symbol of a deterministic block scanner; counters, not stacks."""
    if state == DEAD:
        return DEAD
    if state == START:
        return ("ab", 0, 1) if sym == "a" else DEAD
    mode, k, c = state
    if mode == "ab":
        if c == 1:
            return ("ab", k + 1, 0) if sym == "b" else DEAD
        if sym == "a":
            return ("ab", k, 1)
        if sym == "a~" and k >= 1:
            return ("abar", k, 1)
        return DEAD
    if mode == "abar":
        if sym == "a~":
            return ("abar", k, c + 1) if c + 1 <= k + 1 else DEAD
        if sym == "b~" and c == k + 1:
            return ("bbar", k, 1)
        return DEAD
    # mode == "bbar"
    if sym == "b~":
        return ("bbar", k, c + 1) if c + 1 <= k + 1 else DEAD
    if sym == "a" and c == k + 1:
        return ("ab", 0, 1)
    return DEAD


def lplus_accepting(state):
    return (
        state not in (DEAD, START)
        and state[0] == "bbar"
        and state[2] == state[1] + 1
    )


def lplus_member(tokens) -> bool:
    state = START
    for sym in tokens:
        state = lplus_step(state, sym)
    return lplus_accepting(state)


# ---------------------------------------------------------------------------
# grammar-based well-formedness: A ::= a A b | A A | eps | c

def grammar_well_formed(alphabet, tokens, stack: int) -> bool:
    tokens = tuple(tokens)
    kinds = []
    for sym in tokens:
        cls = alphabet.classify(sym)
        if cls.stack == stack:
            kinds.append(CALL if cls.kind == CALL else RETURN)
        else:
            kinds.append(INTERNAL)

    from functools import lru_cache

    @lru_cache(maxsize=None)
    def wf(i: int, j: int) -> bool:
        if i == j:
            return True
        if kinds[i] == INTERNAL:
            return wf(i + 1, j)
        if kinds[i] == RETURN:
            return False
        # leading call: split at its matching return
        for m in range(i + 1, j):
            if kinds[m] == RETURN and wf(i + 1, m) and wf(m + 1, j):
                return True
        return False

    return wf(0, len(tokens))


# ---------------------------------------------------------------------------
# declarative matching: all pairs with a balanced interior

def _balanced(alphabet, tokens, stack) -> bool:
    depth = 0
    for sym in tokens:
        cls = alphabet.classify(sym)
        if cls.stack != stack:
            continue
        if cls.kind == CALL:
            depth += 1
        else:
            depth -= 1
            if depth < 0:
                return False
    return depth == 0


def declarative_matches(alphabet, tokens):
    """All (call, return, stack) pairs whose strict interior is balanced."""
    tokens = tuple(tokens)
    out = []
    for i, a in enumerate(tokens, start=1):
        ca = alphabet.classify(a)
        if ca.kind != CALL:
            continue
        for j in range(i + 1, len(tokens) + 1):
            cb = alphabet.classify(tokens[j - 1])
            if cb.kind == RETURN and cb.stack == ca.stack:
                if _balanced(alphabet, tokens[i : j - 1], ca.stack):
                    out.append((i, j, ca.stack))
    return sorted(out)


def walk(alphabet, tokens, start, directions, distinct=False) -> set:
    """End positions of a direction walk, read off ``declarative_matches``:
    fwd/bwd move by one, jumpK goes from a call of stack K to its return,
    backK from a return of stack K to its call.  With ``distinct`` every
    position before the last must be new and the last may only be the
    start again."""
    edges = {}
    for c, r, s in declarative_matches(alphabet, tokens):
        edges[("jump", s, c)] = r
        edges[("back", s, r)] = c
    path = [start]
    for d in directions:
        p = path[-1]
        if d == "fwd":
            q = p + 1 if p < len(tokens) else None
        elif d == "bwd":
            q = p - 1 if p > 1 else None
        else:
            q = edges.get((d[:4], int(d[4:]), p))
        if q is None:
            return set()
        path.append(q)
    if distinct and (
        len(set(path[:-1])) < len(path) - 1 or path[-1] in path[1:-1]
    ):
        return set()
    return {path[-1]}


def distances_by_search(alphabet, tokens):
    """Shortest-path length of every pair of positions, keyed (i, j), over
    successor edges and the pairs of ``declarative_matches``, one plain
    breadth-first search per source position."""
    n = len(tokens)
    nbrs = {p: set() for p in range(1, n + 1)}
    for p in range(1, n):
        nbrs[p].add(p + 1)
        nbrs[p + 1].add(p)
    for i, j, _ in declarative_matches(alphabet, tokens):
        nbrs[i].add(j)
        nbrs[j].add(i)
    out = {}
    for source in nbrs:
        seen = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for p in frontier:
                for q in nbrs[p]:
                    if q not in seen:
                        seen[q] = seen[p] + 1
                        nxt.append(q)
            frontier = nxt
        out.update(((source, q), d) for q, d in seen.items())
    return out


# ---------------------------------------------------------------------------
# generalized-run search (independent of the stack-machine route)

@lru_cache(maxsize=8)
def _transition_maps(b: Mnwa):
    """``(q, a) -> q2`` and ``(p, q, a) -> q2`` read from the public rows of ``b``,
    built once per machine since the tests query one machine many times.

    A few entries serve every caller, which queries at most six machines in
    turn; more would keep checked machines alive in long benchmark runs."""
    d1: dict = {}
    d2: dict = {}
    for q, a, q2 in b.delta1:
        d1.setdefault((q, a), []).append(q2)
    for p, q, a, q2 in b.delta2:
        d2.setdefault((p, q, a), []).append(q2)
    return d1, d2


def accepts_by_run_search(b: Mnwa, word) -> bool:
    """Forward search over run prefixes, merged on (current state, states
    at open matched calls); enforces the calling condition en route."""
    labels = word.labels
    mu = word.mu
    mu_inv = word.mu_inv
    calling = b.calling
    d1, d2 = _transition_maps(b)

    # knowledge: set of (cur, opens) with opens a tuple of (call_pos, state)
    knowledge = set()
    a = labels[0]
    matched_call = 1 in mu
    for q in b.initial:
        for q2 in d1.get((q, a), ()):
            if q2 in calling and not matched_call:
                continue
            opens = ((1, q2),) if matched_call else ()
            knowledge.add((q2, opens))
    n = len(labels)
    for i in range(2, n + 1):
        if not knowledge:
            return False
        a = labels[i - 1]
        call = mu_inv.get(i)
        matched_call = i in mu
        nxt = set()
        if call is None:
            for cur, opens in knowledge:
                for q2 in d1.get((cur, a), ()):
                    if q2 in calling and not matched_call:
                        continue
                    grown = opens + ((i, q2),) if matched_call else opens
                    nxt.add((q2, grown))
        else:
            for cur, opens in knowledge:
                p = None
                rest = []
                for pos, st in opens:
                    if pos == call:
                        p = st
                    else:
                        rest.append((pos, st))
                rest = tuple(rest)
                for q2 in d2.get((p, cur, a), ()):
                    if q2 in calling:
                        continue
                    nxt.add((q2, rest))
        knowledge = nxt
    final = b.final
    return any(cur in final for cur, _ in knowledge)


def find_accepting_run(b: Mnwa, word):
    """An accepting run as a state list, or None; plain backtracking."""
    labels = word.labels
    mu = word.mu
    mu_inv = word.mu_inv
    calling = b.calling
    d1, d2 = _transition_maps(b)
    n = len(labels)
    run = []

    def extend(i):
        if i > n:
            return run[-1] in b.final
        a = labels[i - 1]
        call = mu_inv.get(i)
        if call is None:
            prev = run[-1] if run else None
            sources = (prev,) if i > 1 else tuple(b.initial)
            targets = [q2 for q in sources for q2 in d1.get((q, a), ())]
        else:
            targets = d2.get((run[call - 1], run[-1], a), ())
        for q2 in targets:
            if q2 in calling and i not in mu:
                continue
            run.append(q2)
            if extend(i + 1):
                return True
            run.pop()
        return False

    return list(run) if extend(1) else None


# ---------------------------------------------------------------------------
# direct flag transcript (degeneralization oracle)

def flag_trace(word, calling_positions, k=2):
    """Flag vectors before and after each position, assuming the run enters
    a calling state exactly at the given positions."""
    mu_inv = word.mu_inv
    alphabet = word.alphabet
    vecs = [(0,) * k]
    for i in word.positions():
        prev = vecs[-1]
        call = mu_inv.get(i)
        if call is not None:
            at_call = vecs[call]
            vecs.append(
                tuple(0 if at_call[s] == 1 else prev[s] for s in range(k))
            )
            continue
        cls = alphabet.classify(word.labels[i - 1])
        raised = cls.stack - 1 if (cls.kind == CALL and i in calling_positions) else None
        vecs.append(
            tuple(
                2 if prev[s] in (1, 2) else (1 if s == raised else 0)
                for s in range(k)
            )
        )
    return vecs


# ---------------------------------------------------------------------------
# second logic evaluator: reversed iteration, immutable environments

def eval2(structure, formula, env=None, so_limit=logic.DEFAULT_SO_LIMIT) -> bool:
    universe = tuple(structure.universe())

    def ev(f, env):
        if isinstance(f, logic.Rel):
            return structure.has(f.name, tuple(env[a] for a in f.args))
        if isinstance(f, logic.Eq):
            return env[f.x] == env[f.y]
        if isinstance(f, logic.In):
            return env[f.x] in env[f.X]
        if isinstance(f, logic.Not):
            return not ev(f.body, env)
        if isinstance(f, logic.Or):
            return ev(f.right, env) or ev(f.left, env)
        if isinstance(f, logic.ExistsFO):
            return any(ev(f.body, {**env, f.var: u}) for u in reversed(universe))
        if isinstance(f, logic.ExistsSO):
            n = len(universe)
            if n > so_limit:
                raise WordTooLargeForSO(f"universe of {n} exceeds {so_limit}")
            return any(
                ev(
                    f.body,
                    {
                        **env,
                        f.var: frozenset(
                            universe[b] for b in range(n) if mask >> b & 1
                        ),
                    },
                )
                for mask in range((1 << n) - 1, -1, -1)
            )
        raise TypeError(f"not a formula node: {f!r}")

    return ev(formula, dict(env or {}))


# ---------------------------------------------------------------------------
# sphere isomorphism by forced edge propagation from the centers

def sphere_iso_forced(s1, s2) -> bool:
    if s1.radius != s2.radius or len(s1.nodes) != len(s2.nodes):
        return False

    def edge_maps(s):
        succ_out = {i: j for i, j in s.succ}
        succ_in = {j: i for i, j in s.succ}
        mu_out = {i: (j, t) for i, j, t in s.mu}
        mu_in = {j: (i, t) for i, j, t in s.mu}
        return succ_out, succ_in, mu_out, mu_in

    maps1, maps2 = edge_maps(s1), edge_maps(s2)
    labels1, labels2 = s1.labels, s2.labels

    def ends(maps, v):
        succ_out, succ_in, mu_out, mu_in = maps
        mo = mu_out.get(v)
        mi = mu_in.get(v)
        return (
            succ_out.get(v),
            succ_in.get(v),
            mo[0] if mo else None,
            mo[1] if mo else None,
            mi[0] if mi else None,
            mi[1] if mi else None,
        )

    mapping = {s1.center: s2.center}
    work = [s1.center]
    while work:
        u = work.pop()
        v = mapping[u]
        if labels1[u] != labels2[v]:
            return False
        e1 = ends(maps1, u)
        e2 = ends(maps2, v)
        if e1[3] != e2[3] or e1[5] != e2[5]:  # stack tags
            return False
        for a, b in ((e1[0], e2[0]), (e1[1], e2[1]), (e1[2], e2[2]), (e1[4], e2[4])):
            if (a is None) != (b is None):
                return False
            if a is None:
                continue
            if a in mapping:
                if mapping[a] != b:
                    return False
            else:
                mapping[a] = b
                work.append(a)
    if len(mapping) != len(s1.nodes):
        return False
    return len(set(mapping.values())) == len(s1.nodes)


# ---------------------------------------------------------------------------
# seeded random structures

def random_mvpa(rng: random.Random, alphabet, n_states=5) -> Mvpa:
    states = [f"s{i}" for i in range(rng.randint(2, n_states))]
    gamma = ["A", "B"]
    delta_call = set()
    delta_return = set()
    delta_internal = set()
    for q in states:
        for a in alphabet.calls():
            for _ in range(rng.randint(0, 2)):
                delta_call.add((q, a, rng.choice(gamma), rng.choice(states)))
        for a in alphabet.returns():
            for _ in range(rng.randint(0, 2)):
                delta_return.add(
                    (q, a, rng.choice(gamma + ["#"]), rng.choice(states))
                )
        for a in alphabet.internal:
            for _ in range(rng.randint(0, 2)):
                delta_internal.add((q, a, rng.choice(states)))
    initial = rng.sample(states, rng.randint(1, len(states)))
    final = rng.sample(states, rng.randint(1, len(states)))
    return Mvpa(
        alphabet, states, gamma, "#", initial, final, delta_call, delta_return,
        delta_internal,
    )


def random_mnwa(rng: random.Random, alphabet, n_states=5, with_calling=False) -> Mnwa:
    states = [f"s{i}" for i in range(rng.randint(2, n_states))]
    delta1 = set()
    delta2 = set()
    for q in states:
        for a in alphabet.symbols:
            for _ in range(rng.randint(0, 2)):
                delta1.add((q, a, rng.choice(states)))
        for a in alphabet.returns():
            for p in states:
                if rng.random() < 0.4:
                    delta2.add((p, q, a, rng.choice(states)))
    initial = rng.sample(states, rng.randint(1, len(states)))
    final = rng.sample(states, rng.randint(1, len(states)))
    calling = ()
    if with_calling:
        calling = rng.sample(states, rng.randint(1, len(states)))
    return Mnwa(alphabet, states, initial, final, delta1, delta2, calling)


_ATOMS = ("label", "succ", "match", "eq", "in")


def random_formula(rng: random.Random, symbols, depth=3, fo=("x", "y"), so=("X",)):
    """A closed random formula: quantifiers bind every variable they use."""

    def gen(depth, bound_fo, bound_so):
        if depth == 0 or (rng.random() < 0.3 and bound_fo):
            kind = rng.choice(_ATOMS)
            if kind == "in" and bound_fo and bound_so:
                return logic.In(rng.choice(bound_fo), rng.choice(bound_so))
            if kind == "label" and bound_fo:
                return logic.Label(rng.choice(bound_fo), rng.choice(symbols))
            if kind == "eq" and bound_fo:
                return logic.Eq(rng.choice(bound_fo), rng.choice(bound_fo))
            if bound_fo:
                rel = logic.Succ if kind != "match" else logic.Match
                return rel(rng.choice(bound_fo), rng.choice(bound_fo))
            kind = "quant"
        choice = rng.random()
        if choice < 0.35 or not bound_fo:
            var = next((v for v in fo if v not in bound_fo), None)
            if var is not None:
                body = gen(depth - 1, bound_fo + (var,), bound_so)
                return (
                    logic.ExistsFO(var, body)
                    if rng.random() < 0.5
                    else logic.Forall(var, body)
                )
            choice = 0.5
        if choice < 0.45:
            var = next((v for v in so if v not in bound_so), None)
            if var is not None:
                return logic.ExistsSO(
                    var, gen(depth - 1, bound_fo, bound_so + (var,))
                )
        if choice < 0.6:
            return logic.Not(gen(depth - 1, bound_fo, bound_so))
        left = gen(depth - 1, bound_fo, bound_so)
        right = gen(depth - 1, bound_fo, bound_so)
        comb = rng.choice((logic.Or, logic.And, logic.Implies))
        return comb(left, right)

    return gen(depth, (), ())
