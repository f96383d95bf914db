"""Reference code the benchmark checks ``nwtk`` outputs against.

Together with ``tests/oracles.py`` this recomputes each checked fact by a
route of its own: stack-machine acceptance by depth-first search over
explicit configurations, direction walks over a declaratively computed
matching, position distances by breadth-first search over that matching,
and a printer for formula syntax trees.  None of it calls ``nwtk``.
"""

from __future__ import annotations

from collections import deque

CALL, RETURN, INTERNAL = "call", "return", "internal"


def classifier(stacks, internal=()):
    """Symbol -> (kind, stack) for a call/return alphabet given as
    ``((call, return), ...)`` pairs, one per stack."""
    out = {c: (INTERNAL, 0) for c in internal}
    for s, (call, ret) in enumerate(stacks, start=1):
        out[call] = (CALL, s)
        out[ret] = (RETURN, s)
    return out


def mvpa_search(classes, k, initial, final, bottom, delta_call, delta_return,
                delta_internal, tokens) -> bool:
    """Whether some run of the stack machine reads ``tokens`` into a final
    state; depth-first over (position, state, stacks), memoised on visits."""
    calls, rets, ints = {}, {}, {}
    for q, a, push, q2 in delta_call:
        calls.setdefault((q, a), []).append((push, q2))
    for q, a, top, q2 in delta_return:
        rets.setdefault((q, a), []).append((top, q2))
    for q, a, q2 in delta_internal:
        ints.setdefault((q, a), []).append(q2)
    n = len(tokens)
    seen = set()
    todo = [(0, q, ((),) * k) for q in initial]
    while todo:
        config = todo.pop()
        if config in seen:
            continue
        seen.add(config)
        i, q, stacks = config
        if i == n:
            if q in final:
                return True
            continue
        a = tokens[i]
        kind, s = classes[a]
        if kind == CALL:
            for push, q2 in calls.get((q, a), ()):
                grown = list(stacks)
                grown[s - 1] = stacks[s - 1] + (push,)
                todo.append((i + 1, q2, tuple(grown)))
        elif kind == RETURN:
            st = stacks[s - 1]
            for top, q2 in rets.get((q, a), ()):
                if top == bottom:
                    if not st:
                        todo.append((i + 1, q2, stacks))
                elif st and st[-1] == top:
                    shrunk = list(stacks)
                    shrunk[s - 1] = st[:-1]
                    todo.append((i + 1, q2, tuple(shrunk)))
        else:
            for q2 in ints.get((q, a), ()):
                todo.append((i + 1, q2, stacks))
    return False


def partner_map(matches) -> dict:
    """Both directions of a matching given as (call, return, stack) triples."""
    out = {}
    for c, r, s in matches:
        out[c] = (r, s)
        out[r] = (c, s)
    return out


def distances(n, partner, source) -> dict:
    """Breadth-first distances from ``source`` over successor and matching
    edges of an n-position word."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        near = [v - 1, v + 1]
        if v in partner:
            near.append(partner[v][0])
        for u in near:
            if 1 <= u <= n and u not in dist:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def walk_returns(n, partner, directions, start) -> bool:
    """Whether the strict walk returns to ``start``: each step exists, the
    positions before the last are distinct and the last is the start."""
    path = [start]
    for e in directions:
        p = path[-1]
        if e == "fwd":
            q = p + 1 if p < n else None
        elif e == "bwd":
            q = p - 1 if p > 1 else None
        else:
            stack = int(e[-1])
            q = None
            if p in partner and partner[p][1] == stack:
                other = partner[p][0]
                if (e.startswith("jump") and other > p) or (
                    e.startswith("back") and other < p
                ):
                    q = other
        if q is None:
            return False
        path.append(q)
    body = path[:-1]
    return len(set(body)) == len(body) and path[-1] == start


def formula_text(f) -> str:
    """Concrete prefix syntax of a formula syntax tree, for ``parse_formula``."""
    kind = type(f).__name__
    if kind == "Rel":
        if f.name.startswith("label:"):
            return f"(label {f.args[0]} {f.name[6:]})"
        return f"({f.name} {' '.join(f.args)})"
    if kind == "Eq":
        return f"(eq {f.x} {f.y})"
    if kind == "In":
        return f"(in {f.x} {f.X})"
    if kind == "Not":
        return f"(not {formula_text(f.body)})"
    if kind == "Or":
        return f"(or {formula_text(f.left)} {formula_text(f.right)})"
    if kind == "ExistsFO":
        return f"(exists {f.var} {formula_text(f.body)})"
    if kind == "ExistsSO":
        return f"(exists-set {f.var} {formula_text(f.body)})"
    raise TypeError(f"not a formula node: {f!r}")


def has_set_quantifier(f) -> bool:
    kind = type(f).__name__
    if kind == "ExistsSO":
        return True
    if kind in ("Not", "ExistsFO"):
        return has_set_quantifier(f.body)
    if kind == "Or":
        return has_set_quantifier(f.left) or has_set_quantifier(f.right)
    return False
