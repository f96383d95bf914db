"""Direction strings over nested words.

A direction string prescribes a walk: successor and predecessor steps, jumps
from a call to its return, and jumps back from a return to its call, the
latter two split by stack.  ``path_exists`` follows such a walk on a concrete
word, optionally insisting that intermediate positions never repeat; its
jumps read the word's matching, not the labels.  A string is circular if
some word lets the strict walk return to its start; ``circular_witness``
searches for such a word up to a length bound by backtracking over position
layouts, since every direction pins down the symbol class of its source.
Witnesses are re-validated with ``path_exists`` before they are reported.
"""

from __future__ import annotations

import re

from .core import CallReturnAlphabet, NestedWord, nested
from .errors import (
    BoundTooSmall,
    EmptyWord,
    InvalidDirection,
    PositionOutOfRange,
)

__all__ = [
    "DIRECTIONS",
    "TOPO_SYMBOLS",
    "CANONICAL_ALPHABET",
    "parse_directions",
    "path_exists",
    "is_circular",
    "circular_witness",
    "f_map",
]

DIRECTIONS = ("fwd", "bwd", "jump1", "back1", "jump2", "back2")

TOPO_SYMBOLS = ("fwd2", "bwd2", "cw", "ccw")

CANONICAL_ALPHABET = CallReturnAlphabet(((("a",), ("a~",)), (("b",), ("b~",))))

_DIRECTION_RE = re.compile(r"(fwd|bwd|jump|back)([1-9][0-9]*)?$")

_CALL_OF = dict(enumerate(CANONICAL_ALPHABET.calls(), start=1))
_RETURN_OF = dict(enumerate(CANONICAL_ALPHABET.returns(), start=1))


def _move(direction: str):
    """Split a direction into its kind and stack (0 for fwd/bwd)."""
    m = _DIRECTION_RE.match(direction)
    if m is None or (m.group(1) in ("fwd", "bwd")) != (m.group(2) is None):
        raise InvalidDirection(f"unknown direction {direction!r}")
    return m.group(1), int(m.group(2) or 0)


def parse_directions(text: str) -> tuple:
    """Whitespace-separated direction tokens."""
    tokens = tuple(text.split())
    for t in tokens:
        _move(t)
    return tokens


def _step(word: NestedWord, p: int, kind: str, stack: int):
    """Where one step leads from p, or None; a jump or back step follows the
    matching edge at p if its call, the smaller end, is of ``stack``."""
    if kind == "fwd":
        return p + 1 if p < len(word) else None
    if kind == "bwd":
        return p - 1 if p > 1 else None
    q = (word._mu if kind == "jump" else word._mu_inv).get(p)
    if q is None or word._stack_of[min(p, q)] != stack:
        return None
    return q


def path_exists(word: NestedWord, w, i: int, distinct: bool = False) -> set:
    """End positions of the walk w from i: the one reachable position, as a
    set, or the empty set if the walk dies.

    With distinct=True the positions before the last step must be pairwise
    distinct and the last may revisit only the start.
    """
    if not 1 <= i <= len(word):
        raise PositionOutOfRange(f"position {i} not in 1..{len(word)}")
    moves = [_move(e) for e in w]
    path = [i]
    for kind, stack in moves:
        p = _step(word, path[-1], kind, stack)
        if p is None:
            return set()
        path.append(p)
    if distinct:
        body = path[:-1]
        if len(set(body)) != len(body):
            return set()
        if path[-1] in path[1:-1]:
            return set()
    return {path[-1]}


def _arc_pairs(arcs: dict):
    for c, (r, s) in arcs.items():
        if c < r:
            yield c, r, s


def _realize(w, path, arcs):
    """Turn a consistent layout into a word and start position, or None.

    Unconstrained positions get a call of a stack no arc spans them with,
    which stays pending and cannot steal any planned return.
    """
    lo = min(path)
    hi = max(path)
    labels = {}
    for p, (q, s) in arcs.items():
        labels[p] = _CALL_OF[s] if p < q else _RETURN_OF[s]
    for g in range(lo, hi + 1):
        if g in labels:
            continue
        covering = {s for c, r, s in _arc_pairs(arcs) if c < g < r}
        free = [s for s in (1, 2) if s not in covering]
        if not free:
            return None
        labels[g] = _CALL_OF[free[0]]
    word = nested(CANONICAL_ALPHABET, [labels[g] for g in range(lo, hi + 1)])
    shift = 1 - lo
    for c, r, s in _arc_pairs(arcs):
        if word._mu.get(c + shift) != r + shift:
            return None
    start = path[0] + shift
    if start in path_exists(word, w, start, distinct=True):
        return word, start
    return None


def circular_witness(w, bound: int):
    """A word of length <= bound and a position from which the strict walk w
    returns to its start, or None if none exists within the bound.

    Witness words range over the two-stack alphabet a/a~, b/b~.  Positions
    are laid out relative to the start; jumps to an unconstrained partner
    branch over candidate targets, nearest first, and every new matching
    edge must stay uncrossed within its stack.
    """
    dirs = tuple(w)
    if not dirs:
        raise EmptyWord("circularity needs a non-empty direction string")
    moves = [_move(e) for e in dirs]
    m = len(dirs)
    if bound < m + 1:
        raise BoundTooSmall(f"bound {bound} is below the minimum {m + 1}")

    def crosses(c, r, s, arcs):
        for c2, r2, s2 in _arc_pairs(arcs):
            if s2 == s and (c2 < c < r2 < r or c < c2 < r < r2):
                return True
        return False

    def attempt(k, path, arcs, lo, hi):
        if k == m:
            return _realize(dirs, path, arcs)
        kind, stack = moves[k]
        p = path[-1]
        last = k == m - 1
        if kind == "fwd":
            candidates = [(p + 1, False)]
        elif kind == "bwd":
            candidates = [(p - 1, False)]
        elif p in arcs:
            q, s = arcs[p]
            wants_call = kind == "jump"
            ok = s == stack and ((p < q) if wants_call else (q < p))
            candidates = [(q, False)] if ok else []
        elif stack not in _CALL_OF:
            candidates = []
        elif kind == "jump":
            candidates = [
                (q, True)
                for q in range(p + 1, lo + bound)
                if q not in arcs and not crosses(p, q, stack, arcs)
            ]
        else:
            candidates = [
                (q, True)
                for q in range(p - 1, hi - bound, -1)
                if q not in arcs and not crosses(q, p, stack, arcs)
            ]
        for q, fresh in candidates:
            if last:
                if q != path[0]:
                    continue
            elif q in path:
                continue
            if max(hi, q) - min(lo, q) >= bound:
                continue
            if fresh:
                arcs[p] = (q, stack)
                arcs[q] = (p, stack)
            path.append(q)
            found = attempt(k + 1, path, arcs, min(lo, q), max(hi, q))
            path.pop()
            if fresh:
                del arcs[p]
                del arcs[q]
            if found is not None:
                return found
        return None

    return attempt(0, [0], {}, 0, 0)


def is_circular(w, bound: int) -> bool:
    """Bounded verdict: True certifies a witness; False only rules out
    witness words of length <= bound."""
    return circular_witness(w, bound) is not None


# per direction: its drawing move, the previous direction that turns it,
# and the turned move (jump1 and back1 never turn)
_F_MOVES = {
    "jump1": ("fwd2", None, "fwd2"),
    "back1": ("bwd2", None, "bwd2"),
    "fwd": ("fwd2", "back1", "ccw"),
    "bwd": ("bwd2", "jump1", "cw"),
    "jump2": ("fwd2", "bwd", "ccw"),
    "back2": ("bwd2", "fwd", "cw"),
}


def f_map(w) -> tuple:
    """Rewrite a direction string over the four drawing moves fwd2, bwd2,
    cw, ccw, reading left to right with one-letter lookbehind."""
    out = []
    prev = None
    for e in w:
        _move(e)
        if e not in _F_MOVES:
            raise InvalidDirection(f"{e!r} is outside the two-stack direction set")
        move, turner, turned = _F_MOVES[e]
        out.append(turned if prev == turner else move)
        prev = e
    return tuple(out)
