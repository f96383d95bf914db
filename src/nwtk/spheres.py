"""Spheres: bounded-radius neighborhoods of word positions.

A sphere is the substructure induced by all positions within a given
distance of a center, where distance counts successor and matching edges
alike.  Spheres are compared up to isomorphism that fixes the center.

Every node carries at most one edge of each kind (successor out/in,
matching out/in), so its neighbours fit one four-slot tuple, None where
an edge is absent.  A word's table (``core._word_adj``) and a sphere's
(``Sphere.adj``) hold these tuples, and one breadth-first traversal,
``core._bfs``, reads either.  Expanding the slots in a fixed order visits
nodes in an order any isomorphic sphere reproduces exactly.  That order
yields a canonical form in linear time; no search over bijections is
needed, and the traversal level of a node is its distance from the center.

The same traversal serves a word and a sphere cut out of it.  Every
shortest path from the center to a node within distance r stays inside
the radius-r ball, so a search over the whole word that stops at depth r
discovers the ball's nodes from the same parents, in the same order, as
the search over the induced sphere.  The canonical key of a sphere is
therefore read off one bounded pass over the word, without building the
sphere first.

The same pass builds the sphere itself.  ``Sphere(...)`` checks its input
graph and traverses its own table, because a caller may hand it any
graph; ``sphere`` skips those checks and that second traversal, since a
ball cut from a ``NestedWord`` satisfies them by construction: it is
connected and lies within radius r (every node was reached from the
center in at most r steps), its edges join two nodes of the ball (the
word's table restricted to the ball keeps only visited neighbours), and
it has at most one edge of each kind per node (a word has one successor,
one predecessor and at most one matching partner per position).  The
visiting order and distances of that pass are the ones the sphere's own
traversal would produce, so both paths end in one field layout,
``Sphere._fill``.

Keys are computed once per word and radius.  A one-word cache holds the
most recent word (matched by identity; words are immutable), its
neighbour table and, per radius, the keys of its positions, each filled
in on first use by that bounded pass.  The triple (word, table, keys) is
published as one tuple, so threads working on different words only evict
each other and recompute.
"""

from __future__ import annotations

import json

from .core import _bfs, _word_adj, iter_token_tuples, nested
from .errors import InvalidSphere, PositionOutOfRange, RadiusMismatch

__all__ = [
    "Sphere",
    "sphere",
    "sphere_key",
    "sphere_iso",
    "sphere_count",
    "enumerate_spheres",
    "max_size_bound",
    "sphere_to_json",
    "sphere_from_json",
    "sphere_to_dot",
]


def max_size_bound(radius: int) -> int:
    """Upper bound on sphere size: ball growth in a degree-3 graph."""
    if radius < 0:
        raise InvalidSphere("radius must be non-negative")
    return 1 + 3 * (2**radius - 1)


class Sphere:
    """An induced neighborhood with a distinguished center.

    ``nodes`` keep their original identities (word positions when the
    sphere was extracted from a word).  ``succ`` holds directed successor
    pairs, ``mu`` directed matching triples (call, return, stack).  ``adj``
    maps each node to its successor-out, successor-in, matching-out and
    matching-in neighbour, None where that edge is absent; stack tags are
    read from ``mu``.
    """

    __slots__ = (
        "nodes",
        "labels",
        "succ",
        "mu",
        "center",
        "radius",
        "adj",
        "index_of",
        "dist",
        "key",
    )

    def __init__(self, nodes, labels, succ, mu, center, radius):
        nodes = tuple(sorted(nodes))
        slots = {v: [None, None, None, None] for v in nodes}
        if center not in slots:
            raise InvalidSphere(f"center {center!r} is not a node")
        if radius < 0:
            raise InvalidSphere("radius must be non-negative")
        _check_size(len(nodes), radius)
        succ = tuple(sorted(succ))
        mu = tuple(sorted(mu))
        for i, j in succ:
            if i not in slots or j not in slots:
                raise InvalidSphere(f"successor edge ({i}, {j}) leaves the node set")
            if slots[i][0] is not None or slots[j][1] is not None:
                raise InvalidSphere("a node has two successor edges of one kind")
            slots[i][0] = j
            slots[j][1] = i
        for i, j, s in mu:
            if i not in slots or j not in slots:
                raise InvalidSphere(f"matching edge ({i}, {j}) leaves the node set")
            if slots[i][2:] != [None, None] or slots[j][2:] != [None, None]:
                raise InvalidSphere("a node is matched twice")
            if s < 1:
                raise InvalidSphere("stack tags are 1-based")
            slots[i][2] = j
            slots[j][3] = i
        labels = dict(labels)
        if labels.keys() != slots.keys():
            raise InvalidSphere("labels must cover exactly the node set")
        adj = {v: tuple(a) for v, a in slots.items()}
        # canonical traversal; doubles as the connectivity and radius check
        order, dist = _bfs(center, adj, len(nodes))
        if len(order) != len(nodes):
            raise InvalidSphere("sphere is not connected to its center")
        if dist[order[-1]] > radius:
            raise InvalidSphere("a node lies farther from the center than the radius")
        self._fill(nodes, labels, succ, mu, center, radius, adj, order, dist)

    def _fill(self, nodes, labels, succ, mu, center, radius, adj, order, dist):
        """Set every field from a checked graph and its canonical traversal."""
        index_of = dict(zip(order, range(len(order))))
        edges = sorted(
            [(index_of[i], index_of[j], 0) for i, j in succ]
            + [(index_of[i], index_of[j], s) for i, j, s in mu]
        )
        self.nodes = nodes
        self.labels = labels
        self.succ = succ
        self.mu = mu
        self.center = center
        self.radius = radius
        self.adj = adj
        self.index_of = index_of
        self.dist = dist
        self.key = (radius, tuple([labels[v] for v in order]), tuple(edges))

    def size(self) -> int:
        return len(self.nodes)

    def __repr__(self):
        parts = " ".join(f"{v}:{self.labels[v]}" for v in self.nodes)
        return f"Sphere(r={self.radius}, center={self.center}, {parts})"


def _check_size(size: int, radius: int):
    # from radius size.bit_length() on the bound exceeds any size; skipping
    # the power there keeps a huge radius read from a file cheap
    if radius < size.bit_length() and size > max_size_bound(radius):
        raise InvalidSphere(f"{size} nodes exceed the size bound for radius {radius}")


def _check_center(word, i: int, r: int):
    n = len(word.labels)
    if not 1 <= i <= n:
        raise PositionOutOfRange(f"position {i} not in 1..{n}")
    if r < 0:
        raise InvalidSphere("radius must be non-negative")


def sphere(word, i: int, r: int) -> Sphere:
    """Extract the radius-r sphere of a word around position i.

    Every field comes from one bounded pass over the word; the module
    docstring says why the constructor's graph checks hold here.
    """
    _check_center(word, i, r)
    word_adj = _cached(word, r)[0]
    order, dist = _bfs(i, word_adj, r)
    _check_size(len(order), r)
    nodes = tuple(sorted(order))
    adj = {v: tuple([u if u in dist else None for u in word_adj[v]]) for v in nodes}
    labels = {v: word.labels[v - 1] for v in order}
    succ = tuple([(v, adj[v][0]) for v in nodes if adj[v][0] is not None])
    stack_of = word._stack_of
    mu = tuple([(v, adj[v][2], stack_of[v]) for v in nodes if adj[v][2] is not None])
    s = Sphere.__new__(Sphere)
    s._fill(nodes, labels, succ, mu, i, r, adj, order, dist)
    return s


def _key(word, adj, i: int, r: int):
    """Canonical key of the radius-r ball around a valid position i;
    ``adj`` is the word's neighbour table."""
    order, _ = _bfs(i, adj, r)
    index_of = dict(zip(order, range(len(order))))
    stack_of = word._stack_of
    edges = []
    for k, v in enumerate(order):
        so, _, mo, _ = adj[v]
        j = index_of.get(so)
        if j is not None:
            edges.append((k, j, 0))
        j = index_of.get(mo)
        if j is not None:
            edges.append((k, j, stack_of[v]))
    edges.sort()
    labels = word.labels
    return (r, tuple([labels[v - 1] for v in order]), tuple(edges))


# (word, its neighbour table, {radius: [key of position i at index i - 1, or None]})
_recent = (None, None, {})


def _cached(word, r: int):
    """The word's neighbour table and the cache's key slots at radius r,
    evicting any other word."""
    global _recent
    recent_word, adj, table = _recent
    if recent_word is not word:
        adj, table = _word_adj(word), {}
        _recent = (word, adj, table)
    slots = table.get(r)
    if slots is None:
        slots = table[r] = [None] * len(word.labels)
    return adj, slots


def _keys(word, r: int) -> list:
    """Keys of every position of the word at radius r, position 1 first.

    The list is the cache's own: callers read it and never change it.
    """
    if r < 0:
        raise InvalidSphere("radius must be non-negative")
    adj, slots = _cached(word, r)
    for i, key in enumerate(slots, 1):
        if key is None:
            slots[i - 1] = _key(word, adj, i, r)
    return slots


def sphere_key(word, i: int, r: int):
    """Canonical key of ``sphere(word, i, r)`` without building the object.

    Equal keys mean isomorphic spheres; the edge encoding mirrors the
    ``Sphere`` constructor exactly.
    """
    _check_center(word, i, r)
    adj, slots = _cached(word, r)
    key = slots[i - 1]
    if key is None:
        key = slots[i - 1] = _key(word, adj, i, r)
    return key


def sphere_iso(a: Sphere, b: Sphere) -> bool:
    """Isomorphism respecting labels, edge kinds, stack tags, and the center."""
    if a.radius != b.radius:
        raise RadiusMismatch(f"cannot compare radii {a.radius} and {b.radius}")
    return a.key == b.key


def sphere_count(word, target: Sphere, r: int) -> int:
    """How many positions of the word realize the target sphere."""
    if target.radius != r:
        raise RadiusMismatch(f"target has radius {target.radius}, expected {r}")
    return _keys(word, r).count(target.key)


def enumerate_spheres(alphabet, r: int, max_len: int):
    """All sphere shapes realized by words up to the given length.

    An under-approximation of the full shape space, adequate as a
    corpus-backed universe; returns one representative per shape.
    """
    seen = {}
    for tokens in iter_token_tuples(alphabet, max_len):
        word = nested(alphabet, tokens)
        for i in word.positions():
            s = sphere(word, i, r)
            if s.key not in seen:
                seen[s.key] = s
    return list(seen.values())


def sphere_to_json(s: Sphere) -> dict:
    return {
        "nodes": [{"id": v, "label": s.labels[v]} for v in s.nodes],
        "succ": [[i, j] for i, j in s.succ],
        "match": [[i, j, st] for i, j, st in s.mu],
        "center": s.center,
        "radius": s.radius,
    }


def _int_rows(data, field, width):
    rows = data[field]
    if not isinstance(rows, list) or not all(
        isinstance(row, list)
        and len(row) == width
        and all(type(x) is int for x in row)
        for row in rows
    ):
        raise InvalidSphere(f'"{field}" must be a list of {width}-integer rows')
    return [tuple(row) for row in rows]


def sphere_from_json(data) -> Sphere:
    """Read a sphere as written by ``sphere_to_json``; schema errors raise InvalidSphere."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise InvalidSphere("a sphere must be a JSON object")
    missing = {"nodes", "succ", "match", "center", "radius"} - data.keys()
    if missing:
        raise InvalidSphere(f"sphere lacks {', '.join(sorted(missing))}")
    nodes = data["nodes"]
    if not isinstance(nodes, list) or not all(
        isinstance(e, dict) and type(e.get("id")) is int and isinstance(e.get("label"), str)
        for e in nodes
    ):
        raise InvalidSphere('"nodes" must be a list of {"id": int, "label": str}')
    if type(data["center"]) is not int or type(data["radius"]) is not int:
        raise InvalidSphere('"center" and "radius" must be integers')
    labels = {e["id"]: e["label"] for e in nodes}
    if len(labels) != len(nodes):
        raise InvalidSphere("node ids must be distinct")
    return Sphere(
        labels.keys(),
        labels,
        _int_rows(data, "succ", 2),
        _int_rows(data, "match", 3),
        data["center"],
        data["radius"],
    )


def sphere_to_dot(s: Sphere, name: str = "sphere") -> str:
    """Graphviz rendering; the center is drawn as a rectangle."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=circle];"]
    for v in s.nodes:
        shape = ", shape=box" if v == s.center else ""
        lines.append(f'  n{v} [label="{v}:{s.labels[v]}"{shape}];')
    for i, j in s.succ:
        lines.append(f"  n{i} -> n{j};")
    for i, j, st in s.mu:
        lines.append(f'  n{i} -> n{j} [style=dashed, label="{st}", constraint=false];')
    lines.append("}")
    return "\n".join(lines)
