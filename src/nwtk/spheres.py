"""Spheres: bounded-radius neighborhoods of word positions.

A sphere is the substructure induced by all positions within a given
distance of a center, where distance counts successor and matching edges
alike.  Spheres are compared up to isomorphism that fixes the center.

Every node carries at most one edge of each kind (successor out/in,
matching out/in), so a breadth-first traversal from the center that
expands edge kinds in a fixed order visits nodes in an order any
isomorphic sphere reproduces exactly.  That order yields a canonical
form in linear time; no search over bijections is needed, and the
traversal level of a node is its distance from the center.

The same traversal serves a word and a sphere cut out of it.  Every
shortest path from the center to a node within distance r stays inside
the radius-r ball, so a search over the whole word that stops at depth r
discovers the ball's nodes from the same parents, in the same order, as
the search over the induced sphere.  The canonical key of a sphere is
therefore read off one bounded pass over the word, without building the
sphere first.

The same pass builds the sphere itself.  ``Sphere(...)`` checks its input
graph and traverses its own edge maps, because a caller may hand it any
graph; ``sphere`` skips those checks and that second traversal, since a
ball cut from a ``NestedWord`` satisfies them by construction: it is
connected and lies within radius r (every node was reached from the
center in at most r steps), its edges join two nodes of the ball (only
edges with both ends visited are kept), and it has at most one edge of
each kind per node (a word has one successor, one predecessor and at most
one matching partner per position).  The visiting order and distances of
that pass are the ones the sphere's own traversal would produce, so both
paths end in one field layout, ``Sphere._fill``.

Keys are computed once per word and radius.  A one-word cache holds the
most recent word (matched by identity; words are immutable) and, per
radius, the keys of its positions, each filled in on first use by that
bounded pass.  The pair (word, table) is published as one tuple, so
threads working on different words only evict each other and recompute.
"""

from __future__ import annotations

import json
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


def _bfs(center, neighbours, limit: int):
    """Nodes within ``limit`` of ``center`` in visiting order, and their distances.

    ``neighbours(v)`` gives the successor-out, successor-in, matching-out
    and matching-in neighbour of v, None where that edge is absent; this
    fixed order makes the visiting order canonical.
    """
    order = [center]
    dist = {center: 0}
    for v in order:  # also reaches the nodes appended below
        d = dist[v] + 1
        if d > limit:
            break
        for u in neighbours(v):
            if u is not None and u not in dist:
                dist[u] = d
                order.append(u)
    return order, dist


def _word_neighbours(word):
    """``neighbours`` for ``_bfs`` over the positions of a word.

    Reads the word's private maps; the public ``mu`` and ``mu_inv`` are
    read-only views that would add a call per lookup on this hot path.
    """
    n = len(word.labels)
    mu = word._mu
    mu_inv = word._mu_inv
    return lambda v: (
        v + 1 if v < n else None,
        v - 1 if v > 1 else None,
        mu.get(v),
        mu_inv.get(v),
    )


class Sphere:
    """An induced neighborhood with a distinguished center.

    ``nodes`` keep their original identities (word positions when the
    sphere was extracted from a word).  ``succ`` holds directed successor
    pairs, ``mu`` directed matching triples (call, return, stack).
    """

    __slots__ = (
        "nodes",
        "labels",
        "succ",
        "mu",
        "center",
        "radius",
        "succ_out",
        "succ_in",
        "mu_out",
        "mu_in",
        "index_of",
        "dist",
        "key",
    )

    def __init__(self, nodes, labels, succ, mu, center, radius):
        nodes = tuple(sorted(nodes))
        node_set = set(nodes)
        if center not in node_set:
            raise InvalidSphere(f"center {center!r} is not a node")
        if radius < 0:
            raise InvalidSphere("radius must be non-negative")
        _check_size(len(nodes), radius)
        succ_out: dict = {}
        succ_in: dict = {}
        mu_out: dict = {}
        mu_in: dict = {}
        succ = tuple(sorted(succ))
        mu = tuple(sorted(mu))
        for i, j in succ:
            if i not in node_set or j not in node_set:
                raise InvalidSphere(f"successor edge ({i}, {j}) leaves the node set")
            if i in succ_out or j in succ_in:
                raise InvalidSphere("a node has two successor edges of one kind")
            succ_out[i] = j
            succ_in[j] = i
        for i, j, s in mu:
            if i not in node_set or j not in node_set:
                raise InvalidSphere(f"matching edge ({i}, {j}) leaves the node set")
            if i in mu_out or i in mu_in or j in mu_out or j in mu_in:
                raise InvalidSphere("a node is matched twice")
            if s < 1:
                raise InvalidSphere("stack tags are 1-based")
            mu_out[i] = (j, s)
            mu_in[j] = (i, s)
        labels = dict(labels)
        if set(labels) != node_set:
            raise InvalidSphere("labels must cover exactly the node set")

        # canonical traversal; doubles as the connectivity and radius check
        def neighbours(v):
            mo = mu_out.get(v)
            mi = mu_in.get(v)
            return (
                succ_out.get(v),
                succ_in.get(v),
                mo[0] if mo else None,
                mi[0] if mi else None,
            )

        order, dist = _bfs(center, neighbours, len(nodes))
        if len(order) != len(nodes):
            raise InvalidSphere("sphere is not connected to its center")
        if dist[order[-1]] > radius:
            raise InvalidSphere("a node lies farther from the center than the radius")
        self._fill(
            nodes, labels, succ, mu, center, radius,
            succ_out, succ_in, mu_out, mu_in, order, dist,
        )

    def _fill(
        self, nodes, labels, succ, mu, center, radius,
        succ_out, succ_in, mu_out, mu_in, order, dist,
    ):
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
        self.succ_out = succ_out
        self.succ_in = succ_in
        self.mu_out = mu_out
        self.mu_in = mu_in
        self.index_of = index_of
        self.dist = dist
        self.key = (radius, tuple([labels[v] for v in order]), tuple(edges))

    def size(self) -> int:
        return len(self.nodes)

    def __repr__(self):
        parts = " ".join(f"{v}:{self.labels[v]}" for v in self.nodes)
        return f"Sphere(r={self.radius}, center={self.center}, {parts})"


def _check_size(size: int, radius: int):
    if size > max_size_bound(radius):
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
    order, dist = _bfs(i, _word_neighbours(word), r)
    _check_size(len(order), r)
    nodes = tuple(sorted(order))
    labels = word.labels
    mu = word._mu
    stack_of = word._stack_of
    succ = tuple([(v, v + 1) for v in nodes if v + 1 in dist])
    matching = tuple([(v, mu[v], stack_of[v]) for v in nodes if mu.get(v) in dist])
    s = Sphere.__new__(Sphere)
    s._fill(
        nodes,
        {v: labels[v - 1] for v in order},
        succ,
        matching,
        i,
        r,
        dict(succ),
        {j: v for v, j in succ},
        {v: (j, t) for v, j, t in matching},
        {j: (v, t) for v, j, t in matching},
        order,
        dist,
    )
    return s


def _key(word, i: int, r: int):
    """Canonical key of the radius-r ball around a valid position i."""
    order, _ = _bfs(i, _word_neighbours(word), r)
    index_of = dict(zip(order, range(len(order))))
    mu = word._mu
    stack_of = word._stack_of
    edges = []
    for k, v in enumerate(order):
        j = index_of.get(v + 1)
        if j is not None:
            edges.append((k, j, 0))
        j = index_of.get(mu.get(v))
        if j is not None:
            edges.append((k, j, stack_of[v]))
    edges.sort()
    labels = word.labels
    return (r, tuple([labels[v - 1] for v in order]), tuple(edges))


# (word, {radius: [key of position i at index i - 1, or None]})
_recent = (None, {})


def _cached_keys(word, r: int) -> list:
    """The cache's key slots for one word and radius, evicting any other word."""
    global _recent
    recent_word, table = _recent
    if recent_word is not word:
        table = {}
        _recent = (word, table)
    slots = table.get(r)
    if slots is None:
        slots = table[r] = [None] * len(word.labels)
    return slots


def _keys(word, r: int) -> list:
    """Keys of every position of the word at radius r, position 1 first.

    The list is the cache's own: callers read it and never change it.
    """
    if r < 0:
        raise InvalidSphere("radius must be non-negative")
    slots = _cached_keys(word, r)
    for i, key in enumerate(slots, 1):
        if key is None:
            slots[i - 1] = _key(word, i, r)
    return slots


def sphere_key(word, i: int, r: int):
    """Canonical key of ``sphere(word, i, r)`` without building the object.

    Equal keys mean isomorphic spheres; the edge encoding mirrors the
    ``Sphere`` constructor exactly.
    """
    _check_center(word, i, r)
    slots = _cached_keys(word, r)
    key = slots[i - 1]
    if key is None:
        key = slots[i - 1] = _key(word, i, r)
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
    from .core import iter_token_tuples, nested

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
