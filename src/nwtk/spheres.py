"""Spheres: bounded-radius neighborhoods of word positions.

A sphere is the substructure induced by all positions within a given
distance of a center, where distance counts successor and matching edges
alike.  Spheres are compared up to isomorphism that fixes the center.

Every node carries at most one edge of each kind (successor out/in,
matching out/in), so its neighbours fit one four-slot tuple, None where
an edge is absent.  A word's table (``core._word_adj``) and the table
``Sphere(...)`` builds from a caller's graph hold these tuples, and one
breadth-first traversal, ``core._bfs``, reads either.  Expanding the
slots in a fixed order visits nodes in an order any isomorphic sphere
reproduces exactly.  That order yields a canonical form in linear time;
no search over bijections is needed, and the traversal level of a node
is its distance from the center.

The same traversal serves a word and a sphere cut out of it.  Every
shortest path from the center to a node within distance r stays inside
the radius-r ball, so a search over the whole word that stops at depth r
discovers the ball's nodes from the same parents, in the same order, as
the search over the induced sphere.  The canonical key of a sphere is
therefore read off one bounded pass over the word, without building the
sphere first.

That pass leaves one record per ball, ``(index_of, dist, key)``:
``index_of`` numbers the ball's nodes in visiting order (the center is 0),
``dist`` holds their distances in the same order, and the key is (r,
labels in visiting order, edges as (i, j, kind) over those numbers, kind 0
for a successor edge, else the stack tag).  The edges are listed sorted;
since nodes are expanded in index order and each node's two out-edges are
written smaller target first, the traversal emits them in that order and
no sort is needed.  A radius-0 record is the center alone, with no
traversal.  One function, ``_ball``, traverses and encodes a word's ball
and a ``Sphere`` alike.

A ``Sphere`` stores its record and nothing else.  Its nodes are the keys
of ``index_of`` (the center first), and its labels and edges are the
key's, mapped from visiting indices back to nodes, so no field can
disagree with the key.  ``Sphere(...)`` checks a graph from a caller and
keeps the record of its one traversal.  ``sphere`` wraps a word's cached
record without those checks, since a ball cut from a ``NestedWord``
satisfies them by construction: it is connected and lies within radius r
(every node was reached from the center in at most r steps), its edges
join two nodes of the ball (the key lists only edges between visited
nodes), it has at most one edge of each kind per node (a word has one
successor, one predecessor and at most one matching partner per
position), so it is within the size bound, and each successor edge joins
v to v + 1 and each matching edge a call to a later return.

Each ball is traversed once per word, position and radius.  A one-word
cache holds the most recent word (matched by identity; words are
immutable), its neighbour table and labels and, per radius, the records
of its positions, each filled in on first use, and the overlap coloring
that ``sphere_automaton.chi_coloring`` computes from their keys;
``canonical_run`` reads its colors and its members' records there.
The word's entry and each record are written as one tuple, so threads
working on different words only evict each other and recompute.  Spheres
and members share a record but keep it private behind read-only views.
"""

from __future__ import annotations

import json
from types import MappingProxyType

from .core import _bfs, _immutable, _slot_setters, _word_adj, iter_token_tuples, nested
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

    A sphere is its ball record ``(index_of, dist, key)``, the one value it
    stores; every other field is read off the record.  ``nodes`` keep their
    original identities (word positions when the sphere was extracted from a
    word).  ``succ`` holds directed successor pairs, ``mu`` directed matching
    triples (call, return, stack).  ``adj`` maps each node to its
    successor-out, successor-in, matching-out and matching-in neighbour,
    None where that edge is absent; stack tags are read from ``mu``.
    ``labels``, ``adj``, ``succ`` and ``mu`` are built on each read;
    ``index_of`` and ``dist`` are read-only views of the record's dicts.
    """

    __slots__ = ("_record",)

    def __init__(self, nodes, labels, succ, mu, center, radius):
        nodes = tuple(sorted(nodes))
        slots = {v: [None, None, None, None] for v in nodes}
        if center not in slots:
            raise InvalidSphere(f"center {center!r} is not a node")
        if radius < 0:
            raise InvalidSphere("radius must be non-negative")
        _check_size(len(nodes), radius)
        succ = sorted(succ)
        mu = sorted(mu)
        for i, j in succ:
            if i not in slots or j not in slots:
                raise InvalidSphere(f"successor edge ({i}, {j}) leaves the node set")
            if slots[i][0] is not None or slots[j][1] is not None:
                raise InvalidSphere("a node has two successor edges of one kind")
            if j != i + 1:
                raise InvalidSphere(f"successor edge ({i}, {j}) does not join v to v + 1")
            slots[i][0] = j
            slots[j][1] = i
        for i, j, s in mu:
            if i not in slots or j not in slots:
                raise InvalidSphere(f"matching edge ({i}, {j}) leaves the node set")
            if slots[i][2:] != [None, None] or slots[j][2:] != [None, None]:
                raise InvalidSphere("a node is matched twice")
            if not i < j:
                raise InvalidSphere(f"matching edge ({i}, {j}) does not return after its call")
            if s < 1:
                raise InvalidSphere("stack tags are 1-based")
            slots[i][2] = j
            slots[j][3] = i
        labels = dict(labels)
        if labels.keys() != slots.keys():
            raise InvalidSphere("labels must cover exactly the node set")
        adj = {v: tuple(a) for v, a in slots.items()}
        stack_of = {i: s for i, _, s in mu}
        # canonical traversal; doubles as the connectivity and radius check
        record = _ball(center, adj, stack_of, labels, radius, len(nodes))
        index_of, dist, _ = record
        if len(index_of) != len(nodes):
            raise InvalidSphere("sphere is not connected to its center")
        if max(dist.values()) > radius:
            raise InvalidSphere("a node lies farther from the center than the radius")
        _Sphere_record(self, record)

    __setattr__ = __delattr__ = _immutable

    @property
    def index_of(self) -> MappingProxyType:
        return MappingProxyType(self._record[0])

    @property
    def dist(self) -> MappingProxyType:
        return MappingProxyType(self._record[1])

    @property
    def key(self) -> tuple:
        return self._record[2]

    @property
    def radius(self) -> int:
        return self._record[2][0]

    @property
    def center(self):
        return next(iter(self._record[0]))

    @property
    def nodes(self) -> tuple:
        return tuple(sorted(self._record[0]))

    @property
    def labels(self) -> dict:
        return dict(zip(self._record[0], self._record[2][1]))

    def _edges(self):
        """The key's edges as (u, v, kind) over nodes instead of visiting indices."""
        order = list(self._record[0])
        return [(order[i], order[j], kind) for i, j, kind in self._record[2][2]]

    @property
    def succ(self) -> tuple:
        return tuple(sorted([(u, v) for u, v, kind in self._edges() if not kind]))

    @property
    def mu(self) -> tuple:
        return tuple(sorted([edge for edge in self._edges() if edge[2]]))

    @property
    def adj(self) -> dict:
        slots = {v: [None, None, None, None] for v in self.nodes}
        for u, v, kind in self._edges():
            out = 2 if kind else 0
            slots[u][out] = v
            slots[v][out + 1] = u
        return {v: tuple(a) for v, a in slots.items()}

    def size(self) -> int:
        return len(self._record[0])

    def __repr__(self):
        labels = self.labels
        parts = " ".join(f"{v}:{labels[v]}" for v in self.nodes)
        return f"Sphere(r={self.radius}, center={self.center}, {parts})"


(_Sphere_record,) = _slot_setters(Sphere)


def _check_size(size: int, radius: int):
    # from radius size.bit_length() on the bound exceeds any size; skipping
    # the power there keeps a huge radius read from a file cheap
    if radius < size.bit_length() and size > max_size_bound(radius):
        raise InvalidSphere(f"{size} nodes exceed the size bound for radius {radius}")


def _ball(center, adj, stack_of, labels, r: int, limit: int):
    """The record of the radius-r ball around ``center``, searched to depth
    ``limit``: ``index_of`` (its nodes in visiting order, numbered), their
    distances, and the key (r, labels in visiting order, sorted (i, j, kind)
    edges, kind 0 for a successor edge, else the stack tag).  ``adj`` may
    reach beyond the ball; ``labels[v]`` is the label of node v.

    Each node's out-edges are written after those of every earlier node,
    the smaller target first and the successor edge first on a tie (both
    edges of position 1 in ``a a~`` reach 2), which is their sorted order.
    Only a word's ball is searched to depth 0 (``Sphere(...)`` searches to
    its size), and a word has no self-loop: that ball is its center alone."""
    if limit == 0:
        return {center: 0}, {center: 0}, (r, (labels[center],), ())
    order, dist = _bfs(center, adj, limit)
    index_of = dict(zip(order, range(len(order))))
    edges = []
    for k, v in enumerate(order):
        so, _, mo, _ = adj[v]
        j = index_of.get(so)
        m = index_of.get(mo)
        if m is None:
            if j is not None:
                edges.append((k, j, 0))
        elif j is None:
            edges.append((k, m, stack_of[v]))
        elif j <= m:
            edges += ((k, j, 0), (k, m, stack_of[v]))
        else:
            edges += ((k, m, stack_of[v]), (k, j, 0))
    return index_of, dist, (r, tuple([labels[v] for v in order]), tuple(edges))


# (word, neighbour table, labels, {radius: [record of i at i - 1]}, {radius: overlap coloring})
_recent = (None, None, None, {}, {})


def _cached(word, r: int):
    """The word's neighbour table, labels, radius-r record slots and colorings,
    evicting others."""
    global _recent
    if r < 0:
        raise InvalidSphere("radius must be non-negative")
    recent_word, adj, labels, table, colorings = _recent
    if recent_word is not word:
        adj, labels = _word_adj(word), (None, *word.labels)
        table, colorings = {}, {}
        _recent = (word, adj, labels, table, colorings)
    slots = table.get(r) or table.setdefault(r, [None] * len(word.labels))
    return adj, labels, slots, colorings


def _record(word, i: int, r: int):
    """The record of i's radius-r ball, filled on first use."""
    n = len(word.labels)
    if not 1 <= i <= n:
        raise PositionOutOfRange(f"position {i} not in 1..{n}")
    adj, labels, slots, _ = _cached(word, r)
    ball = slots[i - 1]
    if ball is None:
        ball = slots[i - 1] = _ball(i, adj, word._stack_of, labels, r, r)
    return ball


def _sphere_of(record) -> Sphere:
    """The sphere a ball record cut from a word describes: the record itself,
    without the checks and the traversal that ``Sphere(...)`` runs."""
    s = Sphere.__new__(Sphere)
    _Sphere_record(s, record)
    return s


def sphere(word, i: int, r: int) -> Sphere:
    """Extract the radius-r sphere of a word around position i from its cached ball record."""
    return _sphere_of(_record(word, i, r))


def _records(word, r: int):
    """The word's neighbour table, its radius-r records, position 1 first, each
    filled in on first use, and its cached overlap colorings by radius."""
    adj, labels, slots, colorings = _cached(word, r)
    for i, ball in enumerate(slots, 1):
        if ball is None:
            slots[i - 1] = _ball(i, adj, word._stack_of, labels, r, r)
    return adj, slots, colorings


def _keys(word, r: int) -> list:
    """Keys of every position at radius r, position 1 first."""
    return [ball[2] for ball in _records(word, r)[1]]


def sphere_key(word, i: int, r: int):
    """Canonical key of ``sphere(word, i, r)``; equal keys mean isomorphic spheres."""
    return _record(word, i, r)[2]


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
        for i, key in enumerate(_keys(word, r), 1):
            if key not in seen:
                seen[key] = sphere(word, i, r)
    return list(seen.values())


def sphere_to_json(s: Sphere) -> dict:
    labels = s.labels
    return {
        "nodes": [{"id": v, "label": labels[v]} for v in s.nodes],
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
    labels, center = s.labels, s.center
    for v in s.nodes:
        shape = ", shape=box" if v == center else ""
        lines.append(f'  n{v} [label="{v}:{labels[v]}"{shape}];')
    for i, j in s.succ:
        lines.append(f"  n{i} -> n{j};")
    for i, j, st in s.mu:
        lines.append(f'  n{i} -> n{j} [style=dashed, label="{st}", constraint=false];')
    lines.append("}")
    return "\n".join(lines)
