"""A run discipline that forces states to describe true neighborhoods.

States are sets of extended spheres: a sphere (the core), an active node
and a color; a member's neighbours and distance are its core's at the
active node.  A member holds them in the index space of the core's ball
record, so transition checks compare visiting indices and key triples,
and a canonical run builds no ``Sphere`` until one is read.  Reading
position i, a state collects, for every center within the radius, that
center's sphere with the active node placed on i.  Local transition
conditions compare how active nodes move along successor and matching
edges; colors (from an overlap coloring of the word) separate isomorphic
spheres that lie close together, which pins every accepting run to the
real sphere around each position.

Membership of a re-pointed sphere in a state is decided up to
isomorphism via canonical keys.  In a valid state, members with
isomorphic cores and equal colors are one member, so ``core_groups``
holds one active index per (core key, color).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .core import _bfs, _immutable, _slot_setters
from .errors import InvalidState, LengthMismatch
from .spheres import Sphere, _records, _sphere_of

__all__ = [
    "ExtendedSphere",
    "SphereState",
    "EMPTY_STATE",
    "delta_allows",
    "eta",
    "OverlapColoring",
    "chi_coloring",
    "canonical_run",
    "br_run_verify",
    "PLACEHOLDER_SPHERE",
]


class ExtendedSphere:
    """A sphere (the core) with an active node and a color, held in the
    index space of the core's ball record (``index_of``, ``dist``, key):
    ``nbrs`` are the visiting indices of the active node's successor-out,
    successor-in, matching-out and matching-in neighbours (None where the
    edge is absent or leaves the ball), ``dist`` is its distance from the
    center, and the key is (core key, the active node's index, color).

    The record is private, shared with the word's cache and other members:
    ``core`` wraps it in a ``Sphere`` on each read, without a traversal,
    ``active`` maps the index back to the node, and ``color`` is the key's."""

    __slots__ = ("_record", "key", "nbrs", "dist")

    def __init__(self, core: Sphere, active, color: int):
        self._fill(core._record, active, core.adj[active], color)

    def _fill(self, record, active, near, color: int):
        """Set the fields from a ball record, the active node, its four
        neighbours ``near`` (nodes outside the ball allowed) and the color;
        returns the member."""
        index_of, dist, key = record
        k = index_of[active]
        _ExtendedSphere_record(self, record)
        _ExtendedSphere_key(self, (key, k, color))
        _ExtendedSphere_nbrs(self, tuple(map(index_of.get, near)))
        _ExtendedSphere_dist(self, dist[active])
        return self

    __setattr__ = __delattr__ = _immutable

    @property
    def color(self) -> int:
        return self.key[2]

    @property
    def core(self) -> Sphere:
        return _sphere_of(self._record)

    @property
    def active(self):
        return list(self._record[0])[self.key[1]]

    def key_at(self, node):
        """Key of the same sphere re-pointed to another active node."""
        return (self.key[0], self._record[0][node], self.color)

    def __repr__(self):
        center = next(iter(self._record[0]))
        return f"ExtendedSphere(center={center}, active={self.active}, color={self.color})"


(_ExtendedSphere_record, _ExtendedSphere_key, _ExtendedSphere_nbrs,
 _ExtendedSphere_dist) = _slot_setters(ExtendedSphere)


class SphereState:
    """A set of extended spheres (possibly empty), deduplicated up to isomorphism."""

    __slots__ = ("members", "key", "_core_groups", "label", "valid", "final", "calling")

    def __init__(self, members):
        by_key = {}
        for m in members:
            by_key.setdefault(m.key, m)
        members = tuple([by_key[k] for k in sorted(by_key)])
        groups: dict = {}
        centered = 0
        labels = set()
        final = True
        calling = False
        for m in members:
            key = m.key
            groups[key[0], key[2]] = key[1]
            if key[1] == 0:
                centered += 1
            labels.add(key[0][1][key[1]])
            so, _, mo, _ = m.nbrs
            if mo is not None:
                final = False
                calling = True
            elif so is not None:
                final = False
        label = labels.pop() if len(labels) == 1 else None
        valid = centered == 1 and label is not None and len(groups) == len(members)
        _SphereState_members(self, members)
        _SphereState_key(self, frozenset(by_key))
        _SphereState_core_groups(self, groups)
        _SphereState_label(self, label)
        _SphereState_valid(self, not members or valid)
        _SphereState_final(self, final)
        _SphereState_calling(self, calling)

    __setattr__ = __delattr__ = _immutable

    @property
    def core_groups(self) -> MappingProxyType:
        return MappingProxyType(self._core_groups)

    def __eq__(self, other):
        return isinstance(other, SphereState) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __len__(self):
        return len(self.members)

    def __repr__(self):
        return f"SphereState({len(self.members)} members)"


(_SphereState_members, _SphereState_key, _SphereState_core_groups, _SphereState_label,
 _SphereState_valid, _SphereState_final, _SphereState_calling) = _slot_setters(SphereState)


EMPTY_STATE = SphereState(())


def _require_valid(*states):
    for s in states:
        if s is not None and not s.valid:
            raise InvalidState("a state violates the membership conditions")


def _moves_land(src, slot, nxt, r) -> bool:
    """Every member of ``src`` moves its active node along the edge in
    ``slot`` of its ``nbrs`` into ``nxt``: 0, successor out, for conditions
    (5), (7) and (3); 2, matching out, for the primed ones."""
    nxt_keys = nxt.key
    nxt_groups = nxt._core_groups
    for e in src.members:
        core_key, _, color = e.key
        u = e.nbrs[slot]
        if u is None:
            if e.dist != r:  # (5)
                return False
            u = -1
        elif (core_key, u, color) not in nxt_keys:  # (7)
            return False
        # nxt, valid, holds at most one member per (core, color)
        if nxt_groups.get((core_key, color), u) != u:  # (3)
            return False
    return True


def delta_allows(prev, matched, symbol, nxt) -> bool:
    """Whether the automaton permits the step prev -> nxt reading ``symbol``.

    ``matched`` is the state taken right after the matching call, or None
    where no matching edge arrives (then a fresh-position step applies).
    """
    _require_valid(prev, matched, nxt)
    if not nxt.members:
        return False
    if nxt.label != symbol:  # (2)
        return False
    if matched is not None and not (prev.members and matched.members):
        return False
    r = nxt.members[0].key[0][0]
    prev_nonempty = bool(prev.members)
    for e2 in nxt.members:
        core_key, _, color = e2.key
        _, si, _, mi = e2.nbrs
        if si is None:
            if prev_nonempty and e2.dist != r:  # (4)
                return False
        elif (core_key, si, color) not in prev.key:  # (6)
            return False
        if matched is None:
            if mi is not None:  # (1)
                return False
        elif mi is None:
            if e2.dist != r:  # (4')
                return False
        elif (core_key, mi, color) not in matched.key:  # (6')
            return False
    return _moves_land(prev, 0, nxt, r) and (
        matched is None or _moves_land(matched, 2, nxt, r)
    )


PLACEHOLDER_SPHERE = Sphere((0,), {0: ""}, (), (), 0, 0)


def eta(state: SphereState) -> Sphere:
    """The sphere a state claims for its position: the member whose active
    node is its center; a fixed placeholder for the empty state."""
    _require_valid(state)
    for m in state.members:
        if m.key[1] == 0:
            return m.core
    return PLACEHOLDER_SPHERE


@dataclass(frozen=True)
class OverlapColoring:
    """A coloring separating nearby isomorphic spheres.

    Two positions overlap when their spheres are isomorphic and their
    distance is at most 2r+1; overlapping positions get distinct colors.
    ``colors`` and ``degrees`` map each position to its color and its
    number of overlap neighbours; both are read-only views.
    """

    radius: int
    colors: Mapping
    degrees: Mapping
    max_degree: int
    num_colors: int


def _overlap_adjacency(word_adj, r, keys):
    """Overlap neighbors per position: equal keys within distance 2r+1."""
    groups: dict = {}
    for i, key in enumerate(keys, 1):
        groups.setdefault(key, []).append(i)
    adj = {i: [] for i in range(1, len(keys) + 1)}
    for group in groups.values():
        if len(group) < 2:
            continue
        gset = set(group)
        for i in group:
            order, _ = _bfs(i, word_adj, 2 * r + 1)
            adj[i] = [u for u in order[1:] if u in gset]
    return adj


def chi_coloring(word, r: int) -> OverlapColoring:
    """The overlap coloring of the word at radius r: each position takes the
    least color that no earlier overlap neighbour holds.  It is computed once
    per word and radius and kept in the one-word cache of ``spheres`` beside
    the ball records, so later calls on the same word return the same object."""
    word_adj, records, colorings = _records(word, r)
    coloring = colorings.get(r)
    if coloring is not None:
        return coloring
    adj = _overlap_adjacency(word_adj, r, [ball[2] for ball in records])
    colors: dict = {}
    for i in range(1, len(word) + 1):
        used = {colors[j] for j in adj[i] if j in colors}
        c = 1
        while c in used:
            c += 1
        colors[i] = c
    degrees = {i: len(adj[i]) for i in adj}
    coloring = colorings[r] = OverlapColoring(
        radius=r,
        colors=MappingProxyType(colors),
        degrees=MappingProxyType(degrees),
        max_degree=max(degrees.values(), default=0),
        num_colors=max(colors.values(), default=0),
    )
    return coloring


def canonical_run(word, r: int) -> list[SphereState]:
    """The intended accepting run: state i collects every sphere whose
    center lies within the radius of position i, re-pointed to i.  Colors
    come from ``chi_coloring``, so a coloring already cached for this word
    and radius is read, not recomputed.  Members are built over the word's
    cached ball records; no ``Sphere`` is built until one is read."""
    colors = chi_coloring(word, r).colors
    word_adj, records, _ = _records(word, r)
    states = []
    for i, (centers, _, _) in enumerate(records, 1):
        near = word_adj[i]
        # i lies in the ball of every center in its own ball
        members = [
            ExtendedSphere.__new__(ExtendedSphere)._fill(records[c - 1], i, near, colors[c])
            for c in centers
        ]
        states.append(SphereState(members))
    return states


def br_run_verify(word, r: int, run) -> bool:
    """Check a state sequence against the full run discipline.

    Valid states, permitted steps, a final last state, and matching edges
    at every calling state; any violation yields False.
    """
    run = list(run)
    n = len(word)
    if len(run) != n:
        raise LengthMismatch(f"run has {len(run)} states for {n} positions")
    for state in run:
        if not state.valid or not state.members:
            return False
        if state.members[0].key[0][0] != r:
            return False
    labels = word.labels
    mu_inv = word.mu_inv
    prev = EMPTY_STATE
    for i in range(1, n + 1):
        call = mu_inv.get(i)
        matched = run[call - 1] if call is not None else None
        if not delta_allows(prev, matched, labels[i - 1], run[i - 1]):
            return False
        prev = run[i - 1]
    if not run[n - 1].final:
        return False
    mu = word.mu
    return all(not run[i - 1].calling or i in mu for i in range(1, n + 1))
