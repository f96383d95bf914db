"""Sphere extraction, isomorphism, counting, and enumeration."""

import copy
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

import nwtk.spheres as sphere_module
from nwtk.core import iter_token_tuples, nested
from nwtk.errors import InvalidSphere, PositionOutOfRange, RadiusMismatch
from nwtk.sphere_automaton import br_run_verify, canonical_run, chi_coloring
from nwtk.spheres import (
    Sphere,
    enumerate_spheres,
    max_size_bound,
    sphere,
    sphere_count,
    sphere_from_json,
    sphere_iso,
    sphere_key,
    sphere_to_dot,
    sphere_to_json,
)

from fixtures import S2, S2C, S3, sphere_fields, word10, word16
from oracles import distances_by_search


def abar4():
    return nested(S2, ("a~",) * 4)


class TestExtraction:
    def test_radius_zero(self):
        w = word10()
        s = sphere(w, 3, 0)
        assert s.nodes == (3,)
        assert s.labels == {3: "a"}
        assert not s.succ and not s.mu
        assert s.center == 3 and s.radius == 0

    def test_two_sphere_of_the_embedding_word(self):
        s = sphere(word16(), 10, 2)
        assert s.nodes == (4, 5, 6, 8, 9, 10, 11, 12)
        assert s.labels == {
            4: "c",
            5: "a",
            6: "b",
            8: "b~",
            9: "b~",
            10: "a~",
            11: "b~",
            12: "b~",
        }
        assert s.succ == ((4, 5), (5, 6), (8, 9), (9, 10), (10, 11), (11, 12))
        assert s.mu == ((5, 10, 1),)
        assert s.center == 10

    def test_one_sphere_with_matching_shortcut(self):
        s = sphere(word10(), 1, 1)
        assert s.nodes == (1, 2, 6)
        assert s.succ == ((1, 2),)
        assert s.mu == ((1, 6, 1),)

    def test_position_out_of_range(self):
        with pytest.raises(PositionOutOfRange):
            sphere(word10(), 0, 1)
        with pytest.raises(PositionOutOfRange):
            sphere_key(word10(), 11, 1)

    def test_nodes_within_radius(self):
        w = word16()
        for i in w.positions():
            for r in (0, 1, 2, 3):
                s = sphere(w, i, r)
                assert all(d <= r for d in s.dist.values())


class TestIsomorphism:
    def test_reflexive(self):
        s = sphere(word10(), 4, 2)
        assert sphere_iso(s, s)

    def test_embedded_pair(self):
        w = word16()
        assert sphere_iso(sphere(w, 10, 2), sphere(w, 14, 2))

    def test_size_mismatch(self):
        w = word10()
        assert not sphere_iso(sphere(w, 1, 1), sphere(w, 3, 1))
        assert sphere(w, 3, 1).nodes == (2, 3, 4, 5)

    def test_radius_mismatch(self):
        w = word10()
        with pytest.raises(RadiusMismatch):
            sphere_iso(sphere(w, 1, 1), sphere(w, 1, 2))

    def test_equivalence_on_enumerated_set(self):
        spheres = enumerate_spheres(S2, 1, 3)
        sample = spheres[::9]
        for s1 in sample:
            assert sphere_iso(s1, s1)
            for s2 in sample:
                assert sphere_iso(s1, s2) == sphere_iso(s2, s1)
                for s3 in sample:
                    if sphere_iso(s1, s2) and sphere_iso(s2, s3):
                        assert sphere_iso(s1, s3)


class TestCounting:
    def test_embedding_count(self):
        w = word16()
        assert sphere_count(w, sphere(w, 10, 2), 2) == 2

    def test_unrealized_sphere(self):
        target = Sphere((1,), {1: "b"}, (), (), 1, 0)
        assert sphere_count(abar4(), target, 0) == 0

    def test_middle_of_pending_run(self):
        w = abar4()
        target = Sphere(
            (1, 2, 3),
            {1: "a~", 2: "a~", 3: "a~"},
            ((1, 2), (2, 3)),
            (),
            2,
            1,
        )
        assert sphere_count(w, target, 1) == 2
        assert sphere_iso(sphere(w, 2, 1), target)
        assert sphere_iso(sphere(w, 3, 1), target)

    def test_radius_mismatch(self):
        w = abar4()
        with pytest.raises(RadiusMismatch):
            sphere_count(w, sphere(w, 1, 1), 2)

    def test_counts_partition_positions(self):
        for tokens in iter_token_tuples(S2, 4):
            w = nested(S2, tokens)
            for r in (0, 1, 2):
                reps = {}
                for i in w.positions():
                    reps.setdefault(sphere_key(w, i, r), i)
                total = sum(
                    sphere_count(w, sphere(w, i, r), r) for i in reps.values()
                )
                assert total == len(w)


class TestEnumeration:
    def test_radius_zero_is_label_only(self):
        assert len(enumerate_spheres(S2, 0, 1)) == 4
        assert len(enumerate_spheres(S2, 0, 5)) == 4

    def test_radius_one_regression(self):
        assert len(enumerate_spheres(S2, 1, 3)) == 108

    def test_sizes_within_bound(self):
        for r in (0, 1, 2):
            for s in enumerate_spheres(S2, r, 3):
                assert s.size() <= max_size_bound(r)


class TestSizeBound:
    def test_values(self):
        assert max_size_bound(0) == 1
        assert max_size_bound(1) == 4
        assert max_size_bound(2) == 10

    def test_negative(self):
        with pytest.raises(InvalidSphere):
            max_size_bound(-1)


class TestConstructionChecks:
    def test_center_must_be_a_node(self):
        with pytest.raises(InvalidSphere, match="is not a node"):
            Sphere((1, 2), {1: "a", 2: "a~"}, ((1, 2),), (), 3, 1)

    def test_labels_must_cover(self):
        with pytest.raises(InvalidSphere, match="labels must cover"):
            Sphere((1, 2), {1: "a"}, ((1, 2),), (), 1, 1)

    def test_double_successor(self):
        with pytest.raises(InvalidSphere, match="two successor edges"):
            Sphere(
                (1, 2, 3),
                {1: "a", 2: "a", 3: "a"},
                ((1, 2), (1, 3)),
                (),
                1,
                1,
            )

    def test_double_matching(self):
        with pytest.raises(InvalidSphere, match="matched twice"):
            Sphere(
                (1, 2, 3),
                {1: "a", 2: "a~", 3: "a~"},
                ((1, 2), (2, 3)),
                ((1, 2, 1), (1, 3, 1)),
                1,
                1,
            )

    def test_disconnected(self):
        with pytest.raises(InvalidSphere, match="not connected"):
            Sphere((1, 2), {1: "a", 2: "a~"}, (), (), 1, 1)

    def test_radius_exceeded(self):
        with pytest.raises(InvalidSphere, match="farther from the center"):
            Sphere(
                (1, 2, 3),
                {1: "a", 2: "a", 3: "a"},
                ((1, 2), (2, 3)),
                (),
                1,
                1,
            )

    def test_size_bound_enforced(self):
        nodes = tuple(range(1, 7))
        labels = {v: "a" for v in nodes}
        succ = tuple((v, v + 1) for v in range(1, 6))
        with pytest.raises(InvalidSphere, match="size bound"):
            Sphere(nodes, labels, succ, (), 1, 1)

    def test_stack_tags_are_one_based(self):
        with pytest.raises(InvalidSphere, match="1-based"):
            Sphere((1, 2), {1: "a", 2: "a~"}, ((1, 2),), ((1, 2, 0),), 1, 1)

    def test_successor_self_loop(self):
        with pytest.raises(InvalidSphere, match=r"v to v \+ 1"):
            Sphere((1,), {1: "a"}, ((1, 1),), (), 1, 0)

    def test_successor_edge_against_the_matching_edge(self):
        data = {
            "nodes": [{"id": 1, "label": "a"}, {"id": 2, "label": "a~"}],
            "succ": [[2, 1]],
            "match": [[1, 2, 1]],
            "center": 1,
            "radius": 1,
        }
        with pytest.raises(InvalidSphere, match=r"v to v \+ 1"):
            sphere_from_json(data)

    def test_matching_edge_returns_after_its_call(self):
        for mu in (((2, 1, 1),), ((1, 1, 1),)):
            with pytest.raises(InvalidSphere, match="return after its call"):
                Sphere((1, 2), {1: "a~", 2: "a"}, ((1, 2),), mu, 1, 1)


class TestFastKey:
    def test_matches_constructed_key_exhaustively(self):
        for tokens in iter_token_tuples(S2, 4):
            w = nested(S2, tokens)
            for i in w.positions():
                for r in (0, 1, 2, 3):
                    assert sphere_key(w, i, r) == sphere(w, i, r).key

    @given(
        st.lists(st.sampled_from(S3.symbols), min_size=1, max_size=10),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_constructed_key_random(self, tokens, r):
        w = nested(S3, tokens)
        for i in w.positions():
            assert sphere_key(w, i, r) == sphere(w, i, r).key


def _sorted_key(w, s):
    """The key of ``s = sphere(w, i, r)`` rebuilt apart from the key pass: its
    labels and edges are read from the word, checked against ``s.nodes``,
    ``s.succ`` and ``s.mu``, numbered in the visiting order and sorted."""
    order = list(s.index_of)
    index = {v: k for k, v in enumerate(order)}
    succ = [(v, v + 1) for v in s.nodes if v + 1 in index]
    mu = [(i, j, st) for i, j, st in w.matches() if i in index and j in index]
    assert sorted(order) == list(s.nodes)
    assert s.succ == tuple(succ) and s.mu == tuple(mu)
    edges = [(index[i], index[j], 0) for i, j in succ]
    edges += [(index[i], index[j], st) for i, j, st in mu]
    return (s.radius, tuple([w.labels[v - 1] for v in order]), tuple(sorted(edges)))


class TestSortFreeKey:
    """The key pass writes each node's edges in order instead of sorting them;
    the key must equal one whose edges are sorted explicitly."""

    def test_successor_edge_first_on_a_tie(self):
        # in "a a~" both edges of position 1 reach position 2
        w = nested(S2, ("a", "a~"))
        assert sphere_key(w, 1, 1) == (1, ("a", "a~"), ((0, 1, 0), (0, 1, 1)))
        assert sphere_key(w, 2, 1) == (1, ("a~", "a"), ((1, 0, 0), (1, 0, 1)))
        for i in w.positions():
            assert sphere_key(w, i, 1) == _sorted_key(w, sphere(w, i, 1))

    def test_matches_sorted_key_exhaustively(self):
        for alphabet, max_len in ((S2, 7), (S2C, 6)):
            for tokens in iter_token_tuples(alphabet, max_len):
                w = nested(alphabet, tokens)
                for r in (0, 1, 2, 3):
                    for i in w.positions():
                        want = _sorted_key(w, sphere(w, i, r))
                        assert sphere_key(w, i, r) == want, (tokens, i, r)


class TestSphereFromWord:
    """``sphere`` derives every field from its one traversal of the word;
    the validating constructor, given the same graph, and the JSON reader
    must produce the same sphere, slot by slot."""

    CORPORA = ((S2, 6), (S3, 4), (S2C, 5))

    def test_matches_validating_constructor(self):
        for alphabet, max_len in self.CORPORA:
            for tokens in iter_token_tuples(alphabet, max_len):
                w = nested(alphabet, tokens)
                for i in w.positions():
                    for r in (0, 1, 2, 3):
                        s = sphere(w, i, r)
                        fields = sphere_fields(s)
                        built = Sphere(
                            reversed(s.nodes),
                            s.labels,
                            reversed(s.succ),
                            reversed(s.mu),
                            i,
                            r,
                        )
                        assert sphere_fields(built) == fields, (tokens, i, r)
                        again = sphere_from_json(sphere_to_json(s))
                        assert sphere_fields(again) == fields, (tokens, i, r)

    def test_matches_the_word_graph(self):
        """``Sphere(...)`` over a ball's own graph, read from the word alone,
        hands that graph back and has the key of the word's ball."""
        for alphabet, max_len in self.CORPORA:
            for tokens in iter_token_tuples(alphabet, max_len):
                w = nested(alphabet, tokens)
                dist = distances_by_search(alphabet, tokens)
                for i in w.positions():
                    for r in (0, 1, 2, 3):
                        nodes = [v for v in w.positions() if dist[i, v] <= r]
                        labels = {v: w.labels[v - 1] for v in nodes}
                        succ = [(v, v + 1) for v in nodes if v + 1 in labels]
                        mu = [m for m in w.matches() if m[0] in labels and m[1] in labels]
                        s = Sphere(nodes, labels, succ, mu, i, r)
                        assert s.nodes == tuple(nodes) and s.labels == labels, (tokens, i, r)
                        assert s.succ == tuple(succ) and s.mu == tuple(mu), (tokens, i, r)
                        assert s.key == sphere_key(w, i, r), (tokens, i, r)

    def test_handed_out_containers_are_the_callers_own(self):
        w = word16()
        for r in (0, 1, 2):
            for i in w.positions():
                s = sphere(w, i, r)
                want = copy.deepcopy(sphere_fields(s))
                labels, adj = s.labels, s.adj
                labels[i] = "z"
                labels[0] = "z"
                adj[i] = (0, 0, 0, 0)
                adj[0] = (i, None, None, None)
                assert sphere_fields(s) == want
                assert sphere_fields(sphere(w, i, r)) == want

    def test_record_views_are_read_only(self):
        # writing through a view would change the word's cached record, which
        # the canonical run's members share
        w = nested(S2, "a b a~ b~ a b".split())
        s = sphere(w, 2, 1)
        for view in (s.index_of, s.dist):
            with pytest.raises(TypeError):
                view[1], view[2] = view[2], view[1]
        assert br_run_verify(w, 1, canonical_run(w, 1))

    def test_one_traversal_per_sphere(self, monkeypatch):
        bfs = sphere_module._bfs
        calls = []

        def counting_bfs(*args):
            calls.append(args[0])
            return bfs(*args)

        monkeypatch.setattr(sphere_module, "_bfs", counting_bfs)
        sphere(word16(), 10, 2)
        assert calls == [10]

    def test_word_maps_are_read_only(self):
        w = nested(S2, ("a", "a~", "b", "b~"))
        key = sphere_key(w, 1, 1)
        with pytest.raises(TypeError):
            w.mu[1] = 4
        assert sphere_key(w, 1, 1) == key == sphere(w, 1, 1).key


def _reference_keys(w, r):
    """Keys of a fresh copy of ``w``, each sphere rebuilt by the validating
    constructor: they read no record cached for ``w`` itself."""
    v = nested(w.alphabet, w.labels)
    keys = []
    for i in v.positions():
        s = sphere(v, i, r)
        keys.append(Sphere(s.nodes, s.labels, s.succ, s.mu, i, r).key)
    return keys


class TestKeyCache:
    """Keys come from a one-word cache of ball records; each must equal the
    key that the validating constructor gives a fresh copy of the word."""

    def test_interleaved_words(self):
        a, b = word10(), word16()
        for r in (0, 1, 2):
            want = {w: _reference_keys(w, r) for w in (a, b)}
            for w in (a, b, a):
                for i in w.positions():
                    assert sphere_key(w, i, r) == sphere(w, i, r).key == want[w][i - 1]

    def test_equal_words_are_distinct_entries(self):
        tokens = ("a", "b", "a~", "c", "b~")
        v, w = nested(S2C, tokens), nested(S2C, tokens)
        assert v == w and v is not w
        for r in (0, 1, 2):
            assert [sphere_key(v, i, r) for i in v.positions()] == [
                sphere(w, i, r).key for i in w.positions()
            ]
            assert [sphere_key(w, i, r) for i in w.positions()] == [
                sphere(v, i, r).key for i in v.positions()
            ]

    def test_canonical_run_first(self):
        w = word16()
        for r in (0, 1, 2):
            want = _reference_keys(w, r)
            canonical_run(w, r)
            for i in w.positions():
                assert sphere_key(w, i, r) == sphere(w, i, r).key == want[i - 1]

    def test_bad_arguments_after_caching(self):
        w = word10()
        for i in w.positions():
            sphere_key(w, i, 1)
        for i in (0, 11):
            with pytest.raises(PositionOutOfRange):
                sphere_key(w, i, 1)
        with pytest.raises(InvalidSphere):
            sphere_key(w, 1, -1)

    def test_eviction_during_a_key_computation(self, monkeypatch):
        """Another thread's word may replace the cached one while a ball is
        traversed; its record must land in its own word's table only."""
        a, b = word10(), word16()
        want = {(w, r): _reference_keys(w, r) for w in (a, b) for r in (0, 1, 2)}
        ball = sphere_module._ball

        def interleaved(center, adj, stack_of, labels, r, limit):
            out = ball(center, adj, stack_of, labels, r, limit)
            if stack_of is a._stack_of:
                sphere_key(b, center, r)
            return out

        monkeypatch.setattr(sphere_module, "_ball", interleaved)
        for r in (0, 1, 2):
            assert sphere_module._keys(a, r) == want[a, r]
            assert [sphere_key(b, i, r) for i in a.positions()] == want[b, r][: len(a)]
            for i in a.positions():
                assert sphere_key(a, i, r) == want[a, r][i - 1]
                # b evicted a mid-traversal and is cached now: its slot i
                # must hold b's own record
                assert sphere_key(b, i, r) == want[b, r][i - 1]
                assert sphere(a, i, r).key == want[a, r][i - 1]
        monkeypatch.undo()
        for r in (0, 1, 2):
            for i in b.positions():
                assert sphere_key(b, i, r) == sphere(b, i, r).key == want[b, r][i - 1]

    def test_threads_on_different_words(self):
        tokens = [
            ("a", "b", "a~", "c", "b~"),
            ("b", "a", "c", "a~", "b~", "c"),
            ("c", "a", "a~", "b", "c", "b~", "a"),
            tuple("a b a b a~ a~ a~ b~ b~ b~".split()),
        ]
        want = []
        for t in tokens:
            w = nested(S2C, t)
            keys = {(i, r): sphere(w, i, r).key for i in w.positions() for r in (0, 1, 2)}
            want.append((keys, {r: dict(chi_coloring(w, r).colors) for r in (0, 1, 2)}))
        start = threading.Barrier(len(tokens))
        wrong = []

        def work(t, expected):
            keys, colors = expected
            start.wait(timeout=60)
            for _ in range(100):
                w = nested(S2C, t)
                for (i, r), key in keys.items():
                    if sphere_key(w, i, r) != key:
                        wrong.append((t, i, r))
                for r, coloring in colors.items():
                    if chi_coloring(w, r).colors != coloring:
                        wrong.append((t, r))

        threads = [threading.Thread(target=work, args=pair) for pair in zip(tokens, want)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong

    def test_one_traversal_per_fresh_key(self, monkeypatch):
        bfs = sphere_module._bfs
        calls = []

        def counting_bfs(*args):
            calls.append(args[0])
            return bfs(*args)

        monkeypatch.setattr(sphere_module, "_bfs", counting_bfs)
        w = word16()
        sphere_key(w, 10, 2)
        assert calls == [10]
        sphere_key(w, 10, 2)
        assert calls == [10]

    def test_one_traversal_per_ball(self, monkeypatch):
        """The key pass, ``canonical_run``, its members' cores and ``sphere``
        share each ball's one record; a radius-0 record needs no traversal."""
        ball, bfs = sphere_module._ball, sphere_module._bfs
        balls, searches = [], []

        def counting_ball(center, adj, stack_of, labels, r, limit):
            balls.append((center, limit))
            return ball(center, adj, stack_of, labels, r, limit)

        def counting_bfs(center, adj, limit):
            searches.append((center, limit))
            return bfs(center, adj, limit)

        monkeypatch.setattr(sphere_module, "_ball", counting_ball)
        monkeypatch.setattr(sphere_module, "_bfs", counting_bfs)
        w = word16()
        for r in (0, 1, 2):
            balls.clear()
            searches.clear()
            run = canonical_run(w, r)
            assert sorted(balls) == [(i, r) for i in w.positions()]
            assert sorted(searches) == ([] if r == 0 else sorted(balls))
            balls.clear()
            searches.clear()
            for state in run:
                for m in state.members:
                    m.core
            assert balls == searches == []
        w = word16()
        for r in (0, 1, 2):
            for i in w.positions():
                sphere_key(w, i, r)
                balls.clear()
                searches.clear()
                sphere(w, i, r)
                assert balls == searches == []


def test_spheres_are_immutable():
    built = Sphere((1, 2), {1: "a", 2: "a~"}, ((1, 2),), ((1, 2, 1),), 1, 1)
    for s in (built, sphere(word16(), 10, 2)):
        with pytest.raises(AttributeError):
            s.key = ()
        with pytest.raises(AttributeError):
            s.center = 0
        with pytest.raises(AttributeError):
            del s.labels


class TestSerialization:
    def test_json_round_trip(self):
        s = sphere(word16(), 10, 2)
        again = sphere_from_json(sphere_to_json(s))
        assert again.key == s.key

    def test_json_string_input(self):
        import json

        s = sphere(word10(), 2, 1)
        again = sphere_from_json(json.dumps(sphere_to_json(s)))
        assert again.key == s.key

    def test_dot_marks_center(self):
        s = sphere(word10(), 1, 1)
        dot = sphere_to_dot(s)
        assert 'n1 [label="1:a", shape=box];' in dot
        assert "n1 -> n2;" in dot
        assert "style=dashed" in dot
