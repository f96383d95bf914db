"""States, transitions, coloring, and canonical runs of the sphere automaton."""

import pytest
from hypothesis import given, settings, strategies as st

from nwtk import sphere_automaton
from nwtk.core import distance, iter_token_tuples, nested
from nwtk.errors import InvalidState, LengthMismatch
from nwtk.sphere_automaton import (
    EMPTY_STATE,
    PLACEHOLDER_SPHERE,
    ExtendedSphere,
    SphereState,
    br_run_verify,
    canonical_run,
    chi_coloring,
    delta_allows,
    eta,
)
from nwtk.spheres import max_size_bound, sphere, sphere_iso, sphere_key

from fixtures import S2, S2C, S3, sphere_fields, word10, word16


def singleton_state(symbol, color=1):
    w = nested(S2, (symbol,))
    return SphereState([ExtendedSphere(sphere(w, 1, 0), 1, color)])


# ---------------------------------------------------------------------------
# state predicates

class TestStatePredicates:
    def test_empty_state(self):
        assert EMPTY_STATE.valid and EMPTY_STATE.final and not EMPTY_STATE.calling

    def test_singleton(self):
        state = singleton_state("a")
        assert state.valid and state.final and not state.calling

    def test_color_collision_is_invalid(self):
        w = nested(S2, ("a~",) * 4)
        e1 = ExtendedSphere(sphere(w, 2, 1), 2, 1)
        e2 = ExtendedSphere(sphere(w, 3, 1), 2, 1)
        assert e1.core.key == e2.core.key
        state = SphereState([e1, e2])
        assert not state.valid

    def test_uncentered_member_is_invalid(self):
        w = nested(S2, ("a", "a~"))
        state = SphereState([ExtendedSphere(sphere(w, 2, 1), 1, 1)])
        assert not state.valid

    def test_mixed_labels_are_invalid(self):
        w = nested(S2, ("a", "a~"))
        state = SphereState(
            [
                ExtendedSphere(sphere(w, 1, 1), 1, 1),
                ExtendedSphere(sphere(w, 2, 1), 2, 2),
            ]
        )
        assert not state.valid

    def test_core_groups_hold_one_active_index(self):
        for state in canonical_run(word16(), 2):
            assert state.core_groups == {(m.key[0], m.key[2]): m.key[1] for m in state.members}

    def test_matched_call_state_is_calling(self):
        run = canonical_run(nested(S2, ("a", "a~")), 1)
        assert run[0].calling
        assert not run[1].calling


# ---------------------------------------------------------------------------
# transitions

class TestDeltaAllows:
    def test_initial_singleton_step(self):
        assert delta_allows(EMPTY_STATE, None, "a", singleton_state("a"))

    def test_empty_target_is_never_allowed(self):
        assert not delta_allows(EMPTY_STATE, None, "a", EMPTY_STATE)

    def test_label_must_match(self):
        assert not delta_allows(EMPTY_STATE, None, "b", singleton_state("a"))

    def test_depicted_matched_return_step(self):
        # reading position 5 (a~, matched to the call at 3) at radius 1
        w = word10()
        run = canonical_run(w, 1)
        assert len(run[3]) == 4 and len(run[4]) == 4
        assert delta_allows(run[3], run[2], "a~", run[4])

    def test_matched_step_symbol_must_be_the_label(self):
        """A matched step reading a symbol other than nxt's label: (2) refuses it."""
        w = word10()
        run = canonical_run(w, 1)
        assert not delta_allows(run[3], run[2], "a", run[4])

    def test_invalid_state_raises(self):
        w = nested(S2, ("a", "a~"))
        bad = SphereState([ExtendedSphere(sphere(w, 2, 1), 1, 1)])
        with pytest.raises(InvalidState):
            delta_allows(EMPTY_STATE, None, "a", bad)


# ---------------------------------------------------------------------------
# the numbered conditions: one step each that only that condition refuses
# (with it dropped, the step is allowed)

def plus(state, *members):
    return SphereState(state.members + members)


def forged(tokens, center, active):
    """A radius-2 member cut from another word, in color 99, which no
    canonical run below uses: it shares no (core, color) group."""
    return ExtendedSphere(sphere(nested(S2, tokens), center, 2), active, 99)


def plain_step():
    """word10 at radius 2, reading position 2 (b) from position 1."""
    run = canonical_run(word10(), 2)
    assert delta_allows(run[0], None, "b", run[1])
    return run[0], run[1]


def matched_step():
    """word10 at radius 2, reading position 5 (a~, matched to the call at 3)."""
    run = canonical_run(word10(), 2)
    assert delta_allows(run[3], run[2], "a~", run[4])
    return run[3], run[2], run[4]


class TestConditions:
    def test_1_a_matching_edge_needs_a_matched_state(self):
        run = canonical_run(nested(S2, ("a", "a~")), 1)
        assert not delta_allows(run[0], None, "a~", run[1])

    def test_3_a_core_and_color_cannot_reappear_elsewhere(self):
        w = nested(S2, ("a", "a"))
        prev = SphereState([ExtendedSphere(sphere(w, 1, 0), 1, 1)])
        for color, allowed in ((1, False), (2, True)):
            nxt = SphereState([ExtendedSphere(sphere(w, 2, 0), 2, color)])
            assert delta_allows(prev, None, "a", nxt) is allowed

    def test_4_no_predecessor_inside_the_radius_after_a_nonempty_state(self):
        prev, nxt = plain_step()
        # position 1 of "b b" has no predecessor and lies one step from the center
        assert not delta_allows(prev, None, "b", plus(nxt, forged(("b", "b"), 2, 1)))

    def test_4p_no_matching_edge_inside_the_radius_at_a_matched_step(self):
        prev, call, nxt = matched_step()
        # position 2 of "b a~ a" is a pending return one step from the center
        core = ("b", "a~", "a")
        nxt = plus(nxt, forged(core, 3, 2))
        assert not delta_allows(plus(prev, forged(core, 3, 1)), call, "a~", nxt)

    def test_5_no_successor_inside_the_radius(self):
        prev, nxt = plain_step()
        # position 2 of "a a" is the last one, one step from the center
        assert not delta_allows(plus(prev, forged(("a", "a"), 1, 2)), None, "b", nxt)

    def test_6_the_predecessor_comes_from_the_previous_state(self):
        prev, nxt = plain_step()
        # the predecessor, position 1 of "b b", has no color-99 copy in prev
        assert not delta_allows(prev, None, "b", plus(nxt, forged(("b", "b"), 1, 2)))

    def test_6p_the_matching_edge_comes_from_the_matched_state(self):
        prev, call, nxt = matched_step()
        # 5 is matched to 3 in this core, but the call's state holds no color-99 copy
        core = sphere(word10(), 3, 2)
        prev = plus(prev, ExtendedSphere(core, 4, 99))
        nxt = plus(nxt, ExtendedSphere(core, 5, 99))
        assert not delta_allows(prev, call, "a~", nxt)

    def test_7_the_successor_lands_in_the_next_state(self):
        prev, nxt = plain_step()
        # the successor, position 2 of "a a", has no color-99 copy in nxt
        assert not delta_allows(plus(prev, forged(("a", "a"), 2, 1)), None, "b", nxt)


# ---------------------------------------------------------------------------
# overlap coloring

class TestChiColoring:
    def test_distinct_spheres_need_one_color(self):
        coloring = chi_coloring(nested(S2, ("a", "a~", "a", "a~")), 1)
        assert coloring.max_degree == 0
        assert coloring.num_colors == 1

    def test_overlapping_isomorphic_spheres_split(self):
        coloring = chi_coloring(nested(S2, ("a~",) * 4), 1)
        assert coloring.colors[2] != coloring.colors[3]

    def test_single_position(self):
        coloring = chi_coloring(nested(S2, ("a",)), 1)
        assert coloring.colors == {1: 1}

    def test_colors_and_degrees_are_read_only(self):
        coloring = chi_coloring(word10(), 1)
        for view in (coloring.colors, coloring.degrees):
            with pytest.raises(TypeError):
                view[1] = 9
            with pytest.raises(TypeError):
                del view[1]
        for name in ("colors", "degrees", "num_colors"):
            with pytest.raises(AttributeError):
                setattr(coloring, name, None)
        assert coloring.colors[1] == 1 and len(coloring.degrees) == 10

    @pytest.mark.parametrize("r", (0, 1, 2))
    def test_cached_coloring_leaves_with_its_word(self, r):
        a, b = word16(), word10()
        chi_coloring(a, r)
        assert list(chi_coloring(b, r).colors) == list(b.positions())  # evicts a
        run = canonical_run(a, r)
        colors = dict(chi_coloring(a, r).colors)
        copy = nested(a.alphabet, a.labels)
        fresh = canonical_run(copy, r)
        assert [[m.key for m in s.members] for s in run] == [
            [m.key for m in s.members] for s in fresh
        ]
        assert colors == chi_coloring(copy, r).colors

    def test_one_overlap_pass_per_word_and_radius(self, monkeypatch):
        radii = []
        overlap_adjacency = sphere_automaton._overlap_adjacency

        def counted(*args):
            radii.append(args[1])
            return overlap_adjacency(*args)

        monkeypatch.setattr(sphere_automaton, "_overlap_adjacency", counted)
        w = word16()
        for r in (0, 1, 2):
            chi_coloring(w, r)
            canonical_run(w, r)
        assert radii == [0, 1, 2]

    def test_degree_and_color_bounds(self):
        for w in (word10(), word16()):
            for r in (0, 1, 2):
                coloring = chi_coloring(w, r)
                bound = 4 * max_size_bound(r) ** 2
                assert coloring.max_degree <= bound
                assert coloring.num_colors <= bound + 1

    @given(
        st.one_of(
            st.lists(st.sampled_from(S2C.symbols), min_size=1, max_size=12).map(
                lambda tokens: nested(S2C, tokens)
            ),
            st.lists(st.sampled_from(S3.symbols), min_size=1, max_size=12).map(
                lambda tokens: nested(S3, tokens)
            ),
        ),
        st.sampled_from((0, 1, 2)),
    )
    @settings(max_examples=200, deadline=None)
    def test_overlapping_positions_are_neighbors(self, w, r):
        coloring = chi_coloring(w, r)
        keys = {i: sphere_key(w, i, r) for i in w.positions()}
        for i in w.positions():
            overlapping = [
                j
                for j in w.positions()
                if j != i and keys[j] == keys[i] and distance(w, i, j) <= 2 * r + 1
            ]
            assert coloring.degrees[i] == len(overlapping)
            for j in overlapping:
                assert coloring.colors[i] != coloring.colors[j]


# ---------------------------------------------------------------------------
# canonical runs

class TestCanonicalRun:
    def test_two_member_state(self):
        run = canonical_run(nested(S2, ("a", "a~")), 1)
        state = run[0]
        assert len(state) == 2
        centered = [m for m in state.members if m.key[1] == 0]
        assert len(centered) == 1
        assert centered[0].core.center == 1
        assert all(m.active == 1 for m in state.members)

    def test_radius_zero_singleton(self):
        run = canonical_run(nested(S2, ("a",)), 0)
        assert len(run) == 1
        assert run[0].key == singleton_state("a").key

    def test_running_example_run_is_accepted(self):
        w = word10()
        run = canonical_run(w, 1)
        assert len(run) == 10
        for state in run:
            assert state.valid
            assert sum(1 for m in state.members if m.key[1] == 0) == 1
        assert br_run_verify(w, 1, run)

    def test_all_radii_on_both_fixture_words(self):
        for w in (word10(), word16()):
            for r in (0, 1, 2):
                assert br_run_verify(w, r, canonical_run(w, r))

    def test_eta_recovers_each_sphere(self):
        w = word16()
        run = canonical_run(w, 2)
        for i in w.positions():
            assert sphere_iso(eta(run[i - 1]), sphere(w, i, 2))

    def test_states_and_members_are_immutable(self):
        state = canonical_run(word10(), 1)[2]
        member = state.members[0]
        for value, name in ((state, "valid"), (state, "members"), (member, "key"),
                            (member, "active"), (member, "core")):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert state.valid and member.core.radius == 1

    def test_members_build_their_sphere_on_each_read(self):
        """A member holds its ball record; ``core`` is that ball's sphere, built
        on each read, and ``active`` is the position of the member's state."""
        for w in (word10(), word16()):
            for r in (0, 1, 2):
                colors = chi_coloring(w, r).colors
                for i, state in enumerate(canonical_run(w, r), 1):
                    centers = []
                    for m in state.members:
                        core = m.core
                        want = sphere(w, core.center, r)
                        assert sphere_fields(core) == sphere_fields(want)
                        assert sphere_fields(m.core) == sphere_fields(core)
                        assert m.active == i
                        assert m.key == (want.key, want.index_of[i], colors[core.center])
                        for name in ("core", "active"):
                            with pytest.raises(AttributeError):
                                setattr(m, name, None)
                        centers.append(core.center)
                    assert sorted(centers) == list(sphere(w, i, r).nodes)

    def test_edge_walk_stays_inside_the_run(self):
        # every member's active-node edge leads to a position whose state
        # holds the same sphere re-pointed there
        for w in (word10(), nested(S2, ("b", "a", "a~", "b~"))):
            run = canonical_run(w, 1)
            for i in w.positions():
                for m in run[i - 1].members:
                    for j in m.core.adj[m.active]:
                        if j is not None:
                            assert m.key_at(j) in run[j - 1].key


# ---------------------------------------------------------------------------
# run verification

class TestBrRunVerify:
    def test_final_condition(self):
        w = nested(S2, ("a",))
        good = canonical_run(w, 1)
        assert br_run_verify(w, 1, good)
        # a valid but non-final state: same label, active node has a successor
        w2 = nested(S2, ("a", "a"))
        nonfinal = SphereState([ExtendedSphere(sphere(w2, 1, 1), 1, 1)])
        assert nonfinal.valid and not nonfinal.final
        assert not br_run_verify(w, 1, [nonfinal])

    def test_color_collision_rejected(self):
        w = nested(S2, ("a~",) * 4)
        run = canonical_run(w, 1)
        e1 = ExtendedSphere(sphere(w, 2, 1), 2, 1)
        e2 = ExtendedSphere(sphere(w, 3, 1), 2, 1)
        mutated = run[:1] + [SphereState([e1, e2])] + run[2:]
        assert not br_run_verify(w, 1, mutated)

    def test_wrong_radius_rejected(self):
        w = nested(S2, ("a", "a~"))
        assert not br_run_verify(w, 2, canonical_run(w, 1))

    def test_empty_state_inside_run_rejected(self):
        w = nested(S2, ("a", "a~"))
        run = canonical_run(w, 1)
        assert not br_run_verify(w, 1, [run[0], EMPTY_STATE])

    def test_length_mismatch(self):
        w = nested(S2, ("a", "a~"))
        with pytest.raises(LengthMismatch):
            br_run_verify(w, 1, canonical_run(w, 1)[:1])

    def test_swapped_states_rejected(self):
        w = word10()
        run = canonical_run(w, 1)
        mutated = list(run)
        mutated[4], mutated[7] = mutated[7], mutated[4]
        assert not br_run_verify(w, 1, mutated)


# ---------------------------------------------------------------------------
# eta

class TestEta:
    def test_singleton(self):
        state = singleton_state("b~")
        assert sphere_fields(eta(state)) == sphere_fields(state.members[0].core)

    def test_empty_state_placeholder(self):
        assert eta(EMPTY_STATE) is PLACEHOLDER_SPHERE

    def test_invalid_state_raises(self):
        w = nested(S2, ("a", "a~"))
        bad = SphereState([ExtendedSphere(sphere(w, 2, 1), 1, 1)])
        with pytest.raises(InvalidState):
            eta(bad)


# ---------------------------------------------------------------------------
# small-corpus sweep (the full one is in the acceptance suite)

def test_small_corpus_runs_verify_and_project():
    for tokens in iter_token_tuples(S2, 3):
        w = nested(S2, tokens)
        for r in (0, 1, 2):
            run = canonical_run(w, r)
            assert br_run_verify(w, r, run), (tokens, r)
            for i in w.positions():
                assert eta(run[i - 1]).key == sphere(w, i, r).key
