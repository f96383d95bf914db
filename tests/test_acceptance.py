"""End-to-end checks that exercise every public layer of the package.

Each test prints a one-line PASS summary with the quantities it verified,
so a ``pytest -rP`` run doubles as an audit report.  Several tests sweep
exhaustive corpora and have pinned wall-clock budgets.
"""

import itertools
import random
import time

import pytest

from fixtures import (
    CIRC1,
    CIRC2,
    GRID34,
    NONCIRC,
    S2,
    S2C,
    WORD10,
    chain_gmnwa,
    loop_mnwa,
    loop_mvpa,
    word10,
    word16,
)
from oracles import (
    DEAD,
    START,
    accepts_by_run_search,
    find_accepting_run,
    lplus_accepting,
    lplus_step,
    random_mnwa,
    random_mvpa,
)

from nwtk.automata import (
    degeneralize,
    mnwa_accepts,
    mnwa_to_mvpa,
    mvpa_accepts,
    mvpa_initial_configs,
    mvpa_step,
    mvpa_to_mnwa,
)
from nwtk.circularity import (
    DIRECTIONS,
    circular_witness,
    f_map,
    is_circular,
    path_exists,
)
from nwtk.core import iter_token_tuples, nested
from nwtk.grids import GRID_ALPHABET, encode, image_membership, verify_reduction
from nwtk.logic import CountEq, CountGt, compile_constraint, constraint_holds
from nwtk.sphere_automaton import (
    EMPTY_STATE,
    br_run_verify,
    canonical_run,
    chi_coloring,
    delta_allows,
    eta,
)
from nwtk.spheres import max_size_bound, sphere, sphere_count, sphere_key


@pytest.fixture(scope="module")
def words8():
    return [nested(S2, t) for t in iter_token_tuples(S2, 8)]


def test_01_running_example_matching():
    t0 = time.perf_counter()
    w = word10()
    triples = w.matches()
    pending = set(w.pending)
    elapsed = time.perf_counter() - t0
    assert triples == [(1, 6, 1), (2, 9, 2), (3, 5, 1), (4, 8, 2)]
    assert pending == {7, 10}
    assert elapsed < 1.0
    print(
        f"PASS [1] ten-position example: matches {triples}, "
        f"pending {sorted(pending)}, {elapsed * 1e3:.2f} ms"
    )


def _accepting(automaton, configs):
    return any(q in automaton.final for q, _ in configs)


def _loop_sweep(max_len, spot_len):
    """Walk the full token tree up to max_len, sharing prefix work.

    Subtrees where both automata have no live configurations and the
    reference scanner is dead are skipped: all three are absorbing there,
    so every extension is rejected by all three alike.
    """
    vpa = loop_mvpa()
    nwa = loop_mnwa()
    nwa_as_vpa = mnwa_to_mvpa(nwa)
    compared = 0
    spots = 0
    stack = [(mvpa_initial_configs(vpa), mvpa_initial_configs(nwa_as_vpa), START, ())]
    while stack:
        cfg1, cfg3, scan, prefix = stack.pop()
        for sym in S2.symbols:
            c1 = mvpa_step(vpa, cfg1, sym)
            c3 = mvpa_step(nwa_as_vpa, cfg3, sym)
            sc = lplus_step(scan, sym)
            word = prefix + (sym,)
            want = lplus_accepting(sc)
            assert _accepting(vpa, c1) == want, word
            assert _accepting(nwa_as_vpa, c3) == want, word
            compared += 1
            if len(word) <= spot_len:
                assert mvpa_accepts(vpa, word) == want, word
                assert mnwa_accepts(nwa, nested(S2, word)) == want, word
                spots += 1
            if len(word) < max_len and (c1 or c3 or sc != DEAD):
                stack.append((c1, c3, sc, word))
    return compared, spots


def test_02_loop_automata_realize_block_language():
    t0 = time.perf_counter()
    live10, spots = _loop_sweep(10, 6)
    t1 = time.perf_counter()
    live12, _ = _loop_sweep(12, 0)
    t2 = time.perf_counter()
    assert t1 - t0 < 60.0
    assert t2 - t1 < 600.0
    covered10 = (4**11 - 4) // 3
    covered12 = (4**13 - 4) // 3
    assert covered10 == 1_398_100
    assert covered12 == 22_369_620
    print(
        f"PASS [2] loop automata agree with the block-language scanner on all "
        f"{covered10} words to length 10 ({live10} live-reached, "
        f"{t1 - t0:.1f} s) and all {covered12} words to length 12 "
        f"({live12} live-reached, {t2 - t1:.1f} s); {spots} prefixes "
        f"re-certified through the whole-word entry points"
    )


def test_03_conversions_preserve_acceptance(words8):
    t0 = time.perf_counter()
    rng = random.Random(92)
    stack_machines = [loop_mvpa()] + [random_mvpa(rng, S2) for _ in range(10)]
    word_machines = [loop_mnwa()] + [random_mnwa(rng, S2) for _ in range(10)]
    checked = 0
    for a in stack_machines:
        b = mvpa_to_mnwa(a)
        for w in words8:
            assert mvpa_accepts(a, w.labels) == mnwa_accepts(b, w)
            checked += 1
    for b in word_machines:
        a = mnwa_to_mvpa(b)
        for w in words8:
            got = mvpa_accepts(a, w.labels)
            assert got == mnwa_accepts(b, w)
            assert got == accepts_by_run_search(b, w)
            checked += 1
    elapsed = time.perf_counter() - t0
    print(
        f"PASS [3] both conversion directions preserve acceptance for "
        f"{len(stack_machines) + len(word_machines)} machines across "
        f"{checked} word checks, with the word-automaton direction also "
        f"matched against explicit run search ({elapsed:.1f} s)"
    )


EXPECTED_FLAGS = ["00", "10", "21", "22", "22", "22", "02", "02", "02", "00", "00"]


def test_04_degeneralization(words8):
    t0 = time.perf_counter()
    chain = chain_gmnwa(word10(), {1, 2, 3, 4})
    run = find_accepting_run(degeneralize(chain), word10())
    assert run is not None
    assert ["00"] + [q[1] for q in run] == EXPECTED_FLAGS
    rng = random.Random(41)
    checked = 0
    for _ in range(20):
        g = random_mnwa(rng, S2, n_states=4, with_calling=True)
        d = degeneralize(g)
        for w in words8:
            assert mnwa_accepts(d, w) == accepts_by_run_search(g, w)
            checked += 1
    elapsed = time.perf_counter() - t0
    print(
        f"PASS [4] flag trace on the running example is {EXPECTED_FLAGS} and "
        f"degeneralization matches run search for 20 machines over "
        f"{checked} word checks ({elapsed:.1f} s)"
    )


def test_05_canonical_runs_certify_spheres(words8):
    t0 = time.perf_counter()
    checked = 0
    for r in (0, 1, 2):
        for w in words8:
            run = canonical_run(w, r)
            assert br_run_verify(w, r, run)
            for i in w.positions():
                assert eta(run[i - 1]).key == sphere_key(w, i, r)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0
    print(
        f"PASS [5] canonical runs verify and reproduce every sphere for "
        f"{checked} word/radius pairs at radii 0..2 ({elapsed:.1f} s)"
    )


def test_06_run_discipline_rejects_forgeries(words8):
    t0 = time.perf_counter()
    r = 1
    rng = random.Random(613)
    sample = rng.sample([w for w in words8 if len(w) >= 2], 160)
    runs = [(w, canonical_run(w, r)) for w in sample]
    pool = {}
    for _, run in runs:
        for s in run:
            pool.setdefault(s.key, s)
    by_core = {}
    for s in pool.values():
        by_core.setdefault(eta(s).key, []).append(s)
    cores = sorted(by_core)
    rejected = 0
    attempts = 0
    while attempts < 1000:
        w, run = runs[rng.randrange(len(runs))]
        j = rng.randrange(len(run))
        own = eta(run[j]).key
        other = cores[rng.randrange(len(cores))]
        if other == own:
            continue
        forged = list(run)
        forged[j] = by_core[other][rng.randrange(len(by_core[other]))]
        attempts += 1
        if not br_run_verify(w, r, forged):
            rejected += 1
    assert rejected == 1000

    # exhaustive run search over a cross-word state pool, short words only
    small = [w for w in words8 if len(w) <= 4]
    universe = {}
    for w in small:
        for s in canonical_run(w, r):
            universe.setdefault(s.key, s)
    by_label = {}
    for s in universe.values():
        by_label.setdefault(s.label, []).append(s)
    explored = 0
    found_for = 0
    accepting_runs = 0
    cap = 8_000_000  # full tree measured at 3.87M nodes
    for w in small:
        n = len(w)
        labels = w.labels
        mu_inv = w.mu_inv
        hits = 0

        def extend(seq):
            nonlocal explored, hits
            i = len(seq) + 1
            prev = seq[-1] if seq else EMPTY_STATE
            call = mu_inv.get(i)
            matched = seq[call - 1] if call is not None else None
            for cand in by_label.get(labels[i - 1], ()):
                explored += 1
                assert explored <= cap
                if not delta_allows(prev, matched, labels[i - 1], cand):
                    continue
                seq.append(cand)
                if i == n:
                    if br_run_verify(w, r, seq):
                        hits += 1
                        for k in w.positions():
                            assert eta(seq[k - 1]).key == sphere_key(w, k, r)
                else:
                    extend(seq)
                seq.pop()

        extend([])
        accepting_runs += hits
        if hits:
            found_for += 1
    assert found_for == len(small)
    assert accepting_runs == len(small)
    elapsed = time.perf_counter() - t0
    print(
        f"PASS [6] {rejected}/1000 cross-word forgeries rejected; exhaustive "
        f"search over {len(universe)} pooled states ({explored} nodes) found "
        f"{accepting_runs} accepting runs on {found_for} short words, every "
        f"one reproducing the sphere sequence ({elapsed:.1f} s)"
    )


def test_07_overlap_degree_and_color_bounds():
    t0 = time.perf_counter()
    bound = {r: 4 * max_size_bound(r) ** 2 for r in (0, 1, 2)}
    worst_deg = {0: 0, 1: 0, 2: 0}
    worst_col = {0: 0, 1: 0, 2: 0}
    count = 0
    for tokens in iter_token_tuples(S2, 10):
        w = nested(S2, tokens)
        for r in (0, 1, 2):
            col = chi_coloring(w, r)
            assert col.max_degree <= bound[r]
            assert col.num_colors <= bound[r] + 1
            if col.max_degree > worst_deg[r]:
                worst_deg[r] = col.max_degree
            if col.num_colors > worst_col[r]:
                worst_col[r] = col.num_colors
        count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0
    print(
        f"PASS [7] overlap coloring on {count} words to length 10: worst "
        f"degree/colors {worst_deg[0]}/{worst_col[0]} (bound {bound[0]}/"
        f"{bound[0] + 1}) at radius 0, {worst_deg[1]}/{worst_col[1]} (bound "
        f"{bound[1]}/{bound[1] + 1}) at radius 1, {worst_deg[2]}/"
        f"{worst_col[2]} (bound {bound[2]}/{bound[2] + 1}) at radius 2 "
        f"({elapsed:.1f} s)"
    )


def test_08_counting_constraints(words8):
    t0 = time.perf_counter()
    a_single = sphere(nested(S2, ("a",)), 1, 0)
    f1 = CountGt(a_single, 0)
    f2 = CountEq(a_single, 0)
    c1 = compile_constraint(f1, 0)
    c2 = compile_constraint(f2, 0)
    checked12 = 0
    for w in words8:
        assert c1.accepts(w) == constraint_holds(w, f1)
        assert c2.accepts(w) == constraint_holds(w, f2)
        checked12 += 1
    target = sphere(word16(), 10, 2)
    assert sphere_count(word16(), target, 2) == 2
    f3 = CountEq(target, 2)
    c3 = compile_constraint(f3, 2)
    assert c3.accepts(word16())
    checked3 = 0
    for tokens in iter_token_tuples(S2C, 8):
        w = nested(S2C, tokens)
        assert c3.accepts(w) == constraint_holds(w, f3)
        checked3 += 1
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0
    print(
        f"PASS [8] compiled counting constraints agree with direct sphere "
        f"counting on {checked12} two-stack words (radius 0) and {checked3} "
        f"internal-symbol words (radius 2 embedded-sphere fixture) "
        f"({elapsed:.1f} s)"
    )


FROZEN_CHECKS = {
    (1, 1): 25, (1, 2): 77, (1, 3): 157, (1, 4): 265,
    (2, 1): 77, (2, 2): 265, (2, 3): 565, (2, 4): 977,
    (3, 1): 157, (3, 2): 565, (3, 3): 1225, (3, 4): 2137,
}


def test_09_grid_reduction():
    t0 = time.perf_counter()
    assert list(encode(3, 4).word.labels) == GRID34.split()
    for (n, m), expected in sorted(FROZEN_CHECKS.items()):
        report = verify_reduction(n, m)
        assert report.ok, (n, m, report.failure)
        assert report.checked == expected
    mutants = 0
    for n in range(1, 5):
        for m in range(1, 5):
            enc = encode(n, m)
            assert image_membership(enc.word)
            base = list(enc.word.labels)
            for i in range(len(base)):
                for sym in GRID_ALPHABET.symbols:
                    if sym == base[i]:
                        continue
                    mutated = nested(GRID_ALPHABET, base[:i] + [sym] + base[i + 1 :])
                    assert not image_membership(mutated)
                    mutants += 1
    assert mutants == 600
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(
        f"PASS [9] grid words check out: 3x4 encoding exact, atom-level "
        f"verification over {len(FROZEN_CHECKS)} grids with pinned check "
        f"counts, 16 encodings accepted and all {mutants} single-symbol "
        f"mutations rejected ({elapsed:.1f} s)"
    )


def test_10_circular_direction_strings():
    t0 = time.perf_counter()
    for fix in (CIRC1, CIRC2):
        witness = circular_witness(fix, 12)
        assert witness is not None
        word, start = witness
        assert path_exists(word, fix, start, distinct=True) == {start}
    assert not is_circular(NONCIRC, 20)
    census = []
    for length in range(1, 5):
        for w in itertools.product(DIRECTIONS, repeat=length):
            if is_circular(w, 12):
                census.append(w)
    assert len(census) == 90
    for w in census:
        assert not is_circular(w + w, 2 * (2 * len(w)) + 4)
    example = ("bwd", "back1", "fwd", "jump2", "fwd", "back1", "fwd", "back2")
    assert f_map(example) == (
        "bwd2", "bwd2", "ccw", "fwd2", "fwd2", "bwd2", "ccw", "cw",
    )
    elapsed = time.perf_counter() - t0
    print(
        f"PASS [10] circularity: both fixtures witnessed, {len(census)}/1554 "
        f"direction strings to length 4 circular at bound 12, no doubled "
        f"string stays circular, rewrite map exact ({elapsed:.1f} s)"
    )
