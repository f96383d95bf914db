"""The benchmark's four seeded workloads.

Each workload makes its inputs in rounds: ``make_round(i)`` is a pure
function of the seed and ``i``, and a run takes rounds 0 to
``distinct_rounds - 1`` in turn, again and again.  ``run(item, tr)`` is one
timed item; it calls ``nwtk`` only through ``tr.call`` so that a traced run
puts a span around every call.  ``check(item, output, stats, detail)`` runs right after
the item, outside the timed region, and returns a message when the output
disagrees with the reference code (``tests/oracles.py`` and
``reference.py``) or breaks an invariant the paper and the tests fix.
With ``detail`` it also records input properties into ``stats``.
"""

from __future__ import annotations

import ast
import itertools
import json
import os
import random

import oracles
from fixtures import GRID34, S2, S2C, S3, word16
from oracles import (
    accepts_by_run_search,
    declarative_matches,
    eval2,
    random_formula,
    sphere_iso_forced,
)

import reference as ref
from nwtk import automata, circularity, grids, logic, sphere_automaton, spheres
from nwtk.core import nested

# call/return pairs per stack and internal letters, as the generators see them
SPECS = {
    "S2": ((("a", "a~"), ("b", "b~")), ()),
    "S2C": ((("a", "a~"), ("b", "b~")), ("c",)),
    "S3": ((("a", "a~"), ("b", "b~"), ("c", "c~")), ()),
}
ALPHABETS = {"S2": S2, "S2C": S2C, "S3": S3}
CLASSES = {name: ref.classifier(*spec) for name, spec in SPECS.items()}
SYMBOLS = {name: tuple(CLASSES[name]) for name in SPECS}
RADII = (0, 1, 2)


def seeded(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def open_calls(classes, tokens):
    """The most calls open after any prefix, and the calls open at the end."""
    depth: dict = {}
    most = 0
    for a in tokens:
        kind, s = classes[a]
        if kind == ref.CALL:
            depth[s] = depth.get(s, 0) + 1
        elif kind == ref.RETURN and depth.get(s):
            depth[s] -= 1
        most = max(most, sum(depth.values()))
    return most, sum(depth.values())


def bump(stats, key, value=1):
    stats[key] = stats.get(key, 0) + value


def peak(stats, key, value):
    stats[key] = max(stats.get(key, value), value)


def note_length(stats, n):
    hist = stats.setdefault("length_hist", {})
    hist[n] = hist.get(n, 0) + 1


def rows(machine) -> int:
    if isinstance(machine, automata.Mvpa):
        return len(machine.delta_call) + len(machine.delta_return) + len(machine.delta_internal)
    return len(machine.delta1) + len(machine.delta2)


class Workload:
    name = ""
    round_size = 0
    # rounds a traced run replays, and whose input properties are recorded
    trace_rounds = 1
    # round i repeats round i % distinct_rounds, so that each item is timed
    # more than once and a stall in one timing can be told from its cost
    distinct_rounds = 1

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny

    def rng(self, index) -> random.Random:
        return seeded(self.name, self.seed, index)

    def end_round(self, stats) -> list:
        """Failures that only the whole round shows."""
        return []

    def known_defects(self) -> list:
        """Messages for defects of ``nwtk`` that the timed items keep clear
        of, reproduced on a fixed input; empty once they are fixed."""
        return []


# ---------------------------------------------------------------------------


class SphereCorpus(Workload):
    """Per word: matching, sphere keys, coloring, canonical run and its
    verification at radii 0..2, and two compiled counting constraints."""

    name = "sphere-corpus"
    trace_rounds = 4
    distinct_rounds = 5

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.round_size = 6 if tiny else 400
        self.a_single = spheres.sphere(nested(S2, ("a",)), 1, 0)
        self.has_a = logic.compile_constraint(logic.CountGt(self.a_single, 0), 0)
        self.target16 = spheres.sphere(word16(), 10, 2)
        self.count16 = logic.compile_constraint(logic.CountEq(self.target16, 2), 2)
        self.seen = {}

    def make_round(self, index):
        rng = self.rng(index)
        out = []
        for k in range(self.round_size):
            # every round holds the same number of words of each alphabet
            # and length, so the longest words, which set the tail, recur
            alph = ("S2", "S2C")[k % 2]
            n = 4 + k // 2 % 13
            out.append((alph, tuple(rng.choice(SYMBOLS[alph]) for _ in range(n))))
        rng.shuffle(out)
        return out

    def run(self, item, tr):
        alph, tokens = item
        call = tr.call
        w = call("core.nested", nested, ALPHABETS[alph], tokens)
        positions = range(1, len(tokens) + 1)
        per_radius = []
        for r in RADII:
            keys = [call("spheres.sphere_key", spheres.sphere_key, w, i, r) for i in positions]
            col = call("sphere_automaton.chi_coloring", sphere_automaton.chi_coloring, w, r)
            run = call("sphere_automaton.canonical_run", sphere_automaton.canonical_run, w, r)
            ok = call("sphere_automaton.br_run_verify", sphere_automaton.br_run_verify, w, r, run)
            per_radius.append((keys, col, run, ok))
        accepts = "logic.CompiledConstraint.accepts"
        return w, per_radius, call(accepts, self.has_a.accepts, w), call(accepts, self.count16.accepts, w)

    def check(self, item, out, stats, detail):
        alph, tokens = item
        w, per_radius, has_a, count16 = out
        n = len(tokens)
        where = f"{alph} word '{' '.join(tokens)}'"
        matches = declarative_matches(ALPHABETS[alph], tokens)
        if w.matches() != matches:
            return f"{where}: matching differs from the declarative one"
        partner = ref.partner_map(matches)
        classes = CLASSES[alph]
        pending = {
            i for i in range(1, n + 1)
            if classes[tokens[i - 1]][0] != ref.INTERNAL and i not in partner
        }
        if set(w.pending) != pending:
            return f"{where}: pending positions differ"
        note_length(stats, n)
        bump(stats, "positions", n)
        bump(stats, "pending", len(pending))
        rng = seeded(self.seed, "iso", tokens)
        dist = {}
        for r, (keys, col, run, ok) in zip(RADII, per_radius):
            if not ok:
                return f"{where}: br_run_verify rejects the canonical run at r={r}"
            bound = 4 * spheres.max_size_bound(r) ** 2
            if col.max_degree > bound or col.num_colors > bound + 1:
                return f"{where}: coloring exceeds the 4*size^2 bound at r={r}"
            for i in range(1, n + 1):
                if sphere_automaton.eta(run[i - 1]).key != keys[i - 1]:
                    return f"{where}: eta differs from sphere_key at position {i}, r={r}"
            groups: dict = {}
            for i, key in enumerate(keys, start=1):
                groups.setdefault(key, []).append(i)
            for group in groups.values():
                for i, j in itertools.combinations(group, 2):
                    if i not in dist:
                        dist[i] = ref.distances(n, partner, i)
                    near = dist[i].get(j, n) <= 2 * r + 1
                    if near and col.colors[i] == col.colors[j]:
                        return f"{where}: positions {i} and {j} overlap but share a color at r={r}"
            i, j = rng.randint(1, n), rng.randint(1, n)
            same = keys[i - 1] == keys[j - 1]
            if same != sphere_iso_forced(spheres.sphere(w, i, r), spheres.sphere(w, j, r)):
                return f"{where}: key equality of positions {i}, {j} disagrees with isomorphism at r={r}"
            earlier = self.seen.get(keys[i - 1])
            if earlier is not None and not sphere_iso_forced(
                spheres.sphere(earlier[0], earlier[1], r), spheres.sphere(w, i, r)
            ):
                return f"{where}: equal keys across words but no isomorphism at r={r}"
            self.seen[keys[i - 1]] = (w, i)
            if detail:
                stats.setdefault(f"keys_r{r}", set()).update(hash(k) for k in keys)
                bump(stats, f"keys_computed_r{r}", n)
                peak(stats, "colors_max", col.num_colors)
                peak(stats, "degree_max", col.max_degree)
                bump(stats, "members", sum(len(s) for s in run))
        if has_a != ("a" in tokens):
            return f"{where}: single-a constraint verdict {has_a} is wrong"
        target = self.target16
        count = sum(
            1 for i in range(1, n + 1)
            if tokens[i - 1] == target.labels[target.center]
            and sphere_iso_forced(spheres.sphere(w, i, 2), target)
        )
        if count16 != (count == 2):
            return f"{where}: word16 constraint verdict {count16} is wrong"
        return None

    def end_round(self, stats):
        self.seen = {}
        return []


# ---------------------------------------------------------------------------


def guessing_mvpa():
    """Pushes any of four symbols per call, so the configuration set grows
    fourfold per pending call; accepts an even number of a-calls."""
    gamma = ("A", "B", "C", "D")
    delta_call = [(q, "b", g, q) for q in ("q0", "q1") for g in gamma]
    delta_call += [("q0", "a", g, "q1") for g in gamma] + [("q1", "a", g, "q0") for g in gamma]
    delta_return = [
        (q, x, g, q) for q in ("q0", "q1") for x in ("a~", "b~") for g in gamma + ("#",)
    ]
    return automata.Mvpa(S2, ("q0", "q1"), gamma, "#", ("q0",), ("q0",), delta_call, delta_return, ())


def random_mnwa_json(rng, alph, names, n_states, calling=False, min_states=2, dense=False,
                     matched_rows=None) -> dict:
    """A random word automaton as a JSON document, states drawn from ``names``.

    Each (state, letter) has 0-2 successors and each matched-return triple
    a successor with probability 0.4; ``dense`` makes that 1-2 and 0.7, so
    that most runs survive the whole word.  ``matched_rows`` instead fixes
    the number of matched-return rows."""
    classes = CLASSES[alph]
    returns = [x for x, (kind, _) in classes.items() if kind == ref.RETURN]
    states = rng.sample(names, rng.randint(min_states, n_states))
    fewest, matched = (1, 0.7) if dense else (0, 0.4)
    delta1 = []
    delta2 = []
    for q in states:
        for a in classes:
            for _ in range(rng.randint(fewest, 2)):
                delta1.append([q, a, rng.choice(states)])
        if matched_rows is None:
            for a in returns:
                for p in states:
                    if rng.random() < matched:
                        delta2.append([p, q, a, rng.choice(states)])
    if matched_rows is not None:
        triples = [(p, q, a) for q in states for a in returns for p in states]
        delta2 = [[p, q, a, rng.choice(states)] for p, q, a in rng.sample(triples, matched_rows)]
    doc = {
        "kind": "mnwa",
        "alphabet": alphabet_json(alph),
        "states": states,
        "initial": rng.sample(states, rng.randint(1, len(states))),
        "final": rng.sample(states, rng.randint(1, len(states))),
        "delta1": delta1,
        "delta2": delta2,
        "calling": rng.sample(states, rng.randint(1, len(states))) if calling else [],
    }
    return doc


def s3_machine_json(rng, names) -> dict:
    """A generalized machine over S3 with 3 states, one of them calling, and
    9 matched-return rows, 5 of which end in a plain state: ``degeneralize``
    turns those 5 into 5 * 27 * 27 = 3645 rows, the case of ROADMAP item 3.
    With the calling states drawn at random, the surviving rows, and with
    them the cost of the tail items, followed the seed."""
    doc = random_mnwa_json(rng, "S3", names, 3, calling=True, min_states=3, matched_rows=9)
    called = rng.choice(doc["states"])
    plain = [q for q in doc["states"] if q != called]
    doc["calling"] = [called]
    for k, row in enumerate(doc["delta2"]):
        row[3] = rng.choice(plain) if k < 5 else called
    return doc


def random_mvpa_json(rng, alph, names, n_states, dense=False) -> dict:
    """A random stack machine as a JSON document, states drawn from ``names``;
    each (state, letter) has 0-2 transitions, 1-2 when ``dense``."""
    classes = CLASSES[alph]
    states = rng.sample(names, rng.randint(2, n_states))
    gamma = ["A", "B"]
    delta_call, delta_return, delta_internal = [], [], []
    for q in states:
        for a, (kind, _) in classes.items():
            for _ in range(rng.randint(1 if dense else 0, 2)):
                if kind == ref.CALL:
                    delta_call.append([q, a, rng.choice(gamma), rng.choice(states)])
                elif kind == ref.RETURN:
                    delta_return.append([q, a, rng.choice(gamma + ["#"]), rng.choice(states)])
                else:
                    delta_internal.append([q, a, rng.choice(states)])
    return {
        "kind": "mvpa",
        "alphabet": alphabet_json(alph),
        "states": states,
        "initial": rng.sample(states, rng.randint(1, len(states))),
        "final": rng.sample(states, rng.randint(1, len(states))),
        "bottom": "#",
        "gamma": gamma,
        "delta_call": delta_call,
        "delta_return": delta_return,
        "delta_internal": delta_internal,
    }


def alphabet_json(alph) -> dict:
    stacks, internal = SPECS[alph]
    return {
        "stacks": [{"calls": [c], "returns": [r]} for c, r in stacks],
        "internal": list(internal),
    }


def random_tokens(rng, alph, lo, hi, max_open=None, exactly=False):
    """Uniform random tokens; with ``max_open``, redrawn until no prefix
    leaves more than ``max_open`` calls open, or, with ``exactly``, until
    the most calls open at once is ``max_open``."""
    while True:
        tokens = tuple(rng.choice(SYMBOLS[alph]) for _ in range(rng.randint(lo, hi)))
        if max_open is None:
            return tokens
        most = open_calls(CLASSES[alph], tokens)[0]
        if most == max_open or (most < max_open and not exactly):
            return tokens


def mvpa_verdict(machine, alph, tokens) -> bool:
    return ref.mvpa_search(
        CLASSES[alph], len(SPECS[alph][0]), machine.initial, machine.final, machine.bottom,
        machine.delta_call, machine.delta_return, machine.delta_internal, tokens,
    )


class AutomataSimulate(Workload):
    """One membership query per item against machines built in set-up."""

    name = "automata-simulate"
    trace_rounds = 4
    # the guessing machine keeps 4**k configurations while k calls are open
    MAX_OPEN_CALLS = 5
    # one query in this many goes to the guessing machine, which sets the tail
    GUESSING_EVERY = 40
    # later rounds repeat these, so each reference verdict is computed once;
    # 20 rounds hold 1000 guessing queries, enough for the tail to be the
    # same from seed to seed
    distinct_rounds = 20

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.round_size = 12 if tiny else 2000
        rng = seeded(self.name, "machines")  # the same machines for every seed
        names = [f"s{i}" for i in range(6)]
        docs = [random_mnwa_json(rng, "S2", names, 5, dense=True) for _ in range(3)]
        docs += [random_mnwa_json(rng, "S2", names, 4, calling=True, dense=True) for _ in range(3)]
        docs += [random_mvpa_json(rng, "S2", names, 5, dense=True) for _ in range(3)]
        self.machines = [automata.automaton_from_json(d) for d in docs] + [guessing_mvpa()]
        warm = nested(S2, ("a", "a~"))
        for m in self.machines:
            if isinstance(m, automata.Mnwa):
                automata.mnwa_accepts(m, warm)
        self.digest_text = json.dumps(docs, sort_keys=True)
        self.rounds = {}
        self.verdicts = {}

    def make_round(self, index):
        if index not in self.rounds:
            self.rounds[index] = self.generate(index)
        return self.rounds[index]

    def generate(self, index):
        rng = self.rng(index)
        out = []
        random_machines = len(self.machines) - 1
        for k in range(self.round_size):
            if k % self.GUESSING_EVERY == 0:
                # stratified: the guessing queries cycle through 1..5 calls
                # open at most, so each round holds the same mix of 4**k costs
                m = random_machines
                most = 1 + k // self.GUESSING_EVERY % self.MAX_OPEN_CALLS
                tokens = random_tokens(rng, "S2", 6, 14, most, exactly=True)
            else:
                m = k % random_machines
                tokens = random_tokens(rng, "S2", 6, 14, self.MAX_OPEN_CALLS)
            machine = self.machines[m]
            word = nested(S2, tokens) if isinstance(machine, automata.Mnwa) else None
            out.append((m, tokens, word))
        rng.shuffle(out)
        return out

    def run(self, item, tr):
        m, tokens, word = item
        machine = self.machines[m]
        if word is None:
            return tr.call("automata.mvpa_accepts", automata.mvpa_accepts, machine, tokens)
        return tr.call("automata.mnwa_accepts", automata.mnwa_accepts, machine, word)

    def expected(self, item) -> bool:
        m, tokens, word = item
        machine = self.machines[m]
        if word is None:
            return mvpa_verdict(machine, "S2", tokens)
        return accepts_by_run_search(machine, word)

    def check(self, item, out, stats, detail):
        m, tokens, word = item
        note_length(stats, len(tokens))
        bump(stats, "positions", len(tokens))
        most, pending = open_calls(CLASSES["S2"], tokens)
        bump(stats, "pending_calls", pending)
        peak(stats, "open_calls_max", most)
        key = (m, tokens)
        if key not in self.verdicts:
            self.verdicts[key] = self.expected(item)
        if out != self.verdicts[key]:
            return f"machine {m} on '{' '.join(tokens)}': verdict {out} disagrees with the reference"
        if detail and word is None:
            machine = self.machines[m]
            configs = automata.mvpa_initial_configs(machine)
            for a in tokens:
                configs = automata.mvpa_step(machine, configs, a)
                peak(stats, "frontier_peak", len(configs))
                bump(stats, "frontier_sum", len(configs))
        return None


# ---------------------------------------------------------------------------

# state names as user files may write them, including the separators that
# the library's constructions use inside derived state names
STATE_NAMES = ("s0", "s1", "s2", "x", "y", "z", "x&y", "y&z", "p|q", "p.q", "1.x", "q|00")


def product_pair(rng, names):
    """Two random operands for ``product`` and the number of pairs drawn and
    dropped before them.

    ``product`` names the pair (q1, q2) ``f"{q1}&{q2}"``, so with names that
    contain ``&`` two pairs can share one name, such as (x&y, z) and
    (x, y&z), and the intersection merges their states (ROADMAP item 3).
    The timed items hold only pairs whose pair names are distinct;
    ``AutomataConstruct.known_defects`` reproduces the merge in every run.
    """
    dropped = 0
    while True:
        docs = [random_mnwa_json(rng, "S2", names, 4, calling=rng.random() < 0.3)
                for _ in range(2)]
        left, right = docs[0]["states"], docs[1]["states"]
        if len({f"{p}&{q}" for p in left for q in right}) == len(left) * len(right):
            return docs, dropped
        dropped += 1


class AutomataConstruct(Workload):
    """One fresh machine (or pair) per item, read from JSON and taken
    through one construction, serialized, and queried with a cold cache."""

    name = "automata-construct"
    trace_rounds = 10
    distinct_rounds = 30
    # item kinds per round, in the proportions a round holds them
    MIX = (("mvpa", 15), ("mnwa", 15), ("degen-S2", 8), ("degen-S3", 2), ("product", 10))
    QUERIES = 3

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.mix = tuple((kind, 1 if tiny else count) for kind, count in self.MIX)
        self.round_size = sum(count for _, count in self.mix)

    def make_round(self, index):
        rng = self.rng(index)
        names = list(STATE_NAMES)
        out = []
        for kind, count in self.mix:
            for _ in range(count):
                dropped = 0
                if kind == "mvpa":
                    alph, docs = "S2C", [random_mvpa_json(rng, "S2C", names, 5)]
                elif kind == "mnwa":
                    alph, docs = "S2C", [random_mnwa_json(rng, "S2C", names, 5)]
                elif kind == "degen-S2":
                    alph, docs = "S2", [random_mnwa_json(rng, "S2", names, 4, calling=True)]
                elif kind == "degen-S3":
                    alph, docs = "S3", [s3_machine_json(rng, names)]
                else:
                    alph = "S2"
                    docs, dropped = product_pair(rng, names)
                tokens = [random_tokens(rng, alph, 4, 10) for _ in range(self.QUERIES)]
                words = tuple(nested(ALPHABETS[alph], t) for t in tokens)
                texts = tuple(json.dumps(d) for d in docs)
                out.append((kind, alph, texts, words, dropped))
        rng.shuffle(out)
        return out

    def run(self, item, tr):
        kind, alph, texts, words, _ = item
        call = tr.call
        machines = [call("automata.automaton_from_json", automata.automaton_from_json, t)
                    for t in texts]
        if kind == "mvpa":
            built = [call("automata.mvpa_to_mnwa", automata.mvpa_to_mnwa, machines[0])]
            queried = built
        elif kind == "mnwa":
            built = [call("automata.mnwa_to_mvpa", automata.mnwa_to_mvpa, machines[0])]
            queried = machines
        elif kind.startswith("degen"):
            built = [call("automata.degeneralize", automata.degeneralize, machines[0])]
            queried = machines
        else:
            built = [call("automata.product", automata.product, machines[0], machines[1], mode)
                     for mode in ("intersection", "union")]
            queried = built
        for b in built:
            call("automata.automaton_to_json", automata.automaton_to_json, b)
        verdicts = []
        for b in queried:
            for k, w in enumerate(words):
                tag = "first" if k == 0 else None
                verdicts.append(call("automata.mnwa_accepts", automata.mnwa_accepts, b, w, tag=tag))
        return machines, built, tuple(verdicts)

    def known_defects(self) -> list:
        """The intersection of operands with states {x, x&y} and {y&z, z},
        whose pairs (x, y&z) and (x&y, z) both become ``x&y&z``: each
        operand rejects ``a``, and the merged state makes the intersection
        accept it.  Empty once ``product`` names pairs injectively."""
        def doc(states, initial, final, loop):
            return json.dumps({
                "kind": "mnwa", "alphabet": alphabet_json("S2"), "states": states,
                "initial": [initial], "final": [final], "delta1": [[loop, "a", loop]],
                "delta2": [], "calling": [],
            })

        left = automata.automaton_from_json(doc(["x", "x&y"], "x", "x&y", "x"))
        right = automata.automaton_from_json(doc(["y&z", "z"], "y&z", "z", "y&z"))
        word = nested(S2, ["a"])
        want = accepts_by_run_search(left, word) and accepts_by_run_search(right, word)
        got = automata.mnwa_accepts(automata.product(left, right, "intersection"), word)
        if got == want:
            return []
        return [f"product intersection over S2, states x,x&y / y&z,z: verdict {got} on 'a', "
                f"reference says {want}"]

    def expected(self, item, machines, built) -> tuple:
        kind, alph, texts, words, _ = item
        if kind == "mvpa":
            doc = json.loads(texts[0])
            return tuple(
                ref.mvpa_search(CLASSES[alph], 2, doc["initial"], doc["final"], doc["bottom"],
                                doc["delta_call"], doc["delta_return"], doc["delta_internal"],
                                w.labels)
                for w in words
            )
        if kind == "product":
            left = [accepts_by_run_search(machines[0], w) for w in words]
            right = [accepts_by_run_search(machines[1], w) for w in words]
            return tuple(x and y for x, y in zip(left, right)) + tuple(
                x or y for x, y in zip(left, right)
            )
        return tuple(accepts_by_run_search(machines[0], w) for w in words)

    def check(self, item, out, stats, detail):
        kind, alph, texts, words, dropped = item
        machines, built, verdicts = out
        want = self.expected(item, machines, built)
        states = " / ".join(",".join(sorted(m.states)) for m in machines)
        where = f"{kind} over {alph}, states {states}"
        if verdicts != want:
            for k, (got, exp) in enumerate(zip(verdicts, want)):
                if got != exp:
                    w = words[k % len(words)]
                    return f"{where}: verdict {got} on '{' '.join(w.labels)}', reference says {exp}"
        # the built machine must itself accept the same words
        for w, exp in zip(words, want):
            if kind == "mnwa" and mvpa_verdict(built[0], alph, w.labels) != exp:
                return f"{where}: converted stack machine disagrees on '{' '.join(w.labels)}'"
            if kind.startswith("degen") and accepts_by_run_search(built[0], w) != exp:
                return f"{where}: degeneralized machine disagrees on '{' '.join(w.labels)}'"
        for w in words:
            note_length(stats, len(w))
            bump(stats, "positions", len(w))
            bump(stats, "pending", len(w.pending))
        if kind == "product":
            bump(stats, "product.pairs_dropped", dropped)
        if detail:
            op = {"mvpa": "mvpa_to_mnwa", "mnwa": "mnwa_to_mvpa", "product": "product"}.get(kind, "degeneralize")
            bump(stats, f"{op}.states_in", sum(len(m.states) for m in machines))
            bump(stats, f"{op}.rows_in", sum(rows(m) for m in machines))
            bump(stats, f"{op}.states_out", sum(len(b.states) for b in built))
            bump(stats, f"{op}.rows_out", sum(rows(b) for b in built))
        return None


# ---------------------------------------------------------------------------


def frozen_checks() -> dict:
    """The pinned ``FROZEN_CHECKS`` table of the acceptance tests."""
    path = os.path.join(os.path.dirname(oracles.__file__), "test_acceptance.py")
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "FROZEN_CHECKS":
            return ast.literal_eval(node.value)
    raise LookupError("FROZEN_CHECKS not found in tests/test_acceptance.py")


class LogicSearch(Workload):
    """One grid, grid word, formula or direction string per item."""

    name = "logic-search"
    trace_rounds = 3
    distinct_rounds = 3
    BOUND = 12
    CIRCULAR_UP_TO_4 = 90
    FORMULAS = 100
    # of each round's formulas, this many quantify over sets
    SET_FORMULAS = 10
    LONG_STRINGS = 100

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.frozen = frozen_checks()
        self.grids = sorted(self.frozen)[:2] if tiny else sorted(self.frozen) + [(4, 4), (4, 8)]
        sizes = [(1, 1)] if tiny else [(n, m) for n in range(1, 5) for m in range(1, 5)]
        self.encodings = [("encode", n, m) for n, m in sizes]
        self.mutants = []
        for n, m in sizes:
            base = list(grids.encode(n, m).word.labels)
            for i, old in enumerate(base):
                for sym in SYMBOLS["S2"]:
                    if sym != old:
                        word = nested(grids.GRID_ALPHABET, base[:i] + [sym] + base[i + 1:])
                        self.mutants.append(("mutant", n, m, i, word))
        longest = 2 if tiny else 4
        directions = circularity.DIRECTIONS
        self.short = [
            ("circ", w) for k in range(1, longest + 1) for w in itertools.product(directions, repeat=k)
        ]
        # Two kinds of item set the tail: formulas that quantify over sets,
        # which take 0.02 ms or 1-200 ms on ten positions as their other
        # parts cut the enumeration short or not, and length-5 direction
        # strings.  Drawn per seed, their count in the tail moved it, so they
        # are the same for every seed, like the machines of
        # automata-simulate.  The seed draws the first-order formulas and
        # the order of the items.
        self.set_formulas = 1 if tiny else self.SET_FORMULAS
        self.first_order = (3 if tiny else self.FORMULAS) - self.set_formulas
        long_strings = 3 if tiny else self.LONG_STRINGS
        rng = seeded(self.name, "tail items")
        self.tail_items = []
        for _ in range(self.distinct_rounds):
            part = []
            while len(part) < self.set_formulas:
                f = random_formula(rng, SYMBOLS["S2C"], depth=3)
                if ref.has_set_quantifier(f):
                    part.append(self.formula_item(rng, f, 10))
            part += [("circ", tuple(rng.choice(circularity.DIRECTIONS) for _ in range(5)))
                     for _ in range(long_strings)]
            self.tail_items.append(part)
        self.found_short = 0

    @staticmethod
    def formula_item(rng, f, longest):
        tokens = random_tokens(rng, "S2C", 4, longest)
        return ("formula", ref.formula_text(f), nested(S2C, tokens), f)

    def make_round(self, index):
        rng = self.rng(index)
        out = [("grid", n, m) for n, m in self.grids] + self.encodings + self.mutants
        out += self.tail_items[index % self.distinct_rounds]
        first_order = 0
        while first_order < self.first_order:
            f = random_formula(rng, SYMBOLS["S2C"], depth=3)
            if not ref.has_set_quantifier(f):
                out.append(self.formula_item(rng, f, 14))
                first_order += 1
        out += self.short
        rng.shuffle(out)
        return out

    def run(self, item, tr):
        kind = item[0]
        call = tr.call
        if kind == "grid":
            return call("grids.verify_reduction", grids.verify_reduction, item[1], item[2])
        if kind == "encode":
            enc = call("grids.encode", grids.encode, item[1], item[2])
            return enc, call("grids.image_membership", grids.image_membership, enc.word)
        if kind == "mutant":
            return call("grids.image_membership", grids.image_membership, item[4])
        if kind == "formula":
            f = call("logic.parse_formula", logic.parse_formula, item[1])
            return f, call("logic.eval", logic.eval, item[2], f)
        w = item[1]
        witness = call("circularity.circular_witness", circularity.circular_witness, w, self.BOUND)
        if witness is None:
            return None, False
        word, start = witness
        return witness, call("circularity.path_exists", circularity.path_exists, word, w, start, True) == {start}

    def check(self, item, out, stats, detail):
        kind = item[0]
        if kind == "grid":
            n, m = item[1], item[2]
            if not out.ok:
                return f"grid {n}x{m}: reduction check failed: {out.failure}"
            if (n, m) in self.frozen and out.checked != self.frozen[(n, m)]:
                return f"grid {n}x{m}: {out.checked} checks, pinned {self.frozen[(n, m)]}"
            if detail:
                bump(stats, "checked", out.checked)
            return None
        if kind == "encode":
            n, m = item[1], item[2]
            enc, member = out
            labels = list(enc.word.labels)
            if len(labels) != 2 * n * m or ((n, m) == (3, 4) and labels != GRID34.split()):
                return f"grid {n}x{m}: encoding has the wrong word"
            return None if member else f"grid {n}x{m}: encoding rejected by image_membership"
        if kind == "mutant":
            n, m, i = item[1:4]
            return f"grid {n}x{m} mutated at {i + 1}: accepted" if out else None
        if kind == "formula":
            text, word, f = item[1:]
            parsed, value = out
            note_length(stats, len(word))
            if parsed != f:
                return f"formula {text}: parsed to a different tree"
            if value != eval2(word, f):
                return f"formula {text} on '{' '.join(word.labels)}': eval disagrees with eval2"
            return None
        w = item[1]
        witness, valid = out
        if witness is None:
            return None
        if len(w) <= 4:
            self.found_short += 1
        if detail:
            bump(stats, "found")
        word, start = witness
        partner = ref.partner_map(declarative_matches(circularity.CANONICAL_ALPHABET, word.labels))
        if not (valid and len(word) <= self.BOUND and ref.walk_returns(len(word), partner, w, start)):
            return f"direction string {' '.join(w)}: witness does not close the walk"
        return None

    def end_round(self, stats):
        found, self.found_short = self.found_short, 0
        if not self.tiny and found != self.CIRCULAR_UP_TO_4:
            return [f"{found} direction strings of length <= 4 circular, expected 90"]
        return []


WORKLOADS = {cls.name: cls for cls in (SphereCorpus, AutomataSimulate, AutomataConstruct, LogicSearch)}
