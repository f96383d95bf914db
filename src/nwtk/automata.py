"""Multi-stack visibly pushdown automata and matching-edge word automata.

Two equivalent acceptor families over the same alphabets:

* ``Mvpa``: one stack per call/return pair; calls push, returns pop, and a
  return on an empty stack is a separate transition kind keyed on the
  bottom symbol.
* ``Mnwa``: reads the nested word instead; a matched return consults the
  state reached just after its matching call.  A generalized variant adds
  a set of calling states that must only occur at matched calls.

Conversions preserve the accepted language.  Whole-word acceptance for
both families is one frontier simulation on the word's own nesting, which
the input fixes: ``mnwa_accepts`` saves the state at each open matched call
and hands it to the matching return, and ``mvpa_accepts`` applies the call
rows at pending calls without pushing, since nothing ever pops those
symbols.  Neither goes through a conversion; the constructions are checked
against this engine, and an independent run search in ``tests/oracles.py``
checks the engine.
"""

from __future__ import annotations

import json
from itertools import chain, product as iproduct

from .core import (
    CALL,
    INTERNAL,
    RETURN,
    _immutable,
    alphabet_to_json,
    validate_alphabet,
)
from .errors import (
    AlphabetMismatch,
    CallingStatesPresent,
    EmptyWord,
    LengthMismatch,
    NwtkError,
    UnknownSymbol,
)

__all__ = [
    "Mvpa",
    "Mnwa",
    "mvpa_initial_configs",
    "mvpa_step",
    "mvpa_accepts",
    "mnwa_run_check",
    "mnwa_accepts",
    "mvpa_to_mnwa",
    "mnwa_to_mvpa",
    "degeneralize",
    "product",
    "automaton_to_json",
    "automaton_from_json",
    "load_automaton",
]


def _check_states(states, *groups):
    for group in groups:
        for q in group:
            if q not in states:
                raise NwtkError(f"unknown state {q!r}")


def _escape(q, separator: str) -> str:
    """The name ``q`` with each backslash and ``separator`` escaped by a backslash."""
    return str(q).replace("\\", "\\\\").replace(separator, "\\" + separator)


class Mvpa:
    """A visibly pushdown automaton with one stack per call/return pair."""

    __slots__ = (
        "alphabet",
        "states",
        "gamma",
        "bottom",
        "initial",
        "final",
        "delta_call",
        "delta_return",
        "delta_internal",
        "_call",
        "_ret",
        "_int",
    )

    def __init__(
        self,
        alphabet,
        states,
        gamma,
        bottom,
        initial,
        final,
        delta_call,
        delta_return,
        delta_internal,
    ):
        init = object.__setattr__
        init(self, "alphabet", alphabet)
        init(self, "states", frozenset(states))
        init(self, "gamma", frozenset(gamma))
        init(self, "bottom", bottom)
        init(self, "initial", frozenset(initial))
        init(self, "final", frozenset(final))
        init(self, "delta_call", frozenset(tuple(t) for t in delta_call))
        init(self, "delta_return", frozenset(tuple(t) for t in delta_return))
        init(self, "delta_internal", frozenset(tuple(t) for t in delta_internal))
        if bottom in self.gamma:
            raise NwtkError("the bottom symbol cannot be a pushable stack symbol")
        _check_states(self.states, self.initial, self.final)
        call_idx: dict = {}
        ret_idx: dict = {}
        int_idx: dict = {}
        for q, a, A, q2 in self.delta_call:
            if alphabet.classify(a).kind != CALL:
                raise AlphabetMismatch(f"{a!r} is not a call symbol")
            if A not in self.gamma:
                raise NwtkError(f"call transitions must push a proper symbol, got {A!r}")
            _check_states(self.states, (q, q2))
            call_idx.setdefault((q, a), []).append((A, q2))
        for q, a, A, q2 in self.delta_return:
            if alphabet.classify(a).kind != RETURN:
                raise AlphabetMismatch(f"{a!r} is not a return symbol")
            if A != bottom and A not in self.gamma:
                raise NwtkError(f"unknown stack symbol {A!r}")
            _check_states(self.states, (q, q2))
            ret_idx.setdefault((q, a), []).append((A, q2))
        for q, a, q2 in self.delta_internal:
            if alphabet.classify(a).kind != INTERNAL:
                raise AlphabetMismatch(f"{a!r} is not an internal symbol")
            _check_states(self.states, (q, q2))
            int_idx.setdefault((q, a), []).append(q2)
        init(self, "_call", {k: tuple(v) for k, v in call_idx.items()})
        init(self, "_ret", {k: tuple(v) for k, v in ret_idx.items()})
        init(self, "_int", {k: tuple(v) for k, v in int_idx.items()})

    __setattr__ = __delattr__ = _immutable


def mvpa_initial_configs(a: Mvpa) -> frozenset:
    """Start configurations: an initial state with all stacks empty."""
    empty = ((),) * a.alphabet.k
    return frozenset((q, empty) for q in a.initial)


def _moves(a: Mvpa, configs, symbol: str, cls, push: bool) -> set:
    """Configurations reached from ``configs`` by reading ``symbol`` of class
    ``cls``; a call pushes its stack symbol only when ``push`` is true."""
    out = set()
    add = out.add
    if cls.kind == CALL:
        s = cls.stack - 1
        rows = a._call.get
        for q, stacks in configs:
            for A, q2 in rows((q, symbol), ()):
                add((q2, (stacks[:s] + ((A,) + stacks[s],) + stacks[s + 1 :]) if push else stacks))
    elif cls.kind == RETURN:
        s = cls.stack - 1
        bottom = a.bottom
        rows = a._ret.get
        for q, stacks in configs:
            st = stacks[s]
            for A, q2 in rows((q, symbol), ()):
                if A == bottom:
                    if not st:
                        add((q2, stacks))
                elif st and st[0] == A:
                    add((q2, stacks[:s] + (st[1:],) + stacks[s + 1 :]))
    else:
        rows = a._int.get
        for q, stacks in configs:
            for q2 in rows((q, symbol), ()):
                add((q2, stacks))
    return out


def mvpa_step(a: Mvpa, configs, symbol: str) -> frozenset:
    """All configurations reachable from ``configs`` by reading one symbol.

    Every call pushes: the next symbols are unknown, so any call may still
    be matched.
    """
    return frozenset(_moves(a, configs, symbol, a.alphabet.classify(symbol), True))


def mvpa_accepts(a: Mvpa, tokens) -> bool:
    """Whether some run over the token sequence ends in a final state.

    A pending call, one that no later return matches, pushes nothing: every
    later return on its stack matches a later call, so the symbol it would
    push is never read, and dropping it merges configurations that differ
    only below the part of the stack the rest of the word reads.
    """
    tokens = tuple(tokens)
    if not tokens:
        raise EmptyWord("automata accept non-empty words only")
    classes = [a.alphabet.classify(symbol) for symbol in tokens]
    open_calls = [[] for _ in range(a.alphabet.k)]
    for i, cls in enumerate(classes):
        if cls.kind == CALL:
            open_calls[cls.stack - 1].append(i)
        elif cls.kind == RETURN and open_calls[cls.stack - 1]:
            open_calls[cls.stack - 1].pop()
    pending = set(chain.from_iterable(open_calls))
    configs = mvpa_initial_configs(a)
    for i, (symbol, cls) in enumerate(zip(tokens, classes)):
        if not configs:
            return False
        configs = _moves(a, configs, symbol, cls, i not in pending)
    final = a.final
    return any(q in final for q, _ in configs)


class Mnwa:
    """A (generalized) automaton over nested words.

    ``delta1`` rows (q, a, q') apply where no matching edge arrives;
    ``delta2`` rows (p, q, a, q') additionally require that the state
    right after the matching call was p.  States in ``calling`` may only
    be visited at matched calls.
    """

    __slots__ = (
        "alphabet",
        "states",
        "initial",
        "final",
        "calling",
        "delta1",
        "delta2",
        "_d1",
        "_d2",
    )

    def __init__(self, alphabet, states, initial, final, delta1, delta2, calling=()):
        init = object.__setattr__
        init(self, "alphabet", alphabet)
        init(self, "states", frozenset(states))
        init(self, "initial", frozenset(initial))
        init(self, "final", frozenset(final))
        init(self, "calling", frozenset(calling))
        init(self, "delta1", frozenset(tuple(t) for t in delta1))
        init(self, "delta2", frozenset(tuple(t) for t in delta2))
        _check_states(self.states, self.initial, self.final, self.calling)
        d1: dict = {}
        d2: dict = {}
        for q, a, q2 in self.delta1:
            alphabet.classify(a)
            _check_states(self.states, (q, q2))
            d1.setdefault((q, a), []).append(q2)
        for p, q, a, q2 in self.delta2:
            if alphabet.classify(a).kind != RETURN:
                raise AlphabetMismatch(
                    f"matched-return transitions need return symbols, got {a!r}"
                )
            _check_states(self.states, (p, q, q2))
            d2.setdefault((p, q, a), []).append(q2)
        init(self, "_d1", {k: tuple(v) for k, v in d1.items()})
        init(self, "_d2", {k: tuple(v) for k, v in d2.items()})

    __setattr__ = __delattr__ = _immutable


def mnwa_run_check(b: Mnwa, word, run) -> bool:
    """Whether ``run`` (one state per position) is an accepting run."""
    if word.alphabet != b.alphabet:
        raise AlphabetMismatch("word and automaton alphabets differ")
    run = list(run)
    n = len(word)
    if len(run) != n:
        raise LengthMismatch(f"run has {len(run)} states for {n} positions")
    labels = word.labels
    mu_inv = word.mu_inv
    mu = word.mu
    first = run[0]
    if not any(first in b._d1.get((q, labels[0]), ()) for q in b.initial):
        return False
    for i in range(2, n + 1):
        call = mu_inv.get(i)
        if call is None:
            if run[i - 1] not in b._d1.get((run[i - 2], labels[i - 1]), ()):
                return False
        elif run[i - 1] not in b._d2.get((run[call - 1], run[i - 2], labels[i - 1]), ()):
            return False
    if run[n - 1] not in b.final:
        return False
    calling = b.calling
    if calling:
        for i in range(1, n + 1):
            if run[i - 1] in calling and i not in mu:
                return False
    return True


def mnwa_accepts(b: Mnwa, word) -> bool:
    """Whether some run of ``b`` on the nested word ends in a final state.

    The frontier holds pairs (state, states saved at the currently open
    matched calls, in call order).  The word fixes which slot a matched
    return reads, so it is found once per position.  A state in ``calling``
    may be entered only at a matched call.
    """
    if word.alphabet != b.alphabet:
        raise AlphabetMismatch("word and automaton alphabets differ")
    labels = word.labels
    if not labels:
        raise EmptyWord("automata accept non-empty words only")
    mu = word._mu
    mu_inv = word._mu_inv
    d1 = b._d1.get
    d2 = b._d2.get
    calling = b.calling
    frontier = {(q, ()) for q in b.initial}
    open_calls = []  # the open matched calls, one per slot of the saved tuple
    for i, a in enumerate(labels, start=1):
        if not frontier:
            return False
        out = set()
        add = out.add
        if i in mu:
            open_calls.append(i)
            for q, saved in frontier:
                for q2 in d1((q, a), ()):
                    add((q2, saved + (q2,)))
        elif i in mu_inv:
            slot = open_calls.index(mu_inv[i])
            del open_calls[slot]
            for q, saved in frontier:
                rest = saved[:slot] + saved[slot + 1 :]
                for q2 in d2((saved[slot], q, a), ()):
                    if q2 not in calling:
                        add((q2, rest))
        else:
            for q, saved in frontier:
                for q2 in d1((q, a), ()):
                    if q2 not in calling:
                        add((q2, saved))
        frontier = out
    final = b.final
    return any(q in final for q, _ in frontier)


def mvpa_to_mnwa(a: Mvpa) -> Mnwa:
    """Language-preserving conversion; states remember the last pushed symbol.

    The pair (q, A) is named by joining the two names with ``|`` after
    escaping each name's backslashes and bars with a backslash, so distinct
    pairs get distinct names and names without either character are joined
    unchanged.
    """
    symbols = sorted(a.gamma) + [a.bottom]
    name = {
        (q, A): f"{_escape(q, '|')}|{_escape(A, '|')}" for q in sorted(a.states) for A in symbols
    }
    delta1 = set()
    delta2 = set()
    for q, x, A2, q2 in a.delta_call:
        target = name[q2, A2]
        for A in symbols:
            delta1.add((name[q, A], x, target))
    blind = [(q, x, q2) for q, x, q2 in a.delta_internal]
    blind += [(q, x, q2) for q, x, A, q2 in a.delta_return if A == a.bottom]
    for q, x, q2 in blind:
        for A in symbols:
            for A2 in symbols:
                delta1.add((name[q, A], x, name[q2, A2]))
    for q, x, B, q2 in a.delta_return:
        for p in a.states:
            for A in symbols:
                for A2 in symbols:
                    delta2.add((name[p, B], name[q, A], x, name[q2, A2]))
    return Mnwa(
        a.alphabet,
        name.values(),
        [name[q, a.bottom] for q in a.initial],
        [name[q, A] for q in a.final for A in symbols],
        delta1,
        delta2,
    )


def mnwa_to_mvpa(b: Mnwa) -> Mvpa:
    """Language-preserving conversion; the stacks store target states of calls."""
    if b.calling:
        raise CallingStatesPresent(
            "degeneralize the automaton before converting; calling states "
            "have no stack-machine counterpart"
        )
    bottom = "_"
    while bottom in b.states:
        bottom += "_"
    classify = b.alphabet.classify
    delta_call = set()
    delta_internal = set()
    delta_return = set()
    for q, a, q2 in b.delta1:
        kind = classify(a).kind
        if kind == CALL:
            delta_call.add((q, a, q2, q2))
        elif kind == INTERNAL:
            delta_internal.add((q, a, q2))
        else:
            delta_return.add((q, a, bottom, q2))
    for p, q, a, q2 in b.delta2:
        delta_return.add((q, a, p, q2))
    return Mvpa(
        b.alphabet,
        b.states,
        b.states,
        bottom,
        b.initial,
        b.final,
        delta_call,
        delta_return,
        delta_internal,
    )


_FLAG_NEXT_D1 = {0: "0", 1: "2", 2: "2"}


def degeneralize(b: Mnwa) -> Mnwa:
    """Remove calling states by tracking one three-valued flag per stack.

    A flag is raised to 1 when a calling state is entered at a call of its
    stack, aged to 2 by any later plain step, and cleared exactly by the
    return matching the raising call.  Accepting flag vectors are all-zero,
    so every visit to a calling state must have been at a matched call.
    """
    k = b.alphabet.k
    vectors = ["".join(v) for v in iproduct("012", repeat=k)]
    zero = "0" * k
    classify = b.alphabet.classify
    calling = b.calling
    delta1 = set()
    delta2 = set()
    for q, a, q2 in b.delta1:
        cls = classify(a)
        if q2 in calling and cls.kind != CALL:
            continue
        raised = cls.stack - 1 if (q2 in calling and cls.kind == CALL) else None
        for vec in vectors:
            nxt = "".join(
                "1" if s == raised and c == "0" else _FLAG_NEXT_D1[int(c)]
                for s, c in enumerate(vec)
            )
            delta1.add((f"{q}|{vec}", a, f"{q2}|{nxt}"))
    for p, q, a, q2 in b.delta2:
        if q2 in calling:
            continue
        for cvec in vectors:
            for vec in vectors:
                nxt = "".join(
                    "0" if cv == "1" else v for cv, v in zip(cvec, vec)
                )
                delta2.add((f"{p}|{cvec}", f"{q}|{vec}", a, f"{q2}|{nxt}"))
    states = [f"{q}|{vec}" for q in sorted(b.states) for vec in vectors]
    return Mnwa(
        b.alphabet,
        states,
        [f"{q}|{zero}" for q in b.initial],
        [f"{q}|{zero}" for q in b.final],
        delta1,
        delta2,
    )


def product(b1: Mnwa, b2: Mnwa, mode: str) -> Mnwa:
    """Intersection as a synchronous product, union as a disjoint sum.

    The intersection names the pair (q1, q2) by joining the two names with
    ``&`` after escaping each name's backslashes and ampersands with a
    backslash; distinct pairs of string names thus get distinct names, and
    names without either character are joined unchanged.
    """
    if b1.alphabet != b2.alphabet:
        raise AlphabetMismatch("product needs a common alphabet")
    if mode == "intersection":
        names1 = [(q, _escape(q, "&")) for q in sorted(b1.states)]
        names2 = [(q, _escape(q, "&")) for q in sorted(b2.states)]
        pair = {(q1, q2): f"{e1}&{e2}" for q1, e1 in names1 for q2, e2 in names2}
        states = list(pair.values())
        delta1 = set()
        for (q1, a, r1) in b1.delta1:
            for (q2, a2, r2) in b2.delta1:
                if a == a2:
                    delta1.add((pair[q1, q2], a, pair[r1, r2]))
        delta2 = set()
        for (p1, q1, a, r1) in b1.delta2:
            for (p2, q2, a2, r2) in b2.delta2:
                if a == a2:
                    delta2.add((pair[p1, p2], pair[q1, q2], a, pair[r1, r2]))
        calling = {
            pair[q1, q2]
            for q1 in b1.states
            for q2 in b2.states
            if q1 in b1.calling or q2 in b2.calling
        }
        return Mnwa(
            b1.alphabet,
            states,
            [pair[q1, q2] for q1 in b1.initial for q2 in b2.initial],
            [pair[q1, q2] for q1 in b1.final for q2 in b2.final],
            delta1,
            delta2,
            calling,
        )
    if mode == "union":
        def tag(side, q):
            return f"{side}.{q}"

        states = [tag(1, q) for q in sorted(b1.states)] + [tag(2, q) for q in sorted(b2.states)]
        delta1 = {(tag(1, q), a, tag(1, r)) for q, a, r in b1.delta1} | {
            (tag(2, q), a, tag(2, r)) for q, a, r in b2.delta1
        }
        delta2 = {(tag(1, p), tag(1, q), a, tag(1, r)) for p, q, a, r in b1.delta2} | {
            (tag(2, p), tag(2, q), a, tag(2, r)) for p, q, a, r in b2.delta2
        }
        return Mnwa(
            b1.alphabet,
            states,
            [tag(1, q) for q in b1.initial] + [tag(2, q) for q in b2.initial],
            [tag(1, q) for q in b1.final] + [tag(2, q) for q in b2.final],
            delta1,
            delta2,
            {tag(1, q) for q in b1.calling} | {tag(2, q) for q in b2.calling},
        )
    raise NwtkError(f"unknown product mode {mode!r}")


# ---------------------------------------------------------------------------
# serialization

def automaton_to_json(a) -> dict:
    if isinstance(a, Mvpa):
        return {
            "kind": "mvpa",
            "alphabet": alphabet_to_json(a.alphabet),
            "states": sorted(a.states),
            "initial": sorted(a.initial),
            "final": sorted(a.final),
            "bottom": a.bottom,
            "gamma": sorted(a.gamma),
            "delta_call": sorted(list(t) for t in a.delta_call),
            "delta_return": sorted(list(t) for t in a.delta_return),
            "delta_internal": sorted(list(t) for t in a.delta_internal),
        }
    if isinstance(a, Mnwa):
        return {
            "kind": "mnwa",
            "alphabet": alphabet_to_json(a.alphabet),
            "states": sorted(a.states),
            "initial": sorted(a.initial),
            "final": sorted(a.final),
            "calling": sorted(a.calling),
            "delta1": sorted(list(t) for t in a.delta1),
            "delta2": sorted(list(t) for t in a.delta2),
        }
    raise NwtkError(f"not an automaton: {a!r}")


# a name is a JSON value usable as a state, stack symbol or letter
_NAME_TYPES = frozenset({str, int, float, bool, type(None)})
_NAME = "a name"
_NAMES = "a list of names"

# per kind: the class and its fields after the alphabet, in constructor
# order, each with its shape (a row width for a list of transition rows);
# only "calling" may be absent
_JSON_SCHEMA = {
    "mvpa": (
        Mvpa,
        {
            "states": _NAMES,
            "gamma": _NAMES,
            "bottom": _NAME,
            "initial": _NAMES,
            "final": _NAMES,
            "delta_call": 4,
            "delta_return": 4,
            "delta_internal": 3,
        },
    ),
    "mnwa": (
        Mnwa,
        {
            "states": _NAMES,
            "initial": _NAMES,
            "final": _NAMES,
            "delta1": 3,
            "delta2": 4,
            "calling": _NAMES,
        },
    ),
}


def _has_shape(value, shape) -> bool:
    # type and length checks run over whole lists at C speed: this is on
    # the path of every automaton read
    if shape == _NAME:
        return type(value) in _NAME_TYPES
    if type(value) is not list:
        return False
    if shape == _NAMES:
        return _NAME_TYPES.issuperset(map(type, value))
    return (
        {list}.issuperset(map(type, value))
        and {shape}.issuperset(map(len, value))
        and _NAME_TYPES.issuperset(map(type, chain.from_iterable(value)))
    )


def automaton_from_json(data):
    """Read an automaton as written by ``automaton_to_json``; schema errors raise NwtkError."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise NwtkError("an automaton must be a JSON object")
    kind = data.get("kind")
    if kind not in _JSON_SCHEMA:
        raise NwtkError(f"unknown automaton kind {kind!r}")
    cls, fields = _JSON_SCHEMA[kind]
    missing = ({"alphabet"} | fields.keys()) - {"calling"} - data.keys()
    if missing:
        raise NwtkError(f"{kind} automaton lacks {', '.join(sorted(missing))}")
    alphabet = validate_alphabet(data["alphabet"])
    values = [data.get(field, []) for field in fields]
    for field, shape, value in zip(fields, fields.values(), values):
        if not _has_shape(value, shape):
            expected = shape if isinstance(shape, str) else f"a list of {shape}-element rows"
            raise NwtkError(f'"{field}" must be {expected}')
    return cls(alphabet, *values)


def load_automaton(path):
    with open(path, "r", encoding="utf-8") as handle:
        return automaton_from_json(json.load(handle))
