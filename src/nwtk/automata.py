"""Multi-stack visibly pushdown automata and matching-edge word automata.

Two equivalent acceptor families over the same alphabets:

* ``Mvpa``: one stack per call/return pair; calls push, returns pop, and a
  return on an empty stack is a separate transition kind keyed on the
  bottom symbol.
* ``Mnwa``: reads the nested word instead; a matched return consults the
  state reached just after its matching call.  A generalized variant adds
  a set of calling states that must only occur at matched calls.

On a known nesting the two are one acceptor: a matched call saves a value
that its return reads, the pushed symbol of an ``Mvpa`` or the state after
the call of an ``Mnwa``.  Both constructors index their rows into the same
three tables: ``_push[(q, a)]`` holds the pairs (saved value, q2) of a
matched call; ``_step[(q, a)]`` the q2 where no matching edge arrives or
leaves (a pending call pushes nothing, a pending return reads the bottom
symbol, and no calling state is entered); ``_pop[(saved value, q, a)]`` the
q2 of a matched return.  ``_accepts`` is the one whole-word simulation on
them, behind ``mvpa_accepts`` and ``mnwa_accepts``; ``mvpa_step`` and
``mnwa_run_check`` read the same tables.  Nothing goes through a
conversion: the conversions preserve the accepted language and are checked
against this engine, and an independent run search in ``tests/oracles.py``
checks the engine.

A construction names each state it derives by the tuple of what it pairs
(states, flags or stack symbols); ``automaton_to_json`` writes a tuple as a
JSON array, and ``automaton_from_json`` reads an array back as a tuple.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import cache
from itertools import chain, product as iproduct

from .core import (
    CALL,
    INTERNAL,
    RETURN,
    _immutable,
    _slot_setters,
    alphabet_to_json,
    nested,
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
        if not states.issuperset(group):
            raise NwtkError(f"unknown state {next(q for q in group if q not in states)!r}")


def _check_letters(alphabet, letters, kind, message):
    """Raise AlphabetMismatch, formatted from ``message``, at a letter not of ``kind``."""
    for a in letters:
        if alphabet.classify(a).kind != kind:
            raise AlphabetMismatch(message.format(a))


def _columns(rows, width) -> list:
    """The columns of ``rows`` as sets: each distinct value is checked once."""
    return [set(column) for column in zip(*rows)] or [set()] * width


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
        "_push",
        "_step",
        "_pop",
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
        _Mvpa_alphabet(self, alphabet)
        _Mvpa_states(self, frozenset(states))
        _Mvpa_gamma(self, frozenset(gamma))
        _Mvpa_bottom(self, bottom)
        _Mvpa_initial(self, frozenset(initial))
        _Mvpa_final(self, frozenset(final))
        _Mvpa_delta_call(self, frozenset(tuple(t) for t in delta_call))
        _Mvpa_delta_return(self, frozenset(tuple(t) for t in delta_return))
        _Mvpa_delta_internal(self, frozenset(tuple(t) for t in delta_internal))
        if bottom in self.gamma:
            raise NwtkError("the bottom symbol cannot be a pushable stack symbol")
        _check_states(self.states, self.initial, self.final)
        cq, ca, cA, cq2 = _columns(self.delta_call, 4)
        rq, ra, rA, rq2 = _columns(self.delta_return, 4)
        iq, ia, iq2 = _columns(self.delta_internal, 3)
        _check_letters(alphabet, ca, CALL, "{!r} is not a call symbol")
        _check_letters(alphabet, ra, RETURN, "{!r} is not a return symbol")
        _check_letters(alphabet, ia, INTERNAL, "{!r} is not an internal symbol")
        for A in cA - self.gamma:
            raise NwtkError(f"call transitions must push a proper symbol, got {A!r}")
        for A in rA - self.gamma - {bottom}:
            raise NwtkError(f"unknown stack symbol {A!r}")
        _check_states(self.states, cq, cq2, rq, rq2, iq, iq2)
        # a set: call rows that push different symbols share their step
        push, step, pop = defaultdict(list), defaultdict(set), defaultdict(list)
        for q, a, A, q2 in self.delta_call:
            push[q, a].append((A, q2))
            step[q, a].add(q2)
        for q, a, A, q2 in self.delta_return:
            if A == bottom:
                step[q, a].add(q2)
            else:
                pop[A, q, a].append(q2)
        for q, a, q2 in self.delta_internal:
            step[q, a].add(q2)
        _Mvpa_push(self, dict(push))
        _Mvpa_step(self, dict(step))
        _Mvpa_pop(self, dict(pop))

    __setattr__ = __delattr__ = _immutable


(_Mvpa_alphabet, _Mvpa_states, _Mvpa_gamma, _Mvpa_bottom, _Mvpa_initial, _Mvpa_final,
 _Mvpa_delta_call, _Mvpa_delta_return, _Mvpa_delta_internal,
 _Mvpa_push, _Mvpa_step, _Mvpa_pop) = _slot_setters(Mvpa)


def mvpa_initial_configs(a: Mvpa) -> frozenset:
    """Start configurations: an initial state with all stacks empty."""
    empty = ((),) * a.alphabet.k
    return frozenset((q, empty) for q in a.initial)


def mvpa_step(a: Mvpa, configs, symbol: str) -> frozenset:
    """All configurations reachable from ``configs`` by reading one symbol.

    Every call pushes: the next symbols are unknown, so any call may still
    be matched.  A return pops the top symbol, or reads the bottom symbol
    on an empty stack.
    """
    cls = a.alphabet.classify(symbol)
    out = set()
    add = out.add
    if cls.kind == CALL:
        s = cls.stack - 1
        rows = a._push.get
        for q, stacks in configs:
            for A, q2 in rows((q, symbol), ()):
                add((q2, stacks[:s] + ((A,) + stacks[s],) + stacks[s + 1 :]))
    elif cls.kind == RETURN:
        s = cls.stack - 1
        pop = a._pop.get
        step = a._step.get
        for q, stacks in configs:
            st = stacks[s]
            if st:
                for q2 in pop((st[0], q, symbol), ()):
                    add((q2, stacks[:s] + (st[1:],) + stacks[s + 1 :]))
            else:
                for q2 in step((q, symbol), ()):
                    add((q2, stacks))
    else:
        rows = a._step.get
        for q, stacks in configs:
            for q2 in rows((q, symbol), ()):
                add((q2, stacks))
    return frozenset(out)


def mvpa_accepts(a: Mvpa, tokens) -> bool:
    """Whether some run over the token sequence ends in a final state.

    The word's nesting fixes which calls are matched, so the run is
    simulated on it: a matched call saves the symbol it pushes for its
    return, and a pending call pushes nothing, since nothing ever pops it.
    """
    return _accepts(a, nested(a.alphabet, tokens))


class Mnwa:
    """A (generalized) automaton over nested words.

    ``delta1`` rows (q, a, q') apply where no matching edge arrives;
    ``delta2`` rows (p, q, a, q') additionally require that the state
    right after the matching call was p.  States in ``calling`` may only
    be visited at matched calls, so only the ``_push`` table enters them.
    """

    __slots__ = (
        "alphabet",
        "states",
        "initial",
        "final",
        "calling",
        "delta1",
        "delta2",
        "_push",
        "_step",
        "_pop",
    )

    def __init__(self, alphabet, states, initial, final, delta1, delta2, calling=()):
        _Mnwa_alphabet(self, alphabet)
        _Mnwa_states(self, frozenset(states))
        _Mnwa_initial(self, frozenset(initial))
        _Mnwa_final(self, frozenset(final))
        _Mnwa_calling(self, frozenset(calling))
        _Mnwa_delta1(self, frozenset(tuple(t) for t in delta1))
        _Mnwa_delta2(self, frozenset(tuple(t) for t in delta2))
        _check_states(self.states, self.initial, self.final, self.calling)
        sq, sa, sq2 = _columns(self.delta1, 3)
        rp, rq, ra, rq2 = _columns(self.delta2, 4)
        kind = {a: alphabet.classify(a).kind for a in sa}
        _check_letters(
            alphabet, ra, RETURN, "matched-return transitions need return symbols, got {!r}"
        )
        _check_states(self.states, sq, sq2, rp, rq, rq2)
        calling = self.calling
        push, step, pop = defaultdict(list), defaultdict(list), defaultdict(list)
        for q, a, q2 in self.delta1:
            if kind[a] == CALL:
                push[q, a].append((q2, q2))
            if q2 not in calling:
                step[q, a].append(q2)
        for p, q, a, q2 in self.delta2:
            if q2 not in calling:
                pop[p, q, a].append(q2)
        _Mnwa_push(self, dict(push))
        _Mnwa_step(self, dict(step))
        _Mnwa_pop(self, dict(pop))

    __setattr__ = __delattr__ = _immutable


(_Mnwa_alphabet, _Mnwa_states, _Mnwa_initial, _Mnwa_final, _Mnwa_calling,
 _Mnwa_delta1, _Mnwa_delta2, _Mnwa_push, _Mnwa_step, _Mnwa_pop) = _slot_setters(Mnwa)


def mnwa_run_check(b: Mnwa, word, run) -> bool:
    """Whether ``run`` (one state per position) is an accepting run."""
    if word.alphabet != b.alphabet:
        raise AlphabetMismatch("word and automaton alphabets differ")
    run = list(run)
    n = len(word)
    if not n:
        raise EmptyWord("automata accept non-empty words only")
    if len(run) != n:
        raise LengthMismatch(f"run has {len(run)} states for {n} positions")
    mu = word._mu
    mu_inv = word._mu_inv
    for i, (a, q2) in enumerate(zip(word.labels, run), start=1):
        sources = (run[i - 2],) if i > 1 else b.initial
        if i in mu:  # a matched call saves the state it enters
            ok = any((q2, q2) in b._push.get((q, a), ()) for q in sources)
        elif i in mu_inv:
            ok = q2 in b._pop.get((run[mu_inv[i] - 1], run[i - 2], a), ())
        else:
            ok = any(q2 in b._step.get((q, a), ()) for q in sources)
        if not ok:
            return False
    return run[n - 1] in b.final


def _accepts(m, word) -> bool:
    """Whether some run of ``m``, an Mvpa or an Mnwa, on the nested word ends
    in a final state.

    The frontier holds pairs (state, values saved at the currently open
    matched calls, in call order).  The word fixes which slot a matched
    return reads, so it is found once per position.
    """
    labels = word.labels
    if not labels:
        raise EmptyWord("automata accept non-empty words only")
    mu = word._mu
    mu_inv = word._mu_inv
    push = m._push.get
    step = m._step.get
    pop = m._pop.get
    frontier = {(q, ()) for q in m.initial}
    open_calls = []  # the open matched calls, one per slot of the saved tuple
    for i, a in enumerate(labels, start=1):
        if not frontier:
            return False
        out = set()
        add = out.add
        if i in mu:
            open_calls.append(i)
            for q, saved in frontier:
                for value, q2 in push((q, a), ()):
                    add((q2, saved + (value,)))
        elif i in mu_inv:
            slot = open_calls.index(mu_inv[i])
            del open_calls[slot]
            for q, saved in frontier:
                rest = saved[:slot] + saved[slot + 1 :]
                for q2 in pop((saved[slot], q, a), ()):
                    add((q2, rest))
        else:
            for q, saved in frontier:
                for q2 in step((q, a), ()):
                    add((q2, saved))
        frontier = out
    final = m.final
    return any(q in final for q, _ in frontier)


def mnwa_accepts(b: Mnwa, word) -> bool:
    """Whether some run of ``b`` on the nested word ends in a final state."""
    if word.alphabet != b.alphabet:
        raise AlphabetMismatch("word and automaton alphabets differ")
    return _accepts(b, word)


def mvpa_to_mnwa(a: Mvpa) -> Mnwa:
    """Language-preserving conversion; the state (q, A) is q entered by a
    call that pushed A, and (q, bottom) is q that no call entered.

    Only the state after a call is saved for its return, so a row reads from
    (q, A) only where A is the bottom symbol or a letter some call pushes
    into q, a step that is not a call enters (q2, bottom), and a matched
    return that pops B pairs only with the states (p, B) a call enters."""
    bottom = a.bottom
    symbols = (*a.gamma, bottom)
    entered = {q: [bottom] for q in a.states}  # q -> the letters A of a live (q, A)
    saved = {A: [] for A in symbols}  # B -> the live states (p, B) after a call
    for _, _, A2, q2 in a.delta_call:
        if A2 not in entered[q2]:
            entered[q2].append(A2)
            saved[A2].append((q2, A2))
    delta1 = {((q, A), x, (q2, A2)) for q, x, A2, q2 in a.delta_call for A in entered[q]}
    blind = [(q, x, q2) for q, x, q2 in a.delta_internal]
    blind += [(q, x, q2) for q, x, A, q2 in a.delta_return if A == bottom]
    delta1.update(((q, A), x, (q2, bottom)) for q, x, q2 in blind for A in entered[q])
    delta2 = {
        (p, (q, A), x, (q2, bottom))
        for q, x, B, q2 in a.delta_return
        for p in saved[B]
        for A in entered[q]
    }
    return Mnwa(
        a.alphabet,
        [(q, A) for q in a.states for A in symbols],
        [(q, a.bottom) for q in a.initial],
        [(q, A) for q in a.final for A in symbols],
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


_FLAG_AGED = {"0": "0", "1": "2", "2": "2"}


def _flags_after_step(flags: str, raised) -> str:
    """``flags`` after a plain step that raises the flag of stack ``raised``."""
    return "".join("1" if s == raised and c == "0" else _FLAG_AGED[c] for s, c in enumerate(flags))


def _flags_after_return(call_flags: str, flags: str) -> str:
    """``flags`` after a matched return, which clears the flags its call raised."""
    return "".join("0" if c == "1" else v for c, v in zip(call_flags, flags))


def degeneralize(b: Mnwa) -> Mnwa:
    """Remove calling states by tracking one three-valued flag per stack.

    A flag is raised to 1 when a calling state is entered at a call of its
    stack, aged to 2 by any later plain step, and cleared exactly by the
    return matching the raising call.  Accepting flag vectors are all-zero,
    so every visit to a calling state must have been at a matched call.

    The states are the pairs (q, flags) reachable from the initial states
    (q, "0" * k), found by one worklist.  A matched return reads the state
    at its call, which a call of the return's stack entered, so its rows
    pair each state so entered with every state found, in both orders as
    either turns up.  The rows are written once all states are known.
    """
    classify = b.alphabet.classify
    calling = b.calling
    steps: dict = {}  # q -> (a, q2, the stack whose flag is raised, the stack of a call)
    for q, a, q2 in b.delta1:
        cls = classify(a)
        stack = cls.stack - 1 if cls.kind == CALL else None
        if q2 not in calling or stack is not None:
            steps.setdefault(q, []).append((a, q2, stack if q2 in calling else None, stack))
    matched = [(p, q, a, q2, classify(a).stack - 1) for p, q, a, q2 in b.delta2 if q2 not in calling]
    by_call: dict = {}  # (stack, p) -> (q, q2) for the matched-return rows (p, q, a, q2)
    by_last: dict = {}  # q -> (stack, p, q2)
    for p, q, _, q2, stack in matched:
        by_call.setdefault((stack, p), []).append((q, q2))
        by_last.setdefault(q, []).append((stack, p, q2))
    # the flag updates repeat for many rows, so each is computed once per call
    after_step = cache(_flags_after_step)
    after_return = cache(_flags_after_return)
    zero = "0" * b.alphabet.k
    # the item (None, q, flags) is the state (q, flags) found, and the item
    # (stack, q, flags) the same state entered by a call of that stack
    found = {(None, q, zero) for q in b.initial}
    todo = list(found)
    done: dict = {}  # (stack, q) -> flags of the items taken from todo
    while todo:
        stack, q, flags = todo.pop()
        done.setdefault((stack, q), []).append(flags)
        if stack is None:
            reached = []
            for _, q2, raised, call in steps.get(q, ()):
                f = after_step(flags, raised)
                reached.append((None, q2, f))
                if call is not None:
                    reached.append((call, q2, f))
            reached += [
                (None, q2, after_return(f, flags))
                for s, p, q2 in by_last.get(q, ())
                for f in done.get((s, p), ())
            ]
        else:
            reached = [
                (None, q2, after_return(flags, f))
                for last, q2 in by_call.get((stack, q), ())
                for f in done.get((None, last), ())
            ]
        for item in reached:
            if item not in found:
                found.add(item)
                todo.append(item)
    # one tuple per state, shared by all its rows, which makes building,
    # comparing and sorting the rows cheaper than fresh equal tuples
    state = {q: {f: (q, f) for f in flags} for (stack, q), flags in done.items() if stack is None}
    none: dict = {}
    delta1 = [
        (s, a, state[q2][after_step(f, raised)])
        for q, moves in steps.items()
        for f, s in state.get(q, none).items()
        for a, q2, raised, _ in moves
    ]
    delta2 = [
        (state[p][cf], sq, a, state[q2][after_return(cf, f)])
        for p, q, a, q2, stack in matched
        for cf in done.get((stack, p), ())
        for f, sq in state.get(q, none).items()
    ]
    return Mnwa(
        b.alphabet,
        [s for by_flags in state.values() for s in by_flags.values()],
        [state[q][zero] for q in b.initial],
        [state[q][zero] for q in b.final if zero in state.get(q, none)],
        delta1,
        delta2,
    )


def product(b1: Mnwa, b2: Mnwa, mode: str) -> Mnwa:
    """Intersection as a synchronous product on the pairs (q1, q2); union as
    a disjoint sum on the states (1, q1) and (2, q2)."""
    if b1.alphabet != b2.alphabet:
        raise AlphabetMismatch("product needs a common alphabet")
    if mode == "intersection":
        delta1 = {
            ((q1, q2), a, (r1, r2))
            for q1, a, r1 in b1.delta1
            for q2, a2, r2 in b2.delta1
            if a == a2
        }
        delta2 = {
            ((p1, p2), (q1, q2), a, (r1, r2))
            for p1, q1, a, r1 in b1.delta2
            for p2, q2, a2, r2 in b2.delta2
            if a == a2
        }
        return Mnwa(
            b1.alphabet,
            iproduct(b1.states, b2.states),
            iproduct(b1.initial, b2.initial),
            iproduct(b1.final, b2.final),
            delta1,
            delta2,
            [(q1, q2) for q1, q2 in iproduct(b1.states, b2.states)
             if q1 in b1.calling or q2 in b2.calling],
        )
    if mode == "union":
        sides = ((1, b1), (2, b2))
        return Mnwa(
            b1.alphabet,
            [(side, q) for side, b in sides for q in b.states],
            [(side, q) for side, b in sides for q in b.initial],
            [(side, q) for side, b in sides for q in b.final],
            [((side, q), a, (side, r)) for side, b in sides for q, a, r in b.delta1],
            [((side, p), (side, q), a, (side, r)) for side, b in sides for p, q, a, r in b.delta2],
            [(side, q) for side, b in sides for q in b.calling],
        )
    raise NwtkError(f"unknown product mode {mode!r}")


# ---------------------------------------------------------------------------
# serialization

def _sorted(values) -> list:
    """``values`` in their natural order, or ordered by ``repr`` when names
    of different JSON types, which have no common order, are compared."""
    values = list(values)
    try:
        values.sort()
    except TypeError:
        values.sort(key=repr)
    return values


# a name, usable as a state, stack symbol or letter, is a JSON string,
# integer or null, or an array of names, read as a tuple; booleans and
# floats are not names, as True == 1 == 1.0 would merge distinct states
_NAME_TYPES = frozenset({str, int, type(None)})
_NAME = "a name (a string, an integer, null or an array of names)"
_NAMES = "a list of names (strings, integers, nulls or arrays of names)"

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


def automaton_to_json(a) -> dict:
    """``a`` as a JSON document, field by field as ``_JSON_SCHEMA`` lists
    them: a name as it is, a list of names and a list of rows sorted; a
    tuple name is written as an array."""
    for kind, (cls, fields) in _JSON_SCHEMA.items():
        if isinstance(a, cls):
            data = {"kind": kind, "alphabet": alphabet_to_json(a.alphabet)}
            for field, shape in fields.items():
                value = getattr(a, field)
                if shape == _NAMES:
                    value = _sorted(value)
                elif shape != _NAME:
                    value = _sorted(map(list, value))
                data[field] = value
            return data
    raise NwtkError(f"not an automaton: {a!r}")


def _name(value):
    """The name ``value`` with each array made a tuple; TypeError if it is none."""
    if type(value) in _NAME_TYPES:
        return value
    if type(value) in (list, tuple):
        return tuple(map(_name, value))
    raise TypeError(value)


def _read(value, shape):
    """``value`` with each array name made a tuple; TypeError if it lacks ``shape``."""
    if shape == _NAME:
        return _name(value)
    if type(value) is not list:
        raise TypeError(value)
    # lists of plain names are checked at C speed: this is on the path of
    # every automaton read
    if shape == _NAMES:
        return value if _NAME_TYPES.issuperset(map(type, value)) else list(map(_name, value))
    if not ({list}.issuperset(map(type, value)) and {shape}.issuperset(map(len, value))):
        raise TypeError(value)
    if _NAME_TYPES.issuperset(map(type, chain.from_iterable(value))):
        return value
    return [list(map(_name, row)) for row in value]


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
    values = []
    for field, shape in fields.items():
        try:
            values.append(_read(data.get(field, []), shape))
        except TypeError:
            expected = shape if isinstance(shape, str) else f"a list of {shape}-element rows"
            raise NwtkError(f'"{field}" must be {expected}') from None
    return cls(alphabet, *values)


def load_automaton(path):
    with open(path, "r", encoding="utf-8") as handle:
        return automaton_from_json(json.load(handle))
