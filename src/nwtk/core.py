"""Call-return alphabets and the nested words they induce.

A K-stack call-return alphabet partitions its symbols into K call/return
pairs of sets plus a set of internal symbols.  A word over such an alphabet
determines, per stack, a unique matching between calls and returns; the word
together with that matching is a nested word.  Positions are 1-based in every
public interface.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import MappingProxyType

from .errors import (
    DuplicateSymbol,
    EmptyAlphabet,
    EmptyWord,
    InvalidAlphabet,
    PositionOutOfRange,
    UnknownSymbol,
)

CALL = "call"
RETURN = "return"
INTERNAL = "internal"


def _immutable(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of a value fixed at construction."""
    raise AttributeError(f"{type(self).__name__} is immutable")


def _slot_setters(cls) -> tuple:
    """The setters of ``cls``'s slots, in slot order.  A value type refuses
    assignment through ``_immutable``; its constructor stores each field
    through the slot's own setter, bound once at module level: a direct
    store, without the attribute lookup of a generic assignment."""
    return tuple(cls.__dict__[name].__set__ for name in cls.__slots__)


@dataclass(frozen=True)
class SymbolClass:
    """Role of a symbol: call/return with a 1-based stack index, or internal."""

    kind: str
    stack: int | None = None


class CallReturnAlphabet:
    """K disjoint call/return symbol pairs plus internal symbols.

    Component order is preserved from construction; it fixes the symbol
    order used by corpus enumeration and serialization.
    """

    __slots__ = ("stacks", "internal", "_class_of", "symbols")

    def __init__(self, stacks, internal=()):
        stacks = tuple((tuple(c), tuple(r)) for c, r in stacks)
        internal = tuple(internal)
        if not stacks:
            raise EmptyAlphabet("at least one call/return stack is required")
        class_of: dict[str, SymbolClass] = {}
        order: list[str] = []

        def add(sym, cls):
            if not isinstance(sym, str) or not sym:
                raise UnknownSymbol(f"symbols must be non-empty strings, got {sym!r}")
            if sym in class_of:
                raise DuplicateSymbol(f"symbol {sym!r} occurs twice")
            class_of[sym] = cls
            order.append(sym)

        for s, (calls, returns) in enumerate(stacks, start=1):
            for sym in calls:
                add(sym, SymbolClass(CALL, s))
            for sym in returns:
                add(sym, SymbolClass(RETURN, s))
        for sym in internal:
            add(sym, SymbolClass(INTERNAL))
        _CallReturnAlphabet_stacks(self, stacks)
        _CallReturnAlphabet_internal(self, internal)
        _CallReturnAlphabet_class_of(self, class_of)
        _CallReturnAlphabet_symbols(self, tuple(order))

    __setattr__ = __delattr__ = _immutable

    @property
    def k(self) -> int:
        return len(self.stacks)

    def classify(self, symbol: str) -> SymbolClass:
        try:
            return self._class_of[symbol]
        except KeyError:
            raise UnknownSymbol(f"symbol {symbol!r} is not in the alphabet") from None

    def __contains__(self, symbol) -> bool:
        return symbol in self._class_of

    def calls(self, stack=None):
        if stack is None:
            return tuple(s for c, _ in self.stacks for s in c)
        return self.stacks[stack - 1][0]

    def returns(self, stack=None):
        if stack is None:
            return tuple(s for _, r in self.stacks for s in r)
        return self.stacks[stack - 1][1]

    def __eq__(self, other):
        return (
            isinstance(other, CallReturnAlphabet)
            and self.stacks == other.stacks
            and self.internal == other.internal
        )

    def __hash__(self):
        return hash((self.stacks, self.internal))

    def __repr__(self):
        return f"CallReturnAlphabet(stacks={self.stacks!r}, internal={self.internal!r})"


(_CallReturnAlphabet_stacks, _CallReturnAlphabet_internal, _CallReturnAlphabet_class_of,
 _CallReturnAlphabet_symbols) = _slot_setters(CallReturnAlphabet)


def _list(value, what):
    if not isinstance(value, list):
        raise InvalidAlphabet(f"{what} must be a list")
    return value


def validate_alphabet(raw) -> CallReturnAlphabet:
    """Build an alphabet from the JSON shape {"stacks": [{"calls": [...], "returns": [...]}], "internal": [...]}.

    A value of another shape raises InvalidAlphabet.
    """
    if isinstance(raw, CallReturnAlphabet):
        return raw
    if not isinstance(raw, dict):
        raise InvalidAlphabet("an alphabet must be a JSON object")
    stacks = []
    for entry in _list(raw.get("stacks", []), '"stacks"'):
        if not isinstance(entry, dict) or not {"calls", "returns"} <= entry.keys():
            raise InvalidAlphabet('each stack must be an object with "calls" and "returns"')
        stacks.append((_list(entry["calls"], '"calls"'), _list(entry["returns"], '"returns"')))
    return CallReturnAlphabet(stacks, _list(raw.get("internal", []), '"internal"'))


def alphabet_to_json(alphabet: CallReturnAlphabet) -> dict:
    return {
        "stacks": [
            {"calls": list(c), "returns": list(r)} for c, r in alphabet.stacks
        ],
        "internal": list(alphabet.internal),
    }


class NestedWord:
    """A word with its per-stack call/return matching.

    ``mu`` maps each matched call to its return, ``mu_inv`` the reverse,
    ``stack_of`` gives the stack index of a matched call.  ``pending``
    holds the positions of unmatched calls and returns.

    The three maps are read-only views over private dicts, made afresh on
    each access: the word cannot be changed through them, and it stores no
    view of its own.  ``_word_adj`` and the sphere traversals in ``spheres``
    read the private dicts ``_mu``, ``_mu_inv`` and ``_stack_of`` directly,
    one lookup per visited node without a view in between.
    """

    __slots__ = ("alphabet", "labels", "_mu", "_mu_inv", "_stack_of", "pending")

    def __init__(self, alphabet, labels, mu, stack_of, pending):
        _NestedWord_alphabet(self, alphabet)
        _NestedWord_labels(self, tuple(labels))
        _NestedWord_mu(self, dict(mu))
        _NestedWord_mu_inv(self, {j: i for i, j in mu.items()})
        _NestedWord_stack_of(self, dict(stack_of))
        _NestedWord_pending(self, frozenset(pending))

    __setattr__ = __delattr__ = _immutable

    @property
    def mu(self):
        return MappingProxyType(self._mu)

    @property
    def mu_inv(self):
        return MappingProxyType(self._mu_inv)

    @property
    def stack_of(self):
        return MappingProxyType(self._stack_of)

    def __len__(self):
        return len(self.labels)

    def label(self, i: int) -> str:
        if not 1 <= i <= len(self.labels):
            raise PositionOutOfRange(f"position {i} not in 1..{len(self.labels)}")
        return self.labels[i - 1]

    def positions(self):
        return range(1, len(self.labels) + 1)

    def matches(self):
        """All matched pairs as (call, return, stack), sorted by call."""
        stack_of = self._stack_of
        return sorted((i, j, stack_of[i]) for i, j in self._mu.items())

    # logic-evaluation hooks (see logic.eval)
    def universe(self):
        return range(1, len(self.labels) + 1)

    def has(self, name: str, args) -> bool:
        try:
            if name == "succ":
                i, j = args
                return j == i + 1
            if name == "match":
                i, j = args
                return self._mu.get(i) == j
            if name.startswith("label:"):
                (i,) = args
                return self.labels[i - 1] == name[6:]
        except ValueError:
            raise UnknownSymbol(
                f"nested words have no relation {name!r} on {len(args)} argument(s)"
            ) from None
        raise UnknownSymbol(f"nested words have no relation {name!r}")

    def __eq__(self, other):
        return (
            isinstance(other, NestedWord)
            and self.alphabet == other.alphabet
            and self.labels == other.labels
        )

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"NestedWord({' '.join(self.labels)})"


(_NestedWord_alphabet, _NestedWord_labels, _NestedWord_mu, _NestedWord_mu_inv,
 _NestedWord_stack_of, _NestedWord_pending) = _slot_setters(NestedWord)


def _word_adj(word: NestedWord) -> list:
    """The word's neighbour table for ``_bfs``: slot v holds the
    successor-out, successor-in, matching-out and matching-in neighbour of
    position v, None where that edge is absent; slot 0 is unused."""
    n = len(word.labels)
    mu = word._mu
    mu_inv = word._mu_inv
    return [None] + [
        (v + 1 if v < n else None, v - 1 if v > 1 else None, mu.get(v), mu_inv.get(v))
        for v in range(1, n + 1)
    ]


def _bfs(center, adj, limit: int):
    """Nodes within ``limit`` of ``center`` in visiting order, and their distances.

    ``adj[v]`` holds the four neighbours of v in the order of ``_word_adj``;
    this fixed order makes the visiting order canonical.
    """
    order = [center]
    dist = {center: 0}
    for v in order:  # also reaches the nodes appended below
        d = dist[v] + 1
        if d > limit:
            break
        for u in adj[v]:
            if u is not None and u not in dist:
                dist[u] = d
                order.append(u)
    return order, dist


def nested(alphabet: CallReturnAlphabet, tokens) -> NestedWord:
    """Build the nested word of a token sequence.

    One left-to-right scan per construction: each stack keeps its open
    calls; a return closes the most recent open call of its own stack or
    stays pending when there is none.
    """
    tokens = tuple(tokens)
    if not tokens:
        raise EmptyWord("words must be non-empty")
    classify = alphabet.classify
    open_calls: list[list[int]] = [[] for _ in range(alphabet.k)]
    mu: dict[int, int] = {}
    stack_of: dict[int, int] = {}
    pending: list[int] = []
    for pos, sym in enumerate(tokens, start=1):
        cls = classify(sym)
        if cls.kind == CALL:
            open_calls[cls.stack - 1].append(pos)
        elif cls.kind == RETURN:
            opened = open_calls[cls.stack - 1]
            if opened:
                call = opened.pop()
                mu[call] = pos
                stack_of[call] = cls.stack
            else:
                pending.append(pos)
    for opened in open_calls:
        pending.extend(opened)
    return NestedWord(alphabet, tokens, mu, stack_of, pending)


def string(word: NestedWord) -> tuple[str, ...]:
    """The underlying token sequence of a nested word."""
    return word.labels


def is_well_formed(alphabet: CallReturnAlphabet, tokens, stack: int) -> bool:
    """Whether the projection onto one stack's calls and returns is balanced:
    the word's matching, read off ``nested``, leaves no call or return of
    that stack pending.  The empty sequence is balanced."""
    if not 1 <= stack <= alphabet.k:
        raise PositionOutOfRange(f"stack {stack} not in 1..{alphabet.k}")
    tokens = tuple(tokens)
    if not tokens:
        return True
    word = nested(alphabet, tokens)
    return all(alphabet.classify(tokens[p - 1]).stack != stack for p in word.pending)


def distance(word: NestedWord, i: int, j: int) -> int:
    """Length of a shortest path along successor and matching edges; within
    one word every pair of positions is connected."""
    n = len(word)
    for p in (i, j):
        if not 1 <= p <= n:
            raise PositionOutOfRange(f"position {p} not in 1..{n}")
    return _bfs(i, _word_adj(word), n)[1][j]


def iter_token_tuples(alphabet: CallReturnAlphabet, max_len: int):
    """All token sequences of length 1..max_len in length-lexicographic order.

    Lexicographic order follows the alphabet's component order.
    """
    from itertools import product

    symbols = alphabet.symbols
    for length in range(1, max_len + 1):
        yield from product(symbols, repeat=length)


# ---------------------------------------------------------------------------
# serialization

def parse_word_line(alphabet: CallReturnAlphabet, line: str) -> NestedWord:
    return nested(alphabet, line.split())

def format_word(word: NestedWord) -> str:
    return " ".join(word.labels)


def read_word_file(path, alphabet: CallReturnAlphabet) -> list[NestedWord]:
    """One word per line, whitespace-separated tokens; blank lines ignored."""
    words = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                words.append(parse_word_line(alphabet, line))
    return words


def load_alphabet(path) -> CallReturnAlphabet:
    with open(path, "r", encoding="utf-8") as handle:
        return validate_alphabet(json.load(handle))


def word_to_dot(word: NestedWord, name: str = "word") -> str:
    """Graphviz rendering: solid successor arcs, dashed matching arcs."""
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=circle];"]
    for i in word.positions():
        lines.append(f'  p{i} [label="{i}:{word.label(i)}"];')
    for i in range(1, len(word)):
        lines.append(f"  p{i} -> p{i + 1};")
    for i, j, s in word.matches():
        lines.append(f'  p{i} -> p{j} [style=dashed, label="{s}", constraint=false];')
    lines.append("}")
    return "\n".join(lines)
