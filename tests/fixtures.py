"""Shared alphabets, words, and automata used across the test modules."""

from __future__ import annotations

from types import MappingProxyType

from nwtk.automata import Mnwa, Mvpa
from nwtk.core import CallReturnAlphabet, nested

# the 2-stack call-return alphabet used by most examples
S2 = CallReturnAlphabet(((("a",), ("a~",)), (("b",), ("b~",))))

# same, plus one internal letter
S2C = CallReturnAlphabet(((("a",), ("a~",)), (("b",), ("b~",))), internal=("c",))

# 3-stack variant
S3 = CallReturnAlphabet(
    ((("a",), ("a~",)), (("b",), ("b~",)), (("c",), ("c~",)))
)

# every public field of a Sphere
SPHERE_FIELDS = ("nodes", "labels", "succ", "mu", "center", "radius", "adj", "index_of",
                 "dist", "key")


def sphere_fields(s) -> list:
    """Every public field of a sphere, each read-only view taken as a dict, with
    the visiting order held by index_of and dist."""
    values = [getattr(s, name) for name in SPHERE_FIELDS]
    return [dict(v) if isinstance(v, MappingProxyType) else v for v in values] + [
        list(s.index_of), list(s.dist)]


# the running-example word: (ab)^2 a~^3 b~^3
WORD10 = "a b a b a~ a~ a~ b~ b~ b~"


def word10():
    return nested(S2, WORD10.split())


# word with two nested 2-spheres that are isomorphic (16 tokens, internal c)
WORD16 = "c a b c a b b~ b~ b~ a~ b~ b~ b~ a~ b~ b~"


def word16():
    return nested(S2C, WORD16.split())


# direction strings over the 2-stack direction alphabet
CIRC1 = ("jump1", "fwd", "back2", "fwd")
CIRC2 = ("jump1", "fwd", "jump2", "fwd", "back1", "fwd")
NONCIRC = ("jump1", "fwd", "jump2", "fwd", "back1", "bwd")

# 12-token word whose doubled walk comes back to its start only loosely
WORD12 = "a b a b b~ a b~ a a~ a~ a~ a~"
WALK10 = ("jump1", "bwd", "bwd", "back1", "bwd", "back2", "bwd")


def word12():
    return nested(S2, WORD12.split())

# 3-stack walk with its 12-token word
WORD12_3 = "a c a c c~ b c~ b b~ a~ b~ a~"
WALK12_3 = ("jump1", "bwd", "back2", "bwd", "back3", "bwd")


def word12_3():
    return nested(S3, WORD12_3.split())


# image of the (3,4) grid under the word encoding
GRID34 = (
    "a a a a~ b a~ b a~ b b~ a b~ a b~ a a~ b a~ b a~ b b~ b~ b~"
)


def loop_mvpa() -> Mvpa:
    """Stack machine for L+ with one stack symbol per stack."""
    return Mvpa(
        alphabet=S2,
        states=("q0", "q1", "q2", "q3", "q4"),
        gamma=("$",),
        bottom="#",
        initial=("q0",),
        final=("q0",),
        delta_call=(
            ("q0", "a", "$", "q2"),
            ("q2", "b", "$", "q1"),
            ("q1", "a", "$", "q2"),
            ("q2", "b", "$", "q3"),
        ),
        delta_return=(
            ("q3", "a~", "$", "q3"),
            ("q3", "a~", "#", "q4"),
            ("q4", "b~", "$", "q4"),
            ("q4", "b~", "#", "q0"),
        ),
        delta_internal=(),
    )


def loop_mnwa() -> Mnwa:
    """Structure-based acceptor for the same language."""
    return Mnwa(
        alphabet=S2,
        states=("q0", "q1", "q2", "q3", "q4"),
        initial=("q0",),
        final=("q0",),
        delta1=(
            ("q0", "a", "q2"),
            ("q2", "b", "q1"),
            ("q1", "a", "q2"),
            ("q2", "b", "q3"),
            ("q3", "a~", "q4"),
            ("q4", "b~", "q0"),
        ),
        delta2=(
            ("q2", "q3", "a~", "q3"),
            ("q3", "q4", "b~", "q4"),
            ("q1", "q4", "b~", "q4"),
        ),
        calling=(),
    )


def chain_gmnwa(word, calling_positions) -> Mnwa:
    """Deterministic chain automaton whose unique run visits p1..pn on the
    given word, entering a calling state exactly at the given positions."""
    labels = word.labels
    mu_inv = word.mu_inv
    n = len(labels)
    states = tuple(f"p{i}" for i in range(n + 1))
    delta1 = []
    delta2 = []
    for i in range(1, n + 1):
        a = labels[i - 1]
        call = mu_inv.get(i)
        if call is None:
            delta1.append((f"p{i - 1}", a, f"p{i}"))
        else:
            delta2.append((f"p{call}", f"p{i - 1}", a, f"p{i}"))
    return Mnwa(
        alphabet=word.alphabet,
        states=states,
        initial=("p0",),
        final=(f"p{n}",),
        delta1=delta1,
        delta2=delta2,
        calling=tuple(f"p{i}" for i in sorted(calling_positions)),
    )


def guessing_mvpa() -> Mvpa:
    """Pushes any of four symbols per call and reads none of them back, so
    with every pending call kept on its stack the configurations grow
    fourfold per call; accepts an even number of a-calls."""
    gamma = ("A", "B", "C", "D")
    delta_call = [(q, "b", g, q) for q in ("q0", "q1") for g in gamma]
    delta_call += [("q0", "a", g, "q1") for g in gamma] + [("q1", "a", g, "q0") for g in gamma]
    delta_return = [
        (q, x, g, q) for q in ("q0", "q1") for x in ("a~", "b~") for g in gamma + ("#",)
    ]
    return Mvpa(S2, ("q0", "q1"), gamma, "#", ("q0",), ("q0",), delta_call, delta_return, ())
