"""Command-line front end.

One subcommand per area of the library.  Exit codes are uniform across
subcommands: 0 for success or a positive verdict, 1 for a negative verdict
(rejected word, failed property), 2 for usage or input errors.  All reports
are plain key: value lines in a deterministic order.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import click

from . import automata, circularity, core, grids, logic, sphere_automaton, spheres
from .errors import NwtkError

_file = click.Path(exists=True, dir_okay=False)


def _alphabet(path):
    if path is None:
        return circularity.CANONICAL_ALPHABET
    return core.load_alphabet(path)


def _guarded(f):
    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except (NwtkError, OSError, json.JSONDecodeError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except RecursionError:
            # formulas and JSON files are read and evaluated recursively
            click.echo("error: input is nested too deeply", err=True)
            sys.exit(2)

    return wrapper


def _verdicts(words, decide, yes, no):
    """Echo one verdict per word, in order; exit 1 unless every one is ``yes``."""
    all_ok = True
    for word in words:
        ok = decide(word)
        all_ok = all_ok and ok
        click.echo(yes if ok else no)
    if not all_ok:
        sys.exit(1)


def _emit_automaton(machine, out):
    data = automata.automaton_to_json(machine)
    text = json.dumps(data, indent=2, sort_keys=True)
    if out is None:
        click.echo(text)
    else:
        Path(out).write_text(text + "\n", encoding="utf-8")
        click.echo(f"wrote: {out}")


_ALPHABET_OPTION = click.option(
    "--alphabet",
    "alphabet_path",
    type=_file,
    default=None,
    help="Alphabet file; defaults to the two-stack a/a~, b/b~ alphabet.",
)


@click.group()
def main():
    """Nested-word toolkit: matching, automata, spheres, logic, grids."""


@main.command()
@click.argument("word_file", type=_file)
@_ALPHABET_OPTION
@click.option("--dot", is_flag=True, help="Emit Graphviz instead of a report.")
@_guarded
def nest(word_file, alphabet_path, dot):
    """Print the matching structure of each word in WORD_FILE."""
    alphabet = _alphabet(alphabet_path)
    for idx, word in enumerate(core.read_word_file(word_file, alphabet), 1):
        if dot:
            click.echo(core.word_to_dot(word, name=f"word{idx}"))
            continue
        click.echo(f"word: {core.format_word(word)}")
        pairs = " ".join(f"{i}-{j}@{s}" for i, j, s in word.matches())
        click.echo(f"matches: {pairs or 'none'}")
        pending = " ".join(str(p) for p in sorted(word.pending))
        click.echo(f"pending: {pending or 'none'}")


@main.command()
@click.argument("automaton_file", type=_file)
@click.argument("word_file", type=_file)
@_guarded
def simulate(automaton_file, word_file):
    """Run an automaton on each word; exit 0 only if all are accepted."""
    machine = automata.load_automaton(automaton_file)

    def accepts(word):
        if isinstance(machine, automata.Mvpa):
            return automata.mvpa_accepts(machine, word.labels)
        return automata.mnwa_accepts(machine, word)

    _verdicts(core.read_word_file(word_file, machine.alphabet), accepts, "ACCEPT", "REJECT")


@main.command()
@click.argument("automaton_file", type=_file)
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def convert(automaton_file, out):
    """Convert between the stack-configuration and matched-pair forms."""
    machine = automata.load_automaton(automaton_file)
    if isinstance(machine, automata.Mvpa):
        converted = automata.mvpa_to_mnwa(machine)
    else:
        converted = automata.mnwa_to_mvpa(machine)
    _emit_automaton(converted, out)


@main.command()
@click.argument("automaton_file", type=_file)
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def degeneralize(automaton_file, out):
    """Eliminate the calling-state set of a generalized automaton."""
    machine = automata.load_automaton(automaton_file)
    if not isinstance(machine, automata.Mnwa):
        raise NwtkError("degeneralize expects an mnwa file")
    _emit_automaton(automata.degeneralize(machine), out)


@main.command()
@click.argument("left_file", type=_file)
@click.argument("right_file", type=_file)
@click.option("--mode", type=click.Choice(["intersection", "union"]), required=True)
@click.option("-o", "--out", type=click.Path(dir_okay=False), default=None)
@_guarded
def product(left_file, right_file, mode, out):
    """Combine two mnwa files over the same alphabet."""
    left = automata.load_automaton(left_file)
    right = automata.load_automaton(right_file)
    if not (isinstance(left, automata.Mnwa) and isinstance(right, automata.Mnwa)):
        raise NwtkError("product expects two mnwa files")
    _emit_automaton(automata.product(left, right, mode), out)


def _sphere_json_line(s):
    return json.dumps(spheres.sphere_to_json(s), sort_keys=True, separators=(",", ":"))


@main.command("spheres")
@click.option("--radius", type=click.IntRange(min=0), required=True)
@click.option("--max-len", type=click.IntRange(min=1), default=None,
              help="Enumerate spheres of all words up to this length.")
@click.option("--word", "word_file", type=_file, default=None,
              help="Extract one sphere from the first word of this file.")
@click.option("--at", "position", type=int, default=None,
              help="Center position for --word.")
@_ALPHABET_OPTION
@click.option("--dot", is_flag=True, help="Emit Graphviz for the --word sphere.")
@_guarded
def spheres_cmd(radius, max_len, word_file, position, alphabet_path, dot):
    """Enumerate spheres up to a word length, or extract one from a word."""
    alphabet = _alphabet(alphabet_path)
    if word_file is not None:
        if position is None:
            raise click.UsageError("--word needs --at")
        words = core.read_word_file(word_file, alphabet)
        if not words:
            raise NwtkError(f"{word_file} holds no word")
        s = spheres.sphere(words[0], position, radius)
        click.echo(spheres.sphere_to_dot(s) if dot else _sphere_json_line(s))
        return
    if max_len is None:
        raise click.UsageError("need --max-len or --word")
    found = spheres.enumerate_spheres(alphabet, radius, max_len)
    for s in found:
        click.echo(_sphere_json_line(s))
    click.echo(f"count: {len(found)}")


@main.command("sphere-run")
@click.argument("word_file", type=_file)
@click.option("--radius", type=click.IntRange(min=0), required=True)
@_ALPHABET_OPTION
@click.option("--dot", is_flag=True, help="Emit each state's center sphere as Graphviz.")
@_guarded
def sphere_run(word_file, radius, alphabet_path, dot):
    """Emit the canonical sphere run of each word, with a verdict."""
    alphabet = _alphabet(alphabet_path)
    all_ok = True
    for word in core.read_word_file(word_file, alphabet):
        run = sphere_automaton.canonical_run(word, radius)
        for i, state in zip(word.positions(), run):
            if dot:
                center = sphere_automaton.eta(state)
                click.echo(spheres.sphere_to_dot(center, name=f"pos{i}"))
                continue
            click.echo(
                f"position {i}: members={len(state.members)} "
                f"final={str(state.final).lower()} "
                f"calling={str(state.calling).lower()}"
            )
            for member in state.members:
                click.echo(
                    f"  color={member.color} active={member.key[1]} "
                    f"sphere={_sphere_json_line(member.core)}"
                )
        ok = sphere_automaton.br_run_verify(word, radius, run)
        all_ok = all_ok and ok
        click.echo(f"verified: {str(ok).lower()}")
    if not all_ok:
        sys.exit(1)


@main.command("eval")
@click.argument("word_file", type=_file)
@click.argument("formula_file", type=_file)
@_ALPHABET_OPTION
@click.option("--so-limit", type=click.IntRange(min=0), default=logic.DEFAULT_SO_LIMIT,
              help="Largest universe allowed under set quantification.")
@_guarded
def eval_cmd(word_file, formula_file, alphabet_path, so_limit):
    """Evaluate a closed formula on each word; exit 0 only if all hold."""
    alphabet = _alphabet(alphabet_path)
    formula = logic.parse_formula(Path(formula_file).read_text(encoding="utf-8"))
    _verdicts(
        core.read_word_file(word_file, alphabet),
        lambda word: logic.eval(word, formula, so_limit=so_limit),
        "TRUE",
        "FALSE",
    )


@main.command("compile-count")
@click.argument("expr_file", type=_file)
@click.option("--radius", type=click.IntRange(min=0), default=None,
              help="Expected radius; must match the constraint's spheres.")
@click.option("--word", "word_file", type=_file, default=None)
@click.option("--check-against-corpus", "corpus_dir",
              type=click.Path(exists=True, file_okay=False), default=None)
@_ALPHABET_OPTION
@_guarded
def compile_count(expr_file, radius, word_file, corpus_dir, alphabet_path):
    """Compile a sphere-counting constraint, then run or cross-check it."""
    path = Path(expr_file)
    expr, r = logic.parse_constraint(
        path.read_text(encoding="utf-8"), base_dir=path.parent
    )
    if radius is not None and radius != r:
        raise NwtkError(f"constraint radius is {r}, not {radius}")
    compiled = logic.compile_constraint(expr, r)
    alphabet = _alphabet(alphabet_path)
    if (word_file is None) == (corpus_dir is None):
        raise click.UsageError("need exactly one of --word or --check-against-corpus")
    if word_file is not None:
        _verdicts(core.read_word_file(word_file, alphabet), compiled.accepts, "ACCEPT", "REJECT")
        return
    checked = 0
    for file in sorted(Path(corpus_dir).glob("*.txt")):
        for word in core.read_word_file(file, alphabet):
            want = logic.constraint_holds(word, expr)
            got = compiled.accepts(word)
            if want != got:
                click.echo(f"disagree: {file.name} word {core.format_word(word)}")
                sys.exit(1)
            checked += 1
    click.echo(f"checked: {checked}")
    click.echo("agree: true")


@main.group()
def grid():
    """Grid encoding, reduction checking, and image membership."""


@grid.command("encode")
@click.argument("n", type=click.IntRange(min=1))
@click.argument("m", type=click.IntRange(min=1))
@click.option("--dot", is_flag=True)
@_guarded
def grid_encode(n, m, dot):
    """Print the word encoding the (N, M) grid."""
    enc = grids.encode(n, m)
    click.echo(core.word_to_dot(enc.word) if dot else core.format_word(enc.word))


@grid.command("verify")
@click.argument("n", type=click.IntRange(min=1))
@click.argument("m", type=click.IntRange(min=1))
@_guarded
def grid_verify(n, m):
    """Replay the reduction equivalences on the (N, M) grid."""
    report = grids.verify_reduction(n, m)
    click.echo(f"n: {report.n}")
    click.echo(f"m: {report.m}")
    click.echo(f"checked: {report.checked}")
    click.echo(f"ok: {str(report.ok).lower()}")
    if not report.ok:
        for key in sorted(report.failure):
            click.echo(f"{key}: {report.failure[key]}")
        sys.exit(1)


@grid.command("member")
@click.argument("word_file", type=_file)
@_guarded
def grid_member(word_file):
    """Decide whether each word encodes some grid."""
    words = core.read_word_file(word_file, grids.GRID_ALPHABET)
    _verdicts(words, grids.image_membership, "MEMBER", "NOT MEMBER")


@main.command()
@click.argument("dir_file", type=_file)
@click.option("--bound", type=click.IntRange(min=1), required=True)
@_guarded
def circular(dir_file, bound):
    """Bounded circularity check for a direction string."""
    dirs = circularity.parse_directions(Path(dir_file).read_text(encoding="utf-8"))
    witness = circularity.circular_witness(dirs, bound)
    if witness is None:
        click.echo(f"NOT CIRCULAR (bound={bound})")
        sys.exit(1)
    word, position = witness
    click.echo(f"CIRCULAR (bound={bound})")
    click.echo(f"witness: {core.format_word(word)}")
    click.echo(f"position: {position}")


@main.command()
@click.argument("alphabet_file", type=_file)
@click.option("--max-len", type=click.IntRange(min=1), required=True)
@_guarded
def corpus(alphabet_file, max_len):
    """All strings over the alphabet of length 1..MAX_LEN, one per line."""
    alphabet = core.load_alphabet(alphabet_file)
    for tokens in core.iter_token_tuples(alphabet, max_len):
        click.echo(" ".join(tokens))


if __name__ == "__main__":
    main()
