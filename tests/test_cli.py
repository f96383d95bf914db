"""End-to-end command-line checks, one scenario per subcommand."""

import json
import time

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from nwtk.automata import Mnwa, automaton_to_json, load_automaton
from nwtk.cli import main
from nwtk.core import CallReturnAlphabet, alphabet_to_json, iter_token_tuples, nested
from nwtk.spheres import sphere, sphere_to_json

from fixtures import GRID34, S2, S2C, WORD10, guessing_mvpa, loop_mnwa, loop_mvpa

runner = CliRunner()


@pytest.fixture
def files(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text + "\n", encoding="utf-8")
        return str(path)

    return write


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def assert_input_error(result):
    """Malformed input: exit 2 and a single ``error:`` line, no traceback."""
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.output


class TestNest:
    def test_report(self, files):
        result = runner.invoke(main, ["nest", files("w.txt", WORD10)])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "word: a b a b a~ a~ a~ b~ b~ b~",
            "matches: 1-6@1 2-9@2 3-5@1 4-8@2",
            "pending: 7 10",
        ]

    def test_dot(self, files):
        result = runner.invoke(main, ["nest", "--dot", files("w.txt", "a a~")])
        assert result.exit_code == 0
        assert result.output.startswith("digraph word1 {")

    def test_unknown_symbol(self, files):
        result = runner.invoke(main, ["nest", files("w.txt", "z")])
        assert result.exit_code == 2

    def test_missing_file(self, tmp_path):
        result = runner.invoke(main, ["nest", str(tmp_path / "absent.txt")])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "alphabet",
        [["a"], {"stacks": [{"returns": ["a~"]}]}, {"stacks": {"calls": ["a"]}}],
        ids=["list", "no-calls", "stacks-not-list"],
    )
    def test_malformed_alphabet(self, alphabet, files, tmp_path):
        path = write_json(tmp_path, "alph.json", alphabet)
        result = runner.invoke(main, ["nest", files("w.txt", "a"), "--alphabet", path])
        assert_input_error(result)


class TestSimulate:
    def test_accept(self, files, tmp_path):
        machine = write_json(tmp_path, "m.json", automaton_to_json(loop_mvpa()))
        result = runner.invoke(
            main, ["simulate", machine, files("w.txt", "a b a~ a~ b~ b~")]
        )
        assert result.exit_code == 0
        assert result.output == "ACCEPT\n"

    def test_reject(self, files, tmp_path):
        machine = write_json(tmp_path, "m.json", automaton_to_json(loop_mnwa()))
        result = runner.invoke(
            main, ["simulate", machine, files("w.txt", "a b a~ b~")]
        )
        assert result.exit_code == 1
        assert result.output == "REJECT\n"

    def test_mixed_words(self, files, tmp_path):
        machine = write_json(tmp_path, "m.json", automaton_to_json(loop_mvpa()))
        words = files("w.txt", "a b a~ a~ b~ b~\na a~")
        result = runner.invoke(main, ["simulate", machine, words])
        assert result.exit_code == 1
        assert result.output == "ACCEPT\nREJECT\n"

    GOLDEN_WORDS = (
        "a b a~ b~\na a~ a\nb a b~ a~\na~ b\na b b~\na b a b a b a b\nb a~ a b~ a"
    )

    def test_golden_calling_states(self, files, tmp_path):
        # an a-call must enter the calling state c, so every a must be matched
        qc = ("q", "c")
        delta1 = [["q", "a", "c"], ["c", "a", "c"]]
        delta1 += [[p, x, "q"] for p in qc for x in ("b", "a~", "b~")]
        data = {
            "kind": "mnwa", "alphabet": alphabet_to_json(S2), "states": ["c", "q"],
            "initial": ["q"], "final": ["q"], "calling": ["c"], "delta1": delta1,
            "delta2": [[p, r, x, "q"] for p in qc for r in qc for x in ("a~", "b~")],
        }
        machine = write_json(tmp_path, "m.json", data)
        result = runner.invoke(main, ["simulate", machine, files("w.txt", self.GOLDEN_WORDS)])
        assert result.exit_code == 1
        assert result.output == "ACCEPT\nREJECT\nACCEPT\nACCEPT\nREJECT\nREJECT\nREJECT\n"

    def test_golden_pending_calls(self, files, tmp_path):
        # each call pushes any of four symbols; accepts an even number of a-calls
        data = automaton_to_json(guessing_mvpa())
        machine = write_json(tmp_path, "m.json", data)
        result = runner.invoke(main, ["simulate", machine, files("w.txt", self.GOLDEN_WORDS)])
        assert result.exit_code == 1
        assert result.output == "REJECT\nACCEPT\nREJECT\nACCEPT\nREJECT\nACCEPT\nACCEPT\n"

    @pytest.mark.parametrize(
        "field, value",
        [("alphabet", None), ("states", None), ("delta1", {})],
        ids=["no-alphabet", "no-states", "delta1-not-list"],
    )
    def test_malformed_automaton(self, field, value, files, tmp_path):
        data = automaton_to_json(loop_mnwa())
        if value is None:
            del data[field]
        else:
            data[field] = value
        machine = write_json(tmp_path, "m.json", data)
        result = runner.invoke(main, ["simulate", machine, files("w.txt", "a a~")])
        assert_input_error(result)


    @pytest.mark.parametrize("odd", [True, 1.0], ids=["bool", "float"])
    def test_bool_and_float_names_are_rejected(self, odd, files, tmp_path):
        # True == 1.0 == 1 would merge the two states and accept "a"
        data = {
            "kind": "mnwa", "alphabet": alphabet_to_json(S2), "states": [1, odd],
            "initial": [1], "final": [odd], "delta1": [[1, "a", 1]], "delta2": [],
        }
        machine = write_json(tmp_path, "m.json", data)
        result = runner.invoke(main, ["simulate", machine, files("w.txt", "a")])
        assert_input_error(result)

    def test_deeply_nested_state_name(self, files, tmp_path):
        name = "[" * 995 + '"q"' + "]" * 995
        text = json.dumps(automaton_to_json(loop_mnwa())).replace('"states": [', f'"states": [{name}, ', 1)
        machine = tmp_path / "m.json"
        machine.write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["simulate", str(machine), files("w.txt", "a a~")])
        assert_input_error(result)


class TestConvert:
    def test_mvpa_to_mnwa(self, tmp_path):
        machine = write_json(tmp_path, "m.json", automaton_to_json(loop_mvpa()))
        out = str(tmp_path / "converted.json")
        result = runner.invoke(main, ["convert", machine, "-o", out])
        assert result.exit_code == 0
        assert isinstance(load_automaton(out), Mnwa)

    def test_mnwa_to_mvpa(self, tmp_path):
        machine = write_json(tmp_path, "m.json", automaton_to_json(loop_mnwa()))
        result = runner.invoke(main, ["convert", machine])
        assert result.exit_code == 0
        assert json.loads(result.output)["kind"] == "mvpa"


class TestDegeneralize:
    def test_output_parses(self, tmp_path):
        machine = write_json(tmp_path, "m.json", automaton_to_json(loop_mnwa()))
        result = runner.invoke(main, ["degeneralize", machine])
        assert result.exit_code == 0
        assert json.loads(result.output)["kind"] == "mnwa"

    def test_wrong_kind(self, tmp_path):
        machine = write_json(tmp_path, "m.json", automaton_to_json(loop_mvpa()))
        result = runner.invoke(main, ["degeneralize", machine])
        assert_input_error(result)
        assert result.stderr == "error: degeneralize expects an mnwa file\n"


class TestProduct:
    def test_union(self, tmp_path):
        machine = write_json(tmp_path, "m.json", automaton_to_json(loop_mnwa()))
        result = runner.invoke(
            main, ["product", machine, machine, "--mode", "union"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["kind"] == "mnwa"

    def test_mode_required(self, tmp_path):
        machine = write_json(tmp_path, "m.json", automaton_to_json(loop_mnwa()))
        result = runner.invoke(main, ["product", machine, machine])
        assert result.exit_code == 2

    def test_wrong_kind(self, tmp_path):
        left = write_json(tmp_path, "l.json", automaton_to_json(loop_mnwa()))
        right = write_json(tmp_path, "r.json", automaton_to_json(loop_mvpa()))
        result = runner.invoke(main, ["product", left, right, "--mode", "union"])
        assert_input_error(result)
        assert result.stderr == "error: product expects two mnwa files\n"


def two_state_mnwa(p, q, calling=()):
    """An S2 machine on the states ``p`` and ``q`` that accepts some words of
    length at most 4 and rejects others."""
    return {
        "kind": "mnwa", "alphabet": alphabet_to_json(S2), "states": [p, q],
        "initial": [p], "final": [q], "calling": list(calling),
        "delta1": [[p, "a", q], [q, "a", p], [p, "b", p], [q, "b", q], [p, "a~", p], [q, "b~", p]],
        "delta2": [[q, p, "a~", q], [p, q, "b~", q], [q, q, "a~", p]],
    }


class TestDerivedNames:
    """Names of different JSON types, and derived names written as arrays."""

    @pytest.mark.parametrize(
        "states, calling, commands",
        [
            ([0, 1], (), ["convert"]),
            ([1, "1"], (), ["convert"]),
            ([1, "1"], (1,), ["degeneralize"]),
            ([1, "1"], (1,), ["degeneralize", "degeneralize"]),
            (["p", "q"], (), ["convert", "convert"]),
        ],
        ids=["int-convert", "mixed-convert", "mixed-degeneralize", "degeneralize-twice",
             "convert-twice"],
    )
    def test_output_reloads_with_the_same_verdicts(self, states, calling, commands, files,
                                                   tmp_path):
        machine = write_json(tmp_path, "m.json", two_state_mnwa(*states, calling))
        words = files("w.txt", "\n".join(" ".join(t) for t in iter_token_tuples(S2, 4)))
        want = runner.invoke(main, ["simulate", machine, words])
        assert want.exit_code == 1 and {"ACCEPT", "REJECT"} == set(want.output.split())
        built = machine
        for step, command in enumerate(commands):
            out = str(tmp_path / f"built{step}.json")
            result = runner.invoke(main, [command, built, "-o", out])
            assert result.exit_code == 0, result.output
            built = out
        got = runner.invoke(main, ["simulate", built, words])
        assert (got.exit_code, got.output) == (want.exit_code, want.output)

    def test_derived_states_are_arrays(self, tmp_path):
        machine = write_json(tmp_path, "m.json", two_state_mnwa("p", "q", ("p",)))
        result = runner.invoke(main, ["degeneralize", machine])
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["initial"] == [["p", "00"]]
        assert all(isinstance(q, list) and len(q) == 2 for q in data["states"])


class TestSpheres:
    def test_enumerate(self):
        result = runner.invoke(main, ["spheres", "--radius", "0", "--max-len", "1"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == 5
        assert lines[-1] == "count: 4"

    def test_extract(self, files):
        result = runner.invoke(
            main,
            ["spheres", "--radius", "1", "--word", files("w.txt", WORD10), "--at", "3"],
        )
        assert result.exit_code == 0
        data = json.loads(result.output)
        assert data["radius"] == 1

    def test_extract_dot(self, files):
        result = runner.invoke(
            main,
            ["spheres", "--radius", "0", "--word", files("w.txt", "a"), "--at", "1", "--dot"],
        )
        assert result.exit_code == 0
        assert result.output.startswith("digraph")

    def test_needs_some_mode(self):
        result = runner.invoke(main, ["spheres", "--radius", "1"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("text", ["", " \n\t\n"], ids=["empty", "blank"])
    def test_extract_from_a_file_without_words(self, text, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text(text, encoding="utf-8")
        result = runner.invoke(
            main, ["spheres", "--radius", "1", "--word", str(path), "--at", "1"]
        )
        assert_input_error(result)


class TestSphereRun:
    def test_verified(self, files):
        result = runner.invoke(
            main, ["sphere-run", files("w.txt", "a a~"), "--radius", "1"]
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0].startswith("position 1: members=")
        assert lines[-1] == "verified: true"

    # the canonical active= indices of the running example at radius 1
    WORD10_R1 = (
        'position 1: members=3 final=false calling=true\n'
        '  color=1 active=0 sphere={"center":1,"match":[[1,6,1]],"nodes":[{"id":1,"label":"a"},{"id":2,"label":"b"},{"id":6,"label":"a~"}],"radius":1,"succ":[[1,2]]}\n'
        '  color=1 active=3 sphere={"center":6,"match":[[1,6,1]],"nodes":[{"id":1,"label":"a"},{"id":5,"label":"a~"},{"id":6,"label":"a~"},{"id":7,"label":"a~"}],"radius":1,"succ":[[5,6],[6,7]]}\n'
        '  color=1 active=2 sphere={"center":2,"match":[[2,9,2]],"nodes":[{"id":1,"label":"a"},{"id":2,"label":"b"},{"id":3,"label":"a"},{"id":9,"label":"b~"}],"radius":1,"succ":[[1,2],[2,3]]}\n'
        'position 2: members=4 final=false calling=true\n'
        '  color=1 active=1 sphere={"center":1,"match":[[1,6,1]],"nodes":[{"id":1,"label":"a"},{"id":2,"label":"b"},{"id":6,"label":"a~"}],"radius":1,"succ":[[1,2]]}\n'
        '  color=1 active=2 sphere={"center":3,"match":[[3,5,1]],"nodes":[{"id":2,"label":"b"},{"id":3,"label":"a"},{"id":4,"label":"b"},{"id":5,"label":"a~"}],"radius":1,"succ":[[2,3],[3,4],[4,5]]}\n'
        '  color=1 active=0 sphere={"center":2,"match":[[2,9,2]],"nodes":[{"id":1,"label":"a"},{"id":2,"label":"b"},{"id":3,"label":"a"},{"id":9,"label":"b~"}],"radius":1,"succ":[[1,2],[2,3]]}\n'
        '  color=1 active=3 sphere={"center":9,"match":[[2,9,2]],"nodes":[{"id":2,"label":"b"},{"id":8,"label":"b~"},{"id":9,"label":"b~"},{"id":10,"label":"b~"}],"radius":1,"succ":[[8,9],[9,10]]}\n'
        'position 3: members=4 final=false calling=true\n'
        '  color=1 active=0 sphere={"center":3,"match":[[3,5,1]],"nodes":[{"id":2,"label":"b"},{"id":3,"label":"a"},{"id":4,"label":"b"},{"id":5,"label":"a~"}],"radius":1,"succ":[[2,3],[3,4],[4,5]]}\n'
        '  color=1 active=3 sphere={"center":5,"match":[[3,5,1]],"nodes":[{"id":3,"label":"a"},{"id":4,"label":"b"},{"id":5,"label":"a~"},{"id":6,"label":"a~"}],"radius":1,"succ":[[3,4],[4,5],[5,6]]}\n'
        '  color=1 active=1 sphere={"center":2,"match":[[2,9,2]],"nodes":[{"id":1,"label":"a"},{"id":2,"label":"b"},{"id":3,"label":"a"},{"id":9,"label":"b~"}],"radius":1,"succ":[[1,2],[2,3]]}\n'
        '  color=1 active=2 sphere={"center":4,"match":[[3,5,1],[4,8,2]],"nodes":[{"id":3,"label":"a"},{"id":4,"label":"b"},{"id":5,"label":"a~"},{"id":8,"label":"b~"}],"radius":1,"succ":[[3,4],[4,5]]}\n'
        'position 4: members=4 final=false calling=true\n'
        '  color=1 active=1 sphere={"center":3,"match":[[3,5,1]],"nodes":[{"id":2,"label":"b"},{"id":3,"label":"a"},{"id":4,"label":"b"},{"id":5,"label":"a~"}],"radius":1,"succ":[[2,3],[3,4],[4,5]]}\n'
        '  color=1 active=2 sphere={"center":5,"match":[[3,5,1]],"nodes":[{"id":3,"label":"a"},{"id":4,"label":"b"},{"id":5,"label":"a~"},{"id":6,"label":"a~"}],"radius":1,"succ":[[3,4],[4,5],[5,6]]}\n'
        '  color=1 active=0 sphere={"center":4,"match":[[3,5,1],[4,8,2]],"nodes":[{"id":3,"label":"a"},{"id":4,"label":"b"},{"id":5,"label":"a~"},{"id":8,"label":"b~"}],"radius":1,"succ":[[3,4],[4,5]]}\n'
        '  color=1 active=3 sphere={"center":8,"match":[[4,8,2]],"nodes":[{"id":4,"label":"b"},{"id":7,"label":"a~"},{"id":8,"label":"b~"},{"id":9,"label":"b~"}],"radius":1,"succ":[[7,8],[8,9]]}\n'
        'position 5: members=4 final=false calling=false\n'
        '  color=1 active=3 sphere={"center":3,"match":[[3,5,1]],"nodes":[{"id":2,"label":"b"},{"id":3,"label":"a"},{"id":4,"label":"b"},{"id":5,"label":"a~"}],"radius":1,"succ":[[2,3],[3,4],[4,5]]}\n'
        '  color=1 active=2 sphere={"center":6,"match":[[1,6,1]],"nodes":[{"id":1,"label":"a"},{"id":5,"label":"a~"},{"id":6,"label":"a~"},{"id":7,"label":"a~"}],"radius":1,"succ":[[5,6],[6,7]]}\n'
        '  color=1 active=0 sphere={"center":5,"match":[[3,5,1]],"nodes":[{"id":3,"label":"a"},{"id":4,"label":"b"},{"id":5,"label":"a~"},{"id":6,"label":"a~"}],"radius":1,"succ":[[3,4],[4,5],[5,6]]}\n'
        '  color=1 active=1 sphere={"center":4,"match":[[3,5,1],[4,8,2]],"nodes":[{"id":3,"label":"a"},{"id":4,"label":"b"},{"id":5,"label":"a~"},{"id":8,"label":"b~"}],"radius":1,"succ":[[3,4],[4,5]]}\n'
        'position 6: members=4 final=false calling=false\n'
        '  color=1 active=2 sphere={"center":1,"match":[[1,6,1]],"nodes":[{"id":1,"label":"a"},{"id":2,"label":"b"},{"id":6,"label":"a~"}],"radius":1,"succ":[[1,2]]}\n'
        '  color=1 active=0 sphere={"center":6,"match":[[1,6,1]],"nodes":[{"id":1,"label":"a"},{"id":5,"label":"a~"},{"id":6,"label":"a~"},{"id":7,"label":"a~"}],"radius":1,"succ":[[5,6],[6,7]]}\n'
        '  color=1 active=1 sphere={"center":5,"match":[[3,5,1]],"nodes":[{"id":3,"label":"a"},{"id":4,"label":"b"},{"id":5,"label":"a~"},{"id":6,"label":"a~"}],"radius":1,"succ":[[3,4],[4,5],[5,6]]}\n'
        '  color=1 active=2 sphere={"center":7,"match":[],"nodes":[{"id":6,"label":"a~"},{"id":7,"label":"a~"},{"id":8,"label":"b~"}],"radius":1,"succ":[[6,7],[7,8]]}\n'
        'position 7: members=3 final=false calling=false\n'
        '  color=1 active=1 sphere={"center":6,"match":[[1,6,1]],"nodes":[{"id":1,"label":"a"},{"id":5,"label":"a~"},{"id":6,"label":"a~"},{"id":7,"label":"a~"}],"radius":1,"succ":[[5,6],[6,7]]}\n'
        '  color=1 active=0 sphere={"center":7,"match":[],"nodes":[{"id":6,"label":"a~"},{"id":7,"label":"a~"},{"id":8,"label":"b~"}],"radius":1,"succ":[[6,7],[7,8]]}\n'
        '  color=1 active=2 sphere={"center":8,"match":[[4,8,2]],"nodes":[{"id":4,"label":"b"},{"id":7,"label":"a~"},{"id":8,"label":"b~"},{"id":9,"label":"b~"}],"radius":1,"succ":[[7,8],[8,9]]}\n'
        'position 8: members=4 final=false calling=false\n'
        '  color=1 active=1 sphere={"center":7,"match":[],"nodes":[{"id":6,"label":"a~"},{"id":7,"label":"a~"},{"id":8,"label":"b~"}],"radius":1,"succ":[[6,7],[7,8]]}\n'
        '  color=1 active=3 sphere={"center":4,"match":[[3,5,1],[4,8,2]],"nodes":[{"id":3,"label":"a"},{"id":4,"label":"b"},{"id":5,"label":"a~"},{"id":8,"label":"b~"}],"radius":1,"succ":[[3,4],[4,5]]}\n'
        '  color=1 active=0 sphere={"center":8,"match":[[4,8,2]],"nodes":[{"id":4,"label":"b"},{"id":7,"label":"a~"},{"id":8,"label":"b~"},{"id":9,"label":"b~"}],"radius":1,"succ":[[7,8],[8,9]]}\n'
        '  color=1 active=2 sphere={"center":9,"match":[[2,9,2]],"nodes":[{"id":2,"label":"b"},{"id":8,"label":"b~"},{"id":9,"label":"b~"},{"id":10,"label":"b~"}],"radius":1,"succ":[[8,9],[9,10]]}\n'
        'position 9: members=4 final=false calling=false\n'
        '  color=1 active=3 sphere={"center":2,"match":[[2,9,2]],"nodes":[{"id":1,"label":"a"},{"id":2,"label":"b"},{"id":3,"label":"a"},{"id":9,"label":"b~"}],"radius":1,"succ":[[1,2],[2,3]]}\n'
        '  color=1 active=1 sphere={"center":10,"match":[],"nodes":[{"id":9,"label":"b~"},{"id":10,"label":"b~"}],"radius":1,"succ":[[9,10]]}\n'
        '  color=1 active=1 sphere={"center":8,"match":[[4,8,2]],"nodes":[{"id":4,"label":"b"},{"id":7,"label":"a~"},{"id":8,"label":"b~"},{"id":9,"label":"b~"}],"radius":1,"succ":[[7,8],[8,9]]}\n'
        '  color=1 active=0 sphere={"center":9,"match":[[2,9,2]],"nodes":[{"id":2,"label":"b"},{"id":8,"label":"b~"},{"id":9,"label":"b~"},{"id":10,"label":"b~"}],"radius":1,"succ":[[8,9],[9,10]]}\n'
        'position 10: members=2 final=true calling=false\n'
        '  color=1 active=0 sphere={"center":10,"match":[],"nodes":[{"id":9,"label":"b~"},{"id":10,"label":"b~"}],"radius":1,"succ":[[9,10]]}\n'
        '  color=1 active=1 sphere={"center":9,"match":[[2,9,2]],"nodes":[{"id":2,"label":"b"},{"id":8,"label":"b~"},{"id":9,"label":"b~"},{"id":10,"label":"b~"}],"radius":1,"succ":[[8,9],[9,10]]}\n'
        'verified: true\n'
    )

    def test_golden_running_example(self, files):
        result = runner.invoke(
            main, ["sphere-run", files("w.txt", WORD10), "--radius", "1"]
        )
        assert result.exit_code == 0
        assert result.output == self.WORD10_R1


class TestEval:
    FORMULA = "(forall x (exists y (or (match x y) (match y x))))"

    def test_true(self, files):
        result = runner.invoke(
            main,
            ["eval", files("w.txt", "a a~"), files("f.txt", self.FORMULA)],
        )
        assert result.exit_code == 0
        assert result.output == "TRUE\n"

    def test_false(self, files):
        result = runner.invoke(
            main,
            ["eval", files("w.txt", WORD10), files("f.txt", self.FORMULA)],
        )
        assert result.exit_code == 1
        assert result.output == "FALSE\n"

    @pytest.mark.parametrize(
        "formula",
        ["(exists x (match x))", "(exists x (label:a x x))", "(exists-set X (label X a))",
         "(exists x (exists y (in x y)))", "(forall x (label y a))", "(exists x (foo x))"],
        ids=["match-arity", "label-arity", "set-as-position", "position-as-set", "unbound",
             "unknown-relation"],
    )
    def test_ill_formed_formula(self, formula, files):
        result = runner.invoke(main, ["eval", files("w.txt", "a a~"), files("f.txt", formula)])
        assert_input_error(result)

    def test_deeply_nested_formula(self, files):
        deep = "(not " * 3000 + "(eq x x)" + ")" * 3000
        result = runner.invoke(main, ["eval", files("w.txt", "a a~"), files("f.txt", deep)])
        assert_input_error(result)


FORMULA_SEEDS = (
    TestEval.FORMULA,
    "(exists-set X (forall x (in x X)))",
    "(exists x (exists-set X (or (in x X) (label x b~))))",
    "(exists x (and (label x a) (not (succ x x))))",
)
FORMULA_TOKENS = ("(", ")", "not", "or", "and", "implies", "exists", "forall",
                  "exists-set", "eq", "in", "label", "match", "succ", "x", "y", "X",
                  "a", "b~", "0")
WORD_SEEDS = ("a a~", "a b a~ b~\nb", "a~ b~ a")
WORD_TOKENS = ("a", "a~", "b", "b~", "z", "\n")


@st.composite
def mutated(draw, seeds, pool):
    """A seed's tokens after a few random insertions, deletions and replacements."""
    tokens = draw(st.sampled_from(seeds)).replace("(", " ( ").replace(")", " ) ").split(" ")
    tokens = [t for t in tokens if t]  # keeps the newlines of word seeds as tokens
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(("insert", "delete", "replace")))
        if edit == "insert" or i == len(tokens):
            tokens.insert(i, draw(st.sampled_from(pool)))
        elif edit == "delete":
            del tokens[i]
        else:
            tokens[i] = draw(st.sampled_from(pool))
    return tokens


def balanced(tokens) -> bool:
    depth = 0
    for t in tokens:
        depth += (t == "(") - (t == ")")
        if depth < 0:
            return False
    return depth == 0


@settings(max_examples=300, deadline=None)
@given(formula=mutated(FORMULA_SEEDS, FORMULA_TOKENS), word=mutated(WORD_SEEDS, WORD_TOKENS))
def test_eval_fuzz_keeps_the_exit_code_contract(formula, word, tmp_path_factory):
    root = tmp_path_factory.getbasetemp()
    (root / "fuzz.f").write_text(" ".join(formula), encoding="utf-8")
    (root / "fuzz.txt").write_text(" ".join(word), encoding="utf-8")
    result = runner.invoke(main, ["eval", str(root / "fuzz.txt"), str(root / "fuzz.f")])
    assert_fuzz_contract(result, not balanced(formula) or "z" in word, ("TRUE", "FALSE"))


COUNT_SEEDS = (
    "(count-gt a0.json 0)",
    "(or (count-eq a0.json 1) (count-gt b0.json 0))",
    "(and (count-gt a1.json 0) (or (count-eq b1.json 0) (count-gt a1.json 2)))",
)
COUNT_SPHERES = {  # file: (word, center, radius)
    "a0.json": (("a",), 1, 0),
    "b0.json": (("a", "b"), 2, 0),
    "a1.json": (("a", "a~"), 1, 1),
    "b1.json": (("b", "a", "b~"), 3, 1),
}
# wherever one of these lands in a constraint, it is a missing or non-JSON
# sphere file, a bad threshold, an unknown operator or a bare operand
COUNT_BAD_TOKENS = ("x", "-1", "missing.json", "w.txt")
COUNT_TOKENS = ("(", ")", "and", "or", "count-eq", "count-gt", "0", "2",
                *COUNT_SPHERES, *COUNT_BAD_TOKENS)


@settings(max_examples=300, deadline=None)
@given(expr=mutated(COUNT_SEEDS, COUNT_TOKENS), word=mutated(WORD_SEEDS, WORD_TOKENS))
def test_compile_count_fuzz_keeps_the_exit_code_contract(expr, word, tmp_path_factory):
    root = tmp_path_factory.getbasetemp() / "count-fuzz"
    root.mkdir(exist_ok=True)
    for name, (tokens, center, radius) in COUNT_SPHERES.items():
        write_json(root, name, sphere_to_json(sphere(nested(S2, tokens), center, radius)))
    (root / "c.txt").write_text(" ".join(expr), encoding="utf-8")
    (root / "w.txt").write_text(" ".join(word), encoding="utf-8")
    result = runner.invoke(
        main, ["compile-count", str(root / "c.txt"), "--word", str(root / "w.txt")]
    )
    malformed = not balanced(expr) or "z" in word or not set(COUNT_BAD_TOKENS).isdisjoint(expr)
    assert_fuzz_contract(result, malformed, ("ACCEPT", "REJECT"))


def assert_fuzz_contract(result, malformed, verdicts):
    """Exit 0, 1 or 2 and no traceback; 2 and one error line on malformed
    input, else one of ``verdicts`` (positive, negative) per output line and
    exit 1 exactly when one is negative; ``verdicts=None`` leaves the output
    unchecked."""
    assert "Traceback" not in result.stderr, result.stderr
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 1, 2)
    if malformed:
        assert_input_error(result)
    elif verdicts and result.exit_code != 2:
        got = result.output.splitlines()
        assert set(got) <= set(verdicts)
        assert (verdicts[1] in got) == (result.exit_code == 1)


class TestCompileCount:
    @pytest.fixture
    def expr_file(self, tmp_path):
        write_json(
            tmp_path,
            "s1.json",
            sphere_to_json(sphere(nested(S2, ("a",)), 1, 0)),
        )
        path = tmp_path / "expr.txt"
        path.write_text("(count-gt s1.json 0)\n", encoding="utf-8")
        return str(path)

    def test_accept_reject(self, expr_file, files):
        result = runner.invoke(
            main, ["compile-count", expr_file, "--word", files("w.txt", "a b")]
        )
        assert result.exit_code == 0 and result.output == "ACCEPT\n"
        result = runner.invoke(
            main, ["compile-count", expr_file, "--word", files("w.txt", "b b~")]
        )
        assert result.exit_code == 1 and result.output == "REJECT\n"

    def test_radius_mismatch(self, expr_file, files):
        result = runner.invoke(
            main,
            ["compile-count", expr_file, "--radius", "1",
             "--word", files("w.txt", "a")],
        )
        assert_input_error(result)
        assert result.stderr == "error: constraint radius is 0, not 1\n"

    def test_corpus_cross_check(self, expr_file, tmp_path):
        corp = tmp_path / "corp"
        corp.mkdir()
        (corp / "words.txt").write_text("a\nb a\na b a~\n", encoding="utf-8")
        result = runner.invoke(
            main, ["compile-count", expr_file, "--check-against-corpus", str(corp)]
        )
        assert result.exit_code == 0
        assert result.output.splitlines() == ["checked: 3", "agree: true"]

    def test_exactly_one_input(self, expr_file):
        result = runner.invoke(main, ["compile-count", expr_file])
        assert result.exit_code == 2

    GOOD = {
        "nodes": [{"id": 1, "label": "a"}],
        "succ": [],
        "match": [],
        "center": 1,
        "radius": 0,
    }

    @pytest.mark.parametrize(
        "sphere_data",
        [
            {k: v for k, v in GOOD.items() if k != "radius"},
            [GOOD],
            {**GOOD, "match": [[1]]},
            {**GOOD, "radius": "0"},
            {**GOOD, "nodes": GOOD["nodes"] * 2},
        ],
        ids=[
            "missing-radius",
            "top-level-list",
            "short-match-row",
            "string-radius",
            "duplicate-id",
        ],
    )
    def test_malformed_sphere(self, sphere_data, tmp_path, files):
        write_json(tmp_path, "s.json", sphere_data)
        (tmp_path / "c.txt").write_text("(count-gt s.json 0)\n", encoding="utf-8")
        result = runner.invoke(
            main,
            ["compile-count", str(tmp_path / "c.txt"), "--word", files("w.txt", "a")],
        )
        assert_input_error(result)

    def test_huge_radius(self, tmp_path, files):
        """A radius read from a file is checked against the size bound
        without computing a power of two that large."""
        write_json(tmp_path, "s.json", {**self.GOOD, "radius": 10**9})
        (tmp_path / "c.txt").write_text("(count-gt s.json 0)\n", encoding="utf-8")
        start = time.perf_counter()
        result = runner.invoke(
            main,
            ["compile-count", str(tmp_path / "c.txt"), "--word", files("w.txt", "a")],
        )
        assert time.perf_counter() - start < 2
        assert result.exit_code == 0 and result.output == "ACCEPT\n"


# spheres whose JSON the sphere-file fuzz test edits: (word over S2, center, radius)
SPHERE_SEEDS = (*COUNT_SPHERES.values(), (tuple(WORD10.split()), 1, 1),
                (tuple(WORD10.split()), 5, 2))
ABSENT, STRAY = 1000, 999  # ids no seed sphere uses


def _sphere_rows(draw, data):
    return data[draw(st.sampled_from(("succ", "match")))]


def _duplicate_row(draw, data):
    rows = _sphere_rows(draw, data)
    if rows:
        rows.append(list(draw(st.sampled_from(rows))))
    return bool(rows)


def _absent_endpoint(draw, data):
    rows = _sphere_rows(draw, data)
    if rows:
        draw(st.sampled_from(rows))[draw(st.integers(0, 1))] = ABSENT
    return bool(rows)


def _stack_tag_zero(draw, data):
    rows = data["match"]
    if rows:
        draw(st.sampled_from(rows))[2] = 0
    return bool(rows)


def _absent_center(draw, data):
    data["center"] = ABSENT
    return True


def _negative_radius(draw, data):
    data["radius"] = draw(st.integers(-3, -1))
    return True


def _stray_node(draw, data):
    data["nodes"].append({"id": STRAY, "label": draw(st.sampled_from(("a", "b~")))})
    return True


def _backward_successor(draw, data):
    # written larger id first, not swapped, so a second edit keeps it backward
    rows = data["succ"]
    if rows:
        row = draw(st.sampled_from(rows))
        row.sort(reverse=True)
    return bool(rows)


def _self_loop(draw, data):
    rows = _sphere_rows(draw, data)
    if rows:
        row = draw(st.sampled_from(rows))
        row[1] = row[0]
    return bool(rows)


SPHERE_BREAKS = (_duplicate_row, _absent_endpoint, _stack_tag_zero, _absent_center,
                 _negative_radius, _stray_node, _backward_successor, _self_loop)


@st.composite
def mutated_sphere(draw):
    """A seed sphere's JSON after a few edits, and whether one of them
    always makes it invalid.  Edits that may keep it valid (a dropped row,
    a huge radius) come first, so none undoes a breaking one."""
    tokens, center, radius = draw(st.sampled_from(SPHERE_SEEDS))
    data = sphere_to_json(sphere(nested(S2, tokens), center, radius))
    for _ in range(draw(st.integers(0, 2))):
        rows = _sphere_rows(draw, data)
        if rows:
            del rows[draw(st.integers(0, len(rows) - 1))]
    if draw(st.booleans()):
        data["radius"] = 10**9
    broken = False
    for edit in draw(st.lists(st.sampled_from(SPHERE_BREAKS), max_size=2)):
        broken = edit(draw, data) or broken
    return data, broken


@settings(max_examples=300, deadline=None)
@given(case=mutated_sphere())
def test_sphere_file_fuzz_keeps_the_exit_code_contract(case, tmp_path_factory):
    data, broken = case
    root = tmp_path_factory.getbasetemp() / "sphere-fuzz"
    root.mkdir(exist_ok=True)
    write_json(root, "s.json", data)
    (root / "c.txt").write_text("(count-gt s.json 0)", encoding="utf-8")
    (root / "w.txt").write_text(WORD_SEEDS[1], encoding="utf-8")
    result = runner.invoke(
        main, ["compile-count", str(root / "c.txt"), "--word", str(root / "w.txt")]
    )
    assert_fuzz_contract(result, broken, ("ACCEPT", "REJECT"))


# per kind and transition field: the row width, the letter column, the state
# columns, and a letter of the wrong class there (delta1 rows take every
# class, so a letter outside the alphabet)
AUTOMATON_FIELDS = {
    "mvpa": {
        "delta_call": (4, 1, (0, 3), "a~"),
        "delta_return": (4, 1, (0, 3), "b"),
        "delta_internal": (3, 1, (0, 2), "a"),
    },
    "mnwa": {"delta1": (3, 1, (0, 2), "z"), "delta2": (4, 2, (0, 1, 3), "b")},
}


def _automaton_row(draw, data):
    """A row of one transition field, added if the field has none (an S2
    machine has no internal rows), and the field's entry."""
    field = draw(st.sampled_from(sorted(AUTOMATON_FIELDS[data["kind"]])))
    width, letter, states, wrong = entry = AUTOMATON_FIELDS[data["kind"]][field]
    rows = data[field]
    if not rows:
        rows.append([data["states"][0]] * width)
        rows[0][letter] = wrong
    return draw(st.sampled_from(rows)), entry


def _wrong_width(draw, data):
    row, (width, _, _, _) = _automaton_row(draw, data)
    if draw(st.booleans()):
        row[:] = (row + row)[: width + 1]
    else:
        del row[width - 1 :]


def _wrong_class(draw, data):
    row, (_, letter, _, wrong) = _automaton_row(draw, data)
    row[letter] = wrong


def _unknown_state(draw, data):
    row, (_, _, states, _) = _automaton_row(draw, data)
    row[draw(st.sampled_from(states))] = "zz"


def _bool_or_float_name(draw, data):
    name = draw(st.sampled_from((True, False, 1.5, 0.0)))
    if draw(st.booleans()):
        data["states"].append(name)
    else:
        row, (_, _, states, _) = _automaton_row(draw, data)
        row[draw(st.sampled_from(states))] = name


def _dropped_field(draw, data):
    required = [f for f in data if f != "calling"]
    del data[draw(st.sampled_from(required))]


# in the order applied: a width edit last, so the others find every column
AUTOMATON_BREAKS = (_wrong_class, _unknown_state, _bool_or_float_name, _wrong_width)


@st.composite
def mutated_automaton(draw):
    """A seed machine's JSON after a few edits, and whether one of them
    always makes it invalid.  Dropped rows and final states, which keep it
    valid, come first, and a dropped field last, so every breaking edit
    finds the fields it edits; none undoes another."""
    data = automaton_to_json(draw(st.sampled_from((loop_mnwa, loop_mvpa)))())
    fields = sorted(AUTOMATON_FIELDS[data["kind"]])
    for _ in range(draw(st.integers(0, 2))):
        rows = data[draw(st.sampled_from(fields))]
        if rows:
            del rows[draw(st.integers(0, len(rows) - 1))]
    if draw(st.booleans()):
        data["final"] = []
    breaks = draw(st.lists(st.sampled_from(AUTOMATON_BREAKS), max_size=2))
    for edit in sorted(breaks, key=AUTOMATON_BREAKS.index):
        edit(draw, data)
    if draw(st.booleans()):
        _dropped_field(draw, data)
        breaks.append(_dropped_field)
    return data, bool(breaks)


@settings(max_examples=300, deadline=None)
@given(case=mutated_automaton())
def test_automaton_file_fuzz_keeps_the_exit_code_contract(case, tmp_path_factory):
    data, broken = case
    root = tmp_path_factory.getbasetemp() / "automaton-fuzz"
    root.mkdir(exist_ok=True)
    machine = write_json(root, "m.json", data)
    (root / "w.txt").write_text("a b a~ a~ b~ b~\n" + WORD_SEEDS[1], encoding="utf-8")
    result = runner.invoke(main, ["simulate", machine, str(root / "w.txt")])
    assert_fuzz_contract(result, broken, ("ACCEPT", "REJECT"))
    result = runner.invoke(main, ["convert", machine])
    assert_fuzz_contract(result, broken, None)
    if not broken:
        assert result.exit_code == 0
        assert json.loads(result.stdout)["kind"] != data["kind"]
    # both take mnwa files only: a valid mvpa is refused as input too
    right = write_json(root, "r.json", automaton_to_json(loop_mnwa()))
    for args in (["degeneralize", machine], ["product", machine, right, "--mode", "intersection"]):
        result = runner.invoke(main, args)
        assert_fuzz_contract(result, broken or data["kind"] == "mvpa", None)
        if not broken and data["kind"] == "mnwa":
            assert result.exit_code == 0
            assert json.loads(result.stdout)["kind"] == "mnwa"


GRID_SEEDS = ("a a~", "a a a~ b a~ b b~ a b~ a a~ a~\na b a~ b~", GRID34)


@settings(max_examples=300, deadline=None)
@given(word=mutated(GRID_SEEDS, WORD_TOKENS))
def test_grid_member_fuzz_keeps_the_exit_code_contract(word, tmp_path_factory):
    root = tmp_path_factory.getbasetemp() / "grid-fuzz"
    root.mkdir(exist_ok=True)
    (root / "w.txt").write_text(" ".join(word), encoding="utf-8")
    result = runner.invoke(main, ["grid", "member", str(root / "w.txt")])
    malformed = "z" in word
    assert_fuzz_contract(result, malformed, ("MEMBER", "NOT MEMBER"))
    if not malformed:
        assert result.exit_code in (0, 1)


def _duplicate_symbol(draw, data):
    data["internal"].append(draw(st.sampled_from(data["stacks"][0]["calls"])))


def _no_returns(draw, data):
    del data["stacks"][0]["returns"]


def _no_stacks(draw, data):
    data["stacks"] = []


def _bad_symbol(draw, data):
    data["stacks"][0]["calls"] = [draw(st.sampled_from((1, "", None)))]


ALPHABET_BREAKS = (_duplicate_symbol, _no_returns, _no_stacks, _bad_symbol)


@st.composite
def alphabet_file(draw):
    """The text of an alphabet file, None for the default alphabet, and the
    symbols it defines, None when the file is malformed."""
    seed = draw(st.sampled_from((None, S2C, CallReturnAlphabet(((("a",), ("a~",)),)))))
    if seed is None:
        return None, S2.symbols
    data = alphabet_to_json(seed)
    edit = draw(st.sampled_from((None, None, *ALPHABET_BREAKS, "truncate")))
    if edit is None:
        return json.dumps(data), seed.symbols
    if edit == "truncate":
        text = json.dumps(data)
        return text[: draw(st.integers(0, len(text) - 1))], None
    edit(draw, data)
    return json.dumps(data), None


# word files with no word in them
BLANK_WORD_FILES = ("", " ", "\n\n", " \t\n ")


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(("nest", "spheres", "sphere-run")),
    alphabet=alphabet_file(),
    text=st.one_of(mutated(WORD_SEEDS, WORD_TOKENS).map(" ".join),
                   st.sampled_from(BLANK_WORD_FILES)),
    radius=st.integers(0, 2),
    position=st.integers(0, 8),
)
def test_word_file_fuzz_keeps_the_exit_code_contract(command, alphabet, text, radius,
                                                     position, tmp_path_factory):
    alphabet_text, symbols = alphabet
    root = tmp_path_factory.getbasetemp() / "word-fuzz"
    root.mkdir(exist_ok=True)
    (root / "w.txt").write_text(text, encoding="utf-8")
    args = [command, str(root / "w.txt")]
    if command != "nest":
        args += ["--radius", str(radius)]
    if command == "spheres":
        args[1:1] = ["--word"]
        args += ["--at", str(position)]
    if alphabet_text is not None:
        (root / "alphabet.json").write_text(alphabet_text, encoding="utf-8")
        args += ["--alphabet", str(root / "alphabet.json")]
    result = runner.invoke(main, args)
    words = [line.split() for line in text.splitlines() if line.strip()]
    malformed = symbols is None or any(t not in symbols for w in words for t in w)
    if command == "spheres":
        malformed = malformed or not words or not 1 <= position <= len(words[0])
    assert_fuzz_contract(result, malformed, None)
    if malformed:
        return
    assert result.exit_code == 0  # canonical runs always verify
    lines = result.output.splitlines()
    if command == "nest":
        fields = [line.split(":")[0] for line in lines]
        assert fields == ["word", "matches", "pending"] * len(words)
    elif command == "spheres":
        assert json.loads(result.output)["center"] == position
    else:
        verdicts = [line for line in lines if line.startswith("verified")]
        assert verdicts == ["verified: true"] * len(words)


@settings(max_examples=200, deadline=None)
@given(alphabet=alphabet_file(), max_len=st.integers(1, 3))
def test_corpus_fuzz_keeps_the_exit_code_contract(alphabet, max_len, tmp_path_factory):
    alphabet_text, symbols = alphabet
    if alphabet_text is None:  # corpus has no default alphabet
        alphabet_text = json.dumps(alphabet_to_json(S2))
    root = tmp_path_factory.getbasetemp() / "corpus-fuzz"
    root.mkdir(exist_ok=True)
    (root / "alphabet.json").write_text(alphabet_text, encoding="utf-8")
    result = runner.invoke(main, ["corpus", str(root / "alphabet.json"), "--max-len", str(max_len)])
    assert_fuzz_contract(result, symbols is None, None)
    if symbols is None:
        return
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(set(lines)) == len(lines) == sum(len(symbols) ** k for k in range(1, max_len + 1))
    assert all(set(line.split()) <= set(symbols) for line in lines)


DIRECTION_SEEDS = ("jump1 fwd jump2 fwd back1 bwd", "jump1 fwd back2 fwd", "fwd bwd\nfwd")
# a direction is fwd or bwd, or jump or back with a stack index from 1
VALID_DIRECTIONS = ("fwd", "bwd", "jump1", "back1", "jump2", "back2", "jump3", "back12")
BAD_DIRECTIONS = ("fwd1", "jump", "back0", "up", "cw")


@settings(max_examples=200, deadline=None)
@given(
    dirs=mutated(DIRECTION_SEEDS, (*VALID_DIRECTIONS, *BAD_DIRECTIONS, "\n")),
    slack=st.integers(-2, 4),
)
def test_circular_fuzz_keeps_the_exit_code_contract(dirs, slack, tmp_path_factory):
    root = tmp_path_factory.getbasetemp() / "circular-fuzz"
    root.mkdir(exist_ok=True)
    text = " ".join(dirs)
    moves = text.split()
    bound = max(1, len(moves) + 1 + slack)  # the least bound that can hold a witness, + slack
    (root / "w.dirs").write_text(text, encoding="utf-8")
    result = runner.invoke(main, ["circular", str(root / "w.dirs"), "--bound", str(bound)])
    malformed = (not set(moves) <= set(VALID_DIRECTIONS)
                 or not moves or bound < len(moves) + 1)
    assert_fuzz_contract(result, malformed, None)
    if malformed:
        return
    first = result.output.splitlines()[0]
    if result.exit_code == 0:
        assert first == f"CIRCULAR (bound={bound})"
    else:
        assert result.exit_code == 1 and result.output == f"NOT CIRCULAR (bound={bound})\n"


class TestGrid:
    def test_encode(self):
        result = runner.invoke(main, ["grid", "encode", "3", "4"])
        assert result.exit_code == 0
        assert result.output == GRID34 + "\n"

    def test_encode_dot(self):
        result = runner.invoke(main, ["grid", "encode", "1", "1", "--dot"])
        assert result.exit_code == 0
        assert result.output.startswith("digraph")

    def test_verify(self):
        result = runner.invoke(main, ["grid", "verify", "2", "2"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "n: 2",
            "m: 2",
            "checked: 265",
            "ok: true",
        ]

    def test_verify_cap(self):
        result = runner.invoke(main, ["grid", "verify", "5", "7"])
        assert result.exit_code == 2

    def test_member(self, files):
        result = runner.invoke(main, ["grid", "member", files("w.txt", GRID34)])
        assert result.exit_code == 0 and result.output == "MEMBER\n"
        result = runner.invoke(
            main, ["grid", "member", files("w.txt", "a b a~ b~")]
        )
        assert result.exit_code == 1 and result.output == "NOT MEMBER\n"


class TestCircular:
    def test_not_circular(self, files):
        dirs = files("w.dirs", "jump1 fwd jump2 fwd back1 bwd")
        result = runner.invoke(main, ["circular", dirs, "--bound", "20"])
        assert result.exit_code == 1
        assert result.output == "NOT CIRCULAR (bound=20)\n"

    def test_circular_with_witness(self, files):
        dirs = files("w.dirs", "jump1 fwd back2 fwd")
        result = runner.invoke(main, ["circular", dirs, "--bound", "12"])
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "CIRCULAR (bound=12)"
        assert lines[1].startswith("witness: ")
        assert lines[2].startswith("position: ")


class TestCorpus:
    @pytest.fixture
    def alphabet_file(self, tmp_path):
        return write_json(tmp_path, "s2.json", alphabet_to_json(S2))

    @pytest.mark.parametrize("max_len,count", [(1, 4), (2, 20), (3, 84)])
    def test_counts(self, alphabet_file, max_len, count):
        result = runner.invoke(
            main, ["corpus", alphabet_file, "--max-len", str(max_len)]
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert len(lines) == count
        assert set(lines[:4]) == {"a", "a~", "b", "b~"}
