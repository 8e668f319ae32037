"""Command-line interface: outputs and exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import creoletag
from creoletag.cli import main
from creoletag.creole import golden_path, grammar_text, shipped_grammar
from creoletag.dsl import load_grammar, serialize
from creoletag.grammar import Grammar


FINDINGS = """
(domain lan (HT GP))
(tree t (class initial)
  (node N (kind internal)
    (bottom (gen m))
    (children (node N (kind anchor)))))
(lex X (cat N) (variant "x" (lan HT)))
"""


@pytest.fixture
def sem_file(tmp_path):
    def write(data, name="spec.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data), encoding="utf-8")
        return str(path)
    return write


class TestGenerate:
    def test_dance_past_imperfective_gf(self, sem_file, capsys):
        path = sem_file({"pred": "DANCE", "tma": {"pas": True, "asp": "imp"}})
        assert main(["generate", "--sem", path, "--lan", "GF"]) == 0
        assert capsys.readouterr().out == "té ka dansé\tGF\n"

    def test_bird_four_lines(self, sem_file, capsys):
        path = sem_file({"args": [{"lexeme": "BIRD", "nbr": "sg",
                                   "spe": True}]})
        assert main(["generate", "--sem", path]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["zwazo a\tHT", "zozyo la\tGP",
                       "zwézo a\tMQ", "zozo a\tGF"]

    def test_alternatives_field(self, sem_file, capsys):
        path = sem_file({"pred": "DANCE", "tma": {"prx": True}})
        assert main(["generate", "--sem", path, "--lan", "GF"]) == 0
        assert capsys.readouterr().out == "k'alé dansé\tGF\tkay dansé\n"

    def test_empty_spec_is_bad_input(self, sem_file, capsys):
        path = sem_file({})
        assert main(["generate", "--sem", path]) == 3

    @pytest.mark.parametrize("data", [
        {"args": [{"lexeme": "TABLE", "spe": "false"}]},
        {"args": [{"lexeme": "TABLE"}], "lan": "HT"},
        {"args": [{"lexeme": "TABLE"}], "lan": []},
        {"args": [{"lexeme": "TABLE", "nbr": 2}]},
        {"pred": "DANCE", "tma": {"asp": 1}},
        {"args": [{"lexeme": "DOG", "spe": True}], "tma": {"pas": True}},
    ], ids=["flag-string", "lan-string", "lan-empty", "nbr-number",
            "asp-number", "tma-without-pred"])
    def test_mistyped_json_is_bad_input(self, sem_file, capsys, data):
        assert main(["generate", "--sem", sem_file(data)]) == 3
        assert capsys.readouterr().out == ""

    def test_dem_with_spe_false_is_bad_input(self, sem_file, capsys):
        path = sem_file({"args": [{"lexeme": "BIRD", "dem": True,
                                   "spe": False}]})
        assert main(["generate", "--sem", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "spe" in captured.err

    @pytest.mark.parametrize("lan,entries", [
        ("", "entry 1"), ("HT,,GP", "entry 2"), (",HT,", "entry 1, 3"),
    ], ids=["empty", "inner-blank", "outer-blanks"])
    def test_empty_lan_entry_is_bad_input(self, sem_file, capsys, lan,
                                          entries):
        path = sem_file({"args": [{"lexeme": "TABLE"}]})
        assert main(["generate", "--sem", path, "--lan", lan]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "empty language code at %s" % entries in err

    @pytest.mark.parametrize("data, lan, message", [
        ({"pred": "DANCE", "lan": ["HT"]}, "HT,XX",
         "unknown language codes: XX"),
        ({"pred": "DANCE"}, "HT,XX", "unknown language codes: XX"),
        ({"pred": "DANCE", "lan": ["XX"]}, "HT", "unknown language codes: XX"),
        ({"pred": "DANCE", "lan": ["HT"]}, "GP,MQ",
         "--lan GP,MQ shares no dialect with the input's lan HT"),
    ], ids=["unknown-beside-input", "unknown", "unknown-in-input", "disjoint"])
    def test_lan_flag_is_checked_before_intersecting(self, sem_file, capsys,
                                                     data, lan, message):
        assert main(["generate", "--sem", sem_file(data), "--lan", lan]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err

    def test_lan_entries_are_stripped(self, sem_file, capsys):
        path = sem_file({"args": [{"lexeme": "BIRD", "nbr": "sg",
                                   "spe": True}]})
        outputs = []
        for lan in ("HT,GP", "HT, GP", " HT ,GP "):
            assert main(["generate", "--sem", path, "--lan", lan]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0].out == "zwazo a\tHT\nzozyo la\tGP\n"
        assert outputs == [outputs[0]] * 3

    def test_no_realization(self, sem_file, capsys):
        path = sem_file({"pred": "DANCE",
                         "tma": {"psp": True, "asp": "frq"}})
        assert main(["generate", "--sem", path, "--lan", "HT"]) == 1


class TestTables:
    def test_np_against_golden(self, capsys):
        assert main(["tables", "np", "--golden",
                     str(golden_path("np"))]) == 0

    def test_tma_against_golden(self, capsys):
        assert main(["tables", "tma", "--golden",
                     str(golden_path("tma"))]) == 0

    def test_np_without_golden(self, capsys):
        assert main(["tables", "np"]) == 0
        assert capsys.readouterr().out == \
            golden_path("np").read_text(encoding="utf-8")

    def test_missing_cell_is_no_result(self, tmp_path, capsys):
        shipped = shipped_grammar()
        grammar = tmp_path / "no-past.fstag"
        grammar.write_text(serialize(Grammar(
            shipped.domains, [t for t in shipped.trees
                              if t.name != "aux-Past"],
            shipped.lexicon, shipped.fusion_rules, shipped.metadata)),
            encoding="utf-8")
        assert main(["tables", "tma", "--grammar", str(grammar)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "no form for table cell (accomplished-past, HT)\n"

    def test_unknown_table(self, capsys):
        assert main(["tables", "xx"]) == 3

    def test_mismatch_reports_coordinates(self, tmp_path, capsys):
        wrong = golden_path("np").read_text(encoding="utf-8") \
            .replace("moun nan", "moun xx")
        path = tmp_path / "wrong.tsv"
        path.write_text(wrong, encoding="utf-8")
        assert main(["tables", "np", "--golden", str(path)]) == 1
        err = capsys.readouterr().err
        assert "sg-spec-person" in err and "HT" in err


class TestSpecializeAndCheck:
    def test_specialize_then_check(self, tmp_path, capsys):
        out = tmp_path / "ht.fstag"
        assert main(["specialize", "--lan", "HT", "-o", str(out)]) == 0
        assert main(["check", str(out)]) == 0

    def test_specialize_to_stdout(self, capsys):
        from creoletag.specialize import specialize
        assert main(["specialize", "--lan", "HT"]) == 0
        assert capsys.readouterr().out == \
            serialize(specialize(shipped_grammar(), "HT"))

    def test_specialized_output_loads(self, tmp_path):
        out = tmp_path / "mq.fstag"
        assert main(["specialize", "--lan", "MQ", "-o", str(out)]) == 0
        grammar = load_grammar(out.read_text(encoding="utf-8"))
        assert "lan" not in grammar.schema

    def test_check_without_a_file_is_bad_input(self, capsys):
        # argparse's own exit status, 2, is kept for validation findings
        assert main(["check"]) == 3
        assert "required: file" in capsys.readouterr().err

    def test_generate_without_sem_is_bad_input(self, capsys):
        assert main(["generate"]) == 3
        assert "required: --sem" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "usage: creoletag" in capsys.readouterr().out

    def test_check_missing_file(self, capsys):
        assert main(["check", "no-such-file.fstag"]) == 3

    def test_check_syntax_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.fstag"
        bad.write_text("(domain lan (HT", encoding="utf-8")
        assert main(["check", str(bad)]) == 3

    def test_check_findings(self, tmp_path, capsys):
        bad = tmp_path / "findings.fstag"
        bad.write_text(FINDINGS, encoding="utf-8")
        assert main(["check", str(bad)]) == 2
        assert "gen" in capsys.readouterr().out


class TestRecognize:
    def test_se_tab_la_json(self, capsys):
        assert main(["recognize", "--goal", "NP", "sé tab la"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["lan_set"] == ["GP", "MQ"]
        assert record["mixed"] is False

    def test_value_sets_in_declaration_order(self, capsys):
        # every attribute's values, not only lan's: sorting asp by the
        # lan order left it in the set's hash order
        assert main(["recognize", "--goal", "Pred", "ka dansé"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["features"]["asp"] == ["imp", "frq", "prg"]
        assert record["lan_set"] == ["GP", "MQ", "GF"]

    def test_relaxed_analysis_is_mixed(self, capsys):
        assert main(["recognize", "--goal", "NP", "moun sa la"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["lan_set"] == [] and record["mixed"] is True

    def test_no_analysis(self, capsys):
        assert main(["recognize", "--goal", "NP", "ka zozyo la"]) == 1

    def test_bad_goal(self, capsys):
        assert main(["recognize", "--goal", "XP", "moun"]) == 3


TOO_DEEP = "the input nests deeper than this build follows\n"


def _nested(depth):
    """A grammar whose one tree nests `depth` internal nodes."""
    node = "(node N (kind anchor))"
    for _ in range(depth):
        node = "(node N (kind internal) (children %s))" % node
    return ('(tree t (class initial) %s)\n(lex X (cat N) (variant "x"))\n'
            % node)


class TestTooDeep:
    """An input nested deeper than the recursion limit lets the parser or
    the recognizer follow exits 4 with one line, not a traceback.  The
    limit is lowered to 80 frames above the test's own depth, so a
    shallow input still passes and a deep one fails in milliseconds.
    The search itself adds no frame per step: 40 stacked names answer
    with 130 frames."""

    @pytest.fixture
    def shallow_stack(self):
        frame, depth = sys._getframe(), 0
        while frame:
            frame, depth = frame.f_back, depth + 1
        limit = sys.getrecursionlimit()
        yield lambda frames=80: sys.setrecursionlimit(depth + frames)
        sys.setrecursionlimit(limit)

    def run(self, shallow_stack, capsys, argv):
        """(exit status, stderr) of main(argv) under the lowered limit."""
        import creoletag.recognize  # noqa: F401 - imported at full depth
        shallow_stack()
        status = main(argv)
        return status, capsys.readouterr().err

    @pytest.mark.parametrize("depth, status", [(5, 0), (300, 4)])
    def test_check_nested_tree(self, tmp_path, shallow_stack, capsys,
                               depth, status):
        path = tmp_path / "nested.fstag"
        path.write_text(_nested(depth), encoding="utf-8")
        assert self.run(shallow_stack, capsys, ["check", str(path)]) == \
            (status, TOO_DEEP if status else "")

    @pytest.mark.parametrize("names, status", [(2, 0), (40, 4)])
    def test_recognize_name_stack(self, tmp_path, shallow_stack, capsys,
                                  names, status):
        # a grammar of its own: a search cut short leaves no memo behind
        # on the shipped one
        path = tmp_path / "own.fstag"
        path.write_text(grammar_text(), encoding="utf-8")
        text = "moun" + " Sentoma Senloran" * names + " yo"
        assert self.run(shallow_stack, capsys, [
            "recognize", "--grammar", str(path), "--goal", "NP", text]) == \
            (status, TOO_DEEP if status else "")

    def test_search_adds_no_frame_per_step(self, fresh_grammar,
                                           shallow_stack):
        # the walks over this tree take about 90 frames; a search that
        # recursed once per step took about 175
        from creoletag.recognize import recognize
        shallow_stack(130)
        assert recognize(fresh_grammar,
                         "moun" + " Sentoma Senloran" * 40 + " yo", "NP")


class TestGrammarOverride:
    def test_env_variable_grammar(self, tmp_path, sem_file, capsys,
                                  monkeypatch):
        out = tmp_path / "gp.fstag"
        assert main(["specialize", "--lan", "GP", "-o", str(out)]) == 0
        capsys.readouterr()
        monkeypatch.setenv("CREOLETAG_GRAMMAR", str(out))
        path = sem_file({"pred": "DANCE", "tma": {"asp": "imp"}})
        assert main(["generate", "--sem", path]) == 0
        assert capsys.readouterr().out == "ka dansé\t-\n"

    def test_specialized_grammar_prints_what_lan_prints(self, tmp_path,
                                                        sem_file, capsys):
        # the doublet folds as under --lan GF; the language column is -
        grammar = str(tmp_path / "gf.fstag")
        assert main(["specialize", "--lan", "GF", "-o", grammar]) == 0
        path = sem_file({"pred": "DANCE", "tma": {"asp": "imp"}})
        assert main(["generate", "--sem", path, "--lan", "GF"]) == 0
        assert capsys.readouterr().out == "ka dansé\tGF\tdansé\n"
        assert main(["generate", "--sem", path, "--grammar", grammar]) == 0
        assert capsys.readouterr().out == "ka dansé\t-\tdansé\n"

    def test_tables_of_a_grammar_without_lan_are_bad_input(self, tmp_path,
                                                           capsys):
        grammar = str(tmp_path / "gf.fstag")
        assert main(["specialize", "--lan", "GF", "-o", grammar]) == 0
        assert main(["tables", "tma", "--grammar", grammar]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "this grammar has no language attribute left\n"

    def test_grammar_with_findings(self, tmp_path, sem_file, capsys):
        grammar = tmp_path / "findings.fstag"
        grammar.write_text(FINDINGS, encoding="utf-8")
        path = sem_file({"args": [{"lexeme": "X"}]})
        assert main(["generate", "--sem", path, "--grammar",
                     str(grammar)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "tree 't' node ('root',) uses undeclared attribute " \
            "'gen'\n"

    def test_goal_outside_the_grammar_schema(self, tmp_path, sem_file,
                                             capsys, monkeypatch):
        # the grammar declares no spe or dem, which the NP goal names
        from test_generator import UNDECLARED_GOALS
        grammar = tmp_path / "small.fstag"
        grammar.write_text(UNDECLARED_GOALS, encoding="utf-8")
        monkeypatch.setenv("CREOLETAG_GRAMMAR", str(grammar))
        path = sem_file({"args": [{"lexeme": "DOG"}]})
        assert main(["generate", "--sem", path]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "is not declared" in err


    @pytest.mark.parametrize("mutant, command, tree", [
        ("PLURAL_STACKS", ["generate", "--sem", "{sem}"], "aux-Plur-gpmq"),
        ("N_LOOP", ["recognize", "--goal", "NP", "moun la"], "alpha-N-loop"),
    ], ids=["generate-plural-stacks", "recognize-unary-loop"])
    def test_divergent_grammar_is_bad_input(self, tmp_path, sem_file, capsys,
                                            mutant, command, tree):
        import test_reference
        grammar = tmp_path / "divergent.fstag"
        grammar.write_text(getattr(test_reference, mutant), encoding="utf-8")
        sem = sem_file({"args": [{"lexeme": "PERSON", "nbr": "pl",
                                  "dem": True}]})
        argv = [arg.format(sem=sem) for arg in command]
        with test_reference._time_limit(1):
            status = main(argv[:1] + ["--grammar", str(grammar)] + argv[1:])
        assert status == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1 and repr(tree) in err


class TestFileErrors:
    """A file that cannot be read or written is bad input (exit 3) with a
    one-line message, never a traceback."""

    @pytest.mark.parametrize("command, env, what", [
        (["recognize", "--grammar", "{missing}", "tab"], "", "read grammar"),
        (["recognize", "tab"], "{missing}", "read grammar"),
        (["generate", "--sem", "{binary}"], "", "read semantic input"),
        (["check", "{binary}"], "", "read grammar"),
        (["tables", "np", "--grammar", "{binary}"], "", "read grammar"),
        (["tables", "np", "--golden", "{binary}"], "", "read golden file"),
        (["specialize", "--lan", "HT", "-o", "{missing}/ht.fstag"], "",
         "write output"),
    ], ids=["recognize-missing-grammar", "env-missing-grammar",
            "generate-binary-sem", "check-binary", "tables-binary-grammar",
            "tables-binary-golden", "specialize-missing-directory"])
    def test_bad_file_is_bad_input(self, tmp_path, capsys, monkeypatch,
                                   command, env, what):
        binary = tmp_path / "binary"
        binary.write_bytes(b"\xff")
        paths = {"missing": str(tmp_path / "missing"), "binary": str(binary)}
        monkeypatch.setenv("CREOLETAG_GRAMMAR", env.format(**paths))
        assert main([arg.format(**paths) for arg in command]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("cannot %s: " % what)
        assert "Traceback" not in err


class TestDeterminism:
    def test_identical_runs_identical_bytes(self, sem_file, capsys):
        path = sem_file({"pred": "DANCE", "tma": {"cnd": True}})
        assert main(["generate", "--sem", path]) == 0
        first = capsys.readouterr().out
        assert main(["generate", "--sem", path]) == 0
        assert capsys.readouterr().out == first


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)


def _mostly(strategy):
    """`strategy`, or one time in ten any JSON value instead."""
    return st.integers(0, 9).flatmap(
        lambda n: _JSON if n == 9 else strategy)


def _field(*typical):
    return _mostly(st.sampled_from(typical))


_LEXEME = _field("DANCE", "BIRD", "DOG", "TABLE", "SAINT-THOMAS", "ART", "")
_NP = st.fixed_dictionaries({"lexeme": _LEXEME}, optional={
    "nbr": _field("sg", "pl"), "spe": _field(True, False),
    "dem": _field(True, False), "complement": _LEXEME})
_TMA = st.fixed_dictionaries({}, optional={
    "pas": _field(True, False), "psp": _field(True, False),
    "prx": _field(True, False), "cnd": _field(True, False),
    "asp": _field("none", "imp", "frq", "prg")})
# documents shaped like a semantic input, with any field possibly off,
# so that the draws reach past the type checks into generation
_SPEC = st.fixed_dictionaries({}, optional={
    "pred": _LEXEME, "args": _mostly(st.lists(_NP, min_size=1, max_size=1)),
    "tma": _mostly(_TMA),
    "lan": _mostly(st.lists(_field("HT", "GP", "MQ", "GF"), min_size=1,
                            max_size=3))})


@pytest.fixture(scope="module")
def sem_path(tmp_path_factory):
    return tmp_path_factory.mktemp("sem") / "spec.json"


class TestArbitraryJson:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(document=_SPEC | _JSON)
    def test_generate_exits_with_a_code(self, sem_path, document):
        """Any JSON document gets an exit code, never a traceback."""
        sem_path.write_text(json.dumps(document), encoding="utf-8")
        assert main(["generate", "--sem", str(sem_path)]) in (0, 1, 3)


class TestStartUp:
    def test_generate_and_tables_import_no_recognizer(self):
        """A fresh interpreter that imports the CLI and loads the shipped
        grammar, all that generate and tables need, leaves recognition
        and specialization unimported."""
        code = ("import sys, creoletag.cli; "
                "from creoletag.creole import shipped_grammar; "
                "shipped_grammar(); "
                "print(sorted({'creoletag.recognize', 'creoletag.specialize'}"
                " & set(sys.modules)))")
        src = str(Path(creoletag.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], cwd=src,
                             capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"
