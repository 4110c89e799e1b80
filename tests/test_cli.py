import io
import json
import os
import shutil

import pytest

from singlehead.cli import run_cli
from singlehead.corpus import load_corpus_file
from singlehead.formula import Universe, parse_formula, parse_variables


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_cli(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def corpus(name):
    here = os.path.dirname(__file__)
    return os.path.join(here, os.pardir, "corpus", name)


class TestExitCodes:
    def test_single_head_zero(self):
        code, out, _ = run(["-f", "a->b", "b->c"])
        assert code == 0
        assert "single-head" in out

    def test_not_single_head_one(self):
        code, out, _ = run(["-t", corpus("inloop.txt")])
        assert code == 1
        assert "failing body: a" in out

    def test_inconclusive_two(self):
        code, out, _ = run(["--budget", "5",
                            "-t", corpus("disjointemptynotsingle.txt")])
        assert code == 2
        assert "inconclusive" in out

    def test_parse_error_sixty_four(self):
        code, _, err = run(["-f", "ab->"])
        assert code == 64
        assert "empty head" in err

    def test_no_input_sixty_four(self):
        code, _, err = run([])
        assert code == 64

    def test_bad_flag_sixty_four(self):
        code, _, _ = run(["--no-filter", "9", "-f", "a->b"])
        assert code == 64

    def test_missing_file_sixty_four(self):
        code, _, _ = run(["-t", "/nonexistent/corpus.txt"])
        assert code == 64

    def test_directory_without_corpus_files_sixty_four(self, tmp_path):
        (tmp_path / "notes.md").write_text("a->b\n")
        code, out, err = run(["-t", str(tmp_path)])
        assert code == 64
        assert "no .txt files" in err
        assert out == ""

    def test_forget_unknown_variable_sixty_four(self):
        code, out, err = run(["-f", "a->b", "b->c", "--forget", "z"])
        assert code == 64
        assert "z" in err
        assert out == ""

    def test_forget_text_no_reading_resolves_is_one_usage_error(
            self, corpus_dir):
        code, out, err = run(["-t", corpus_dir, "--forget", "Q"])
        assert code == 64
        assert out == ""
        assert err.splitlines() == [
            "usage error: --forget: bad variable letter 'Q' in 'Q' "
            "at position 0"]

    @pytest.mark.parametrize("text", ["", " ", ",", " , "])
    def test_forget_naming_no_variable_sixty_four(self, text):
        code, out, err = run(["-f", "a->b", "--forget", text])
        assert code == 64
        assert out == ""
        assert err.splitlines() == [
            "usage error: --forget names no variables"]

    @pytest.mark.parametrize("argv, flag", [
        (["--forget", "a", "--forget", "b"], "--forget"),
        (["--forget=a", "--forget", "a"], "--forget"),
        (["--budget", "3", "--budget", "5"], "--budget"),
    ])
    def test_repeated_single_value_flag_sixty_four(self, argv, flag):
        code, out, err = run(["-f", "a->b", *argv])
        assert code == 64
        assert out == ""
        assert err.splitlines() == [
            f"usage error: argument {flag}: given more than once"]

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_budget_below_one_sixty_four(self, budget):
        code, out, err = run(["-f", "a->b", "--budget", budget])
        assert code == 64
        assert out == ""
        assert err.splitlines() == [
            f"usage error: argument --budget: budget must be at least 1, "
            f"got {budget}"]

    def test_empty_body_item_is_a_formula_item(self):
        # `->a` is the canonical item of a fact: `output` prints it and
        # `parse_formula` reads it
        code, out, err = run(["-f", "a->b", "->a"])
        assert (code, err) == (0, "")
        assert "output: ->a ->b" in out
        code, out, err = run(["--json", "-f", "->a", "a->b"])
        assert (code, err) == (0, "")
        assert json.loads(out)["results"][0]["formula"] == ["->a", "a->b"]

    def test_expect_mismatch_seventy(self, tmp_path):
        lying = tmp_path / "lying.txt"
        lying.write_text("a->c\nb->c\n% expect: single-head\n")
        code, out, _ = run(["-t", str(lying)])
        assert code == 70
        assert "MISMATCH" in out

    def test_oracle_agreement_exit_by_verdict(self):
        code, out, _ = run(["--oracle", "-t", corpus("outloop.txt")])
        assert code == 0
        assert "agrees" in out

    def test_oracle_on_inconclusive_run(self):
        argv = ["--oracle", "--budget", "1",
                "-f", "abc->de", "ad->bc", "be->ac"]
        code, out, _ = run(argv)
        assert code == 2
        assert "  oracle: single-head (no comparison)\n" in out
        code, out, _ = run(["--json"] + argv)
        assert code == 2
        result, = json.loads(out)["results"]
        assert result["verdict"] == "inconclusive"
        assert result["failure_reason"] == "candidate budget 1"
        assert result["oracle"] == {"verdict": "single-head", "agrees": None}

    def test_oracle_guard_on_large_universe(self):
        code, _, err = run(["--oracle", "-f", "a->b", "c->d", "e->f"])
        assert code == 64
        assert "guard" in err

    def test_bad_file_reported_and_others_run(self, tmp_path):
        shutil.copy(corpus("intro.txt"), tmp_path / "intro.txt")
        (tmp_path / "broken.txt").write_text("ab->\n")
        (tmp_path / "latin1.txt").write_bytes(b"a->b\n\xe9->c\n")
        (tmp_path / "folder.txt").mkdir()
        code, out, err = run(["-t", str(tmp_path)])
        assert code == 64
        assert out.startswith(f"{tmp_path / 'intro.txt'}: single-head")
        assert f"error: {tmp_path / 'broken.txt'}: " in err
        assert "empty head" in err
        for name in ("latin1.txt", "folder.txt"):
            assert f"error: {tmp_path / name}: " in err
        code, out, err = run(["--json", "-t", str(tmp_path)])
        assert code == 64
        results = json.loads(out)["results"]
        assert [r["verdict"] for r in results] == ["single-head"]
        assert err.count("error: ") == 3

    def test_oracle_guard_per_input(self, corpus_dir):
        code, out, err = run(["--oracle", "-t", corpus_dir])
        assert code == 64
        small, large = [], []
        for name in sorted(os.listdir(corpus_dir)):
            if name.endswith(".txt"):
                path = os.path.join(corpus_dir, name)
                n = len(load_corpus_file(path).formula().universe)
                (small if n <= 5 else large).append(path)
        assert small and large
        for path in small:
            assert f"{path}: " in out and f"{path}: " not in err
        for path in large:
            assert f"error: {path}: " in err and f"{path}: " not in out
        assert out.count("oracle:") == len(small)
        assert "DISAGREES" not in out


class TestJson:
    def test_round_trip(self):
        code, out, _ = run(["--json", "-t", corpus("equiall.txt")])
        assert code == 0
        data = json.loads(out)
        assert data["version"] == 1
        result = data["results"][0]
        universe = Universe(result["variables"])
        f = parse_formula(result["formula"], universe=universe)
        g = parse_formula(result["output"], universe=universe)
        assert f == parse_formula(["ab->c", "ac->b", "d->a"],
                                  universe=universe)
        # canonical text re-parses to the identical formula
        assert f.clause_texts() == result["formula"]
        assert g.clause_texts() == result["output"]

    def test_failure_fields(self):
        code, out, _ = run(["--json", "-t", corpus("samehead.txt")])
        assert code == 1
        result = json.loads(out)["results"][0]
        assert result["verdict"] == "not-single-head"
        assert result["failing_body"] == "b"
        assert result["failure_reason"]
        assert result["expectation_met"] is True

    def test_mixed_length_names_render_alike(self):
        # single-letter bodies in a universe with longer names are rendered
        # with commas, in the trace as in the output
        _, out, _ = run(["--json", "--trace", "-f", "a,b->foo", "a,b->x",
                         "x,->a", "x,->b", "foo,->a", "foo,->b"])
        result = json.loads(out)["results"][0]
        assert result["verdict"] == "single-head"
        first = result["trace"][0]
        assert first["body"] == "a,b"
        assert first["heads"] == "a,b,foo,x"
        assert "a,b->x" in first["accepted"]
        assert first["accepted"] == result["output"]

    def test_one_character_names_that_are_not_letters(self):
        # a capital or `_` keeps the commas, so that the texts parse back
        _, out, _ = run(["--json", "--trace",
                         "-f", "A,b->c", "c,->A", "c,->b"])
        result = json.loads(out)["results"][0]
        first = result["trace"][0]
        assert (first["body"], first["heads"]) == ("A,b", "A,b,c")
        assert result["output"] == ["c,->A", "c->b", "A,b->c"]
        universe = Universe(result["variables"])
        assert universe.mask(parse_variables(first["heads"])) \
            == universe.mask("Abc")
        _, out, _ = run(["--trace", "-f", "_,a->b"])
        assert "iteration 1: body=_,a heads=b " in out

    def test_mixed_length_failing_body(self):
        _, out, _ = run(["--json", "--trace",
                         "-f", "a,b->c", "d,e->c", "foo,->a"])
        result = json.loads(out)["results"][0]
        assert result["verdict"] == "not-single-head"
        assert result["failing_body"] == result["trace"][-1]["body"]
        assert "," in result["failing_body"]

    def test_lone_long_name_body_parses_back(self):
        # `foo` alone would be read as `f`, `o`, `o`
        _, out, _ = run(["--json", "--trace", "-f", "foo,->c", "bar,->c"])
        result = json.loads(out)["results"][0]
        assert result["verdict"] == "not-single-head"
        assert result["failing_body"] == "foo,"
        assert [t["body"] for t in result["trace"]] == ["bar,", "foo,"]
        assert parse_variables(result["failing_body"]) == ["foo"]

    def test_counters_present(self):
        _, out, _ = run(["--json", "--no-filter", "1",
                         "-t", corpus("disjointemptynotsingle.txt")])
        result = json.loads(out)["results"][0]
        assert result["candidates_tested"] == 4096


class TestModes:
    def test_forget_after_reconstruction(self):
        code, out, _ = run(["-f", "a->b", "b->c", "c->d", "a->c",
                            "--forget", "c"])
        assert code == 0
        assert "a->b b->d" in out

    def test_lone_multi_character_names_without_comma(self):
        code, out, _ = run(["--json", "-f", "a0->p0"])
        assert code == 0
        assert json.loads(out)["results"][0]["output"] == ["a0->p0"]
        code, out, _ = run(["-f", "a0->p0", "p0->q1", "--forget", "p0"])
        assert code == 0
        assert "a0->q1" in out

    def test_forget_everything_prints_empty_kept_set(self):
        code, out, _ = run(["-f", "a->b", "--forget", "a,b"])
        assert code == 0
        assert "after forgetting (kept {}): (empty)" in out
        code, out, _ = run(["--json", "-f", "a->b", "--forget", "a,b"])
        assert json.loads(out)["results"][0]["forget"] == {
            "kept": [], "output": []}

    def test_forget_lone_multi_character_name(self):
        code, out, _ = run(["--json", "-f", "foo,->a", "a->b",
                            "--forget", "foo"])
        assert code == 0
        assert json.loads(out)["results"][0]["forget"] == {
            "kept": ["a", "b"], "output": ["a->b"]}
        # the letter reading still wins whenever it names known variables
        code, out, _ = run(["--json", "-f", "foo,->a", "f->o", "a->b",
                            "--forget", "foo"])
        assert code == 0
        assert json.loads(out)["results"][0]["forget"]["kept"] == [
            "a", "b", "foo"]
        code, _, err = run(["-f", "foo,->a", "a->b", "--forget", "fo"])
        assert code == 64
        assert "f,o" in err

    def test_forget_lone_name_the_letter_reading_rejects(self):
        code, out, _ = run(["--json", "-f", "Foo,->a", "a->b",
                            "--forget", "Foo"])
        assert code == 0
        assert json.loads(out)["results"][0]["forget"] == {
            "kept": ["a", "b"], "output": ["a->b"]}

    def test_repeated_formula_flag_extends(self):
        code, out, _ = run(["--json", "-f", "a->b", "-f", "b->c"])
        assert code == 0
        assert json.loads(out)["results"][0]["formula"] == ["a->b", "b->c"]

    def test_repeated_testfile_flag_extends(self):
        # the later file alone is single-head; the earlier one is not
        code, out, _ = run(["-t", corpus("inloop.txt"),
                            "-t", corpus("intro.txt")])
        assert code == 1
        assert out.count("expected:") == 2
        assert "inloop.txt: not-single-head" in out
        assert "intro.txt: single-head" in out

    def test_trace_lines(self):
        code, out, _ = run(["--trace", "-t", corpus("twobodies.txt")])
        assert code == 0
        assert "iteration 1:" in out

    def test_trace_tells_empty_acceptance_from_none(self):
        # iteration 2 of the first formula accepts the empty candidate (its
        # heads are all headed already); that of the second one fails
        _, out, _ = run(["--trace", "-f", "a->b", "ac->b"])
        assert "iteration 2: body=ac heads={} " in out
        assert out.splitlines()[2].endswith(" accepted=(empty)")
        _, out, _ = run(["--json", "--trace", "-f", "a->b", "ac->b"])
        assert json.loads(out)["results"][0]["trace"][1]["accepted"] == []
        _, out, _ = run(["--trace", "-f", "a->c", "b->c"])
        assert out.splitlines()[2].endswith(" accepted=-")
        _, out, _ = run(["--json", "--trace", "-f", "a->c", "b->c"])
        assert json.loads(out)["results"][0]["trace"][1]["accepted"] is None

    def test_directory_runs_every_file(self, corpus_dir):
        code, out, _ = run(["-t", corpus_dir])
        # the corpus mixes verdicts; all expectations hold, nothing inconclusive
        assert code == 1
        assert out.count("expected:") == len(
            [n for n in os.listdir(corpus_dir) if n.endswith(".txt")])
        assert "MISMATCH" not in out

    def test_inline_mixed_items(self):
        code, out, _ = run(["-f", "ab->cd", "df=gh"])
        assert code in (0, 1)
        assert "candidates tested" in out
