import os

import pytest

from singlehead.corpus import corpus_paths, load_corpus_file
from singlehead.formula import ParseError

EXPECTED_FILES = {
    "bnotheads.txt": "not-single-head",
    "disconnected.txt": "not-single-head",
    "disjointemptynotsingle.txt": "not-single-head",
    "disjointnotsingle.txt": "not-single-head",
    "equiall.txt": "single-head",
    "inloop.txt": "not-single-head",
    "insignificant.txt": "not-single-head",
    "intro.txt": "single-head",
    "minbodies.txt": "single-head",
    "nobody.txt": "single-head",
    "outloop.txt": "single-head",
    "samehead.txt": "not-single-head",
    "twobodies.txt": "single-head",
}


def test_every_named_case_ships(corpus_dir):
    names = {n for n in os.listdir(corpus_dir) if n.endswith(".txt")}
    assert names == set(EXPECTED_FILES)


def test_directives_recorded(corpus_dir):
    for name, expect in EXPECTED_FILES.items():
        case = load_corpus_file(os.path.join(corpus_dir, name))
        assert case.expect == expect
        assert case.items
        case.formula()  # parses


def test_directory_listing_sorted(corpus_dir):
    paths = corpus_paths(corpus_dir)
    assert paths == sorted(paths)
    assert len(paths) == len(EXPECTED_FILES)


def test_comments_and_blanks_ignored(tmp_path):
    path = tmp_path / "case.txt"
    path.write_text("# leading comment\n\na->b  # trailing\n"
                    "% expect: single-head\n")
    case = load_corpus_file(str(path))
    assert case.items == ("a->b",)
    assert case.expect == "single-head"


def test_unknown_directive_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a->b\n% outcome: single-head\n")
    with pytest.raises(ParseError):
        load_corpus_file(str(path))


def test_repeated_expect_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("% expect: single-head\na->b\n% expect: not-single-head\n")
    with pytest.raises(ParseError) as err:
        load_corpus_file(str(path))
    assert "repeated directive 'expect' on line 3" in str(err.value)


def test_bad_expect_value_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("a->b\n% expect: maybe\n")
    with pytest.raises(ParseError):
        load_corpus_file(str(path))
