import io
import json
import os
import random
import subprocess
import sys

import pytest

from treenum import decode, tree_to_json_obj
from treenum.cli import main
from conftest import GRAMMARS, REPO, expected_ab_diff, expected_enumeration

TEXTBOOK = str(GRAMMARS / "textbook.cfg")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run_cli(capsys, "validate", TEXTBOOK)
    assert code == 0
    assert "5 nonterminals OK" in out
    assert "S: ok" in out


def test_validate_violations(capsys, tmp_path):
    path = tmp_path / "finite.cfg"
    path.write_text("S -> x\n")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 2
    assert "S: FAIL finite-trees" in out


def test_validate_unreachable_warning(capsys, tmp_path):
    path = tmp_path / "unreachable.cfg"
    path.write_text("S -> x S | x\nT -> y\n")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert "T is unreachable" in err


def test_unreadable_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "validate", str(tmp_path / "missing.cfg"))
    assert code == 1
    assert "cannot read" in err


def test_corrupt_file_reports_line(capsys, tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("S -> x\nS | y\n")
    code, out, err = run_cli(capsys, "enumerate", str(path))
    assert code == 1
    assert "line 2" in err


def test_invalid_grammar_blocks_other_commands(capsys, tmp_path):
    path = tmp_path / "finite.cfg"
    path.write_text("S -> x\n")
    code, out, err = run_cli(capsys, "decode", str(path), "0")
    assert code == 2


def test_enumerate_matches_reference(capsys):
    code, out, err = run_cli(capsys, "enumerate", TEXTBOOK, "--count", "101", "--show-index")
    assert code == 0
    expected = "".join(f"{i}\t{s}\n" for i, s in expected_enumeration())
    assert out == expected


def test_enumerate_count_zero(capsys):
    code, out, err = run_cli(capsys, "enumerate", TEXTBOOK, "--count", "0")
    assert code == 0
    assert out == ""


def test_enumerate_algorithm_b(capsys):
    code, out, err = run_cli(capsys, "enumerate", TEXTBOOK, "--algorithm", "b",
                             "--count", "7", "--show-index")
    assert code == 0
    lines = dict(line.split("\t") for line in out.splitlines())
    assert lines["5"] == "danvdan"
    assert lines["6"] == "danvdanv"


def test_enumerate_from(capsys):
    code, out, err = run_cli(capsys, "enumerate", TEXTBOOK, "--from", "99", "--count", "2")
    assert out.splitlines() == ["nvnpdn", "daaaaanv"]


def test_decode_formats(capsys):
    code, out, err = run_cli(capsys, "decode", TEXTBOOK, "0", "--format", "sexp")
    assert code == 0 and out.strip() == "(S (NP n) (VP v))"
    code, out, err = run_cli(capsys, "decode", TEXTBOOK, "3")
    assert code == 0 and out.strip() == "nvn"
    code, out, err = run_cli(capsys, "decode", TEXTBOOK, "1", "--sep", " ")
    assert code == 0 and out.strip() == "d n v"
    code, out, err = run_cli(capsys, "decode", TEXTBOOK, "0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {
        "nt": "S",
        "children": [{"nt": "NP", "children": ["n"]}, {"nt": "VP", "children": ["v"]}],
    }


def test_decode_start_override(capsys):
    code, out, err = run_cli(capsys, "decode", TEXTBOOK, "2", "--start", "NP")
    assert code == 0 and out.strip() == "dan"


def test_decode_malformed_index(capsys):
    for bad in ("1x", "-3", "0.5", ""):
        code, out, err = run_cli(capsys, "decode", TEXTBOOK, bad)
        assert code == 3, bad


def test_unknown_start_nonterminal(capsys):
    code, out, err = run_cli(capsys, "decode", TEXTBOOK, "0", "--start", "XP")
    assert code == 3


def test_encode_roundtrip(capsys):
    code, out, err = run_cli(capsys, "encode", TEXTBOOK, "(S (NP n) (VP v))")
    assert code == 0 and out.strip() == "0"
    code, out, err = run_cli(capsys, "decode", TEXTBOOK, "321", "--format", "sexp")
    code, out2, err = run_cli(capsys, "encode", TEXTBOOK, out.strip())
    assert code == 0 and out2.strip() == "321"


def test_encode_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("(S (NP d n) (VP v))"))
    code, out, err = run_cli(capsys, "encode", TEXTBOOK, "-")
    assert code == 0 and out.strip() == "1"


def test_encode_error_codes(capsys):
    code, out, err = run_cli(capsys, "encode", TEXTBOOK, "(S (NP n)")
    assert code == 3
    code, out, err = run_cli(capsys, "encode", TEXTBOOK, "(S (NP n))")
    assert code == 4


@pytest.mark.parametrize(
    "text, code",
    [("(S NP VP)", 4), ("(S (NP n)) junk", 3), ("(S (NP n)", 3), ("(X a) junk", 3)],
)
def test_encode_reports_syntax_errors_before_grammar_errors(capsys, text, code):
    got, out, err = run_cli(capsys, "encode", TEXTBOOK, text)
    assert got == code and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_diff_matches_reference(capsys):
    code, out, err = run_cli(capsys, "diff", TEXTBOOK, "--count", "134")
    assert code == 0
    expected = "".join(f"{i}\t{b}\t{a}\n" for i, b, a in expected_ab_diff())
    assert out == expected


def test_diff_before_first_divergence(capsys):
    code, out, err = run_cli(capsys, "diff", TEXTBOOK, "--count", "5")
    assert code == 0 and out == ""
    code, out, err = run_cli(capsys, "diff", TEXTBOOK, "--count", "0")
    assert code == 0 and out == ""


def test_enumerate_decode_composability(capsys):
    code, out, err = run_cli(capsys, "enumerate", TEXTBOOK, "--count", "25", "--show-index")
    rows = [line.split("\t") for line in out.splitlines()]
    for index, expected_yield in rows:
        code, out, err = run_cli(capsys, "decode", TEXTBOOK, index)
        assert code == 0 and out.strip() == expected_yield


def test_output_is_deterministic(capsys):
    runs = [run_cli(capsys, "enumerate", TEXTBOOK, "--count", "40", "--format", "sexp")
            for _ in range(2)]
    assert runs[0] == runs[1]


def chain_grammar(tmp_path):
    path = tmp_path / "chain.cfg"
    path.write_text("S -> x | a S\n")
    return str(path)


def test_decode_deep_tree_as_json(capsys, tmp_path):
    code, out, err = run_cli(capsys, "decode", chain_grammar(tmp_path), "5000", "--format", "json")
    assert code == 0, err
    assert out == '{"nt":"S","children":["a",' * 5000 + '{"nt":"S","children":["x"]}' + "]}" * 5000 + "\n"


def test_decode_deep_tree_with_back_references(capsys, tmp_path):
    code, out, err = run_cli(capsys, "decode", chain_grammar(tmp_path), "5000", "--algorithm", "b")
    assert code == 0, err
    assert out == "a" * 5000 + "x\n"


def test_json_format_matches_json_dumps(capsys, textbook):
    code, out, err = run_cli(capsys, "enumerate", TEXTBOOK, "--count", "300", "--format", "json")
    assert code == 0
    for i, line in enumerate(out.splitlines()):
        assert line == json.dumps(tree_to_json_obj(decode(textbook, "S", i)), separators=(",", ":"))


def test_step_budget_exits_1_with_one_line(capsys):
    code, out, err = run_cli(capsys, "decode", TEXTBOOK, str(2**256))
    assert code == 1
    assert err.startswith("error: decode exceeded") and err.count("\n") == 1


@pytest.mark.parametrize("failure", [RecursionError, MemoryError])
def test_resource_failures_exit_1_with_one_line(capsys, monkeypatch, failure):
    def failing(*args, **kwargs):
        raise failure()

    monkeypatch.setattr("treenum.cli.decode", failing)
    code, out, err = run_cli(capsys, "decode", TEXTBOOK, "3")
    assert code == 1
    assert err == f"error: tree too large to process ({failure.__name__})\n"


def test_grammar_file_not_utf8_exits_1_with_one_line(capsys, tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"S -> x\xff | S S\n")
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1


def digits(count, seed):
    """A decimal index of ``count`` digits, made without int/str conversion,
    which CPython limits to 4,300 digits by default."""
    rng = random.Random(seed)
    return rng.choice("123456789") + "".join(rng.choices("0123456789", k=count - 1))


def test_indices_past_the_int_str_digit_limit(capsys):
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    index = digits(5000, 1)
    code, out, err = run_cli(capsys, "decode", str(GRAMMARS / "binary.cfg"), index)
    assert code == 0, err
    code, out, err = run_cli(capsys, "enumerate", str(GRAMMARS / "binary.cfg"), "--from", index,
                             "--count", "1", "--show-index")
    assert code == 0 and out.startswith(index + "\t"), err
    if limit is not None:
        assert sys.get_int_max_str_digits() == limit


def test_sexp_roundtrip_of_a_16000_bit_index(capsys, monkeypatch):
    logic = str(REPO / "perfbench" / "logic.cfg")
    index = "9" + digits(4816, 2)  # 16,001 or 16,002 bits
    code, out, err = run_cli(capsys, "decode", logic, index, "--format", "sexp")
    assert code == 0, err
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, err = run_cli(capsys, "encode", logic, "-")
    assert code == 0 and out == index + "\n", err


@pytest.mark.parametrize("argv", [("decode", TEXTBOOK), ("decode", TEXTBOOK, "0", "--format", "xml")])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "usage: treenum" in capsys.readouterr().err


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    script = "import sys, treenum.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0 and done.stdout == "[]\n", done.stderr
