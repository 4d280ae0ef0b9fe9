import csv
import io
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alphaseq
from alphaseq import cli, enumeration
from alphaseq.core import format_sequence, harmonic, least_element, parse_sequence, star
from alphaseq.oracle import OracleReport, oracle_dn

L7_TEXT = "2,1,1,1,1\n2,1,2,1\n3,2,1\n3,1,1,1\n3,1,2\n4,2\n4,1,1\n5,1\n6\n"


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_ln_text(capsys):
    code, out, _ = run(capsys, "list", "--set", "ln", "7")
    assert code == 0
    assert out == L7_TEXT


def test_list_limit_prefix(capsys):
    code, out, _ = run(capsys, "list", "--set", "dn", "8", "--limit", "3")
    assert code == 0
    assert out == "0\n1\n2,1\n"
    code, out, _ = run(capsys, "list", "--set", "dn", "8")
    assert code == 0
    assert out.splitlines() == ["0"] + [format_sequence(a) for a in oracle_dn(8)[1:]]


def test_list_desc(capsys):
    code, out, _ = run(capsys, "list", "--set", "ln", "7", "--desc")
    assert code == 0
    assert out == "\n".join(reversed(L7_TEXT.split("\n")[:-1])) + "\n"
    code, out, _ = run(capsys, "list", "--set", "dn", "8", "--desc", "--limit", "2")
    assert code == 0
    assert out == "7\n6,1\n"
    code, out, _ = run(capsys, "list", "--set", "an", "4", "--desc", "--limit", "2")
    assert code == 0
    assert out == "4\n3,1\n"


def test_list_checks_limit_before_walking(capsys, monkeypatch):
    def walk(n):
        raise AssertionError("the stream was built before --limit was checked")

    monkeypatch.setattr(cli.enumeration, "enumerate_dn_descending", walk)
    code, out, err = run(capsys, "list", "--set", "dn", "22", "--desc", "--limit", "-1")
    assert (code, out, err) == (1, "", "alphaseq list: error: argument --limit: must be >= 0, got -1\n")
    # the patch is reached when --limit is valid, so the check above is not vacuous
    with pytest.raises(AssertionError, match="before --limit"):
        cli.run(["list", "--set", "dn", "22", "--desc", "--limit", "1"])


def test_list_dn_desc_streams_without_the_ascending_walk(capsys, monkeypatch):
    def walk(n):
        raise AssertionError("dn --desc built the ascending walk")

    monkeypatch.setattr(cli.enumeration, "enumerate_dn", walk)
    code, out, _ = run(capsys, "list", "--set", "dn", "20", "--desc", "--limit", "5")
    assert code == 0
    assert out == "".join(format_sequence(a) + "\n" for a in oracle_dn(20)[::-1][:5])
    with pytest.raises(AssertionError, match="ascending walk"):
        cli.run(["list", "--set", "dn", "20", "--limit", "5"])


def test_list_dn_desc_is_the_reversed_ascending_listing(capsys):
    for n in range(1, 21):
        argv = ("list", "--set", "dn", str(n))
        for fmt in ("text", "csv"):
            _, up, _ = run(capsys, *argv, "--format", fmt)
            _, down, _ = run(capsys, *argv, "--desc", "--format", fmt)
            assert down.splitlines(keepends=True) == up.splitlines(keepends=True)[::-1], (n, fmt)
        _, up, _ = run(capsys, *argv, "--format", "json")
        _, down, _ = run(capsys, *argv, "--desc", "--format", "json")
        record = json.loads(up)
        record["items"].reverse()
        assert down == json.dumps(record, separators=(",", ":")) + "\n", n


@pytest.mark.parametrize("set_name", ["an", "ln", "dn"])
def test_list_formats_render_the_walk(capsys, set_name):
    for n, desc in itertools.product(range(1, 17), (False, True)):
        walk = getattr(enumeration, f"enumerate_{set_name}{'_descending' if desc else ''}")
        items = list(walk(n))
        # 63..65 and 128 sit on the seams of the 64-item chunks that list encodes
        for limit in (None, 0, 1, 5, 63, 64, 65, 128):
            argv = ["list", "--set", set_name, str(n)] + ["--desc"] * desc
            argv += [] if limit is None else ["--limit", str(limit)]
            head = items[:limit]
            record = {"n": n, "set": set_name, "count": len(head), "items": head}
            json_line = json.dumps(record, separators=(",", ":")) + "\n"
            assert run(capsys, *argv, "--format", "json") == (0, json_line, ""), argv
            text = "".join(format_sequence(a) + "\n" for a in head)
            rows = io.StringIO()
            csv.writer(rows, lineterminator="\n").writerows(a or (0,) for a in head)
            assert rows.getvalue() == text, argv
            assert run(capsys, *argv, "--format", "csv") == run(capsys, *argv) == (0, text, ""), argv


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_list_limit_at_or_above_the_set_size_lists_the_whole_set(capsys, fmt):
    # 2**63 is one past sys.maxsize, which islice refuses; no limit that large may reach it
    for set_name, n in (("an", 6), ("ln", 7), ("dn", 8)):
        argv = ("list", "--set", set_name, str(n), "--format", fmt)
        code, whole, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        size = len(whole.splitlines()) if fmt == "text" else json.loads(whole)["count"]
        assert size == len(list(getattr(enumeration, f"enumerate_{set_name}")(n)))
        for limit in (size, size + 1, 2**63, 10**30):
            assert run(capsys, *argv, "--limit", str(limit)) == (0, whole, ""), (argv, limit)


class _Writes(io.StringIO):
    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text.encode()))
        return super().write(text)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_list_streams_in_writes_below_a_stdout_block(monkeypatch, fmt):
    # A_14 (8192 items, 123 KB of text) leaves in many writes, none above one 8 KiB block
    out = _Writes()
    monkeypatch.setattr(sys, "stdout", out)
    assert cli.run(["list", "--set", "an", "14", "--format", fmt]) == 0
    assert len(out.sizes) > 1 and max(out.sizes) <= 8192, (len(out.sizes), max(out.sizes))
    assert sum(out.sizes) == len(out.getvalue().encode())


def test_list_json_memory_stays_near_text(peak_rss_kb):
    # A_18 has 131 072 items; a record built whole peaked 27 MB above the text listing
    peaks = {
        fmt: peak_rss_kb("-m", "alphaseq", "list", "--set", "an", "18", "--format", fmt)
        for fmt in ("text", "json")
    }
    assert peaks["json"] < peaks["text"] + 10 * 1024, peaks


def test_list_json_round_trips(capsys):
    code, out, _ = run(capsys, "list", "--set", "dn", "8", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["n"] == 8 and record["set"] == "dn"
    assert record["count"] == 20 == len(record["items"])
    assert record["items"][0] == []  # the zero sequence
    assert record["items"][-1] == [7]
    assert json.dumps(record, separators=(",", ":")) + "\n" == out


def test_list_csv(capsys):
    code, out, _ = run(capsys, "list", "--set", "an", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "1,3"
    code, out, _ = run(capsys, "list", "--set", "dn", "8", "--format", "csv", "--limit", "1")
    assert out == "0\n"


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_list_ends_quietly_when_the_reader_closes_the_pipe(fmt):
    # the L_18 listing (about 124 KB) outgrows a 64 KiB pipe buffer, so the
    # child is still writing when the reader goes away
    src = str(Path(alphaseq.__file__).resolve().parents[1])
    child = subprocess.Popen(
        [sys.executable, "-m", "alphaseq", "list", "--set", "ln", "18", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    # the JSON record is one line, so read one byte of it
    first = child.stdout.read(1) if fmt == "json" else child.stdout.readline()
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert first and child.returncode == 0
    assert err == b""


def test_list_cap(capsys, monkeypatch):
    code, _, err = run(capsys, "list", "--set", "an", "31")
    assert code == 2
    assert "cap" in err
    monkeypatch.setenv("ALPHASEQ_ENUM_CAP", "40")
    code, out, _ = run(capsys, "list", "--set", "an", "31", "--limit", "1")
    assert code == 0 and out == "1,30\n"


@pytest.mark.parametrize("variable, argv", [
    ("ALPHASEQ_ENUM_CAP", ("list", "--set", "ln", "5")),
    ("ALPHASEQ_ORACLE_CAP", ("verify", "1", "3")),
])
@pytest.mark.parametrize("value", ["abc", "-3", "0"])
def test_malformed_cap_is_a_domain_error(capsys, monkeypatch, variable, argv, value):
    monkeypatch.setenv(variable, value)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"alphaseq: {variable} must be a positive integer, got {value!r}\n"


def test_succ(capsys):
    assert run(capsys, "succ", "--set", "ln", "11", "3,2,3,2") == (0, "3,1,1,3,2\n", "")
    assert run(capsys, "succ", "--set", "an", "4", "1,1,1,1") == (0, "1,1,2\n", "")
    code, out, _ = run(capsys, "succ", "--set", "dn", "8", "3,1,2,1")
    assert code == 0
    assert out == "3\n4,3\n"


def test_succ_errors(capsys):
    code, _, err = run(capsys, "succ", "--set", "ln", "7", "6")
    assert code == 2
    assert "maximal element" in err
    assert run(capsys, "succ", "--set", "an", "4", "2,1") == (
        2, "", "alphaseq: 2,1 is not a member of A_4\n")
    assert run(capsys, "succ", "--set", "an", "0", "1") == (2, "", "alphaseq: n must be >= 1, got 0\n")
    assert run(capsys, "pred", "--set", "an", "4", "0") == (2, "", "alphaseq: 0 is not a member of A_4\n")
    code, _, err = run(capsys, "succ", "--set", "ln", "6", "2,3")
    assert code == 2


def test_pred(capsys):
    assert run(capsys, "pred", "--set", "ln", "8", "4,3") == (0, "3,1,2,1\n", "")
    assert run(capsys, "pred", "--set", "an", "4", "1,1,1,1") == (0, "1,2,1\n", "")
    code, _, err = run(capsys, "pred", "--set", "ln", "8", "2,1,1,2,1")
    assert code == 2
    assert "minimal" in err


def test_pred_dn(capsys):
    # each burst runs from the member down to the previous member of L_8,
    # through the lower-class elements of D_8 between them
    d8 = oracle_dn(8)
    members = [i for i, a in enumerate(d8) if 1 + sum(a) == 8]
    for lo, hi in zip(members, members[1:]):
        seq = format_sequence(d8[hi])
        expected = "".join(format_sequence(a) + "\n" for a in d8[lo:hi][::-1])
        assert run(capsys, "pred", "--set", "dn", "8", seq) == (0, expected, ""), seq
    assert run(capsys, "pred", "--set", "dn", "8", "4,3") == (0, "3\n3,1,2,1\n", "")
    code, _, err = run(capsys, "pred", "--set", "dn", "8", "2,1,1,2,1")
    assert code == 2
    assert "minimal" in err
    code, _, err = run(capsys, "pred", "--set", "dn", "8", "3")
    assert code == 2
    assert "not a member of L_8" in err


def test_lexical(capsys):
    assert run(capsys, "lexical", "2,1,2,1") == (0, "true\n", "")
    assert run(capsys, "lexical", "3,1,3") == (0, "false\n", "")
    assert run(capsys, "lexical", "0") == (0, "true\n", "")


def test_algebra_commands(capsys):
    assert run(capsys, "compare", "2,1", "3") == (0, "less\n", "")
    assert run(capsys, "compare", "0", "0") == (0, "equal\n", "")
    assert run(capsys, "compare", "3", "2,1") == (0, "greater\n", "")
    assert run(capsys, "meet", "3,1,2,1", "4,2,1") == (0, "3\n", "")
    assert run(capsys, "star", "3", "1") == (0, "4,3\n", "")
    assert run(capsys, "harmonic", "3", "0") == (0, "2,1,1,2,1\n", "")
    assert run(capsys, "least", "8") == (0, "2,1,1,2,1\n", "")


def test_output_size_guard(capsys, monkeypatch):
    # arguments only a little past a lowered budget: cheap even if the guard failed
    monkeypatch.setattr(cli, "MAX_CELLS", 16)
    for argv in (("least", "40"), ("harmonic", "4", "1"), ("star", "2", "9"), ("star", "2,1", "1,1,1,1,1")):
        assert run(capsys, *argv) == (2, "", "alphaseq: output would exceed 16 cells\n"), argv
    # the length is read off the arguments, not their degree
    assert run(capsys, "star", "5000000", "1") == (0, "5000001,5000000\n", "")


def test_output_size_guard_counts_the_exact_length(capsys, monkeypatch):
    seqs = ("0", "1", "2", "1,1", "2,1", "3,1,2", "2,1,1,2,1")
    cases = [(("least", str(n)), least_element(n)) for n in range(1, 70)]
    cases += [(("harmonic", str(j), q), harmonic(j, parse_sequence(q))) for j in range(6) for q in seqs]
    cases += [(("star", p, q), star(parse_sequence(p), parse_sequence(q))) for p in seqs for q in seqs]
    for argv, expected in cases:
        monkeypatch.setattr(cli, "MAX_CELLS", len(expected))
        assert run(capsys, *argv) == (0, format_sequence(expected) + "\n", ""), argv
        monkeypatch.setattr(cli, "MAX_CELLS", len(expected) - 1)
        assert run(capsys, *argv)[0] == 2, argv


def test_domain_errors(capsys):
    message = "alphaseq: 3,1 is a left factor of 3,1,2; meet undefined\n"
    assert run(capsys, "meet", "3,1", "3,1,2") == (2, "", message)
    assert run(capsys, "meet", "3,1,2", "3,1") == (2, "", message)
    code, _, _ = run(capsys, "least", "0")
    assert code == 2
    code, _, _ = run(capsys, "harmonic", "-1", "2,1")
    assert code == 1


def test_usage_errors(capsys):
    assert run(capsys, "lexical", "3,x")[0] == 1
    assert run(capsys, "lexical", "3,0,1")[0] == 1
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "bench", "8")[0] == 1
    assert cli.run([]) == 1


def test_usage_errors_are_one_line(capsys):
    # argparse's usage block is not printed: the error line is the whole of stderr
    assert run(capsys, "list", "--set", "ln", "x") == (
        1, "", "alphaseq list: error: argument n: invalid int value: 'x'\n")
    assert run(capsys, "harmonic", "-1", "2,1") == (
        1, "", "alphaseq harmonic: error: argument j: must be >= 0, got -1\n")
    assert run(capsys, "list", "--set", "ln", "5", "--limit", "x") == (
        1, "", "alphaseq list: error: argument --limit: invalid int value: 'x'\n")
    assert run(capsys, "verify", "1") == (
        1, "", "alphaseq verify: error: the following arguments are required: n_max\n")


@pytest.mark.parametrize("text", ["1_0", "\u0661\u0662", "3, 1", "+3"])
def test_sequence_cells_are_ascii_digits(capsys, text):
    # int() reads each of these as positive cells; the CLI refuses them as usage errors
    message = f"alphaseq lexical: error: argument seq: invalid parse_sequence value: {text!r}\n"
    assert run(capsys, "lexical", text) == (1, "", message)


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "1", "8")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 24
    assert lines[0].startswith("A_1: ok")
    assert all(": ok" in line for line in lines)


def test_verify_mismatch_exit_code(capsys, monkeypatch):
    bad = OracleReport(4, "A", 2, [(1, (2, 2), (1, 1, 2))])
    monkeypatch.setattr(cli.oracle, "_reports", lambda lo, hi: [bad])
    code, out, _ = run(capsys, "verify", "4", "4")
    assert code == 3
    assert "MISMATCH at position 1" in out
    assert "expected 2,2, got 1,1,2" in out

