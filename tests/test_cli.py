import csv
import io
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import alphaseq
from alphaseq import cli, enumeration
from alphaseq.adjacency import predecessor_ln, star_factorize
from alphaseq.core import format_sequence, harmonic, least_element, parse_sequence, star
from alphaseq.oracle import OracleReport, oracle_dn


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        # 63..65 and 128 sit on the seams of the 64-row blocks that list writes for ln and
        # dn. A_9's blocks hold 1, 1, 2, .. 64 rows and back down to 1, so its limits
        # 0..256 cut inside each block and at each of its edges
        limits = range(257) if (set_name, n) == ("an", 9) else (None, 0, 1, 5, 63, 64, 65, 128)
        for limit in limits:
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


def test_list_an_steps_only_to_build_its_tails(capsys, monkeypatch):
    # list --set an walks A_m once per listing for each m up to its block size, both
    # ways, and stitches every longer row from those tails by the first-cell law: the
    # steps it takes do not grow with n, where stepping per row takes 2**(n-1) - 1
    calls = []
    for name in ("successor_an", "predecessor_an"):
        step = getattr(enumeration, name)
        monkeypatch.setattr(enumeration, name, lambda a, step=step: calls.append(a) or step(a))
    counts = {}
    for n, desc in itertools.product((12, 17), (False, True)):
        calls.clear()
        code, out, _ = run(capsys, "list", "--set", "an", str(n), *["--desc"] * desc)
        assert code == 0 and out.count("\n") == 2 ** (n - 1)
        counts[n, desc] = len(calls)
    assert counts[12, False] == counts[17, False] and counts[12, True] == counts[17, True], counts
    assert 0 < max(counts.values()) < 2 ** (cli._AN_BLOCK + 1), counts


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_list_an_far_past_the_block_size_is_the_walk(capsys, monkeypatch, fmt):
    # a prefix of A_3000 stitches rows whose first cells run to 2999 across several
    # levels of the first-cell law, each block one join of a head and its tails
    monkeypatch.setenv("ALPHASEQ_ENUM_CAP", "5000")
    for desc in (False, True):
        walk = enumeration.enumerate_an_descending if desc else enumeration.enumerate_an
        head = list(itertools.islice(walk(3000), 300))
        argv = ["list", "--set", "an", "3000", "--limit", "300", "--format", fmt, *["--desc"] * desc]
        if fmt == "text":
            expected = "".join(format_sequence(a) + "\n" for a in head)
        else:
            record = {"n": 3000, "set": "an", "count": 300, "items": head}
            expected = json.dumps(record, separators=(",", ":")) + "\n"
        assert run(capsys, *argv) == (0, expected, ""), argv


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


# caps the child's address space at 1 GiB, then runs ``python -m alphaseq``
CAPPED_CHILD = (
    "import resource, runpy\n"
    "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
    "runpy.run_module('alphaseq', run_name='__main__')\n"
)


def test_list_cell_table_does_not_grow_with_n(capsys, monkeypatch, peak_rss_kb):
    # the cell text table holds only the values printed; one built over range(n + 1)
    # would hold 10**8 strings here. The capped child fails fast on such a table
    # before this process lists the same line itself.
    monkeypatch.setenv("ALPHASEQ_ENUM_CAP", "100000000")
    argv = ["list", "--set", "an", "100000000", "--limit", "1"]
    assert peak_rss_kb("-c", CAPPED_CHILD, *argv) < 64 * 1024
    assert run(capsys, *argv) == (0, "1,99999999\n", "")


def test_list_an_with_a_small_limit_builds_no_set_size(capsys, monkeypatch):
    # |A_n| = 2^(n-1) is a 12.5 MB integer at n = 10**8; a --limit of 1 must not build it
    monkeypatch.setenv("ALPHASEQ_ENUM_CAP", "100000000")
    argv = ["list", "--set", "an", "100000000", "--limit", "1"]
    tracemalloc.start()
    try:
        code = cli.run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, capsys.readouterr().out) == (0, "1,99999999\n")
    assert peak < 1 << 20, peak
    # the JSON header states the count it cut to
    assert run(capsys, *argv, "--format", "json") == (
        0, '{"n":100000000,"set":"an","count":1,"items":[[1,99999999]]}\n', ""
    )


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


def run_child(*args):
    """(exit code, stdout, stderr) of one interpreter run with this checkout's alphaseq."""
    src = str(Path(alphaseq.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error", *args],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": src},
    )
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("argv, code", [(["least", "5"], 0), (["nonsense"], 1), (["least", "0"], 2)])
def test_a_child_exits_as_run_returns(capsys, argv, code):
    # main() is the only way out of a child; it keeps run()'s code and output,
    # with one stderr line for exits 1 and 2 and none for 0
    expected = run(capsys, *argv)
    assert expected[0] == code and len(expected[2].splitlines()) == min(code, 1)
    assert run_child("-m", "alphaseq", *argv) == expected


def test_a_child_runs_its_exit_handlers_with_the_collector_frozen():
    # main() ends through sys.exit, not os._exit, so exit handlers still run;
    # by then it has frozen the collector
    script = (
        "import atexit, gc, sys\n"
        "from alphaseq import cli\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "sys.argv = ['alphaseq', 'least', '5']\n"
        "cli.main()\n"
    )
    assert run_child("-c", script) == (0, format_sequence(least_element(5)) + "\n", "frozen True\n")


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
@pytest.mark.parametrize("value", ["abc", "-3", "0", "1_0", "+12", "\u0661\u0662"])
def test_malformed_cap_is_a_domain_error(capsys, monkeypatch, variable, argv, value):
    # a cap is spelled like an integer argument, so int()'s looser spellings are refused
    monkeypatch.setenv(variable, value)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"alphaseq: {variable} must be a positive integer, got {value!r}\n"


@pytest.mark.parametrize("variable, argv, label", [
    ("ALPHASEQ_ENUM_CAP", ("list", "--set", "an", "12", "--limit", "1"), "enumeration"),
    ("ALPHASEQ_ORACLE_CAP", ("verify", "12", "12"), "oracle"),
])
def test_cap_may_be_surrounded_by_whitespace(capsys, monkeypatch, variable, argv, label):
    monkeypatch.setenv(variable, " 12 ")
    assert run(capsys, *argv)[0] == 0
    monkeypatch.setenv(variable, " 11 ")
    assert run(capsys, *argv) == (2, "", f"alphaseq: n=12 above {label} cap 11\n")


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


def timed_run(capsys, *argv):
    t0 = time.perf_counter()
    result = run(capsys, *argv)
    assert time.perf_counter() - t0 < 30, argv[:4]  # the step up here once took over a minute
    return result


def test_large_steps_round_trip_and_reject_a_non_member(capsys):
    # the L_12288 step up from the least element and back, then its D_n bursts: the
    # reverse burst lists the forward burst's harmonics reversed and ends at the least
    # element. The least element with its last two cells swapped keeps its degree and
    # heads but is not lexical, so the step's input check rejects it with one line
    least = run(capsys, "least", "12288")[1].strip()
    after = timed_run(capsys, "succ", "--set", "ln", "12288", least)[1].strip()
    assert timed_run(capsys, "pred", "--set", "ln", "12288", after) == (0, least + "\n", "")
    up = timed_run(capsys, "succ", "--set", "dn", "12288", least)[1].splitlines()
    assert timed_run(capsys, "pred", "--set", "dn", "12288", up[-1])[1].splitlines() == up[-2::-1] + [least]
    *cells, last, before = least.split(",")
    bad = ",".join([*cells, before, last])
    assert run(capsys, "lexical", bad) == (0, "false\n", "")
    code, out, err = timed_run(capsys, "succ", "--set", "ln", "12288", bad)
    assert (code, out, err.count("\n")) == (2, "", 1) and err.endswith("is not a member of L_12288\n")


def test_large_resonant_step_down_round_trips_through_the_formula_branch(capsys):
    # (3,2,1,2) = star((2,), least_element(3)) is fundamental in L_9, so the companion tail
    # of star((3,2,1,2), least_element(1365)) in L_12285 is read off that factorization.
    # The step up gives the member back; the D_n burst ends on the same predecessor
    assert star_factorize((3, 2, 1, 2), 9) == ((2,), 3, (2,), 3)  # g, m, lam, d
    a = run(capsys, "star", "3,2,1,2", run(capsys, "least", "1365")[1].strip())[1].strip()
    before = timed_run(capsys, "pred", "--set", "ln", "12285", a)[1].strip()
    assert timed_run(capsys, "succ", "--set", "ln", "12285", before) == (0, a + "\n", "")
    assert timed_run(capsys, "pred", "--set", "dn", "12285", a)[1].splitlines()[-1] == before


def test_large_bursts_list_their_harmonics_in_order(capsys):
    # star((2,), least_element(1024)) = h_10((2,)) in L_3072 has d = 2**10, so its D_n
    # step down lists ten harmonics, h_9((2,)) first, before its L_n predecessor, and
    # the step up from that predecessor lists them from h_0((2,)) and ends at the member
    a = star((2,), least_element(1024))
    assert a == harmonic(10, (2,))
    harmonics = [format_sequence(harmonic(j, (2,))) + "\n" for j in range(10)]
    before = format_sequence(predecessor_ln(a, 3072)) + "\n"
    down = timed_run(capsys, "pred", "--set", "dn", "3072", format_sequence(a))
    assert down == (0, "".join(harmonics[::-1]) + before, "")
    up = timed_run(capsys, "succ", "--set", "dn", "3072", before.strip())
    assert up == (0, "".join(harmonics) + format_sequence(a) + "\n", "")


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


@pytest.mark.parametrize("argv", [("star", "{}", "1"), ("harmonic", "1", "{}")])
def test_a_cell_too_long_to_print_is_a_domain_error(capsys, argv):
    # both commands map a cell of k nines to (10**k, 10**k - 1): k = 4299 prints, and
    # k = 4300 parses but its 4301-digit output cell is past the int-to-str digit limit
    nines = "9" * 4299
    expected = f"1{'0' * 4299},{nines}\n"
    assert run(capsys, *(a.format(nines) for a in argv)) == (0, expected, "")
    message = "alphaseq: cannot print a cell of more than 4300 digits\n"
    assert run(capsys, *(a.format(nines + "9") for a in argv)) == (2, "", message)


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


def test_whitespace_may_surround_an_argument_but_not_sit_inside_it(capsys):
    # whitespace around the whole argument is no part of a cell; inside it, it is
    assert run(capsys, "lexical", " 3,1 ") == (0, "true\n", "")
    message = "alphaseq lexical: error: argument seq: invalid parse_sequence value: '3 ,1'\n"
    assert run(capsys, "lexical", "3 ,1") == (1, "", message)
    assert run(capsys, "least", " 4 ") == (0, format_sequence(least_element(4)) + "\n", "")


@pytest.mark.parametrize("text", ["1_0", "+6", "\u0661\u0662"])
@pytest.mark.parametrize("argv, argument", [
    (["list", "--set", "ln", "{}"], "n"),
    (["list", "--set", "ln", "5", "--limit", "{}"], "--limit"),
    (["verify", "{}", "2"], "n_min"),
    (["harmonic", "{}", "2,1"], "j"),
])
def test_integer_arguments_are_ascii_digits(capsys, text, argv, argument):
    # int() reads each of these as a number; an integer argument is spelled as a cell is
    argv = [text if a == "{}" else a for a in argv]
    message = f"alphaseq {argv[0]}: error: argument {argument}: invalid int value: {text!r}\n"
    assert run(capsys, *argv) == (1, "", message)


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

