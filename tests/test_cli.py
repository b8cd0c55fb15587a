import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc

import pytest

from nilalg import cli
from nilalg.formal import parse_sum


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_exact_json(capsys):
    code, out, _ = run(capsys, "exact", "--n", "2", "--d", "2", "--p", "0",
                       "--max-deg", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 3
    assert payload["witness"] == "x2.x1"
    assert all(set(row) == {"delta", "words", "rank", "qdim"}
               for row in payload["per_degree"])


def test_exact_deterministic(capsys):
    a = run(capsys, "exact", "--n", "3", "--d", "2", "--p", "2", "--max-deg", "7")
    b = run(capsys, "exact", "--n", "3", "--d", "2", "--p", "2", "--max-deg", "7")
    assert a == b


def test_member_json_roundtrip(capsys):
    code, out, _ = run(capsys, "member", "--n", "4", "--d", "2", "--p", "0",
                       "--expr", "x1^3.x2.x1^3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["member"] is True
    assert payload["residual"] == "0"


def test_member_negative_residual_parses(capsys):
    code, out, _ = run(capsys, "member", "--n", "4", "--d", "2", "--p", "0",
                       "--expr", "x1^2.x2.x1^2 + x1.x2.x1^3", "--json")
    payload = json.loads(out)
    assert payload["member"] is False
    # residual is re-parseable and itself reduced
    f = parse_sum(payload["residual"], 2, 0)
    assert not f.is_zero()


def test_member_from_file(tmp_path, capsys):
    path = tmp_path / "expr.txt"
    path.write_text("x1^3.x2.x1^3")
    code, out, _ = run(capsys, "member", "--n", "4", "--d", "2",
                       "--file", str(path), "--json")
    assert code == 0
    assert json.loads(out)["member"] is True


@pytest.mark.parametrize("command", [
    ("member", "--n", "4", "--d", "2"),
    ("equiv", "--n", "4", "--d", "2"),
    ("reduce4", "--d", "2"),
])
def test_unreadable_file_refused(tmp_path, capsys, command):
    # a missing path or a directory used to end in a traceback with exit 1,
    # the code of a breached guard
    for path in (tmp_path / "missing.txt", tmp_path):
        code, out, err = run(capsys, *command, "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("usage error: cannot read --file %s" % path)


def test_equiv_certificate(capsys):
    code, out, _ = run(capsys, "equiv", "--n", "4", "--d", "2", "--p", "0",
                       "--order", "succ",
                       "--expr", "x1.x2.x1^2 + x1^2.x2.x1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["equiv_zero"] is True
    assert payload["certificate"] is not None


def test_reduce4(capsys):
    code, out, _ = run(capsys, "reduce4", "--d", "2", "--p", "0",
                       "--expr", "x1^2.x2.x1^2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["canonical"] == "- x1^3.x2.x1 - x1.x2.x1^3".replace("- ", "-", 1)
    assert payload["difference_in_ideal"] is True


def test_witness4(capsys):
    code, out, _ = run(capsys, "witness4", "--d", "2", "--p", "0",
                       "--max-deg", "10", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["degree"] == 9


def test_bounds_text_and_json(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "30", "--d", "2", "--p", "17",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 30
    assert any(b["formula_id"] == "exp_half" for b in payload["all"])
    code2, out2, _ = run(capsys, "bounds", "--n", "4", "--d", "2", "--p", "0")
    assert code2 == 0
    assert "best upper: 10" in out2


def test_bounds_csv(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "6", "--d", "2", "--p", "0",
                       "--csv")
    assert code == 0
    header, *rows = out.strip().splitlines()
    assert header.startswith("formula_id,")
    assert rows


def test_bounds_beyond_int_string_limit(capsys):
    # 2^15000 - 1 has more digits than int-to-str conversion allows; the
    # Nagata-Higman entry keeps its log10 value and drops the integer
    code, out, err = run(capsys, "bounds", "--n", "15000", "--d", "2", "--p", "0", "--json")
    assert code == 0, err
    by_id = {b["formula_id"]: b for b in json.loads(out)["all"]}
    assert by_id["nagata_higman"]["value_exact"] is None
    assert by_id["nagata_higman"]["value_log10"] == pytest.approx(15000 * 0.30103, rel=1e-5)


def test_bounds_refuses_n_beyond_the_recursive_limit(capsys):
    # the recursive bound costs about n^0.75: an n above its limit is
    # refused at once instead of running for minutes
    n = str(10**15)
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", "--n", n, "--d", "2", "--p", "0", "--json")
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert "recursive bound takes n <= 10000000, got n=%s" % n in err


@pytest.mark.parametrize("flag", [("--limit-rows", "5"), ("--timeout-sec", "1")])
def test_bounds_has_no_engine_limits(capsys, flag):
    code, out, err = run(capsys, "bounds", "--n", "5", "--d", "2", *flag)
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: %s" % flag[0] in err


def test_compare(capsys):
    code, out, _ = run(capsys, "compare", "--n", "2000", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["min_log10_ratio"] >= 20


def test_compare_runs_in_constant_memory(capsys):
    # the rows are made one at a time, not kept in a list of all n
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, "compare", "--n", "50000", "--json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads(out)["n_max"] == 50000
    assert peak < 1_000_000


def test_invariants_gen_check(capsys):
    code, out, _ = run(capsys, "invariants", "gen-check", "--n", "2", "--d", "1",
                       "--p", "0", "--extra-deg", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"]["all_pass"] is True


@pytest.mark.parametrize("flag", [["--timeout-sec", "0"], ["--limit-rows", "1"]])
def test_invariants_gen_check_guards(capsys, flag):
    code, out, err = run(capsys, "invariants", "gen-check", "--n", "2", "--d", "2",
                         "--p", "0", "--extra-deg", "2", *flag)
    assert code == 1
    assert out == ""
    assert err.startswith("guard breached: ")


_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
_CHILD_ENV = dict(os.environ, PYTHONPATH=_SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
_CLI = [sys.executable, "-m", "nilalg.cli"]


def _run_child(*argv):
    """The CLI in a child process, killed after 60 s."""
    return subprocess.run(_CLI + list(argv), env=_CHILD_ENV, capture_output=True,
                          text=True, timeout=60)


def test_reader_closing_stdout_early_is_not_an_error():
    # compare --n 50000 writes about 1 MB, more than a pipe holds: once the
    # reader has gone, a write fails with a broken pipe, and the CLI must end
    # quietly with exit 0 (1 is a breached guard)
    child = subprocess.Popen(_CLI + ["compare", "--n", "50000", "--csv"], env=_CHILD_ENV,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "n,log10_ratio\n"
        child.stdout.close()
        _, err = child.communicate(timeout=60)
    finally:
        child.kill()
    assert child.returncode == 0
    assert err == ""


def test_invariants_gen_check_timeout_n3():
    # the deadline is checked at every target and every product span the
    # recursion builds; a child process, so that a regression fails on the
    # timeout instead of hanging
    done = _run_child("invariants", "gen-check", "--n", "3", "--d", "2", "--p", "0",
                      "--extra-deg", "2", "--timeout-sec", "2")
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr.startswith("guard breached: timeout")


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "bounds", "--n", "0", "--d", "2")
    assert code == 2
    code, _, _ = run(capsys, "bounds", "--n", "3", "--d", "2", "--p", "4")
    assert code == 2
    code, _, _ = run(capsys, "member", "--n", "4", "--d", "2",
                     "--expr", "x1 +")
    assert code == 2
    code, _, _ = run(capsys, "member", "--n", "4", "--d", "2")
    assert code == 2
    code, _, err = run(capsys, "member", "--n", "4", "--d", "2", "--expr", "1/0*x1")
    assert code == 2
    assert err.startswith("usage error: zero denominator")
    code, _, _ = run(capsys, "nonsense")
    assert code == 2
    code, _, _ = run(capsys, "compare", "--n", "10", "--threads", "2")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("exact", "--n", "3", "--d", "2", "--max-deg", "0"),
    ("exact", "--n", "3", "--d", "2", "--max-deg", "-1"),
    ("witness4", "--d", "2", "--max-deg", "0"),
    ("invariants", "gen-check", "--n", "2", "--d", "1", "--extra-deg", "0"),
    ("invariants", "gen-check", "--n", "2", "--d", "1", "--extra-deg", "-1"),
])
def test_degree_bounds_below_one_refused(capsys, argv):
    # these used to exit 0 with no degree searched: "exceeds max_deg 0",
    # "witness: None", or all_pass over zero cases
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "must be >= 1" in err


@pytest.mark.parametrize("flag", [
    ("--timeout-sec", "nan"),  # used to exit 0 with no deadline at all
    ("--timeout-sec", "-1"),  # these two used to exit 1 as guard breaches
    ("--limit-rows", "-3"),
    ("--limit-rows", "0"),
])
def test_bad_limits_refused(capsys, flag):
    code, out, err = run(capsys, "exact", "--n", "4", "--d", "2", "--max-deg", "11", *flag)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: %s must be" % flag[0])


def test_readme_command_lines_exit_zero(capsys):
    # every line of README's "Command line" block runs and exits 0
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme) as fh:
        section = fh.read().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.strip()]
    assert len(lines) == 8
    for line in lines:
        prog, *argv = shlex.split(line)
        assert prog == "nilalg"
        assert run(capsys, *argv)[0] == 0, line


def test_guard_exit_code(capsys):
    code, _, err = run(capsys, "exact", "--n", "3", "--d", "3", "--p", "0",
                       "--max-deg", "8", "--timeout-sec", "0")
    assert code == 1
    first, payload = err.strip().split("\n")
    assert first.startswith("guard breached: timeout")
    partial = json.loads(payload)
    assert partial["degree"].startswith("stopped after degree 0: timeout")
    assert partial["completed_degree"] == 0
    assert partial["stopped"].startswith("timeout")


def test_prime_beyond_int64_kernel_refused():
    # such a prime used to overflow the int64 rows and loop forever; run in a
    # child process so that a regression fails on the timeout, not hangs
    done = _run_child("exact", "--n", "3", "--d", "2", "--p", "8589934609",
                      "--max-deg", "7", "--timeout-sec", "2")
    assert done.returncode == 2
    assert "3037000499" in done.stderr


@pytest.mark.parametrize("argv", [
    ("--max-deg", "40", "--timeout-sec", "3"),
    ("--max-deg", "3000"),
])
def test_witness4_reads_the_degree_scan(argv):
    # the witness is read off the nilpotency-degree scan, which stops at
    # C(4,2,0) = 10, not found top down: no chain of 3000 components.  A
    # child process, so that a regression fails on the timeout instead of
    # hanging
    done = _run_child("witness4", "--d", "2", *argv, "--json")
    assert (done.returncode, done.stderr) == (0, "")
    assert json.loads(done.stdout) == {"degree": 9, "witness": "x1^3.x2^2.x1^2.x2.x1"}


def test_deadline_ends_in_a_guard_and_partial_json():
    # the deadline is checked at the start of every component build, before
    # its words are sorted, and inside it: one guard line, no traceback, then
    # the scan's partial result
    start = time.monotonic()
    done = _run_child("exact", "--n", "5", "--d", "2", "--max-deg", "20",
                      "--timeout-sec", "3")
    assert time.monotonic() - start < 30
    assert done.returncode == 1
    assert done.stdout == ""
    first, payload = done.stderr.strip().split("\n")
    assert first.startswith("guard breached: timeout")
    partial = json.loads(payload)
    assert partial["stopped"] == first[len("guard breached: "):]
    assert 0 <= partial["completed_degree"] < 20


def test_member_drops_terms_with_an_nth_power(capsys):
    # x1^3000 contains x1^4, so it is a member without any component: no
    # chain of 3000 components is built
    code, out, _ = run(capsys, "member", "--n", "4", "--d", "2", "--expr", "x1^3000")
    assert (code, out) == (0, "member: true\nresidual: 0\n")
    code, out, _ = run(capsys, "member", "--n", "4", "--d", "2",
                       "--expr", "x1^3000 + x1^2.x2.x1^2")
    assert (code, out) == (0, "member: false\nresidual: -x1^3.x2.x1 - x1.x2.x1^3\n")


def test_conjecture_flag(capsys):
    code, out, _ = run(capsys, "bounds", "--n", "10", "--d", "2", "--p", "11",
                       "--assume-conjecture-n2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert any(b["formula_id"] == "conjecture_n2" for b in payload["all"])
