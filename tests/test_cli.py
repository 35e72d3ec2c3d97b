"""CLI: parsing, output schemas, determinism, exit codes."""

import ast
import contextlib
import hashlib
import io
import importlib.util
import json
import math
import pathlib
import random
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ffstat import _tables, biquad, cli, eulerprod, ffpoly, lfunc, moments
from ffstat.cli import EXIT_CONFIG, EXIT_OK, ConfigError, main, parse_poly
from ffstat.errors import InvariantError
from ffstat.ffpoly import GF, Poly

F3 = GF(3)
F5 = GF(5)


# -- polynomial text format ------------------------------------------------------


def test_parse_comma_format():
    assert parse_poly(F3, "1,0,1") == Poly.from_coeffs(F3, (1, 0, 1))
    assert parse_poly(F3, "1") == Poly.one(F3)
    assert parse_poly(F3, "0") == Poly.zero(F3)


def test_parse_symbolic_format():
    assert parse_poly(F3, "X^2+1") == Poly.from_coeffs(F3, (1, 0, 1))
    assert parse_poly(F3, "X^2+2X+2") == Poly.from_coeffs(F3, (2, 2, 1))
    assert parse_poly(F3, "X") == Poly.x(F3)
    assert parse_poly(F5, "2X^3+X") == Poly.from_coeffs(F5, (0, 1, 0, 2))


def test_parse_roundtrip_all_small_polys():
    for field in (F3, F5):
        for d in range(4):
            for code in range(field.q ** d):
                p = Poly.monic_from_code(field, d, code)
                assert parse_poly(field, str(p)) == p
                assert parse_poly(field, ",".join(map(str, p.coeffs))) == p


def test_parse_errors_name_position():
    with pytest.raises(ConfigError, match="coefficient 2"):
        parse_poly(F3, "1,0,3")
    with pytest.raises(ConfigError, match="term 1"):
        parse_poly(F3, "X^2+5")
    with pytest.raises(ConfigError, match="malformed"):
        parse_poly(F3, "X^2+spam")
    with pytest.raises(ConfigError):
        parse_poly(F3, "")
    with pytest.raises(ConfigError, match="repeats degree"):
        parse_poly(F3, "X+X")


# -- commands ---------------------------------------------------------------------


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_lfunc_command_json(capsys):
    code, out, _ = run_cli(
        capsys, "lfunc", "--q", "3", "--modulus", "X^2+1", "--sign", "plus",
        "--n-max", "8", "--check-rh", "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["raw_coeffs"] == [1, -1]
    assert rec["lambda"] == 1 and rec["delta"] == 0
    assert rec["lstar_coeffs"] == [1]
    assert rec["traces_t"] == [0] * 8
    assert rec["rh_max_deviation"] < 1e-9


def test_family_count_command(capsys):
    code, out, _ = run_cli(capsys, "family", "--q", "3", "--genus", "0",
                           "--variant", "monic", "--count")
    assert code == 0
    assert out.splitlines()[1].startswith("3,0,monic,24,")


def test_family_listing_matches_size(capsys):
    code, out, _ = run_cli(capsys, "family", "--q", "3", "--genus", "0",
                           "--variant", "monic")
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 24


def test_curve_command(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--q", "3", "--f1", "X^2+1", "--f2", "X^2+X+2",
        "--f3", "1", "--n-max", "6", "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["genus"] == 1
    assert rec["N"][:2] == [4, 16]
    assert rec["T"][1] == -6
    assert rec["P_C"] == [1, 0, 3]


def test_moments_command_schema(capsys):
    code, out, _ = run_cli(capsys, "moments", "--q", "3", "--genus", "0",
                           "--n-max", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(cli.MOMENTS_HEADER)
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[4] == "0"  # avg_T_num: genus-0 traces vanish


def test_moments_determinism_across_threads(tmp_path):
    out1, out4 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["moments", "--q", "3", "--genus", "1", "--n-max", "4",
            "--variant", "full", "--mode", "exhaustive"]
    assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
    assert main(base + ["--threads", "3", "--out", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_density_command(capsys):
    code, out, _ = run_cli(capsys, "density", "--q", "3", "--genus", "3",
                           "--alpha", "0.25", "--kernel", "fejer",
                           "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["kernel"] == "fejer"
    assert rec["crosscheck_max_gap"] < 1e-6


def test_eulersum_command(capsys):
    code, out, _ = run_cli(capsys, "eulersum", "--q", "3", "--n", "1",
                           "--M", "4", "--kind", "plus")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "q,n,M,kind,sum_num,sum_den,reference_num,reference_den,scaled_gap"
    cells = row.split(",")
    assert cells[:4] == ["3", "1", "4", "plus"]
    assert cells[6] == "2" and cells[7] == "1"  # reference 2


def test_lemma61_command(capsys):
    code, out, _ = run_cli(capsys, "lemma61", "--q", "3", "--prime", "X^2+1",
                           "--d-min", "1", "--d-max", "2", "--M", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,P,d,k1,k2,nkk,predicted,gap,scaled_gap"
    assert len(lines) == 1 + 2 * 4


def test_primes_command(capsys):
    code, out, _ = run_cli(capsys, "primes", "--q", "3", "--degree", "2")
    assert code == 0
    assert [l.split(",")[1] for l in out.strip().splitlines()[1:]] == [
        "X^2+1", "X^2+X+2", "X^2+2X+2"]
    code, out, _ = run_cli(capsys, "primes", "--q", "5", "--degree", "4",
                           "--count")
    assert out.strip().splitlines()[1] == "5,4,150"


# -- exit codes ---------------------------------------------------------------------


def test_exit_code_config_errors(capsys):
    assert run_cli(capsys, "lfunc", "--q", "4", "--modulus", "X")[0] == 1
    assert run_cli(capsys, "lfunc", "--q", "3", "--modulus", "1,0,3")[0] == 1
    assert run_cli(capsys, "moments", "--q", "3", "--genus", "1")[0] == 1  # missing n-max
    assert run_cli(capsys, "density", "--q", "3", "--genus", "1",
                   "--alpha", "7")[0] == 1
    assert run_cli(capsys, "lemma61", "--q", "3", "--prime", "X^2+2",
                   "--d-max", "2")[0] == 1  # reducible prime


@pytest.mark.parametrize("argv,flag", [
    (["lemma61", "--prime", "X^2+1", "--d-max", "2", "--M", "0"], "--M"),
    (["lemma61", "--prime", "X^2+1", "--d-max", "2", "--M", "-3"], "--M"),
    (["lemma61", "--prime", "X^2+1", "--d-min", "3", "--d-max", "2"], "--d-max"),
    (["lemma61", "--prime", "X^2+1", "--d-min", "-2", "--d-max", "2"], "--d-min"),
    (["eulersum", "--n", "0", "--M", "3"], "--n"),
    (["eulersum", "--n", "2", "--M", "0"], "--M"),
])
def test_fixed_prime_bounds_name_the_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, argv[0], "--q", "3", *argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith(f"config error: {flag}: ")


_CURVE = ["--f1", "X", "--f2", "X+1", "--f3", "X+2"]


@pytest.mark.parametrize("argv,flag", [
    (["lfunc", "--modulus", "X^2+1", "--n-max", "0"], "--n-max"),
    (["lfunc", "--modulus", "X^2+1", "--n-max", "-1"], "--n-max"),
    (["curve", *_CURVE, "--n-max", "-3"], "--n-max"),
    (["moments", "--genus", "1", "--n-max", "-2"], "--n-max"),
    (["moments", "--genus", "1", "--n-max", "1", "--mode", "sample",
      "--sample-size", "-3"], "--sample-size"),
    (["moments", "--genus", "1", "--n-max", "1", "--mode", "auto",
      "--sample-size", "0"], "--sample-size"),
    (["moments", "--genus", "-1", "--n-max", "2"], "--genus"),
    (["density", "--genus", "-1", "--alpha", "1"], "--genus"),
    (["density", "--genus", "0", "--alpha", "1"], "--genus"),
    (["primes", "--degree", "0"], "--degree"),
    (["density", "--genus", "1", "--alpha", "1.5"], "--alpha"),
    (["density", "--genus", "1", "--alpha", "1", "--kernel", "box"], "--kernel"),
    # a repeated --q overrides the leading --q 3
    (["primes", "--degree", "1", "--q", "4"], "--q"),
    (["primes", "--degree", "1", "--q", "2187"], "--q"),
    (["lemma61", "--prime", "X^2+2", "--d-max", "2"], "--prime"),
    (["lemma61", "--prime", "1", "--d-max", "2"], "--prime"),
    (["lemma61", "--prime", "1,0,3", "--d-max", "2"], "--prime"),
    (["lfunc", "--modulus", "1,0,3"], "--modulus"),
    (["lfunc", "--modulus", "1"], "--modulus"),
    (["lfunc", "--modulus", "X^2+1", "--sign", "x"], "--sign"),
    (["curve", "--f1", "1,0,3", "--f2", "X+1", "--f3", "X+2"], "--f1"),
    (["curve", "--f1", "X", "--f2", "X^2+5", "--f3", "X+2"], "--f2"),
    (["curve", "--f1", "X", "--f2", "X+1", "--f3", "3X"], "--f3"),
    (["curve", "--f1", "X", "--f2", "X", "--f3", "X+2"], "--f1, --f2, --f3"),
    (["curve", "--f1", "X^2", "--f2", "X+1", "--f3", "X+2"], "--f1, --f2, --f3"),
    # argparse's own errors
    (["primes", "--degree", "1", "--q", "x"], "--q"),
    (["primes", "--degree", "y"], "--degree"),
    (["primes", "--degree", "1", "--q"], "--q"),
    (["primes", "--degree", "1", "--format", "xml"], "--format"),
    (["primes", "--degree", "1", "--bogus"], "--bogus"),
    (["moments", "--genus", "1"], "--n-max"),
    (["moments"], "--genus, --n-max"),
    # sieve tables over the size cap, refused before they are allocated
    (["eulersum", "--n", "30", "--M", "2"], "--n, --M"),
    (["eulersum", "--n", "2", "--M", "30"], "--n, --M"),
    (["eulersum", "--n", "3", "--M", "12", "--q", "5"], "--n, --M"),
    (["family", "--genus", "30", "--count"], "--genus"),
    (["family", "--genus", "30"], "--genus"),
    (["moments", "--genus", "50", "--n-max", "1"], "--genus"),
    (["density", "--genus", "30", "--alpha", "1"], "--genus"),
    (["primes", "--degree", "30"], "--degree"),
    (["lemma61", "--prime", "X^2+1", "--d-max", "2", "--M", "30"], "--M"),
    # square-free factor tables over the size cap, refused before they are built
    (["family", "--genus", "10", "--count"], "--genus"),
    (["lemma61", "--prime", "X^2+1", "--d-max", "30", "--M", "2"], "--d-max"),
    # the sieve tables of degree 14 over their cap, before the family's
    (["moments", "--genus", "1", "--n-max", "14"], "--n-max"),
    # sieve tables over the size cap: degree 14 is the first refused at q = 3
    (["curve", *_CURVE, "--n-max", "14"], "--n-max"),
    (["curve", "--f1", "X^12+X+2", "--f2", "X", "--f3", "1", "--n-max", "14"], "--n-max"),
    # genus 13: the zeta numerator needs T_1..T_14 whatever --n-max asks
    (["curve", "--f1", "X^14+X+2", "--f2", "X", "--f3", "1", "--n-max", "1"],
     "--f1, --f2, --f3"),
    (["curve", "--f1", "X^14+X+2", "--f2", "X", "--f3", "1", "--n-max", "13"],
     "--f1, --f2, --f3"),
    # the listing and sample mode unrank members from the pair weights,
    # whose square-free factor tables are refused at genus 10 before any
    # member is printed (genus 9 runs: see the tests below)
    (["family", "--genus", "10"], "--genus"),
    # the density's totals need T_1..T_17 at genus 9; at n = 10 their orbit
    # columns would read the residue tables of the 5 880 primes of degree
    # 10 (347 MB), refused before any is built
    (["density", "--genus", "9", "--alpha", "1"], "--genus"),
    (["moments", "--genus", "10", "--n-max", "1", "--mode", "sample",
      "--sample-size", "5"], "--genus"),
    # a pair-weight block over its cap (58 806 x 58 806 square-free quadratics)
    (["family", "--genus", "1", "--count", "--q", "243"], "--genus"),
    # the family totals' residue tables over their cap at n = 10 (416 MB),
    # checked before any n is run
    (["moments", "--genus", "9", "--n-max", "10"], "--n-max"),
    # the L-polynomial's sieve tables over their cap (164 MiB at deg D = 15)
    (["lfunc", "--modulus", "X^15+X+1"], "--modulus"),
    # the sampling flags, checked before any family table is built
    (["moments", "--genus", "1", "--n-max", "1", "--mode", "sample", "--seed", "-1"], "--seed"),
    (["moments", "--genus", "1", "--n-max", "2", "--mode", "auto", "--seed", "-1"], "--seed"),
    (["moments", "--genus", "1", "--n-max", "2", "--mode", "auto",
      "--work-budget", "-1"], "--work-budget"),
    (["moments", "--genus", "1", "--n-max", "2", "--work-budget", "-5"], "--work-budget"),
    # an output path that cannot be opened: a directory, a path under a file
    (["primes", "--degree", "1", "--out", "."], "--out"),
    (["moments", "--genus", "1", "--n-max", "2", "--out", str(pathlib.Path(__file__) / "x.csv")],
     "--out"),
    # a missing directory, refused before the 4 s of stages this run takes
    (["moments", "--genus", "8", "--n-max", "6", "--out",
      str(pathlib.Path(__file__).parent / "no-such-directory" / "x.csv")], "--out"),
    # the sieve top is the degree of --prime, above --d-max and --M
    (["lemma61", "--prime", "X^14+X+2", "--d-max", "2", "--M", "2"], "--prime"),
])
def test_range_errors_name_the_flag(capsys, argv, flag):
    code, out, err = run_cli(capsys, argv[0], "--q", "3", *argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith(f"config error: {flag}: ")


@pytest.mark.parametrize("command,flag,low,high", [
    # the decomposition's check reads prime counts, not one residue table
    # per prime of degree n, so even n >= 10 runs at q = 3
    ("moments --q 3 --genus 1", "--n-max", 8, 12),
    # the fixed-prime sums read prime counts, not square-free tables
    ("lemma61 --q 3 --prime X^2+1 --M 8", "--d-max", 7, 11),
])
def test_a_higher_top_degree_runs_and_keeps_the_lower_rows(capsys, command, flag, low, high):
    code, short, _ = run_cli(capsys, *command.split(), flag, str(low))
    assert code == 0
    code, long, _ = run_cli(capsys, *command.split(), flag, str(high))
    assert code == 0
    assert long.startswith(short) and len(long) > len(short)


@pytest.mark.parametrize("budget", ["zero", "one", "between", "above"])
def test_auto_mode_per_n_matches_theorem_experiment(capsys, monkeypatch, budget):
    # auto samples exactly the n whose cost, members times the q^n + 1
    # points of P^1(F_{q^n}), passes the budget; --work-budget 0 samples every n
    size = biquad.family_size(F3, 1, biquad.FULL)
    budget = {"zero": 0, "one": 1, "between": size * (3 ** 2 + 1),
              "above": size * (3 ** 4 + 1) + 1}[budget]
    modes = []
    real = moments.average_trace

    def record(field, g, n, variant, mode, **kwargs):
        modes.append(mode)
        return real(field, g, n, variant, mode=mode, **kwargs)

    monkeypatch.setattr(moments, "average_trace", record)
    code, _, _ = run_cli(capsys, "moments", "--q", "3", "--genus", "1", "--n-max", "4",
                         "--mode", "auto", "--work-budget", str(budget), "--sample-size", "5")
    assert code == 0
    assert modes == ["sample" if size * (3 ** n + 1) > budget else "exhaustive" for n in range(1, 5)]
    assert len(set(modes)) == (2 if budget == size * (3 ** 2 + 1) else 1)


def test_bad_out_is_refused_before_the_first_stage(capsys, monkeypatch, tmp_path):
    # no stage runs, and an existing file is not truncated by a run that
    # is refused after the path was checked
    monkeypatch.setattr(cli, "_field_for", lambda q: pytest.fail("a stage ran"))
    code, out, err = run_cli(capsys, "primes", "--q", "3", "--degree", "1",
                             "--out", str(tmp_path / "missing" / "x.csv"))
    assert (code, out) == (1, "") and err.startswith("config error: --out: no directory")
    monkeypatch.undo()
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n")
    code, _, err = run_cli(capsys, "primes", "--q", "3", "--degree", "0", "--out", str(kept))
    assert code == 1 and err.startswith("config error: --degree: ")
    assert kept.read_text() == "old\n"


@pytest.mark.parametrize("command", [["primes", "--degree", "1"], ["lfunc", "--modulus", "X^2+1"],
                                     ["family", "--genus", "1", "--count"]])
@pytest.mark.parametrize("flag", ["--seed", "--work-budget"])
def test_seed_and_work_budget_belong_to_moments_alone(capsys, command, flag):
    # a command that reads neither refuses them rather than ignoring them
    code, out, err = run_cli(capsys, command[0], "--q", "3", *command[1:], flag, "1")
    assert (code, out) == (1, "")
    assert err.startswith(f"config error: {flag} 1: unrecognized")


def test_sample_mode_runs_over_a_family_of_millions(capsys):
    # 24 899 040 members at (3, 9), no member array: the five sampled
    # members are unranked and their traces match the one-curve path
    code, out, _ = run_cli(capsys, "moments", "--q", "3", "--genus", "9", "--n-max", "1",
                           "--mode", "sample", "--sample-size", "5", "--format", "json")
    assert code == 0
    rec = json.loads(out)[0]
    size = biquad.family_size(F3, 9, biquad.FULL)
    assert rec["family_size"] == size == 24_899_040
    rng = np.random.Generator(np.random.Philox(0))
    idx = np.sort(rng.choice(size, size=5, replace=False))
    traces = [biquad.curve_counts(biquad.family_member(F3, 9, biquad.FULL, int(i)), 1).T[0]
              for i in idx]
    assert Fraction(rec["avg_T_num"], rec["avg_T_den"]) == Fraction(sum(traces), 5)
    assert biquad.member_traces(F3, 1, *biquad.member_rows(F3, 9, biquad.FULL, idx)).tolist() == traces


class _ClosedAfter(io.StringIO):
    """A stdout whose reader goes away once `limit` characters are written."""

    def __init__(self, limit):
        super().__init__()
        self.limit = limit

    def write(self, text):
        if self.tell() + len(text) > self.limit:
            raise BrokenPipeError
        return super().write(text)


def test_family_listing_streams_until_the_reader_goes_away():
    # the (3, 9) listing would take 149 MB as index rows of its 6 224 760
    # monic members; it writes as it unranks, so a reader that stops after
    # 8 KiB costs a few blocks (the pair weights are built beforehand)
    biquad.family_size(F3, 9)
    stdout = _ClosedAfter(8192)
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(stdout):
            code = main(["family", "--q", "3", "--genus", "9"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert stdout.closed
    assert peak < 149_000_000 // 4


@pytest.mark.parametrize("rows", [
    [],
    [{"q": 3, "avg": Fraction(-7, 3), "N": [4, 16], "T": [], "x": None, "f": 0.1}],
    [{"index": i, "f1": "X^2+1", "P_C": [1, 0, i], "v": Fraction(i, 2)} for i in range(3)],
])
def test_json_rows_stream_as_one_dump(capsys, rows):
    cli.emit(iter(rows), ["q"], "json", None)
    want = json.dumps([{k: cli._json_cell(v) for k, v in row.items()} for row in rows], indent=2)
    assert capsys.readouterr().out == want + "\n"


@settings(max_examples=80, deadline=None)
@given(command=st.sampled_from(["lfunc", "curve", "moments", "density", "family",
                                "lemma61", "eulersum", "primes"]),
       n_max=st.integers(-3, 3), genus=st.integers(-2, 1),
       mode=st.sampled_from(["exhaustive", "sample", "auto"]),
       sample_size=st.integers(-3, 3), seed=st.integers(-2, 2),
       work_budget=st.sampled_from([-2, -1, 0, 1, 50]), count=st.booleans(),
       degree=st.integers(-2, 3), d_min=st.integers(-2, 2), d_max=st.integers(-2, 3),
       M=st.integers(-2, 3), n=st.integers(-2, 3),
       alpha=st.sampled_from(["-1", "0", "0.5", "1", "1.5", "nan", "inf"]))
def test_generated_ranges_exit_zero_or_name_the_flag(command, n_max, genus, mode, sample_size,
                                                     seed, work_budget, count, degree, d_min,
                                                     d_max, M, n, alpha):
    # exit 1 exactly when a flag is out of range, naming it; never a traceback
    argv = {
        "lfunc": ["--modulus", "X^2+1", "--n-max", str(n_max)],
        "curve": [*_CURVE, "--n-max", str(n_max)],
        "moments": ["--genus", str(genus), "--n-max", str(n_max), "--mode", mode,
                    "--sample-size", str(sample_size), "--seed", str(seed),
                    "--work-budget", str(work_budget)],
        "density": ["--genus", str(genus), "--alpha", alpha],
        "family": ["--genus", str(genus), *(["--count"] if count else [])],
        "lemma61": ["--prime", "X^2+1", "--d-min", str(d_min), "--d-max", str(d_max),
                    "--M", str(M)],
        "eulersum": ["--n", str(n), "--M", str(M)],
        "primes": ["--degree", str(degree), *(["--count"] if count else [])],
    }[command]
    bad = {
        "lfunc": n_max < 1,
        "curve": n_max < 1,
        "moments": (n_max < 1 or genus < 0 or work_budget < 0
                    or (mode != "exhaustive" and (sample_size < 1 or seed < 0))),
        # the one-level density is normalised by 1/g
        "density": genus < 1 or not 0 < float(alpha) <= 1,
        # an empty family is a valid answer: size 0, or a header alone
        "family": False,
        "lemma61": M < 1 or d_min < 0 or d_max < d_min,
        "eulersum": n < 1 or M < 1,
        "primes": degree < 1,
    }[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, "--q", "3", *argv])
    assert code == (1 if bad else 0)
    if bad:
        assert err.getvalue().startswith("config error: --")
        assert out.getvalue() == ""


def test_no_bare_asserts_in_src():
    # python -O strips assert statements, and an AssertionError would
    # escape main() as a traceback; internal checks raise InvariantError
    src = pathlib.Path(cli.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_prime_power_forks_outside_ffpoly():
    # every odd q runs through one code path; only ffpoly's field
    # arithmetic may look at the extension degree e of a field
    src = pathlib.Path(cli.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "ffpoly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare) and any(
                    isinstance(sub, ast.Attribute) and sub.attr == "e"
                    for side in (node.left, *node.comparators) for sub in ast.walk(side)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _count_poly_tables(monkeypatch):
    """The max_deg of every PolyTables built from here on, with no table
    cached beforehand."""
    built = []

    class Counted(_tables.PolyTables):
        def __init__(self, field, max_deg):
            built.append(max_deg)
            super().__init__(field, max_deg)

    monkeypatch.setattr(_tables, "PolyTables", Counted)
    monkeypatch.setattr(_tables, "_largest", {})
    return built


def test_density_names_the_genus_for_a_refused_field(capsys, monkeypatch):
    # genus 3 at alpha 1 sums T_1..T_5 over members of degree <= 4; a
    # sieve cap below degree 5 refuses the top table, whose degree the
    # genus sets, before the family's degree-4 table is built
    built = _count_poly_tables(monkeypatch)
    monkeypatch.setattr(_tables, "SIEVE_BYTES_CAP", 8 * (3 + 9 + 27 + 81 + 243) - 1)
    code, out, err = run_cli(capsys, "density", "--q", "3", "--genus", "3", "--alpha", "1")
    assert (code, out) == (1, "")
    assert err.startswith("config error: --genus: PolyTables: q=3 with max_deg=5 ")
    assert built == [5]


@pytest.mark.parametrize("command,top", [
    ("moments --q 3 --genus 2 --n-max 5", 5),
    ("moments --q 3 --genus 4 --n-max 2 --variant monic", 5),
    ("moments --q 5 --genus 1 --n-max 3 --mode sample --sample-size 7", 3),
    ("density --q 3 --genus 3 --alpha 1", 5),
    ("curve --q 3 --f1 X^2+1 --f2 X^2+X+2 --f3 1 --n-max 6", 6),
    ("curve --q 9 --f1 4 --f2 4X^2+3X --f3 X^2+X+4 --n-max 4", 4),
])
def test_family_and_curve_commands_sieve_once(capsys, monkeypatch, command, top):
    # one PolyTables reaching the command's top degree (its largest n, or
    # the family's or curve's top degree), asked for before any lower one
    built = _count_poly_tables(monkeypatch)
    code, _, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert built == [top]


def test_no_per_polynomial_evaluation_outside_ffpoly():
    # chi values and zero counts come from rows over a batch of
    # polynomials; a one-polynomial evaluator called from another module
    # would bring back a per-member path.  The family sums, member traces
    # and curve counts run on the orbit columns of the residue tables, so
    # no module builds an extension field or evaluates at its points
    banned = {"eval_poly", "eval_poly_all", "chi_vector", "zero_count", "ExtensionField",
              "extension_field", "chi_rows", "eval_blocks", "zero_counts", "subfield_mask",
              "_horner", "chi_blocks"}
    src = pathlib.Path(cli.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "ffpoly.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in banned:
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_primes_degree_one_for_a_large_prime(capsys):
    # every monic linear is prime; no sieve, so no residue-table bound
    code, out, _ = run_cli(capsys, "primes", "--q", "100003", "--degree", "1", "--count")
    assert code == 0
    assert out.splitlines()[1] == "100003,1,100003"


def test_cache_dir_is_accepted_and_ignored(capsys, tmp_path):
    argv = ["primes", "--q", "3", "--degree", "3"]
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    code, with_dir, _ = run_cli(capsys, *argv, "--cache-dir", str(tmp_path))
    assert code == 0
    assert with_dir == plain
    assert list(tmp_path.iterdir()) == []


def test_exit_code_invariant_violation(monkeypatch):
    def boom(args):
        raise InvariantError("synthetic")

    # the parser binds the handler at build time, inside main()
    monkeypatch.setattr(cli, "_cmd_primes", boom)
    assert main(["primes", "--q", "3", "--degree", "1"]) == 2


# -- one parser per command ----------------------------------------------------------

#: each command's smallest argv that exits 0
MINIMAL_ARGV = {
    "lfunc": ["lfunc", "--q", "3", "--modulus", "X^2+1"],
    "family": ["family", "--q", "3", "--genus", "0", "--count"],
    "curve": ["curve", "--q", "3", "--f1", "X^2+1", "--f2", "X^2+X+2", "--f3", "1"],
    "moments": ["moments", "--q", "3", "--genus", "0", "--n-max", "1"],
    "density": ["density", "--q", "3", "--genus", "1", "--alpha", "1"],
    "lemma61": ["lemma61", "--q", "3", "--prime", "X^2+1", "--d-max", "1", "--M", "1"],
    "eulersum": ["eulersum", "--q", "3", "--n", "1", "--M", "1"],
    "primes": ["primes", "--q", "3", "--degree", "1"],
}

PARSE_GRID = [
    *MINIMAL_ARGV.values(),
    ["moments", "--q", "3", "--gen", "0", "--n-max", "1"],              # abbreviated flag
    ["family", "--q=3", "--genus=0", "--count"],                          # --flag=value
    ["primes", "--q", "3", "--degree", "x"],                              # bad int
    ["family", "--q", "3", "--genus", "0", "--variant", "bad"],           # bad choice
    ["eulersum", "--q", "3", "--n", "1", "--M", "1", "--format", "xml"],  # bad choice
    ["moments", "--q", "3", "--genus", "1"],                              # missing required
    ["curve", "--q", "3"],                                                # missing required
    ["primes", "--q"],                                                    # missing value
    ["lfunc", "--q", "3", "--modulus", "X", "--bogus"],                   # unknown flag
    ["moments", "--q", "3", "--genus", "0", "--n-max", "1", "--s", "1"],  # ambiguous flag
    ["primes", "--q", "3", "--degree", "1", "--seed", "1"],               # moments' flag
    ["eulersum", "--q", "3", "--n", "1", "--M", "1", "--work-budget", "5"],
]


def _parse_full(argv):
    """argv parsed through build_parser(), every command a subparser."""
    return cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", PARSE_GRID, ids=" ".join)
def test_one_command_parser_matches_the_full_parser(capsys, monkeypatch, argv):
    # the same exit code, stdout and first stderr line; an unrecognized
    # flag's usage line (the second) names the command, not ffstat
    one = run_cli(capsys, *argv)
    with monkeypatch.context() as m:
        m.setattr(cli, "_parse", _parse_full)
        full = run_cli(capsys, *argv)
    assert one[0] in (EXIT_OK, EXIT_CONFIG)
    assert one[:2] == full[:2]
    assert one[2].partition("\n")[0] == full[2].partition("\n")[0]
    if one[0] == EXIT_CONFIG:
        assert one[2].splitlines()[1].startswith(f"usage: ffstat {argv[0]} [-h]")


@pytest.mark.parametrize("name", MINIMAL_ARGV)
def test_command_help_matches_the_full_parser(capsys, monkeypatch, name):
    helps = []
    for parse in (cli._parse, _parse_full):
        monkeypatch.setattr(cli, "_parse", parse)
        with pytest.raises(SystemExit) as exc:
            main([name, "-h"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert helps[0].startswith(f"usage: ffstat {name} [-h] --q Q")


def _option_strings(parser):
    return {s for action in parser._actions for s in action.option_strings}


def test_a_known_command_builds_only_its_own_parser(capsys, monkeypatch):
    built = []

    class Spy(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    full = cli.build_parser()._subparsers._group_actions[0].choices
    outputs = {name: run_cli(capsys, *argv) for name, argv in MINIMAL_ARGV.items()}

    def refuse():
        raise AssertionError("build_parser called for a known command")

    monkeypatch.setattr(cli, "build_parser", refuse)
    monkeypatch.setattr(cli, "_Parser", Spy)
    for name, argv in MINIMAL_ARGV.items():
        built.clear()
        assert run_cli(capsys, *argv) == outputs[name]
        assert outputs[name][0] == 0
        assert [p.prog for p in built] == [f"ffstat {name}"]
        assert _option_strings(built[0]) == _option_strings(full[name])


@pytest.mark.parametrize("argv", [[], ["nosuch", "--q", "3"]])
def test_no_or_unknown_command_lists_all_eight(capsys, argv):
    assert main(argv) == EXIT_CONFIG
    assert "{" + ",".join(MINIMAL_ARGV) + "}" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_top_level_help_lists_all_eight(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([flag])
    assert exc.value.code == 0
    assert "{" + ",".join(MINIMAL_ARGV) + "}" in capsys.readouterr().out


# -- output identity -----------------------------------------------------------------

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


FIXED_PRIME_COMMANDS = [
    f"lemma61 --q 3 --prime {p} --d-max 7 --M 9" for p in _bench_workloads().FIXED_PRIMES
] + ["eulersum --q 3 --n 3 --M 9", "eulersum --q 9 --n 2 --M 3"]


@pytest.mark.parametrize("command", FIXED_PRIME_COMMANDS)
def test_fixed_prime_output_matches_golden_digest(capsys, command):
    # bench/golden.json holds the sha256 of each command's stdout as the
    # unoptimised code printed it
    golden = json.loads((BENCH / "golden.json").read_text())["digests"]
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == golden[command]


@pytest.mark.parametrize("command,digest", [
    ("moments --q 5 --genus 2 --n-max 4 --variant full --mode sample --sample-size 1000",
     "26981478b435e7be94244a062da9d132ed3d1070b346d8f3f9376e96cb3eb41c"),
    ("moments --q 9 --genus 1 --n-max 3 --variant full --mode sample --sample-size 300 --seed 3",
     "03c6a56f54b51e725cc9af7809247941fb3e1f0aaf51436064be2df0ede5a57e"),
])
def test_sample_mode_output_matches_pinned_digest(capsys, command, digest):
    # sha256 of the stdout of the per-member validated path sample mode
    # replaced
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command,digest", [
    ("moments --q 3 --genus 2 --n-max 6 --format json",
     "bf242f7ada20c48d36fe9ff5eec4a7997dd6e63a76c8a6ea4e48be10e9a4438f"),
    ("moments --q 3 --genus 2 --n-max 4 --mode auto --work-budget 30000 --sample-size 50 --format json",
     "878d41ed11c55c74060acc67e3ed95cfac7915a4619be1c8a77045d93d1e1b0b"),
    ("moments --q 5 --genus 1 --n-max 3 --variant monic --mode sample --sample-size 200 --seed 7 "
     "--format json", "7b37bb45c4da29aae27f239b1051552a6651fdb9c2495be5c9ada160ea793892"),
])
def test_moments_json_matches_pinned_digest(capsys, command, digest):
    # sha256 of the stdout of the code whose moments command ran its own
    # (g, n) loop; JSON writes every key of a row, so a key of the
    # experiment's rows outside the CSV header would change it.  The auto
    # run is exhaustive at n = 1, 2 and samples n = 3, 4
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command,digest", [
    ("family --q 3 --genus 2 --variant full",
     "7fc2bf9be6c20859c1aaf56bf7dd1b9891aa9a5206c869cde15b02a4be8a37e3"),
    ("family --q 9 --genus 0 --variant monic",
     "eab6e172bb3cace7915a19d08c2537de7725e4e36b7145c1d326651beb37f001"),
    ("family --q 3 --genus 1 --format json",
     "6057d62fcba32510a8cecf5f532a067492d59e48abdb91f7fb43aa6652bf961a"),
])
def test_family_listing_matches_pinned_digest(capsys, command, digest):
    # sha256 of the stdout of the listing that built every member as a
    # validated CurveTriple from an array of all member rows
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_fixed_prime_output_at_m10_matches_pinned_digest(capsys):
    # sha256 of the stdout of the unoptimised code; the bench golden file
    # pins only M = 9
    code, out, _ = run_cli(capsys, *"lemma61 --q 3 --prime X^2+1 --d-max 8 --M 10".split())
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "9a3e6cc334f7d25285bb5c8f7b0670112ba6cf9af0ce1d45592c51b0bc10cb4f")


@pytest.mark.parametrize("command,digest", [
    ("eulersum --q 3 --n 3 --M 9 --format json",
     "ef7a0d77eacc547598aa43d9e9feab37a059337ceb32898c71a9f6bcf3742a7d"),
    ("eulersum --q 5 --n 2 --M 5 --kind zero",
     "6666a3f7246af7ad506995ff1a1ae5475a128f96407070f50d76a3e9f71dd4fa"),
])
def test_eulersum_output_matches_pinned_digest(capsys, command, digest):
    # sha256 of the stdout of the code that printed the reduced Fraction
    # through str(int) and the JSON rows through int.__repr__ (json.dumps);
    # both now print ints above _DECIMAL_STR_BITS through _decimal_digits
    code, out, _ = run_cli(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt,digest", [
    ("csv", "b58c4b82196bf09a7801298141406fca29fef4626afe14680aebf8bfa34530a7"),
    ("json", "ef7a0d77eacc547598aa43d9e9feab37a059337ceb32898c71a9f6bcf3742a7d"),
])
def test_emit_converts_each_distinct_big_int_once(capsys, monkeypatch, fmt, digest):
    # the plus and minus rows print equal ~90 000-bit sums: four distinct
    # big ints among six cells, each converted once per emit call, and the
    # bytes printed when every cell was converted (sha256 of the stdout of
    # the code that converted each cell)
    converted = []
    digits = cli._decimal_digits

    def counting(n):
        converted.append(n)
        return digits(n)

    sums = [v for r in (eulerprod.prime_sum(kind, F3, 3, 9) for kind in eulerprod.KINDS)
            for v in (r.num, r.den)]
    big = [v for v in sums if v.bit_length() > cli._DECIMAL_STR_BITS]
    assert len(big) == 6 and len(set(big)) == 4
    monkeypatch.setattr(cli, "_decimal_digits", counting)
    code, out, _ = run_cli(capsys, *f"eulersum --q 3 --n 3 --M 9 --format {fmt}".split())
    assert code == 0
    assert sorted(converted) == sorted(set(big))
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command,digest", [
    ("--q 3 --modulus X^6+X^4+X^2+1 --sign plus",
     "893ccc546611419cbf692c00ba856c211c40441c5ee5ff6379a03ad293f78fb6"),
    ("--q 3 --modulus X^5+2X+1 --sign minus",
     "bae9eac00a17b823bc6e4aaa02e564f85f00829f5b414c727465e2dfedb8f6aa"),
    ("--q 5 --modulus X^5+X+1 --sign minus",
     "34ea8cbd410778e656452a0f982baf1166cc0bf10bc07ed808223e2e2d20e6dc"),
    ("--q 5 --modulus X^4+X+2 --sign plus",
     "bf2da2acc42554c84d11e8f2e53bbbfe901a1b352e867150d627cd715ef29d6c"),
    ("--q 9 --modulus X^3+X+1 --sign plus",
     "8a2d3e44c8e628c8cbb2439a29a2ae2b156f44617ccd1659f0e2689152223626"),
    ("--q 9 --modulus X^4+3X+5 --sign minus",
     "ad4833761c065001398e7f00a21dbc814e8eed72d18df5cc260cea1e8be307c7"),
    ("--q 25 --modulus X^3+X+7 --sign plus",
     "6e7259fe83fa07ede9dcb104e429d1cfdc32cf2e636661bb154f2f60effa5e86"),
    ("--q 25 --modulus X^3+X+1 --sign minus",
     "011bb955ad9cd3b897d141c069aefcdc9c37816304746aac68df52b9567c3886"),
])
def test_lfunc_output_matches_pinned_digest(capsys, command, digest):
    # sha256 of the stdout of the code that completed, traced and rooted
    # one L-polynomial at a time (np.roots per polynomial); X^6+X^4+X^2+1,
    # X^5+X+1 at q = 5 and X^3+X+1 at q = 9 have an L* with a repeated root.
    # The q = 25 moduli stay at degree 3, the tables test_tables reads
    # through the shared poly_tables cache
    code, out, _ = run_cli(capsys, "lfunc", *command.split(), "--n-max", "8", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_eulersum_runs_no_big_gcd(capsys, monkeypatch):
    # the prime sums are reduced by p-adic valuation, and scaled_gap is an
    # int division: no Fraction is built from a ~10^5-bit numerator.
    # fractions looks math.gcd up at call time, so the wrapper sees its calls
    biggest = []
    real_gcd = math.gcd

    def gcd(*args):
        biggest.append(max(abs(a).bit_length() for a in args))
        return real_gcd(*args)

    monkeypatch.setattr(math, "gcd", gcd)
    code, _, _ = run_cli(capsys, *"eulersum --q 3 --n 3 --M 9".split())
    monkeypatch.undo()
    assert code == 0
    assert max(biggest, default=0) <= 4096


def test_eulersum_sieves_once(capsys, monkeypatch):
    # one PolyTables reaching max(n, M), not a degree-n table for the
    # primes P followed by a degree-M one for their chi rows
    built = _count_poly_tables(monkeypatch)
    eulerprod.chi_counts.cache_clear()
    eulerprod._degree_counts.cache_clear()
    ffpoly.primes.cache_clear()
    code, _, _ = run_cli(capsys, *"eulersum --q 3 --n 3 --M 9".split())
    assert code == 0
    assert built == [9]


def test_eulersum_counts_the_primes_once(capsys, monkeypatch):
    # the three kinds read one prime_counts call's counts, and print what
    # they printed with one call each
    calls = []
    real = _tables.PolyTables.prime_counts

    def counting(self, d, codes, max_deg):
        calls.append((d, len(codes), max_deg))
        return real(self, d, codes, max_deg)

    monkeypatch.setattr(_tables.PolyTables, "prime_counts", counting)
    eulerprod._degree_counts.cache_clear()
    code, out, _ = run_cli(capsys, *"eulersum --q 3 --n 3 --M 9 --format json".split())
    assert code == 0
    assert calls == [(3, 8, 9)]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "ef7a0d77eacc547598aa43d9e9feab37a059337ceb32898c71a9f6bcf3742a7d")


def _address_space_limit():
    """preexec_fn: at most 512 MiB of address space for the child, so a
    table that escapes the caps fails there instead of filling the host."""
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize("args,need", [
    ("--q 9 --n 6 --M 6", 88440 * 9 ** 6),  # pi_9(6) tables of 9^6 entries
    ("--q 25 --n 4 --M 4", 97500 * 25 ** 4),
])
def test_eulersum_refuses_residue_tables_over_the_cap(args, need):
    # each prime P of degree n reads its own q^n-entry table (the keys'
    # side, every prime up to M >= n, is larger): refused with exit 1
    # before any table is built, where a numpy MemoryError ended the run
    import subprocess

    env = {"PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "PATH": "/usr/bin:/bin"}
    done = subprocess.run([sys.executable, "-m", "ffstat.cli", "eulersum", *args.split()], env=env,
                          capture_output=True, text=True, timeout=120, preexec_fn=_address_space_limit)
    assert (done.returncode, done.stdout) == (EXIT_CONFIG, "")
    assert done.stderr == (f"config error: --n, --M: prime sum: q={args.split()[1]} at n={args.split()[3]}, "
                           f"M={args.split()[5]} needs about {need} bytes of residue tables, over the cap "
                           f"of {eulerprod.PRIME_SUM_BYTES_CAP}\n")


def test_eulersum_admits_the_largest_run_of_the_baseline(monkeypatch):
    # eulersum --q 5 --n 7 --M 7 completes in about 19 s at 1.4 GiB RSS: its
    # pi_5(7) 5^7 bytes of tables pass the check (the sum is not run here)
    assert _tables.symbol_store(5, 7, [ffpoly.prime_count_exact(5, a) for a in range(1, 8)]) == (
        "P", 11160 * 5 ** 7)
    monkeypatch.setattr(eulerprod, "_prime_sum", lambda kind, field, n, M: (1, 1))
    assert eulerprod.prime_sum("plus", F5, 7, 7).num == 1


@contextlib.contextmanager
def _str_digit_limit(limit):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def test_main_restores_the_int_str_digit_limit(capsys):
    # main lifts the int-to-str cap for the ~27 000-digit numerators it
    # prints, and hands the caller's limit back afterwards
    with _str_digit_limit(4321):
        code, out, _ = run_cli(capsys, *"eulersum --q 3 --n 3 --M 9 --format json".split())
        assert code == 0 and len(out) > 4321
        assert sys.get_int_max_str_digits() == 4321


def _ints_near_the_decimal_edges():
    # random ints of bit lengths on both sides of the leaf size and of the
    # threshold, and 10^k - 1, 10^k, 10^k + 1 (all nines, a carry into a
    # new digit, a one after a run of zeros) of as many digits
    edges = (cli._DECIMAL_LEAF_BITS, cli._DECIMAL_STR_BITS)
    bits = st.one_of(st.integers(0, 64), *(st.integers(w - 70, w + 70) for w in edges),
                     st.integers(0, 3 * cli._DECIMAL_STR_BITS))
    digits = st.one_of(st.integers(0, 3), *(st.integers(int(w * math.log10(2)) - 2,
                                                        int(w * math.log10(2)) + 2) for w in edges))
    return st.one_of(
        st.builds(lambda b, seed: random.Random(seed).getrandbits(b), bits, st.integers(0, 2 ** 32)),
        st.builds(lambda k, d: 10 ** k + d, digits, st.integers(-1, 1)))


@settings(max_examples=200, deadline=None)
@given(n=_ints_near_the_decimal_edges(), negative=st.booleans())
@example(n=0, negative=False)
def test_decimal_digits_equal_str(n, negative):
    n = -n if negative else n
    with _str_digit_limit(0):
        assert cli._decimal_digits(n) == str(n)
        assert cli._csv_cell(n) == str(n)


@pytest.mark.parametrize("row", [
    {"num": 7 ** 20_000, "den": -(3 ** 19_000) - 1, "small": 12, "flag": True},
    {"v": Fraction(5 ** 15_000 + 2, 3 ** 20_000), "text": "X^2+1", "pair": (2, 1)},
])
def test_json_big_ints_print_through_decimal_digits(capsys, monkeypatch, row):
    # the JSON rows give every int above _DECIMAL_STR_BITS bits (at the top
    # of a row or in a Fraction) to _decimal_digits, and print the bytes
    # json.dumps prints
    converted = []
    digits = cli._decimal_digits

    def counting(n):
        converted.append(n)
        return digits(n)

    monkeypatch.setattr(cli, "_decimal_digits", counting)
    with _str_digit_limit(0):
        want = json.dumps([{k: cli._json_cell(v) for k, v in row.items()}], indent=2) + "\n"
        cli.emit(iter([row]), list(row), "json", None)
        assert capsys.readouterr().out == want
    big = [v for v in row.values() if isinstance(v, int) and v.bit_length() > cli._DECIMAL_STR_BITS]
    big += [x for v in row.values() if isinstance(v, Fraction) for x in (v.numerator, v.denominator)
            if x.bit_length() > cli._DECIMAL_STR_BITS]
    assert sorted(converted) == sorted(big)


def test_lemma61_runs_no_big_gcd(capsys, monkeypatch):
    # every constant is an integer over a power of q, so no Fraction of
    # ~10^5 bits needs normalising; a gcd on such operands means one crept back
    biggest = []
    real_gcd = math.gcd

    def gcd(*args):
        biggest.append(max(abs(a).bit_length() for a in args))
        return real_gcd(*args)

    moments._c_pairs.cache_clear()
    monkeypatch.setattr(math, "gcd", gcd)
    code, _, _ = run_cli(capsys, *"lemma61 --q 3 --prime X^2+1 --d-max 7 --M 9".split())
    monkeypatch.undo()
    assert code == 0
    assert max(biggest, default=0) <= 10 ** 4


@pytest.mark.parametrize("command", [
    " ".join(argv) for workload in ("family", "primepower")
    for argv in _bench_workloads().all_commands(workload)])
def test_family_and_prime_power_output_matches_golden_digest(capsys, tmp_path, command):
    # the bench's empty cache directory becomes an empty temporary one
    golden = json.loads((BENCH / "golden.json").read_text())["digests"]
    cache = _bench_workloads().CACHE
    argv = [str(tmp_path) if a == cache else a for a in command.split()]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == golden[command]


@pytest.mark.parametrize("command", ["l_suite 5 5 8", "l_suite 3 6 8"])
def test_l_suite_output_matches_golden_digest(command):
    # the record format bench/child.py prints for an l_suite command
    q, max_deg, n_max = (int(a) for a in command.split()[1:])
    golden = json.loads((BENCH / "golden.json").read_text())["digests"]
    lines = []

    def emit(rec):
        lines.append(json.dumps([rec["deg"], rec["code"], rec["lstar"].coeffs,
                                 rec["t"], rec["s"]]) + "\n")

    rep = lfunc.l_suite(q, max_deg=max_deg, n_max=n_max, collect=emit)
    lines.append(json.dumps(
        {"q": rep.q, "max_deg": rep.max_deg, "n_max": rep.n_max,
         "moduli": rep.moduli, "failures": rep.failures,
         "rh_max_dev": repr(rep.rh_max_dev),
         "prime_sum_bound_max": repr(rep.prime_sum_bound_max)},
        sort_keys=True) + "\n")
    assert rep.ok()
    assert hashlib.sha256("".join(lines).encode()).hexdigest() == golden[command]
