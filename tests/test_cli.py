"""CLI: argument handling, output schemas, exit codes, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import argred
from argred.cli import frac_sci, main, parse_decimal, parse_x
from argred.realnum import round_rational
from argred.softfp import DOUBLE, TIES_AWAY, TIES_EVEN, Format, Fpn, round_nearest
from argred.theorems import FORMATS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_decimal_exact():
    assert parse_decimal("10.0") == 10
    assert parse_decimal("-3.25e2") == -325
    assert parse_decimal("0.1") == Fraction(1, 10)
    with pytest.raises(ValueError):
        parse_decimal("0x10")


def test_parse_x_forms():
    assert parse_x("10.0", DOUBLE, "even").value == 10
    assert parse_x("7074237752028440 * 2^-51", DOUBLE, "even") == Fpn.from_text(
        "7074237752028440 * 2^-51", DOUBLE
    )
    assert parse_x("0x19 * 2^0", DOUBLE, "even").value == 25
    assert parse_x("0.1", DOUBLE, "even") == round_rational(1, 10, DOUBLE)


def test_constants_names_a_preset_only_for_an_identical_format(capsys):
    # --e-max defaults to 16383, so p=53 with e_min_q=-1074 alone is not double
    for extra, label in (((), "p53"), (("--e-max", "1023"), "double")):
        code, out, _ = run(capsys, "constants", "--p", "53", "--e-min-q", "-1074", *extra, "--json")
        assert code == 0 and json.loads(out)[0]["precision"] == label


def test_frac_sci():
    assert frac_sci(Fraction(0)) == "0"
    assert frac_sci(Fraction(1, 3)).startswith("3.33333e-1")
    assert frac_sci(Fraction(-12345, 2)) == "-6.17250e+3"


def test_constants_double_pi(capsys):
    code, out, _ = run(capsys, "constants", "--const", "pi", "--format", "double")
    assert code == 0
    assert "5734161139222659 * 2^-54" in out
    assert "7744522442262976 * 2^-155" in out


def test_constants_all_json_roundtrip(capsys):
    code, out, _ = run(capsys, "constants", "--all", "--json")
    assert code == 0
    records = json.loads(out)
    assert len(records) == 8
    for rec in records:
        assert set(rec) == {"constant", "precision", "N", "q", "R", "C1", "C2", "C3"}
        for key in ("R", "C1", "C2", "C3"):
            # parses back exactly in a wide format
            from argred.softfp import QUAD

            Fpn.from_text(rec[key], QUAD)


def test_constants_q3(capsys):
    code, out, _ = run(capsys, "constants", "--const", "pi", "--format", "double", "--q", "3", "--audit")
    assert code == 0
    rec_code, out, _ = run(capsys, "constants", "--const", "pi", "--format", "double", "--q", "3", "--json")
    rec = json.loads(out)[0]
    c1 = Fpn.from_text(rec["C1"], DOUBLE)
    assert c1.m % 8 == 0


def test_constants_audit_presets(capsys):
    code, out, _ = run(capsys, "constants", "--const", "ln2", "--format", "quad", "--N", "10", "--audit")
    assert code == 0
    assert "ok" in out and "FAIL" not in out


def test_constants_user_enclosure_failure(tmp_path, capsys):
    # C = 1 makes R = 1 and C1 a power of two: generation must refuse
    f = tmp_path / "one.json"
    f.write_text(json.dumps({"name": "one", "lo": "1 * 2^0", "hi": "1 * 2^0", "bits": 80}))
    code, out, err = run(capsys, "constants", "--const", str(f), "--format", "double")
    assert code == 1
    assert "power of 2" in err


def test_constants_user_enclosure_ok(tmp_path, capsys):
    # a user-supplied dyadic enclosure of pi, wide but refinable? no refine:
    # bounds precise enough for double constants
    from argred.realnum import pi_enclosure

    enc = pi_enclosure(400)
    f = tmp_path / "pi.json"
    f.write_text(
        json.dumps(
            {
                "name": "userpi",
                "lo": f"{enc.lo.numerator} * 2^{-enc.lo.denominator.bit_length() + 1}",
                "hi": f"{enc.hi.numerator} * 2^{-enc.hi.denominator.bit_length() + 1}",
                "bits": 400,
            }
        )
    )
    code, out, _ = run(capsys, "constants", "--const", str(f), "--format", "double", "--json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["constant"] == "userpi"
    assert rec["R"] == "5734161139222659 * 2^-54"


def test_reduce_zero(capsys):
    code, out, _ = run(capsys, "reduce", "--x", "0")
    assert code == 0
    assert "z  = 0 * 2^-1074" in out


@pytest.mark.parametrize("const", ["pi", "ln2"])
@pytest.mark.parametrize("fmt", list(FORMATS))
def test_reduce_leaves_a_tiny_x_unreduced(capsys, const, fmt):
    # x = 2^(-4p), a normal number at every preset whose quantum lies far
    # below the second step's 2^(-N-1)*ulp2(C1) grid, which holds t1 and
    # v1 only when z != 0
    f = FORMATS[fmt]
    x = f"{1 << (f.p - 1)} * 2^{1 - 5 * f.p}"
    code, out, err = run(capsys, "reduce", "--x", x, "--const", const, "--format", fmt, "--json")
    assert code == 0, err
    rec = json.loads(out)
    assert Fpn.from_text(rec["z"], f).is_zero()
    assert rec["v1"] == x and Fpn.from_text(rec["v2"], f).is_zero()
    assert rec["exact_first"] is True and rec["exact_second"] is True


def test_reduce_ten_json(capsys):
    code, out, _ = run(capsys, "reduce", "--x", "10.0", "--const", "pi", "--format", "double", "--N", "0", "--json")
    assert code == 0
    rec = json.loads(out)
    assert Fpn.from_text(rec["z"], DOUBLE).value == 3
    assert rec["exact_first"] is True and rec["exact_second"] is True
    assert rec["rounding_ops_second"] == 9
    # replay through the parser: x round-trips
    assert Fpn.from_text(rec["x"], DOUBLE).value == 10


def test_reduce_range_error(capsys):
    code, out, err = run(capsys, "reduce", "--x", "1e300")
    assert code == 1
    assert "2^(p-N-2) - 2^-N" in err


@pytest.mark.parametrize("x", ["10", "1e300"])
def test_reduce_exits_2_when_sigma_overflows(capsys, x):
    code, out, err = run(capsys, "reduce", "--x", x, "--N", "-972")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.endswith("*2^972 exceeds the e_max=1023 range\n") and err.count("\n") == 1


def test_reduce_explicit_format(capsys):
    code, out, _ = run(
        capsys, "reduce", "--x", "10.0", "--p", "8", "--e-min-q", "-40", "--json"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["exact_first"] is True


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--theorem", "sterbenz2", "--beta", "2", "--p1", "6", "--p2", "3", "--exhaustive")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "verify", "--theorem", "thm7", "--exhaustive")
    assert code == 0
    code, out, _ = run(
        capsys, "verify", "--theorem", "thm6", "--format", "double", "--const", "pi",
        "--N", "0", "--trials", "2000", "--seed", "42",
    )
    assert code == 0


def test_verify_correct3_small(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorem", "correct3", "--p", "8", "--exhaustive", "--r-step", "64"
    )
    assert code == 0 and "pass" in out


def test_verify_json_deterministic(capsys):
    args = ("verify", "--theorem", "thm6", "--const", "ln2", "--N", "5",
            "--trials", "3000", "--seed", "11", "--jobs", "1", "--json")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_demo_codywaite_cli(capsys):
    code, out, _ = run(capsys, "demo-codywaite")
    assert code == 0
    assert "product rounded: True" in out
    assert "exact: True" in out
    code, out, _ = run(capsys, "demo-codywaite", "--json")
    rec = json.loads(out)
    assert rec["fma_exact"] is True and rec["two_round_product_inexact"] is True


def test_library_errors_exit_2_with_one_line(tmp_path, capsys):
    # 1e400 overflows single precision while parsing --x
    code, out, err = run(capsys, "reduce", "--x", "1e400", "--format", "single")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    # an enclosure too wide to round R, with no way to refine it
    f = tmp_path / "wide.json"
    f.write_text(json.dumps({"name": "wide", "lo": "3 * 2^0", "hi": "4 * 2^0", "bits": 2}))
    code, out, err = run(capsys, "constants", "--const", str(f), "--format", "double")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "data",
    [{"name": "half", "lo": "3 * 2^0"}, ["3 * 2^0", "4 * 2^0"], {"lo": 3, "hi": "4 * 2^0"}],
    ids=["no-hi", "list", "number-lo"],
)
def test_constant_files_without_bounds_exit_2_with_one_line(tmp_path, capsys, data):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(data))
    for cmd in ("constants", "reduce"):
        code, out, err = run(capsys, cmd, "--const", str(f), *(("--x", "1") if cmd == "reduce" else ()))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "--x", "10", "--e-min-q", "-100"),
        ("reduce", "--x", "10", "--e-max", "50"),
        ("constants", "--e-max", "50", "--format", "single"),
        ("reduce", "--x", "10", "--p", "30", "--e-min-q", "-200", "--format", "single"),
        ("constants", "--p", "30", "--e-min-q", "-200", "--format", "double"),
        ("constants", "--all", "--p", "30", "--e-min-q", "-200"),
        ("constants", "--all", "--format", "double"),
        ("constants", "--all", "--e-max", "1023"),
        ("constants", "--all", "--const", "nosuch.json", "--json"),
        ("constants", "--all", "--const", "pi"),
    ],
    ids=["reduce-e-min-q", "reduce-e-max", "constants-e-max", "reduce-p-format", "constants-p-format",
         "all-p", "all-format", "all-e-max", "all-const-file", "all-const-pi"],
)
def test_format_options_a_command_would_ignore_exit_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("reduce", "--x", "10", "--json"),
        ("verify", "--theorem", "thm6", "--N", "0", "--trials", "20", "--json"),
    ],
    ids=["reduce", "verify"],
)
def test_a_command_named_first_is_parsed_once(monkeypatch, capsys, argv):
    # its own parser alone: not the nested parser and then its subparser
    import argparse

    assert run(capsys, *argv)[0] == 0  # warm: the parsers are built once per process
    parses = []
    real = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        parses.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", spy)
    assert run(capsys, *argv)[0] == 0
    assert parses == [f"argred {argv[0]}"]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_verify_refuses_jobs_below_1(capsys, jobs):
    code, out, err = run(capsys, "verify", "--theorem", "eft", "--trials", "10", "--jobs", jobs)
    assert (code, out, err) == (2, "", f"error: jobs must be at least 1, got {jobs}\n")


def test_far_out_of_range_decimals_are_decided_before_the_power(capsys):
    # 10^(10^9) would take hours to build; in a fresh process with a
    # timeout, so a regression fails instead of hanging
    env = dict(os.environ, PYTHONPATH=str(Path(argred.__file__).parents[1]))
    code, want, _ = run(capsys, "reduce", "--x=0", "--json")
    for x in ("1e-1000000000", "-0.5e-1000000000"):
        done = subprocess.run(
            [sys.executable, "-m", "argred", "reduce", f"--x={x}", "--json"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, want, "")
    for x in ("1e1000000000", "-12.5e+1000000000"):
        done = subprocess.run(
            [sys.executable, "-m", "argred", "reduce", f"--x={x}", "--json"],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_decimals_near_the_range_round_as_the_exact_value():
    # around both cut-offs the decided values agree with the exact rounding
    for fmt in (DOUBLE, Format(p=8, e_min_q=-20, e_max=12), Format(p=6, e_min_q=3, e_max=40)):
        for digits in ("1", "5", "49999", "999"):
            for e in range(-400, 320, 3):
                text = f"{digits}e{e}"
                exact = Fraction(int(digits)) * Fraction(10) ** e
                for ties in (TIES_EVEN, TIES_AWAY):
                    try:
                        want = round_nearest(exact, fmt, ties=ties)
                    except OverflowError:
                        with pytest.raises(OverflowError):
                            parse_x(text, fmt, ties)
                        continue
                    assert parse_x(text, fmt, ties) == want, (fmt, text, ties)


def test_verify_rejects_campaigns_without_trials(capsys):
    for theorem, trials in (("thm6", "0"), ("eft", "-5")):
        code, out, err = run(capsys, "verify", "--theorem", theorem, "--trials", trials)
        assert code == 2 and "pass" not in out
        assert "trials" in err
    for option in ("--N", "--q"):
        code, out, err = run(capsys, "verify", "--theorem", "thm6", "--trials", "10", option, ",")
        assert code == 2 and out == "" and err.startswith("error: ")


def test_verify_rejects_sweeps_and_q_lists_that_run_nothing_asked_for(capsys):
    for argv in (
        ("--theorem", "correct3", "--p", "8", "--r-step", "64", "--window", "0"),
        ("--theorem", "correct1", "--p", "8", "--r-step=-1"),
        ("--theorem", "thm6", "--trials", "10", "--q", "2,3"),
        ("--theorem", "thm6", "--exhaustive", "--p", "8", "--r-step", "64", "--q", "5"),
    ):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_malformed_argvs_share_one_parser_cache_entry(capsys):
    # the parser cache is keyed by a command name, or None for any other word
    from argred.cli import build_parser

    main(["reduce", "--x", "10"])
    before = build_parser.cache_info().currsize
    for w in ("0", "1", "2", "nosuch"):
        with pytest.raises(SystemExit):
            main(["--x", w, "reduce"])
    assert build_parser.cache_info().currsize <= before + 1
    capsys.readouterr()


def test_successive_main_calls_parse_independently(capsys):
    # the parser is shared between calls; no option may leak into the next
    code, out, _ = run(capsys, "reduce", "--x", "10.0", "--N", "5", "--json")
    assert code == 0 and json.loads(out)["N"] == 5
    code, out, _ = run(capsys, "constants", "--const", "ln2", "--json")
    assert code == 0
    rec = json.loads(out)[0]
    assert rec["constant"] == "ln2" and rec["N"] == 0
    code, out, _ = run(capsys, "reduce", "--x", "10.0", "--json")
    assert code == 0 and json.loads(out)["N"] == 0


@pytest.mark.parametrize(
    "argv, window, x_values",
    [
        (["--theorem", "correct3", "--p", "8", "--r-step", "64", "--window", "8"], 8, 2048),
        (["--theorem", "correct3", "--p", "8", "--r-step", "64"], 12, 3072),
        (["--theorem", "thm3", "--p", "8", "--r-step", "64", "--N", "0", "--window", "2"], 2, 512),
        (["--theorem", "thm6", "--exhaustive", "--p", "8", "--r-step", "64", "--N", "0"], 10, None),
        (["--theorem", "sterbenz", "--p", "4"], 8, None),
        (["--theorem", "correct1", "--p", "8", "--r-step", "64", "--N", "0"], None, None),
    ],
)
def test_verify_records_the_window_that_ran(capsys, argv, window, x_values):
    # a check given no --window runs and records its own; one that reads
    # no window records none
    code, out, _ = run(capsys, "verify", *argv, "--json")
    assert code == 0
    rec = json.loads(out)
    assert rec["config"]["window"] == window
    assert rec["stats"].get("x_values") == x_values


def test_verify_jobs_default_follows_environment(monkeypatch, capsys):
    # the shared parser must not freeze ARGRED_JOBS at its first use
    import argred.theorems as theorems

    seen = []
    real = theorems.run_check
    monkeypatch.setattr(theorems, "run_check", lambda cfg: seen.append(cfg.jobs) or real(cfg))
    for jobs in ("1", "2"):
        monkeypatch.setenv("ARGRED_JOBS", jobs)
        code, _, _ = run(capsys, "verify", "--theorem", "thm7")
        assert code == 0
    assert seen == [1, 2]


@pytest.mark.parametrize("jobs", ["0", "-3", "two"])
def test_verify_refuses_an_invalid_jobs_environment(monkeypatch, capsys, jobs):
    # as --jobs 0 does: one error line and exit 2, not a silent serial run
    monkeypatch.setenv("ARGRED_JOBS", jobs)
    code, out, err = run(capsys, "verify", "--theorem", "thm7")
    assert (code, out) == (2, "")
    assert err == f"error: ARGRED_JOBS must be an integer of at least 1, got {jobs!r}\n"


def test_verify_jobs_default_is_1_when_unset(monkeypatch, capsys):
    import argred.theorems as theorems

    seen = []
    real = theorems.run_check
    monkeypatch.setattr(theorems, "run_check", lambda cfg: seen.append(cfg.jobs) or real(cfg))
    monkeypatch.delenv("ARGRED_JOBS", raising=False)
    assert run(capsys, "verify", "--theorem", "thm7")[0] == 0
    assert seen == [1]


def test_reduce_on_fresh_formats_leaves_no_format_alive(capsys):
    # each call builds its own Format; its sigmas must not keep it alive
    import gc

    def live():
        gc.collect()
        return sum(isinstance(o, Format) for o in gc.get_objects())

    argv = ("reduce", "--x", "10", "--p", "30", "--e-min-q", "-200", "--json")
    first = run(capsys, *argv)
    before = live()
    for _ in range(200):
        assert run(capsys, *argv) == first
    assert live() <= before


def test_verify_refuses_an_oversized_exhaustive_thm6(capsys):
    code, out, err = run(capsys, "verify", "--theorem", "thm6", "--exhaustive", "--p", "14", "--window", "60")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "exhaustive cap" in err


def test_verify_correct2_extracts_with_its_own_set(capsys):
    # at N = 33 the q = 2 first step's C1 bound fails but the general-q one
    # holds; no x of the two-binade window is in range there, so the run
    # counts what the N = 0 run counts
    argv = ("verify", "--theorem", "correct2", "--p", "8", "--r-step", "4", "--q", "3", "--window", "2", "--json")
    code, out, err = run(capsys, *argv, "--N", "0,33")
    assert code == 0, err
    both = json.loads(out)
    code, out, _ = run(capsys, *argv, "--N", "0")
    assert code == 0
    assert both["cases"] == json.loads(out)["cases"] == 15360


@pytest.mark.parametrize(
    "argv",
    [
        ("--theorem", "correct3", "--p", "8", "--N", "30", "--window", "2", "--r-step", "64"),
        ("--theorem", "thm6", "--exhaustive", "--p", "8", "--N", "30", "--window", "2", "--r-step", "64"),
    ],
    ids=["correct3", "thm6"],
)
def test_verify_fails_a_check_that_ran_no_case(capsys, argv):
    # no x of the window is in range at N = 30, or every R is skipped
    code, out, _ = run(capsys, "verify", *argv)
    assert code == 1 and out.startswith(f"{argv[1]}: FAIL (0 cases)")
    code, out, _ = run(capsys, "verify", *argv, "--json")
    rec = json.loads(out)
    assert code == 1 and rec["cases"] == 0 and rec["pass"] is False


@pytest.mark.parametrize("fmt", ["double-extended", "quad"])
def test_reduce_prints_a_reduction_at_the_smallest_normal(capsys, fmt):
    # s = x*R - z has a denominator of about 5000 decimal digits, above
    # the interpreter's default limit on int-to-str conversion
    import sys

    from argred.constgen import gen_constants
    from argred.realnum import PI

    f = FORMATS[fmt]
    x = f"{1 << (f.p - 1)} * 2^{f.e_min_q}"
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, "reduce", "--x", x, "--format", fmt, "--json")
    assert code == 0, err
    assert sys.get_int_max_str_digits() == limit
    rec = json.loads(out)
    sys.set_int_max_str_digits(0)
    try:
        s = Fraction(rec["s"])
    finally:
        sys.set_int_max_str_digits(limit)
    xf, z = Fpn.from_text(rec["x"], f), Fpn.from_text(rec["z"], f)
    assert s == xf.value * gen_constants(PI, f).r.value - z.value
    code, out, err = run(capsys, "reduce", "--x", x, "--format", fmt)
    assert code == 0, err
    assert "|v1 + w - (x - z*C)|" in out
    assert sys.get_int_max_str_digits() == limit
    # --x parsing keeps the limit
    code, out, err = run(capsys, "reduce", "--x", "1" * (limit + 1), "--format", fmt)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_thm6_redraws_an_x_below_the_quantum(capsys):
    # at single with N = 100 the draw's window starts at 2^-150, below
    # e_min_q = -149: an odd m there is no FPN and is drawn again
    argv = ("verify", "--theorem", "thm6", "--const", "ln2", "--format", "single", "--N", "100", "--trials", "2000")
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "") and out.startswith("thm6: pass (2000 cases)\n")


# start-up: what each command loads, and the texts argparse prints

_ENV = dict(os.environ, PYTHONPATH=str(Path(argred.__file__).parents[1]), COLUMNS="80")
_HARNESS_MODULES = {"argred.theorems", "concurrent.futures.process", "multiprocessing"}


def _imported(*argv: str) -> set[str]:
    """The modules a fresh `python <argv>` imports, as -X importtime lists them."""
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True, timeout=120, env=_ENV
    )
    assert done.returncode == 0, done.stderr
    return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}


@pytest.mark.parametrize(
    "argv",
    [
        ("-c", "import argred"),
        ("-m", "argred", "reduce", "--x", "10", "--json"),
        ("-m", "argred", "constants", "--all", "--audit", "--json"),
    ],
    ids=["import", "reduce", "constants"],
)
def test_import_and_one_shot_commands_skip_the_harness(argv):
    loaded = _imported(*argv)
    assert "argred.reduction" in loaded and not loaded & _HARNESS_MODULES


def test_verify_loads_the_process_pool_only_for_a_pool():
    verify = ("-m", "argred", "verify", "--theorem", "thm6", "--trials", "200")
    one = _imported(*verify, "--N", "0", "--jobs", "1")
    assert "argred.theorems" in one and not one & {"concurrent.futures.process", "multiprocessing"}
    assert _HARNESS_MODULES <= _imported(*verify, "--N", "0,1", "--jobs", "2")


def test_harness_names_resolve_on_first_use():
    code = (
        "import sys, argred; assert 'argred.theorems' not in sys.modules; "
        "from argred import run_check, CheckConfig, CheckResult, demo_codywaite; "
        "import argred.theorems as t; "
        "assert (run_check, CheckConfig, CheckResult, demo_codywaite) == "
        "(t.run_check, t.CheckConfig, t.CheckResult, t.demo_codywaite); "
        "assert {'run_check', 'CheckConfig', 'CheckResult', 'demo_codywaite', 'reduce'} <= set(dir(argred)); "
        "assert not hasattr(argred, 'nosuch')"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120, env=_ENV)


_EMPTY = hashlib.sha256(b"").hexdigest()
# (exit code, sha256 of stdout, sha256 of stderr) at COLUMNS=80, taken while
# the nested parser parsed every call (the first five while it still held
# every subcommand's options); on Python 3.10-3.12
_PINNED_TEXTS = {
    "--help": (0, "146033baad12697159e562302a49789f887584fc21a555e3f3931d44c5d7c140", _EMPTY),
    "verify --help": (0, "353e23ac9645692636eb411632c54befd945924878f0614effc14091e39d450d", _EMPTY),
    "reduce --help": (0, "8782f89f633ddd504d9bbe772f10b4973c5835f18c35d606c1610aaaf8211fd1", _EMPTY),
    "verify --theorem nosuch": (2, _EMPTY, "72c88a5b360bf52d9d48d09fd9e282e87714dbc3687fb1880a12a8b052bf4169"),
    "nosuch": (2, _EMPTY, "fd924adec3b33cf792d6179289466688390ed64f00ec726808ea11b565628214"),
    "constants --help": (0, "37ea925259f49dfc1403b0ab202ad5227ab29b1725f913b58548d17ed1d9735d", _EMPTY),
    "demo-codywaite --help": (0, "87f88c1566cf851625803f904a4a5d582e43be6a3e757f7d35c84741fb2a9b3f", _EMPTY),
    "reduce": (2, _EMPTY, "ac2b7cc4492b1808047d419e638c16c111417250b9d68e3e1ff3eb54a5d15ef1"),
    "reduce --x 1 --extra": (2, _EMPTY, "7ca292c1d73547de2062c90e813ebdca0245484f7b2862d621809509a0900de8"),
    "reduce --x 1 --ties bogus": (2, _EMPTY, "0fbb2c455cf5e151c3d981c698bfbf2591072ca43fd50c38b1ae1f86c7190558"),
    "--x 1 reduce": (2, _EMPTY, "f9cd4017b306e21a25f7f1f0842587b066d7f82efdac2ee3971b5970639ed65c"),
    "": (2, _EMPTY, "ec5e51a4df7d64bf4231953d643ad5cdf6adffa9b5d14b8f2bc4bbc7c59f5742"),
    # the command is not first, so the nested parser must parse it: --x takes no value
    "--json --x reduce": (2, _EMPTY, "ac2b7cc4492b1808047d419e638c16c111417250b9d68e3e1ff3eb54a5d15ef1"),
}


@pytest.mark.skipif(not (3, 10) <= sys.version_info[:2] <= (3, 12), reason="argparse wraps usage lines per version")
@pytest.mark.parametrize("argv", sorted(_PINNED_TEXTS))
def test_help_and_usage_errors_are_unchanged(argv):
    done = subprocess.run(
        [sys.executable, "-m", "argred", *argv.split()], capture_output=True, timeout=120, env=_ENV
    )
    got = (done.returncode, hashlib.sha256(done.stdout).hexdigest(), hashlib.sha256(done.stderr).hexdigest())
    assert got == _PINNED_TEXTS[argv]
