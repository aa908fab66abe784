"""Command line: exit codes, output documents, determinism."""

import argparse
import hashlib
import importlib.util
import io
import json
import os
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import fwdiff
from fwdiff.cli import build_parser, run

RINGS = os.path.join(os.path.dirname(__file__), os.pardir, "rings")
SWEEP_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                            "sweep_points.py")
FUZZ_SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts",
                           "axiom_fuzz.py")


def _ring(name):
    return os.path.join(RINGS, name)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# exit codes

def test_present_ok():
    code, out, err = _run(["present", "-i", _ring("cusp.ring")])
    assert code == 0 and err == ""
    assert "generators: w(x), w(y)" in out
    assert "column of" in out


def test_regular_definitive_verdicts_exit_zero():
    code, out, _ = _run(["regular", "-i", _ring("cusp.ring"),
                         "--point", "0,0"])
    assert code == 0
    assert "verdict: NotRegular" in out
    assert "fiber dimension: 2" in out
    assert "d: 1  r: 0" in out
    code, out, _ = _run(["regular", "-i", _ring("cusp.ring"),
                         "--point", "1,1"])
    assert code == 0
    assert "verdict: Regular" in out


def test_regular_unknown_exits_one():
    code, out, _ = _run(["regular", "-i", _ring("zp2x.ring"), "--point", "0"])
    assert code == 1
    assert "verdict: Unknown" in out
    assert "note:" in out
    code, out, _ = _run(["regular", "-i", _ring("zp2x.ring"),
                         "--point", "0", "--flat"])
    assert code == 0
    assert "verdict: Regular" in out


def test_input_errors_exit_two(tmp_path):
    code, _, err = _run(["fiber", "-i", _ring("cusp.ring"),
                         "--point", "1,2"])
    assert code == 2 and "error:" in err
    code, _, err = _run(["present", "-i", str(tmp_path / "missing.ring")])
    assert code == 2
    bad = tmp_path / "bad.ring"
    bad.write_text("base: Fp(4)\nvars: x\n")
    code, _, err = _run(["present", "-i", str(bad)])
    assert code == 2 and "line 1" in err
    # non-prime locus ideal
    code, _, err = _run(["regular", "-i", _ring("cusp.ring"), "--prime", "y"])
    assert code == 2 and "not prime" in err


def test_present_names_a_custom_minimal_polynomial(tmp_path):
    """The base in the JSON document and on the ring line is the tag that
    reads back to the same field; the parent wrote Fq(3,2), the field with
    minimal polynomial t^2+1."""
    path = tmp_path / "f9.ring"
    path.write_text("base: Fq(3,2,t^2+t+2)\nvars: x\nrel: x^2 - t\n")
    code, out, _ = _run(["present", "-i", str(path), "--json"])
    assert code == 0
    assert json.loads(out)["ring"]["base"] == "Fq(3,2,t^2+t+2)"
    code, out, _ = _run(["present", "-i", str(path)])
    assert out.startswith("ring: Fq(3,2,t^2+t+2)[x] / (")


@pytest.mark.parametrize("tag", ["Fq(3,1)", "Fq(5,1,t+2)"])
def test_a_degree_one_extension_is_an_input_error(tmp_path, tag):
    """Fq(p,1) is written Fp(p).  The parent accepted it and read t as 1,
    so x - t put the only point at x = 1 and --point 0 was off the
    scheme, though t = 0 modulo the default minimal polynomial t."""
    path = tmp_path / "deg1.ring"
    path.write_text(f"base: {tag}\nvars: x\nrel: x - t\n")
    code, out, err = _run(["present", "-i", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error: line 1, col 7: "), err
    assert "Fp(p)" in err


def test_fiber_below_d_plus_r_at_a_point_blames_the_flatness_assertion(
        tmp_path):
    """Z/9[x]/(3) = F_3[x] is not flat over Z_(3): at a point d is exact
    and the fiber of a flat lift is at least d + r, so a fiber below it
    means --flat was asserted falsely, not that the ambient is
    non-equidimensional at a prime, as the parent said."""
    path = tmp_path / "notflat.ring"
    path.write_text("base: Zp2(3)\nvars: x\nrel: 3\n")
    code, out, _ = _run(["regular", "-i", str(path), "--point", "0",
                         "--flat", "--json"])
    res = json.loads(out)["result"]
    assert code == 1 and res["verdict"] == "Unknown"
    assert res["fiber_dim"] < res["d"] + res["r"]
    assert "flatness assertion" in res["explanation"]
    assert "prime" not in res["explanation"]


def test_fiber_matching_an_upper_bound_on_d_exits_unknown(tmp_path):
    """At the prime (z) of F_3[x,y,z]/(xz, yz) the fiber equals d + r but
    d is only an upper bound: the verdict is Unknown and the exit code 1."""
    path = tmp_path / "mixed.ring"
    path.write_text("base: Fp(3)\nvars: x, y, z\nrel: x*z\nrel: y*z\n")
    code, out, _ = _run(["regular", "-i", str(path), "--prime", "z",
                         "--json"])
    res = json.loads(out)["result"]
    assert code == 1 and res["verdict"] == "Unknown"
    assert (res["fiber_dim"], res["d"], res["r"]) == (2, 0, 2)
    assert res["explanation"].startswith("fiber matches d + r, but d is only")


def test_fiber_below_d_plus_r_at_an_exact_prime_blames_the_flatness_assertion(
        tmp_path):
    """The prime (x) of Z/9[x]/(3) = F_3[x] cuts out a rational point, so
    its d is exact as at --point 0, and a fiber below d + r can only mean a
    false --flat, not a non-equidimensional ambient."""
    path = tmp_path / "notflat.ring"
    path.write_text("base: Zp2(3)\nvars: x\nrel: 3\n")
    code, out, _ = _run(["regular", "-i", str(path), "--prime", "x",
                         "--flat", "--json"])
    res = json.loads(out)["result"]
    assert code == 1 and res["verdict"] == "Unknown"
    assert res["fiber_dim"] < res["d"] + res["r"]
    assert res["explanation"] == ("fiber dimension below d + r: the flatness "
                                  "assertion (--flat) cannot hold at this "
                                  "prime")


def test_locus_flag_rules():
    code, _, err = _run(["fiber", "-i", _ring("cusp.ring")])
    assert code == 2 and "locus" in err
    code, _, err = _run(["fiber", "-i", _ring("cusp.ring"),
                         "--point", "0,0", "--prime", "x;y"])
    assert code == 2 and "exclusive" in err


def test_refusals_exit_one(tmp_path):
    big = tmp_path / "big.ring"
    big.write_text("base: Fp(2)\nvars: x\nrel: x^17\n")
    code, _, err = _run(["oracle", "-i", str(big)])
    assert code == 1 and "refused:" in err
    plane = tmp_path / "plane.ring"
    plane.write_text("base: Fp(5)\nvars: x, y\n")
    code, _, err = _run(["regular", "-i", str(plane),
                         "--prime", "x^4 + y^4 + 1"])
    assert code == 1 and "refused:" in err


BOUNDED_CLI = ("import sys; from fwdiff import modarith; from fwdiff.cli "
               "import run; modarith.PRODUCT_BOUND = int(sys.argv[1]); "
               "sys.exit(run(sys.argv[2:]))")


def _fwdiff(argv, timeout=60, bound=None):
    """fwdiff run in a new process, with PRODUCT_BOUND at bound unless it is
    None: (exit code, stderr, CPU seconds the process took, which other
    load on the machine does not stretch).  A process still running after
    timeout seconds is killed, and the test fails."""
    command = ["-m", "fwdiff.cli"] if bound is None \
        else ["-c", BOUNDED_CLI, str(bound)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    r = subprocess.run([sys.executable, *command, *argv],
                       capture_output=True, text=True, timeout=timeout)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return r.returncode, r.stderr, cpu


@pytest.mark.parametrize("ring,what", [
    # Q of the cubic at p = 10007 takes about 10^8 value products
    ("base: Zp2(10007)\nvars: x, y\nrel: y^2 - x^3 - x\n", "Witt carry Q"),
    # the parse alone took 23 s; it now stops before squaring a 945-term
    # power, after about 2.5*10^5 products
    ("base: Zp2(7)\nvars: x\nrel: (x+1)^3000\n", "power 3000"),
], ids=["cubic_at_p_10007", "binomial_power_3000"])
def test_present_refuses_witt_work_past_the_bound(tmp_path, ring, what):
    """Each ran past 30 s before its products were bound."""
    path = tmp_path / "big.ring"
    path.write_text(ring)
    code, err, seconds = _fwdiff(["present", "-i", str(path)])
    assert code == 1 and err.startswith("refused: ") and what in err
    assert seconds < 2.0


def test_axioms_refuse_witt_work_past_the_bound():
    """The Witt carries at p = 1000003 ran past 30 s before they were
    bound, and w_base took a^p as an integer of millions of digits."""
    code, err, seconds = _fwdiff(["axioms", "--p", "1000003", "--nvars", "1",
                                  "--trials", "2"])
    assert code == 1 and err.startswith("refused: ") and "Witt carry" in err
    assert seconds < 2.0


def test_axioms_refuse_blocks_past_the_bound_in_nvars():
    """The packed keys grow as trials * nvars^2: 500 trials in 1000
    variables took 9-11 s of CPU and 1.15 GB before nvars was bound."""
    code, err, seconds = _fwdiff(["axioms", "--p", "5", "--nvars", "1000"])
    assert code == 1 and err.startswith("refused: ") and "variables" in err
    assert seconds < 2.0


def test_axioms_refuse_blocks_past_the_bound_with_no_variables():
    """With no variables the keys have no digits, yet each trial still
    samples and checks a pair: trials are spent as if nvars were 1, where
    10^5 trials in no variables took 0.9 s of CPU unbounded."""
    code, err, seconds = _fwdiff(["axioms", "--p", "2", "--nvars", "0",
                                  "--trials", "2000000"])
    assert code == 1 and err.startswith("refused: ") and "trials" in err
    assert seconds < 2.0


def test_prime_certificates_past_the_trial_division_bound_are_refused(
        tmp_path):
    """A cubic in four variables over F_81 has 81 + 81^2 + 81^3 + 81^4
    candidate linear factors; counting them refuses the locus at once,
    where trial division would run for hours."""
    wide = tmp_path / "wide.ring"
    wide.write_text("base: Fq(3,4)\nvars: x, y, z, w\n")
    code, _, err = _run(["regular", "-i", str(wide),
                         "--prime", "x^3 + y^2*z + w + t"])
    assert code == 1 and "refused:" in err and "trial divisions" in err


@pytest.mark.parametrize("base,code", [
    ("Fp(1000000000000000003)", 0),
    ("Zp2(1000000016000000063)", 2),  # 1000000007 * 1000000009
], ids=["prime", "composite"])
def test_primality_of_a_large_base_is_decided_at_once(tmp_path, base, code):
    """Trial division up to the square root ran past 10 s on both."""
    path = tmp_path / "large.ring"
    path.write_text(f"base: {base}\nvars: x\nrel: x\n")
    got, err, seconds = _fwdiff(["present", "-i", str(path)])
    assert got == code, err
    assert code == 0 or "is not a prime number" in err
    assert seconds < 2.0


def test_primes_past_the_miller_rabin_bound_are_refused(tmp_path):
    path = tmp_path / "huge.ring"
    path.write_text("base: Zp2(3317044064679887385961981)\nvars: x\n")
    code, _, err = _run(["present", "-i", str(path)])
    assert code == 1 and err.startswith("refused: ")
    assert "primality bound" in err


def test_present_refuses_division_past_the_bound(tmp_path):
    """The column entries of this 224-term relation are divided by it:
    the division ran past 60 s before its steps were counted."""
    path = tmp_path / "division.ring"
    path.write_text("base: Fp(7)\nvars: x, y, z\n"
                    "rel: (x+y+z+1)^12*(x+y+z+1)^12*(x+y+z+1)^12\n")
    code, err, seconds = _fwdiff(["present", "-i", str(path)])
    assert code == 1 and err.startswith("refused: ") and "division" in err
    assert seconds < 10.0


def test_present_refuses_a_product_past_the_bound(tmp_path):
    """The product of two allowed 1771-term powers took 3.1*10^6 value
    products in the parse before the division was refused, about 16 s of
    CPU in all."""
    path = tmp_path / "product.ring"
    path.write_text("base: Fp(1009)\nvars: x, y, z\n"
                    "rel: (x+y+z+1)^20*(x+y+z+1)^20\n")
    code, err, seconds = _fwdiff(["present", "-i", str(path)])
    assert code == 1 and err.startswith("refused: a product of "), err
    assert seconds < 3.0


def test_empty_point_names_the_point_of_a_ring_without_variables():
    code, out, err = _run(["regular", "-i", _ring("zp2.ring"), "--point", "",
                           "--flat"])
    assert code == 0 and err == ""
    assert "locus: ()" in out and "verdict: Regular" in out
    code, _, err = _run(["regular", "-i", _ring("cusp.ring"), "--point", ""])
    assert code == 2 and "one coordinate per variable" in err


def test_oracle_refuses_tables_past_the_memory_bound(tmp_path):
    huge = tmp_path / "huge.ring"
    huge.write_text("base: Fp(3)\nvars: x\nrel: x^11\n")
    code, _, err = _run(["oracle", "-i", str(huge), "--max-size", "177147"])
    assert code == 1 and "refused:" in err and "over the bound 65536" in err


def test_oracle_command_on_small_rings(tmp_path):
    z4 = tmp_path / "z4.ring"
    z4.write_text("base: Zp2(2)\nvars:\n")
    code, out, _ = _run(["oracle", "-i", str(z4)])
    assert code == 0
    assert "match: yes" in out
    assert "brute-force dimension: 1" in out


def test_oracle_max_size_flag(tmp_path):
    big = tmp_path / "big.ring"
    big.write_text("base: Fp(2)\nvars: x\nrel: x^5\n")
    for flags in ([], ["--max-size", "32"]):
        code, out, _ = _run(["oracle", "-i", str(big)] + flags)
        assert code == 0 and "match: yes" in out
    code, out, err = _run(["oracle", "-i", str(big), "--max-size", "16"])
    assert code == 1 and out == "" and "over the bound 16" in err


def _count_presentations(monkeypatch):
    from fwdiff import cli, fwcore, localalg, oracle

    real = fwcore.present_fw
    calls = []

    def counted(ring_pres):
        calls.append(ring_pres)
        return real(ring_pres)

    for mod in (fwcore, cli, localalg, oracle):
        if getattr(mod, "present_fw", None) is real:
            monkeypatch.setattr(mod, "present_fw", counted)
    return calls


def test_oracle_builds_the_presentation_once(monkeypatch):
    calls = _count_presentations(monkeypatch)
    code, _, _ = _run(["oracle", "-i", _ring("zp2.ring"), "--json"])
    assert code == 0
    assert len(calls) == 1


def test_regular_builds_the_presentation_once(monkeypatch):
    calls = _count_presentations(monkeypatch)
    code, _, _ = _run(["regular", "-i", _ring("cusp.ring"), "--point", "0,0",
                       "--json"])
    assert code == 0
    assert len(calls) == 1


def test_unexpected_exceptions_exit_three(monkeypatch):
    from fwdiff import cli

    def broken(args, out):
        raise KeyError("no such\ntable")

    monkeypatch.setitem(cli.DISPATCH, "present", broken)
    code, out, err = _run(["present", "-i", _ring("cusp.ring")])
    assert code == 3 and out == ""
    assert err.startswith("internal error: ") and "KeyError" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_fiber_at_prime():
    code, out, _ = _run(["fiber", "-i", _ring("cusp.ring"),
                         "--prime", "x - 1; y - 1"])
    assert code == 0
    assert "fiber dimension: 1" in out


def test_argparse_failures_raise_system_exit():
    with pytest.raises(SystemExit) as e:
        _run([])
    assert e.value.code == 2
    with pytest.raises(SystemExit):
        _run(["present"])  # missing -i


@pytest.mark.parametrize("argv", [
    ["axioms", "--p", "3", "--nvars", "-1"],
    ["axioms", "--p", "3", "--trials", "-5"],
    ["axioms", "--p", "3", "--trials", "0"],
    ["oracle", "-i", _ring("zp2.ring"), "--max-size", "0"],
])
def test_numeric_flags_out_of_range_are_usage_errors(argv):
    r = subprocess.run([sys.executable, "-m", "fwdiff.cli"] + argv,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert "usage:" in r.stderr and "must be at least" in r.stderr
    assert "Traceback" not in r.stderr and r.stdout == ""


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as e:
        build_parser().parse_args(["--version"])
    assert e.value.code == 0
    assert fwdiff.__version__ in capsys.readouterr().out


def test_two_runs_build_the_parser_once(monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    try:
        assert _run(["present", "-i", _ring("cusp.ring")])[0] == 0
        first = len(built)
        assert _run(["present", "-i", _ring("cusp.ring")])[0] == 0
    finally:
        build_parser.cache_clear()
    assert first > 0 and len(built) == first


def test_shared_parser_keeps_usage_errors_and_version(capsys):
    for _ in range(2):
        with pytest.raises(SystemExit) as e:
            run(["present"])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: fwdiff present")
        assert err.endswith("error: the following arguments are required: "
                            "-i/--input\n")
        with pytest.raises(SystemExit) as e:
            run(["--version"])
        assert e.value.code == 0
        assert capsys.readouterr().out == fwdiff.__version__ + "\n"


def test_sweep_script_reports_rejected_input_without_traceback():
    """The F_9 conic has no F_3-points to enumerate: the script ends with one
    error line and exit code 2, after the ring line it has printed."""
    r = subprocess.run([sys.executable, SWEEP_SCRIPT, _ring("conic_f9.ring")],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 2
    assert r.stderr == "error: no embedding of Fq(3,2) into Fp(3)\n"
    assert r.stdout.startswith("# {'base': 'Fq(3,2)'")
    r = subprocess.run([sys.executable, SWEEP_SCRIPT, _ring("no_such.ring")],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


@pytest.mark.parametrize("value", ["0", "-3"])
def test_sweep_script_max_degree_below_one_is_a_usage_error(value):
    r = subprocess.run([sys.executable, SWEEP_SCRIPT, _ring("cusp.ring"),
                        "--max-degree", value],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 2 and r.stdout == ""
    assert "usage:" in r.stderr and "must be at least 1" in r.stderr
    assert "Traceback" not in r.stderr


def test_sweep_script_reports_refused_enumeration_with_exit_one(tmp_path):
    """F_1009 in two variables has over 10^6 candidate points."""
    path = tmp_path / "plane.ring"
    path.write_text("base: Fp(1009)\nvars: x, y\n")
    r = subprocess.run([sys.executable, SWEEP_SCRIPT, str(path)],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 1
    assert r.stderr.startswith("refused: ") and "candidates" in r.stderr


def test_fuzz_script_reports_rejected_input_without_traceback():
    r = subprocess.run([sys.executable, FUZZ_SCRIPT, "--p", "4"],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr == "error: 4 is not a prime number\n"


def test_fuzz_script_reports_refused_work_with_exit_one():
    r = subprocess.run([sys.executable, FUZZ_SCRIPT, "--p", "1000003",
                        "--nvars", "1", "--trials", "2", "--rounds", "1"],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 1 and r.stdout == ""
    assert r.stderr.startswith("refused: ") and "value products" in r.stderr
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr


@pytest.mark.parametrize("flag,value", [
    ("--nvars", "-1"), ("--trials", "-2"), ("--trials", "0"),
    ("--rounds", "0"),
])
def test_fuzz_script_counts_out_of_range_are_usage_errors(flag, value):
    r = subprocess.run([sys.executable, FUZZ_SCRIPT, "--p", "3", flag, value],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 2 and r.stdout == ""
    assert "usage:" in r.stderr and "must be at least" in r.stderr
    assert "Traceback" not in r.stderr


def test_fuzz_script_runs_its_rounds():
    r = subprocess.run([sys.executable, FUZZ_SCRIPT, "--p", "3", "--nvars", "1",
                        "--trials", "5", "--rounds", "2"],
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0 and r.stderr == ""
    lines = r.stdout.splitlines()
    assert [line.split()[-1] for line in lines[:2]] == ["5/5", "5/5"]
    assert lines[2].endswith("0 failing")


def _script(path):
    spec = importlib.util.spec_from_file_location(
        os.path.basename(path)[:-3], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("path,work,argv", [
    (SWEEP_SCRIPT, "run", [_ring("cusp.ring")]),
    (FUZZ_SCRIPT, "check_axioms", ["--p", "3", "--rounds", "1"]),
], ids=["sweep", "fuzz"])
def test_scripts_report_internal_errors_with_exit_three(
        monkeypatch, capsys, path, work, argv):
    script = _script(path)

    def broken(*args, **kwargs):
        raise KeyError("no such\ntable")

    monkeypatch.setattr(script, work, broken)
    assert script.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "KeyError" in err
    assert err.count("\n") == 1 and "Traceback" not in err


LONG = "9" * 5000
PLANE = "base: Fp(5)\nvars: x, y\n"


@pytest.mark.parametrize("text,locus,line,col", [
    (PLANE + f"rel: x + {LONG}\n", None, 3, 10),
    (PLANE + f"rel: x^{LONG}\n", None, 3, 8),
    (f"base: Fp({LONG})\nvars: x\n", None, 1, 10),
    (PLANE + "rel: x^\u00b2\n", None, 3, 8),
    (PLANE + "rel: x + \u00b9\n", None, 3, 10),
    (PLANE + "rel: x; y\n", None, 3, 7),
    (PLANE, ["--point", f"{LONG}, 0"], 1, 1),
    (PLANE, ["--point", "2^\u00b2, 0"], 1, 3),
    (PLANE, ["--point", "2 + \u00b9, 0"], 1, 5),
    (PLANE, ["--prime", f"x; y - {LONG}"], 1, 8),
], ids=["literal", "exponent", "base_literal", "superscript_exponent",
        "superscript_literal", "semicolon", "point_literal",
        "point_superscript_exponent", "point_superscript_literal",
        "prime_literal"])
def test_front_end_reports_bad_literals_at_their_position(
        tmp_path, text, locus, line, col):
    """Literals past the interpreter's 4300-digit limit and digits that
    are not ASCII, in a ring file or a locus, are input errors at their
    line and column; all but the `;` ended in an internal error before."""
    path = tmp_path / "front.ring"
    path.write_text(text, encoding="utf-8")
    argv = (["regular", "-i", str(path)] + locus if locus
            else ["present", "-i", str(path)])
    code, out, err = _run(argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: line {line}, col {col}: "), err


def test_deep_nesting_is_an_input_error(tmp_path):
    """A chain of minus signs is read by a loop, and a parenthesis opened
    past 100 levels is an input error at its position, in a ring file and
    in a locus; 1000 signs and 250 levels ended in an internal error
    (RecursionError) before."""
    plain, path = tmp_path / "plain.ring", tmp_path / "deep.ring"
    plain.write_text(PLANE + "rel: x\n")
    expected = _run(["present", "-i", str(plain)])
    assert expected[0] == 0
    for rel in ["-" * 5000 + "x", "(" * 100 + "x" + ")" * 100]:
        path.write_text(PLANE + f"rel: {rel}\n")
        assert _run(["present", "-i", str(path)]) == expected
    deeper = "(" * 300 + "x" + ")" * 300
    path.write_text(PLANE + f"rel: {deeper}\n")
    code, out, err = _run(["present", "-i", str(path)])
    assert code == 2 and out == ""
    assert err == "error: line 3, col 106: parentheses nested deeper than 100\n"
    plain.write_text(PLANE)
    code, out, err = _run(["regular", "-i", str(plain),
                           "--point", deeper.replace("x", "0") + ", 0"])
    assert code == 2 and out == ""
    assert err == "error: line 1, col 101: parentheses nested deeper than 100\n"


@pytest.mark.parametrize("rels", [
    "rel: x^200\nrel: y^200\n",
    "rel: x^1000\nrel: y^1000\n",
], ids=["staircase_40000", "staircase_1000000"])
def test_oracle_refuses_a_long_staircase_before_listing_it(tmp_path, rels):
    """The first ended in an internal error formatting 2^40000, the second
    also listed all 10^6 standard monomials first, for 12.9 s."""
    path = tmp_path / "long.ring"
    path.write_text("base: Fp(2)\nvars: x, y\n" + rels)
    code, err, seconds = _fwdiff(["oracle", "-i", str(path)])
    assert code == 1 and err.startswith("refused: ring has more than 2^16 ")
    assert seconds < 2.0


def test_oracle_refuses_an_infinite_ring_by_its_pure_powers(tmp_path):
    """F_2[x1..x24]/(x1 x2, x3 x4, ..): finiteness asks only whether every
    variable has a pure power among the leading monomials, not for the
    Krull dimension, whose subset search took 10.8 s here."""
    names = [f"x{i}" for i in range(1, 25)]
    path = tmp_path / "pairs.ring"
    path.write_text(f"base: Fp(2)\nvars: {', '.join(names)}\n" + "".join(
        f"rel: {a}*{b}\n" for a, b in zip(names[::2], names[1::2])))
    code, err, seconds = _fwdiff(["oracle", "-i", str(path), "--json"])
    assert code == 1 and err == "refused: the presented ring is infinite\n"
    assert seconds < 2.0


def _pairs_ring(path, pairs, nvars):
    names = [f"x{i}" for i in range(1, nvars + 1)]
    path.write_text(f"base: Fp(2)\nvars: {', '.join(names)}\n" + "".join(
        f"rel: {names[a]}*{names[b]}\n" for a, b in pairs))
    return str(path), ",".join("0" * nvars)


def test_regular_finds_the_krull_dimension_of_many_variables(tmp_path):
    """F_2[x1..x28]/(x1 x2, x3 x4, ..) at the origin: its local dimension
    is the Krull dimension 14, which a search over variable subsets took
    about 160 s to find.  The process is stopped after 10 s."""
    path, origin = _pairs_ring(tmp_path / "pairs.ring",
                               [(i, i + 1) for i in range(0, 28, 2)], 28)
    code, err, seconds = _fwdiff(["regular", "-i", path, "--point", origin],
                                 timeout=10)
    assert code == 0 and err == ""
    assert seconds < 2.0
    code, out, _ = _run(["regular", "-i", path, "--point", origin])
    assert "verdict: NotRegular" in out and "d: 14  r: 0" in out


def test_regular_refuses_a_krull_dimension_search_past_the_bound(tmp_path):
    """The 40-cycle x_i x_(i+1) takes 421 search nodes for its dimension,
    20: with PRODUCT_BOUND at 300, `regular` at the origin is refused with
    exit code 1.  The process is stopped after 10 s."""
    path, origin = _pairs_ring(tmp_path / "cycle.ring",
                               [(i, (i + 1) % 40) for i in range(40)], 40)
    code, err, _ = _fwdiff(["regular", "-i", path, "--point", origin],
                           timeout=10, bound=300)
    assert code == 1
    assert err == ("refused: the Krull dimension of 40 leading monomials "
                   "needs more than 300 search nodes\n")
    code, out, _ = _run(["regular", "-i", path, "--point", origin])
    assert code == 0 and "d: 20  r: 0" in out


def test_present_refuses_a_minimal_polynomial_search_past_the_bound(tmp_path):
    """Every cubic t^3 + a over F_10007 has a root: the search for the
    first irreducible cubic ran past 20 s."""
    path = tmp_path / "cubic.ring"
    path.write_text("base: Fq(10007,3)\nvars: x\n")
    code, err, seconds = _fwdiff(["present", "-i", str(path)])
    assert code == 1 and "trial divisions" in err, err
    assert seconds < 10.0


# ---------------------------------------------------------------------------
# documents

def test_present_json_document():
    code, out, _ = _run(["present", "-i", _ring("zp2x.ring"), "--json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"command", "ring", "module", "result", "meta"}
    assert doc["command"] == "present"
    assert doc["result"]["free_rank"] == 2
    assert doc["result"]["generators"] == ["w(x)", "w(p)"]
    assert doc["meta"]["version"] == fwdiff.__version__
    assert doc["meta"]["seed"] == 0


def test_axioms_command_and_seed_echo():
    code, out, _ = _run(["axioms", "--p", "3", "--nvars", "2",
                         "--trials", "40", "--seed", "7", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["passed"] == 40
    assert doc["meta"]["seed"] == 7
    assert doc["ring"] is None and doc["module"] is None
    code, out, _ = _run(["axioms", "--p", "2", "--nvars", "1",
                         "--trials", "25"])
    assert code == 0
    assert "25/25 pass" in out


def test_regular_json_has_certificate():
    code, out, _ = _run(["regular", "-i", _ring("cusp.ring"),
                         "--point", "0,0", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["verdict"] == "NotRegular"
    assert doc["result"]["certificate"]["rank"] == 0
    assert doc["result"]["locus"] == "(0,0)"


def test_json_output_is_deterministic():
    argv = ["regular", "-i", _ring("cusp.ring"), "--point", "0,0", "--json"]
    runs = [_run(argv)[1] for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0].startswith('{\n  "command"')
    argv2 = ["present", "-i", _ring("conic_f9.ring"), "--json"]
    assert _run(argv2)[1] == _run(argv2)[1]


# ---------------------------------------------------------------------------
# a fuzz over generated ring files

# base: the modulus of its integer coefficients (Fq draws 1, t, t + 1)
FUZZ_BASES = {"Fp(2)": 2, "Fp(3)": 3, "Fp(5)": 5, "Fq(2,2)": 2,
              "Zp2(2)": 4, "Zp2(3)": 9}


@st.composite
def ring_files(draw):
    """(ring file text, point text, flat): a base of FUZZ_BASES, 0-2
    variables and 0-2 relations of degree <= 3, written in the variables
    shifted to the point, so that the point lies on the ring unless a
    relation has a constant term."""
    base = draw(st.sampled_from(sorted(FUZZ_BASES)))
    names = ("x", "y")[:draw(st.integers(0, 2))]
    scalar = (st.sampled_from(["1", "t", "t + 1"]) if base.startswith("Fq")
              else st.integers(1, FUZZ_BASES[base] - 1).map(str))
    point = [draw(scalar | st.just("0")) for _ in names]
    monos = st.tuples(*(st.integers(0, 3) for _ in names)).filter(
        lambda m: sum(m) <= 3)
    rels = []
    for _ in range(draw(st.integers(0, 2))):
        terms = draw(st.dictionaries(monos, scalar, min_size=1, max_size=3))
        rels.append(" + ".join(
            "*".join([f"({c})"] + [f"({v} - ({a}))^{e}" for v, a, e
                                   in zip(names, point, m) if e])
            for m, c in terms.items()))
    text = "".join([f"base: {base}\n", f"vars: {', '.join(names)}\n"]
                   + [f"rel: {r}\n" for r in rels])
    return text, ",".join(point), draw(st.booleans())


@pytest.fixture(scope="module")
def fuzz_ring(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.ring"


@settings(max_examples=700, deadline=None, derandomize=True)
@given(ring_files())
def test_cli_fuzz_exits_zero_one_or_two(fuzz_ring, ring):
    """present, fiber and regular at the point, and the oracle up to 81
    elements, on generated ring files: every exit code is 0, 1 or 2, no
    run ends in an internal error, and the oracle exits 1 only to refuse,
    never on a mismatch."""
    text, point, flat = ring
    fuzz_ring.write_text(text)
    path = str(fuzz_ring)
    for argv in (["present", "-i", path],
                 ["fiber", "-i", path, "--point", point],
                 ["regular", "-i", path, "--point", point]
                 + (["--flat"] if flat else []),
                 ["oracle", "-i", path, "--max-size", "81"]):
        code, _, err = _run(argv)
        assert code in (0, 1, 2), (argv, text, err)
        assert "internal error" not in err, (argv, text, err)
    assert code != 1 or err.startswith("refused: "), (text, err)  # oracle


@st.composite
def prime_loci(draw):
    """(ring file text, prime generators, flat): a ring file of ring_files
    and one or two polynomials of degree <= 2 over its carrier, written in
    the variables shifted to its point and, with variables, without a
    constant term, so that the locus holds the point when the ring does."""
    text, point, flat = draw(ring_files())
    head, names = text.split("\n")[:2]
    base = head[len("base: "):]
    names = [v for v in names[len("vars: "):].split(", ") if v]
    scalar = (st.sampled_from(["1", "t", "t + 1"]) if base.startswith("Fq")
              else st.integers(1, FUZZ_BASES[base] - 1).map(str))
    monos = st.tuples(*(st.integers(0, 2) for _ in names)).filter(
        lambda m: sum(m) <= 2 and (sum(m) or not names))
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        terms = draw(st.dictionaries(monos, scalar, min_size=1, max_size=3))
        gens.append(" + ".join(
            "*".join([f"({c})"] + [f"({v} - ({a}))^{e}" for v, a, e
                                   in zip(names, point.split(","), m) if e])
            for m, c in terms.items()))
    return text, "; ".join(gens), flat


@settings(max_examples=250, deadline=None, derandomize=True)
@given(prime_loci())
def test_cli_fuzz_at_primes_exits_zero_one_or_two(fuzz_ring, locus):
    """fiber and regular at generated --prime loci of generated ring files:
    every exit code is 0, 1 or 2, and no run ends in an internal error."""
    text, gens, flat = locus
    fuzz_ring.write_text(text)
    path = str(fuzz_ring)
    for argv in (["fiber", "-i", path, "--prime", gens],
                 ["regular", "-i", path, "--prime", gens]
                 + (["--flat"] if flat else [])):
        code, _, err = _run(argv)
        assert code in (0, 1, 2), (argv, text, err)
        assert "internal error" not in err, (argv, text, err)


# ---------------------------------------------------------------------------
# pinned output bytes

PINS = os.path.join(os.path.dirname(__file__), "output_pins.json")
ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def test_output_bytes_are_pinned():
    """`oracle --json --seed 11` and `present --json --seed 11` on every
    ring file of rings/ and fwbench/rings/oracle/: the exit code and the
    sha256 of standard output are those recorded in output_pins.json."""
    with open(PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    names = sorted(
        f"{folder}/{name}"
        for folder in ("rings", "fwbench/rings/oracle")
        for name in os.listdir(os.path.join(ROOT, folder)))
    assert sorted(pins) == names
    for name in names:
        for command, (code, digest) in sorted(pins[name].items()):
            got, out, _ = _run([command, "-i", os.path.join(ROOT, name),
                                "--json", "--seed", "11"])
            assert (got, hashlib.sha256(out.encode()).hexdigest()) \
                == (code, digest), (command, name)


AXIOM_PINS = os.path.join(os.path.dirname(__file__), "axioms_pins.json")


def test_axioms_output_bytes_are_pinned():
    """`axioms --p P --nvars N --trials 40 --seed 9 --json` for p in 2, 3, 5
    and 0 to 3 variables: the exit code and the sha256 of standard output
    are those recorded in axioms_pins.json."""
    with open(AXIOM_PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    assert sorted(pins) == sorted(f"p={p} nvars={n}" for p in (2, 3, 5)
                                  for n in range(4))
    for name, (code, digest) in sorted(pins.items()):
        p, n = (part.split("=")[1] for part in name.split())
        got, out, _ = _run(["axioms", "--p", p, "--nvars", n, "--trials",
                            "40", "--seed", "9", "--json"])
        assert (got, hashlib.sha256(out.encode()).hexdigest()) \
            == (code, digest), name


SWEEP_PINS = os.path.join(os.path.dirname(__file__), "sweep_pins.json")


def test_sweep_output_bytes_are_pinned(capsys):
    """`scripts/sweep_points.py RING --max-degree 2`, run in-process through
    its `main`, on every ring file of rings/ and fwbench/rings/sweep/: the
    exit code and the sha256 of standard output are those recorded in
    sweep_pins.json."""
    with open(SWEEP_PINS, encoding="utf-8") as fh:
        pins = json.load(fh)
    names = sorted(
        f"{folder}/{name}"
        for folder in ("rings", "fwbench/rings/sweep")
        for name in os.listdir(os.path.join(ROOT, folder)))
    assert sorted(pins) == names
    script = _script(SWEEP_SCRIPT)
    for name in names:
        code, digest = pins[name]
        got = script.main([os.path.join(ROOT, name), "--max-degree", "2"])
        out = capsys.readouterr().out
        assert (got, hashlib.sha256(out.encode()).hexdigest()) \
            == (code, digest), name
