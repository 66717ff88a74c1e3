import argparse
import hashlib
import math
from fractions import Fraction
import os
import resource
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from apmod import cli
from apmod.cli import Output, build_parser, main
from apmod.expsums import SweepReport
from apmod.primes import pi, primes_in
from apmod.progressions import divisor_window_family


def run_cli(args, tmp_path, name="out.csv"):
    path = tmp_path / name
    code = main(args + ["--out", str(path)])
    return code, path.read_text()


def strip_comments(text: str) -> str:
    return "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["sieve", "--hi", "500"],
            ["bv-scan", "--x", "5000", "--qlo", "10", "--qhi", "40", "--a", "1"],
            ["expsum", "kl3", "--a", "1", "--q", "7"],
            ["verify", "buchstab", "--x", "5000", "--trials", "20", "--seed", "7"],
            ["dispersion-demo", "--count", "3", "--seed", "1"],
            ["decomp", "--x", "2000", "--q1", "3"],
            ["omega", "--u", "3.5"],
        ],
    )
    def test_rerun_byte_identical_modulo_timestamp(self, args, tmp_path):
        code1, t1 = run_cli(list(args), tmp_path, "a.csv")
        code2, t2 = run_cli(list(args), tmp_path, "b.csv")
        assert code1 == code2 == 0
        assert strip_comments(t1) == strip_comments(t2)
        assert t1.splitlines()[0].startswith("#")


class TestCrossProcessDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["decomp", "--x", "3000", "--q1", "3"],
            ["verify", "fsum", "--q-max", "12", "--trials", "15", "--seed", "4"],
        ],
    )
    def test_subprocess_reruns_identical(self, args, tmp_path):
        outs = []
        for name in ("p1.csv", "p2.csv"):
            path = tmp_path / name
            proc = subprocess.run(
                [sys.executable, "-m", "apmod.cli"] + args + ["--out", str(path)],
                capture_output=True,
            )
            assert proc.returncode == 0
            outs.append(strip_comments(path.read_text()))
        assert outs[0] == outs[1]


def test_cli_import_loads_no_heavy_module():
    # start-up is import time: scipy alone costs about 300 ms, and numpy.fft
    # is loaded by kl3_prime_table on its first call, not at import
    code = (
        "import sys, apmod.cli; "
        "print(*[m for m in ('scipy', 'mpmath', 'numpy.fft') if m in sys.modules])"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


class TestExitCodes:
    def test_usage_error_is_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "apmod.cli", "no-such-command"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_missing_required_flag_is_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "apmod.cli", "bv-scan"], capture_output=True
        )
        assert proc.returncode == 2

    def test_precondition_violation_is_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "apmod.cli", "expsum", "kl3", "--a", "1", "--q", "0"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "parameter error" in proc.stderr

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["decomp", "--x", "-5"], "--x"),
            (["decomp", "--x", "2000", "--z1", "-3", "--z2", "5", "--z3", "10"], "--z1"),
            (["verify", "buchstab", "--x", "49"], "--x"),
            (["verify", "reduction", "--n-max", "-5"], "--n-max"),
            (["verify", "fundlemma", "--n-max", "-5"], "--n-max"),
            (["bv-scan", "--x", "-5", "--qlo", "3", "--qhi", "6"], "--x"),
            (["bv-scan", "--x", "1000", "--qlo", "0", "--qhi", "6"], "--qlo"),
            (["moduli-set", "--kind", "dyadic", "--x", "1000", "--qlo", "0"], "--qlo"),
            (["sieve", "--lo", "-5", "--hi", "1"], "--lo"),
            (["sieve", "--lo", "-5", "--hi", "10"], "--lo"),
            (["moduli-set", "--kind", "divisor-window", "--x", "-100"], "--x"),
            (["verify", "heathbrown", "--n-max", "-5"], "--n-max"),
            (["verify", "heathbrown", "--n-max", "0"], "--n-max"),
        ],
    )
    def test_bad_sieve_identity_input_is_2(self, args, flag, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code = main(args + ["--out", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("apmod: parameter error: ") and err.count("\n") == 1
        assert flag in err
        assert not path.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["omega", "--u", "0.5"],
            ["completion-demo", "--q", "0"],
            ["verify", "fsum", "--q-max", "201"],
            ["moduli-set", "--kind", "divisor-window", "--x", "1000", "--a", str(2**70)],
            # --x past the divisor-window cap: refused before the first row
            ["moduli-set", "--kind", "divisor-window", "--x", str(10**400)],
        ],
    )
    def test_parameter_error_leaves_out_untouched(self, args, tmp_path, capsys):
        fresh = tmp_path / "fresh.csv"
        assert main(args + ["--out", str(fresh)]) == 2
        assert not fresh.exists()
        kept = tmp_path / "kept.csv"
        kept.write_text("earlier run\n")
        assert main(args + ["--out", str(kept)]) == 2
        assert kept.read_text() == "earlier run\n"
        err = capsys.readouterr().err
        assert err.count("apmod: parameter error: ") == 2 and err.count("\n") == 2

    def test_unwritable_out_is_2(self, tmp_path, capsys):
        code = main(["sieve", "--hi", "100", "--out", str(tmp_path / "missing" / "x.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("apmod: output error: ") and err.count("\n") == 1

    def test_threads_flag_is_unknown(self):
        proc = subprocess.run(
            [sys.executable, "-m", "apmod.cli", "bv-scan", "--x", "100", "--qlo", "3",
             "--qhi", "6", "--threads", "2"],
            capture_output=True,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["sieve", "--hi", "10", "--config", "x"], "--config"),
            (["verify", "weil", "--c-max", "10", "--tol", "1"], "--tol"),
            (["bv-scan", "--x", "100", "--qlo", "3", "--qhi", "6", "--seed", "3"], "--seed"),
        ],
    )
    def test_unread_flag_is_unknown(self, args, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in err
        assert "Traceback" not in err

    def test_zero_tolerance_is_not_the_default(self, tmp_path):
        # worst rel_error is about 1e-16, so --tol 0 must fail, not fall back
        code, text = run_cli(["dispersion-demo", "--count", "2", "--tol", "0"], tmp_path)
        assert code == 1
        assert "worst" in text

    def test_zero_tolerance_fsum_is_a_verdict(self, tmp_path):
        # tol = 0 demands exact equality; a float deviation reads inf, not a crash
        code, text = run_cli(["verify", "fsum", "--q-max", "6", "--trials", "1", "--tol", "0"],
                             tmp_path)
        rows = [r.split(",") for r in strip_comments(text).splitlines()[1:]]
        assert code == 1
        assert {r[3] for r in rows if r[4] == "FAIL"} == {"inf"}

    def test_tolerance_override_failure_is_1(self, tmp_path):
        # an impossible tolerance forces the assertion path
        code, text = run_cli(
            ["dispersion-demo", "--count", "2", "--tol", "1e-30"], tmp_path
        )
        assert code == 1
        assert "worst" in text

    def test_pass_is_0(self, tmp_path):
        code, _ = run_cli(["verify", "weil", "--c-max", "60"], tmp_path)
        assert code == 0

    @pytest.mark.parametrize(
        "args, msg",
        [
            # a sweep that would test nothing, or a NaN that no comparison rejects
            (["verify", "weil", "--c-max", "0"], "--c-max must be >= 2, got 0"),
            (["verify", "deligne", "--p-max", "-1"], "--p-max must be >= 2, got -1"),
            (["verify", "fsum", "--q-max", "0"], "--q-max must be >= 6, got 0"),
            (["verify", "fsum", "--trials", "-1"], "--trials must be >= 1, got -1"),
            (["verify", "buchstab", "--trials", "-1"], "--trials must be >= 1, got -1"),
            (["verify", "fsum", "--tol", "nan"], "--tol must be a number, got nan"),
            (["verify", "fsum", "--tol", "inf"], "--tol must be <= "),
            (["verify", "fsum", "--tol=-1e-9"], "--tol must be >= 0, got -1e-09"),
            (["dispersion-demo", "--tol", "nan"], "--tol must be a number, got nan"),
            (["decomp", "--x", "1000", "--epsilon", "nan"], "--epsilon must be a number"),
            (["omega", "--u", "nan"], "--u must be a number, got nan"),
            # unbounded costs, refused before any work
            (["completion-demo", "--H", "100000000"], "--H must be <= 100000, got"),
            (["expsum", "correlation", "--H", "1e300", "--a1", "1", "--a2", "2", "--r1", "3",
              "--r2", "5", "--s", "7"], "--H must be <= 100000, got 1e+300"),
            (["verify", "buchstab", "--trials", "100000000"], "--trials must be <= 1000,"),
            (["dispersion-demo", "--count", "100000"], "--count must be <= 10000, got"),
            (["verify", "weil", "--c-max", "2000", "--trials", "126"],
             "--c-max squared times --trials must be <= 500000000, got 504000000"),
            (["verify", "fsum", "--q-max", "200", "--trials", "61"],
             "--q-max times --trials must be <= 12000, got 12200"),
            # degenerate inputs refused before x^(1/2+delta) or n % d is formed
            (["moduli-set", "--kind", "divisor-window", "--x", "0", "--delta", "-1"],
             "delta = -1.0 outside (0, 1/42)"),
            (["completion-demo", "--q", "1", "--d", "0"], "d must be >= 1, got 0"),
            # a subnormal M overflows m/M to inf
            (["completion-demo", "--M", "5e-324"], "--M must be >= 1, got 5e-324"),
            # flags that reached a float power or factorize unchecked
            (["decomp", "--x", "100", "--epsilon", "1e300"], "--epsilon must be <= 21, got 1e+300"),
            (["decomp", "--x", "10000000", "--epsilon", "21.6"], "--epsilon must be <= 21, got 21.6"),
            *((["expsum", "correlation", "--H", "40", "--a1", "1", "--a2", "2", "--r1", "3",
                "--r2", "5", "--s", "7", flag, value], f"{flag} must be >= 1, got {value}")
              for flag, value in (("--r1", "0"), ("--r2", "0"), ("--s", "-7"))),
            (["expsum", "correlation", "--H", "40", "--a1", "1", "--a2", "2", "--r1", "3",
              "--r2", "5", "--s", str(10**30)], "--s must be <= 10000, got"),
        ],
    )
    def test_vacuous_or_unbounded_input_is_2(self, args, msg, tmp_path, capsys):
        path = tmp_path / "out.csv"
        assert main(args + ["--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("apmod: parameter error: ") and err.count("\n") == 1
        assert msg in err
        assert not path.exists()

    @pytest.mark.parametrize(
        "row", [r for r in cli.COMMANDS if r[0][0] == "verify" and r[3]],
        ids=lambda r: " ".join(r[0]),
    )
    def test_verify_floor_tests_a_case(self, row, tmp_path):
        # every sized flag at the floor of its range still tests something
        argv = list(row[0])
        for name, kind, _, _, *rng in row[3]:
            if rng and kind is int:
                argv += [name, str(rng[0][0])]
        code, text = run_cli(argv, tmp_path)
        assert code == 0
        rows = [r.split(",") for r in strip_comments(text).splitlines()]
        if "tested" in rows[0]:
            col = rows[0].index("tested")
            assert all(int(r[col]) >= 1 for r in rows[1:] if r[0] != "witness")
        elif rows[-1][0] == "tested":
            assert int(rows[-1][1]) >= 1
        assert len(rows) >= 2


class TestSizeCaps:
    """Inputs past a stated memory or time cap exit 2 with one line."""

    @pytest.mark.parametrize(
        "args, msg",
        [
            (["sieve", "--hi", "100000000000"], "--hi minus --lo must be <= 100000000"),
            (["sieve", "--lo", "10", "--hi", "100000011"], "--hi minus --lo must be <= 100000000"),
            (["sieve", "--lo", str(10**12), "--hi", str(10**12 + 1)], "--hi must be <= 10"),
            (["bv-scan", "--x", "2000000001", "--qlo", "8", "--qhi", "15"], "--x must be <= 2000000000"),
            (["expsum", "kl3", "--a", "1", "--q", "10000000000"], "--q must be <= 100000,"),
            (["expsum", "fsum", "--h1", "1", "--h2", "1", "--h3", "1", "--a", "1",
              "--q", "10000000000"], "--q must be <= 100000,"),
            (["expsum", "ramanujan", "--q", "10000000000", "--n", "1"], "--q must be <= 1000000,"),
            (["expsum", "kloosterman", "--m", "1", "--n", "1", "--q", "10000000000"],
             "--q must be <= 1000000,"),
            (["bv-scan", "--x", "1000", "--qlo", "1", "--qhi", "10000000000"],
             "--qhi minus --qlo must be <= 100000,"),
            (["bv-scan", "--x", "1000", "--qlo", "1", "--qhi", "100002"],
             "--qhi minus --qlo must be <= 100000,"),
            (["moduli-set", "--kind", "dyadic", "--x", "1000", "--qlo", "1",
              "--qhi", "10000000000"], "--qhi minus --qlo must be <= 1000000,"),
            (["moduli-set", "--kind", "divisor-window", "--x", str(10**18)],
             "x^(1/2+delta) must be <= 1000000,"),
            (["moduli-set", "--kind", "box", "--x", "1000", "--q1", "100000", "--q2", "100000"],
             "--q1 times --q2 must be <= 1000000,"),
            (["verify", "fundlemma", "--n-max", "10000000000"], "--n-max must be <= 10000000,"),
            (["verify", "reduction", "--n-max", "10000000000"], "--n-max must be <= 10000000,"),
            (["verify", "reduction", "--n-max", "10000001"], "--n-max must be <= 10000000,"),
            (["verify", "buchstab", "--x", "100000000000"], "--x must be <= 10000000,"),
            (["decomp", "--x", "10000001", "--z1", "2", "--z2", "3", "--z3", "4"],
             "--x must be <= 10000000,"),
            (["verify", "heathbrown", "--n-max", "100001"], "--n-max must be <= 100000,"),
            # phi(99991)^2 = 9,998,000,100 phases took 94 s; the cap refuses at once
            (["expsum", "kl3", "--a", "1", "--q", "99991"],
             "phi(--q) squared must be <= 1600000000, got 9998000100"),
            (["expsum", "fsum", "--h1", "1", "--h2", "1", "--h3", "1", "--a", "1",
              "--q", "99991"], "phi(--q) squared must be <= 1600000000, got 9998000100"),
        ],
    )
    def test_over_cap_is_2(self, args, msg, tmp_path, capsys):
        path = tmp_path / "out.csv"
        assert main(args + ["--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("apmod: parameter error: ") and err.count("\n") == 1
        assert msg in err
        assert not path.exists()

    @pytest.mark.parametrize(
        "args, msg",
        [
            (["bv-scan", "--x", "1000", "--qlo", str(2**60 + 1), "--qhi", str(2**60 + 4)],
             f"--qlo must be <= {2**58},"),
            (["bv-scan", "--x", "1000", "--qlo", str(10**20), "--qhi", str(10**20)],
             f"--qlo must be <= {2**58},"),
            (["bv-scan", "--x", "1000", "--qlo", str(2**58 - 3), "--qhi", str(2**58 + 1)],
             f"--qhi must be <= {2**58},"),
            (["moduli-set", "--kind", "dyadic", "--x", "1000", "--qlo", "1", "--qhi", "-1"],
             "--qhi must be >= 0,"),
            (["bv-scan", "--x", "1000", "--qlo", "3", "--qhi", "6", "--a", str(2**70)],
             f"--a must be <= {2**63 - 1},"),
            (["bv-scan", "--x", "1000", "--qlo", "3", "--qhi", "6", "--a", str(-(2**63))],
             f"--a must be >= {-(2**63 - 1)},"),
            (["moduli-set", "--kind", "divisor-window", "--x", "1000", "--a", str(2**70)],
             f"--a must be <= {2**63 - 1},"),
            # refused before the divisor-window kind forms x^(1/2+delta) as a float
            (["moduli-set", "--kind", "divisor-window", "--x", str(10**31)],
             f"--x must be <= {10**30},"),
            (["moduli-set", "--kind", "divisor-window", "--x", str(10**30 + 1)],
             f"--x must be <= {10**30},"),
            (["moduli-set", "--kind", "divisor-window", "--x", str(10**400)],
             f"--x must be <= {10**30},"),
        ],
    )
    def test_modulus_and_residue_ranges_name_the_flag(self, args, msg, tmp_path, capsys):
        # _count_in_classes indexes bits below 64 * q in uint64: q <= 2^58
        path = tmp_path / "out.csv"
        assert main(args + ["--out", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("apmod: parameter error: ") and err.count("\n") == 1
        assert msg in err
        assert not path.exists()

    def test_modulus_at_the_range_cap_is_counted(self, tmp_path):
        q_max = 2**58
        code, text = run_cli(["bv-scan", "--x", "1000", "--qlo", str(q_max - 3),
                              "--qhi", str(q_max), "--a", "997"], tmp_path)
        assert code == 0
        rows = [r.split(",") for r in strip_comments(text).splitlines()[1:-2]]
        assert [int(r[1]) for r in rows] == list(range(q_max - 3, q_max + 1))
        assert [r[3] for r in rows] == ["1"] * 4  # the one prime 997 = a mod q

    @pytest.mark.parametrize(
        "args",
        [
            ["sieve", "--lo", "1000000000", "--hi", "1001000000"],
            ["sieve", "--lo", str(10**12 - 1000), "--hi", str(10**12)],
            ["expsum", "ramanujan", "--q", "1000000", "--n", "3"],
            ["moduli-set", "--kind", "dyadic", "--x", "1000", "--qlo", "1", "--qhi", "1000001"],
            ["verify", "buchstab", "--x", "10000000", "--trials", "2"],
        ],
    )
    def test_at_cap_is_accepted(self, args, tmp_path):
        assert run_cli(args, tmp_path)[0] == 0

    @pytest.mark.parametrize(
        "args",
        [
            ["verify", "weil"],
            ["verify", "weil", "--c-max", "500"],
            ["verify", "weil", "--c-max", "2000", "--trials", "125"],
            ["verify", "weil", "--c-max", "707", "--trials", "1000"],
            ["verify", "fsum"],
            ["verify", "fsum", "--q-max", "48", "--trials", "200"],
            ["verify", "fsum", "--q-max", "200", "--trials", "60"],
            ["verify", "fsum", "--q-max", "12", "--trials", "1000"],
        ],
    )
    def test_sweep_product_caps_admit(self, args, tmp_path, monkeypatch):
        # defaults, README examples and the caps' corners pass the product
        # caps; the sweeps themselves are stubbed
        report = lambda *a, **k: SweepReport(tested=1)
        monkeypatch.setattr(cli, "weil_check", report)
        monkeypatch.setattr(cli, "f_property_check", report)
        assert run_cli(args, tmp_path)[0] == 0

    def test_kl3_cap_admits_1e5(self, tmp_path, monkeypatch):
        # the cap is checked before the phi(q)^2 evaluation, which is stubbed
        monkeypatch.setattr(cli, "kl3", lambda a, q: 0j)
        code, text = run_cli(["expsum", "kl3", "--a", "1", "--q", "100000"], tmp_path)
        assert code == 0 and "kl3,1,100000," in text

    def test_bv_scan_memory_bound(self, tmp_path):
        # x = 1e9 reads a 62.5 MB prime bitmap; an array of the primes <= 1e9
        # (about 400 MB, built twice over) does not fit under this limit
        limit = 512 << 20
        path = tmp_path / "bv.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "apmod.cli", "bv-scan", "--x", "1000000000", "--qlo", "8",
             "--qhi", "15", "--out", str(path)],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 0, proc.stderr
        rows = strip_comments(path.read_text()).splitlines()
        assert rows[1].split(",")[:4] == ["1000000000", "8", "1", "12711220"]

    def test_sieve_memory_bound(self, tmp_path):
        # the summary is read off one segment of primes at a time; a list of
        # the 5.8 million primes <= 1e8 does not fit under this limit
        limit = 256 << 20
        path = tmp_path / "sieve.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "apmod.cli", "sieve", "--lo", "0", "--hi", "100000000",
             "--out", str(path)],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 0, proc.stderr
        rows = strip_comments(path.read_text()).splitlines()
        assert rows[1] == "0,100000000,5761455,2,99999989"

    def test_sieve_identity_memory_bound(self, tmp_path):
        # decomp at the --x cap reads a 160 MB LPF table (2x entries) and
        # fits under this limit; ten times the cap would need 1.6 GB, and is
        # refused before any allocation
        limit = 512 << 20
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        procs = [
            subprocess.run(
                [sys.executable, "-m", "apmod.cli", "decomp", "--x", x, "--z1", "2", "--z2", "3",
                 "--z3", "4"],
                capture_output=True,
                text=True,
                env=env,
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            )
            for x in ("10000000", "100000000")
        ]
        assert procs[0].returncode == 0, procs[0].stderr
        assert strip_comments(procs[0].stdout).splitlines()[-1] == "exact,True"
        assert procs[1].returncode == 2
        assert procs[1].stderr == (
            "apmod: parameter error: --x must be <= 10000000, got 100000000\n"
        )

    def test_box_at_the_x_cap_is_accepted(self, tmp_path):
        code, text = run_cli(["moduli-set", "--kind", "box", "--x", str(10**30)], tmp_path)
        assert code == 0
        assert strip_comments(text).splitlines()[1:4] == [
            f"constraint,{name},holds"
            for name in ("Q1*Q2^2<x^(1-100eps)", "Q1^12*Q2^7<x^(4-100eps)",
                         "Q1^20*Q2^19<x^(10-100eps)")
        ]

    @pytest.mark.parametrize("x", [10**40, 10**400], ids=["1e40", "1e400"])
    @pytest.mark.parametrize("kind, small", [("box", 10**30), ("dyadic", 1000)],
                             ids=["box", "dyadic"])
    def test_box_and_dyadic_take_any_x(self, kind, small, x, tmp_path):
        # neither kind forms a float power of x: the box verdicts compare
        # Python integers and the dyadic kind reads no x
        code, text = run_cli(["moduli-set", "--kind", kind, "--x", str(x)], tmp_path)
        assert code == 0
        want = run_cli(["moduli-set", "--kind", kind, "--x", str(small)], tmp_path)[1]
        assert strip_comments(text) == strip_comments(want)

    def test_decomp_modulus_is_uncapped(self):
        # the S-value kernel holds nothing sized by q on narrow windows, so a
        # modulus near 1e12 runs in a few MB
        limit = 512 << 20
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "apmod.cli", "decomp", "--x", "1000", "--q1", "1000000",
             "--q2", "1000001"],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        )
        assert proc.returncode == 0, proc.stderr
        assert strip_comments(proc.stdout).splitlines()[-1] == "exact,True"

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lo=st.integers(-1, 10**7), width=st.integers(0, 10**5))
    def test_sieve_summary_matches_pi(self, lo, width, tmp_path):
        hi = min(lo + width, 10**7)
        code, text = run_cli(["sieve", "--lo", str(lo), "--hi", str(hi)], tmp_path)
        ps = primes_in(lo, hi)
        want = [lo, hi, pi(hi) - pi(lo), ps[0] if ps else "", ps[-1] if ps else ""]
        assert code == 0
        assert strip_comments(text).splitlines()[1] == ",".join(map(str, want))


class TestOutputs:
    def test_kl3_value(self, tmp_path):
        code, text = run_cli(["expsum", "kl3", "--a", "1", "--q", "2"], tmp_path)
        assert code == 0
        row = strip_comments(text).splitlines()[1].split(",")
        assert float(row[3]) == pytest.approx(-0.5, abs=1e-12)

    def test_bv_scan_schema(self, tmp_path):
        code, text = run_cli(
            ["bv-scan", "--x", "1000", "--qlo", "3", "--qhi", "6"], tmp_path
        )
        assert code == 0
        lines = strip_comments(text).splitlines()
        assert lines[0] == "x,q,a,pi_ap,expected,delta,norm_delta"
        assert lines[1].split(",")[1] == "3"
        assert "/" in lines[1].split(",")[4]  # exact rational column

    def test_completion_demo(self, tmp_path):
        code, text = run_cli(
            ["completion-demo", "--M", "100", "--q", "7", "--a", "3", "--H", "60"],
            tmp_path,
        )
        assert code == 0
        lines = strip_comments(text).splitlines()
        assert lines[0] == "kind,params,exact,truncated,error,H"
        assert float(lines[1].split(",")[4]) < 1e-6

    def test_completion_demo_body(self, tmp_path):
        # the error column prints the quadrature's bits to 12 digits
        code, text = run_cli(["completion-demo", "--M", "100", "--q", "7", "--H", "50"], tmp_path)
        assert code == 0
        assert strip_comments(text).splitlines() == [
            "kind,params,exact,truncated,error,H",
            "ap,M=100.0 q=7 a=3,21.4273876943,21.4273876943+0j,9.66338120634e-13,50",
            "inverse,N=100.0 q=7 d=3 n0=1 b=2,-7.16354812711+0.011001280375j,"
            "-7.16354812711+0.011001280375j,3.7985373628e-13,50",
            "coprime,M=100.0 q=7,128.570352285,128.571428571+0j,0.00107628667115,0",
        ]

    def test_omega_body(self, tmp_path):
        code, text = run_cli(["omega", "--u", "4.5"], tmp_path)
        assert code == 0
        assert strip_comments(text).splitlines() == ["u,omega", "4.5,0.561489551995"]

    @pytest.mark.parametrize("args,digest", [
        (["--n-max", "600"], "fcef1f74c351151546c390b01c53e47ec0f27fbd0e0c287986c08d4b59338ff8"),
        (["--n-max", "600", "--verbose"],
         "9c77393308c609decf35445aff928fa12fbf89ec6b7241059ea8ac3e7eb44028"),
    ])
    def test_verify_heathbrown_body(self, args, digest, tmp_path):
        # SHA-256 of the body, one row per (n, k) with --verbose: the value,
        # lambda and deviation columns pin their floats to 12 digits
        code, text = run_cli(["verify", "heathbrown", *args], tmp_path)
        assert code == 0
        assert hashlib.sha256(strip_comments(text).encode()).hexdigest() == digest

    @pytest.mark.parametrize("args,digest", [
        (["verify", "buchstab", "--trials", "1000"],
         "2bb770080cdac805118ff8984ef964c4144ced6102da30420800b48feebcdd50"),
        (["verify", "buchstab", "--x", "10000000", "--trials", "20"],
         "97d50b222e2125340680b7a082d432a84d76a5a7e35b5563cef61f1cae7c6f30"),
        (["decomp", "--x", "1000000", "--q1", "7", "--a", "3"],
         "b0f873d0f444981e5e1b623ae70a21a46c2d6814cf97809054de8f8d5e1c48b2"),
        (["dispersion-demo", "--count", "50", "--seed", "3"],
         "998fe0c5c09eb29bbff858fbb5c2982b9a68e37bc2a1d7db2599166de354ab59"),
    ])
    def test_exact_split_body(self, args, digest, tmp_path):
        # SHA-256 of bodies past the bench sizes: one verdict row per Buchstab
        # configuration; the tree rows, split checks and flags of one decomp;
        # lhs, s1, s2 and s3 of 50 dispersion instances to 12 digits
        code, text = run_cli(args, tmp_path)
        assert code == 0
        assert hashlib.sha256(strip_comments(text).encode()).hexdigest() == digest

    @pytest.mark.parametrize("args,digest", [
        (["decomp", "--x", "300000", "--q1", "5", "--q2", "2", "--a", "3"],
         "c188e2b0ae14951d41de2f1033790191d07d8d4ffe217cec164d4936a5f045e7"),
        (["verify", "buchstab", "--x", "1000000", "--trials", "20", "--seed", "5"],
         "d51415e516fb6e5ce01818405a7f1f1917860e32fd37c1bd9b53d9cabdc81f9e"),
        (["decomp", "--x", "200000", "--q1", "97", "--q2", "6", "--a", "5"],
         "3e1f793937ec3a09f11e453d95a50bf7b9d042499682c8d651bd181f9a9f70b2"),
    ])
    def test_s_values_body(self, args, digest, tmp_path):
        # SHA-256 of bodies on both sides of b = P^+(q): every term of the
        # first has b = lpf_bound(z) > P^+(q), so its survivors are all
        # coprime to q; the second has four wide terms with b <= P^+(q); the
        # third, at q = 2 * 3 * 97, has such terms on both paths
        code, text = run_cli(args, tmp_path)
        assert code == 0
        assert hashlib.sha256(strip_comments(text).encode()).hexdigest() == digest

    @pytest.mark.parametrize("args,digest", [
        (["moduli-set", "--kind", "box", "--x", "1000000", "--q1", "30", "--q2", "40", "--a", "1"],
         "f140129c5210944cda3583b56d05a61d039862295ccc558a59d72d4857fcf049"),
        (["moduli-set", "--kind", "box", "--x", "1000000", "--q1", "30", "--q2", "40",
          "--a", "-7"],
         "a561ab2dcfef6447638d196c49cbb3643d6110ada8efa23f03a546432da18765"),
        (["moduli-set", "--kind", "divisor-window", "--x", "1000000", "--delta", "0.01",
          "--a", "1"],
         "a1439dbd966fce069672d643d710e3c73248e6a79105bb55d175642a0bf5bdf5"),
        (["moduli-set", "--kind", "divisor-window", "--x", "4294967296", "--delta", "0.005",
          "--eta", "0.021249999999999995", "--a", "1"],
         "27d0ffec6dee40fba45cb51455dfee1ac029a1b4f54ee822665172fadc2191f0"),
        (["moduli-set", "--kind", "dyadic", "--x", "1", "--qlo", "100", "--qhi", "5000",
          "--a", "1"],
         "612e96ed79465458bbf0aa845aec668370be26a0f30edfc2c5f2cfdd68c6c5d0"),
        (["bv-scan", "--x", "1000000", "--qlo", "64", "--qhi", "127", "--a", "1"],
         "ce5634ffbab718e3038e36823f6c48e5767f8b39d4fcb92402ad7a5eb322d7e5"),
        (["bv-scan", "--x", "1000000", "--qlo", "64", "--qhi", "127", "--a", "-5"],
         "ba4e44e454d660b6862902215b176a29f6af3d0381b5d55479553c3407db5a22"),
        (["sieve", "--lo", "1000000", "--hi", "1100000", "--list"],
         "f8aa92708f825909e4995138942b9100fd44379eb7ede448b68aad90d249b10b"),
    ])
    def test_family_body(self, args, digest, tmp_path):
        # SHA-256 of the row-per-modulus and row-per-prime bodies written by
        # Output.rows, captured from the csv.writer loop, row by row; the second
        # divisor-window case flags 12,204 of its 48,815 moduli
        code, text = run_cli(args, tmp_path)
        assert code == 0
        body = "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("#"))
        assert hashlib.sha256(body.encode()).hexdigest() == digest

    @pytest.mark.parametrize("side, n, value", [
        ("+", 31, 2), ("+", 31, 0), ("-", 31, 0), ("-", 31, 2),  # rough for every z
        ("+", 23, -1), ("-", 23, 1), ("-", 23, 0),  # rough for z = 10, 20, not 30
        ("+", 12, -1), ("-", 12, 1), ("+", 12, 5),  # rough for no z
    ])
    def test_verify_fundlemma_verdicts(self, side, n, value, tmp_path, monkeypatch):
        # one doctored sum: both verdicts as their definitions give them, per n
        from apmod.identities import SieveWeights, fundamental_lemma_weights
        from apmod.primes import least_prime_factor_table

        sums = SieveWeights.sums_over_range

        def doctored(self, n_max, s):
            out = sums(self, n_max, s)
            if s == side:
                out[n] = value
            return out

        monkeypatch.setattr(SieveWeights, "sums_over_range", doctored)
        code, text = run_cli(["verify", "fundlemma", "--n-max", "100"], tmp_path)
        lpf, want = least_prime_factor_table(100), []
        for z in (10, 20, 30):
            for y in (100, 1000):
                w = fundamental_lemma_weights(z, y)
                sp, sm = w.sums_over_range(100, "+"), w.sums_over_range(100, "-")
                rough = [m for m in range(1, 101) if lpf[m] > z]
                v1 = all(sp[m] == sm[m] == 1 for m in rough)
                v2 = all(sp[m] >= 0 >= sm[m] for m in range(1, 101) if m not in rough)
                want.append(f"{z},{y},100,{v1},{v2},{'pass' if v1 and v2 else 'FAIL'}")
        assert strip_comments(text).splitlines()[1:] == want
        assert code == any(row.endswith("FAIL") for row in want)

    def test_moduli_set_window(self, tmp_path):
        code, text = run_cli(
            ["moduli-set", "--kind", "divisor-window", "--x", "100000",
             "--delta", "0.01", "--eta", "0.01"],
            tmp_path,
        )
        assert code == 0
        lines = strip_comments(text).splitlines()
        qs = [int(r.split(",")[0]) for r in lines[1:]]
        assert all(q % 2 == 0 for q in qs)

    @pytest.mark.parametrize(
        "eta, n_yes",
        [("0.02125", 0), ("0.021249999999999995", 12204)],  # lo = 2.0 and 2 - 1 ulp
    )
    def test_moduli_set_window_flagged_column(self, eta, n_yes, tmp_path):
        # 12,204 flagged moduli: scanning that list once per row took 7 s (2-vCPU Xeon)
        args = ["moduli-set", "--kind", "divisor-window", "--x", "4294967296",
                "--delta", "0.005", "--eta", eta]
        t0 = time.perf_counter()
        code, text = run_cli(args, tmp_path)
        assert time.perf_counter() - t0 < 3.0
        assert code == 0
        members, flagged = divisor_window_family(2**32, 0.005, float(eta), 1)
        members, flagged = members.tolist(), set(flagged.tolist())
        rows = [r.split(",") for r in strip_comments(text).splitlines()[1:]]
        assert [int(r[0]) for r in rows] == members
        assert [r[3] == "yes" for r in rows] == [q in flagged for q in members]
        assert sum(r[3] == "yes" for r in rows) == n_yes
        # at lo = 2.0 all 12,204 flagged moduli are non-members and get no row
        hidden = len(flagged - set(members))
        assert hidden == (12204 if n_yes == 0 else 0)
        assert f"# flagged non-members (no row): {hidden}" in text.splitlines()

    def test_moduli_set_box_body(self, tmp_path):
        code, text = run_cli(
            ["moduli-set", "--kind", "box", "--x", "1000", "--q1", "4", "--q2", "6", "--a", "5"],
            tmp_path,
        )
        assert code == 0
        pairs = [(q1, q2) for q1 in (1, 2, 3, 4) for q2 in (1, 2, 3, 4, 6)]  # q1-major
        assert strip_comments(text).splitlines() == [
            "q1,q2,q",
            "constraint,Q1*Q2^2<x^(1-100eps),holds",
            "constraint,Q1^12*Q2^7<x^(4-100eps),violated",
            "constraint,Q1^20*Q2^19<x^(10-100eps),holds",
        ] + [f"{q1},{q2},{q1 * q2}" for q1, q2 in pairs]

    def test_moduli_set_box_constraint_at_equality(self, tmp_path):
        # 5^12 * 81^7 = 273375^4 exactly, so the strict constraint fails
        code, text = run_cli(
            ["moduli-set", "--kind", "box", "--x", "273375", "--q1", "5", "--q2", "81", "--a", "1"],
            tmp_path,
        )
        assert code == 0
        assert strip_comments(text).splitlines()[1:4] == [
            "constraint,Q1*Q2^2<x^(1-100eps),holds",
            "constraint,Q1^12*Q2^7<x^(4-100eps),violated",
            "constraint,Q1^20*Q2^19<x^(10-100eps),holds",
        ]

    def test_moduli_set_dyadic_body(self, tmp_path):
        code, text = run_cli(
            ["moduli-set", "--kind", "dyadic", "--x", "1000", "--qlo", "10", "--qhi", "30",
             "--a", "6"],
            tmp_path,
        )
        assert code == 0
        assert strip_comments(text).splitlines() == ["q", "11", "13", "17", "19", "23", "25", "29"]

    def test_verify_bezout(self, tmp_path):
        code, text = run_cli(["verify", "bezout"], tmp_path)
        assert code == 0
        assert strip_comments(text).splitlines() == ["q1_max,checked,ok", "50,984115,pass"]

    def test_decomp_exit_reflects_exactness(self, tmp_path):
        code, text = run_cli(["decomp", "--x", "3000", "--q1", "3"], tmp_path)
        assert code == 0
        assert "exact,True" in strip_comments(text)

    def test_decomp_default_z3_above_2_to_21(self, tmp_path):
        # x^(4/7) passes 2*sqrt(2x) above x = 2^21, so the default clamps to it
        code, text = run_cli(["decomp", "--x", "5000000"], tmp_path)
        assert code == 0
        assert strip_comments(text).splitlines()[-1] == "exact,True"

    def test_help_lists_flags(self):
        proc = subprocess.run(
            [sys.executable, "-m", "apmod.cli", "bv-scan", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for flag in ("--x", "--qlo", "--qhi", "--a", "--out"):
            assert flag in proc.stdout


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072e-308]),
)
_BIG_INTS = st.integers(-(2**70), 2**70)
_FRACTIONS = st.builds(Fraction, st.integers(-(10**20), 10**20), st.integers(1, 10**20))
_FLAGS = st.sampled_from(["", "yes"])
_SCALARS = st.one_of(_BIG_INTS, _FLOATS, _FRACTIONS, _FLAGS)


def _columns(n):
    """A column of n cells of one kind, as Output.rows takes it, or a scalar."""
    int64 = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=np.int64))
    lists = [st.lists(k, min_size=n, max_size=n)
             for k in (_BIG_INTS, _FLOATS, _FRACTIONS, _FLAGS, _SCALARS)]
    return st.one_of(int64, *lists, _SCALARS)


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 40))
    cols = draw(st.lists(_columns(n), min_size=1, max_size=6))
    if all(not isinstance(c, (list, np.ndarray)) for c in cols):
        cols[0] = [cols[0]] * n
    if len(cols) == 1 and "" in list(cols[0]):  # csv.writer quotes a lone empty field
        cols[0] = ["yes" if v == "" else v for v in cols[0]]
    return n, cols


class TestColumnarRows:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(table=_tables())
    def test_rows_writes_what_row_writes(self, table, tmp_path):
        n, cols = table
        by_row, by_col = Output(str(tmp_path / "row.csv"), "t", 0), Output(
            str(tmp_path / "rows.csv"), "t", 0)
        for i in range(n):
            by_row.row(*(c[i] if isinstance(c, (list, np.ndarray)) else c for c in cols))
        by_row.row("end")
        by_col.rows(*cols)
        by_col.row("end")
        by_row.close()
        by_col.close()
        body = [(tmp_path / f).read_text().split("\n", 1)[1] for f in ("row.csv", "rows.csv")]
        assert body[0] == body[1]

    def test_chunks_join_across_the_chunk_size(self, tmp_path):
        n = 2 * cli.ROWS_CHUNK + 3
        out = Output(str(tmp_path / "rows.csv"), "t", 0)
        flags = ["yes" if i % 3 else "" for i in range(n)]
        out.rows(np.arange(n, dtype=np.int64), 0.5, flags)
        out.close()
        lines = (tmp_path / "rows.csv").read_text().splitlines()[1:]
        assert lines == [f"{i},0.5,{f}" for i, f in enumerate(flags)]

    @pytest.mark.parametrize("cols", [([1, 2], [1]), (1, 2)])
    def test_columns_of_unequal_or_no_length_are_refused(self, cols, tmp_path):
        out = Output(str(tmp_path / "rows.csv"), "t", 0)
        with pytest.raises(ValueError, match="one length"):
            out.rows(*cols)
        out.close()


class TestParserCache:
    def test_second_main_reads_the_default_of_an_omitted_flag(self, tmp_path):
        dyadic = ["moduli-set", "--kind", "dyadic", "--x", "1000"]
        code, text = run_cli(dyadic + ["--qlo", "10", "--qhi", "12"], tmp_path, "first.csv")
        assert code == 0 and strip_comments(text).splitlines() == ["q", "10", "11", "12"]
        code, text = run_cli(dyadic, tmp_path, "second.csv")  # --qlo 100 --qhi 200
        assert code == 0
        assert strip_comments(text).splitlines() == ["q"] + [str(q) for q in range(100, 201)]
        assert build_parser(("moduli-set",)) is build_parser(("moduli-set",))

    @pytest.mark.parametrize("argv,last", [
        (["bv-scan", "--x", "100"],
         "apmod bv-scan: error: the following arguments are required: --qlo, --qhi"),
        (["bv-scan", "--x", "ten", "--qlo", "1", "--qhi", "2"],
         "apmod bv-scan: error: argument --x: invalid int value: 'ten'"),
        (["moduli-set", "--kind", "boxes", "--x", "1"],
         "apmod moduli-set: error: argument --kind: invalid choice: 'boxes' "
         "(choose from 'box', 'divisor-window', 'dyadic')"),
        (["no-such-command"],
         "apmod: error: argument command: invalid choice: 'no-such-command' (choose from "
         "'sieve', 'bv-scan', 'moduli-set', 'expsum', 'verify', 'decomp', 'dispersion-demo', "
         "'completion-demo', 'omega')"),
    ])
    def test_usage_errors_repeat_exactly(self, argv, last, capsys):
        # the error lines as the parser built afresh per call wrote them
        errs = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1] and errs[0].startswith("usage: apmod")
        assert errs[0].splitlines()[-1] == last


def _leaf_parsers(parser, path=()):
    """(subcommand path, parser) for every leaf subcommand of ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaf_parsers(child, path + (name,))


class TestFlagSurface:
    SEED = {"verify buchstab", "verify fsum", "verify weil", "verify partition",
            "dispersion-demo"}
    TOL = {"verify fsum", "dispersion-demo"}

    def test_flags_only_where_read(self):
        leaves = dict(_leaf_parsers(build_parser()))
        flags = {
            name: {opt for a in p._actions for opt in a.option_strings}
            for name, p in leaves.items()
        }
        assert {n for n, f in flags.items() if "--seed" in f} == self.SEED
        assert {n for n, f in flags.items() if "--tol" in f} == self.TOL
        assert all("--out" in f and "--config" not in f for f in flags.values())

    def test_parser_is_the_table(self):
        leaves = dict(_leaf_parsers(build_parser()))
        rows = {" ".join(r[0]): r for r in cli.COMMANDS}
        assert set(leaves) == set(rows)
        for name, p in leaves.items():
            opts = {opt for a in p._actions for opt in a.option_strings}
            assert opts - {"-h", "--help", "--out"} == {f[0] for f in rows[name][3]}

    def test_chosen_leaf_parser_is_built_alone(self):
        parser = build_parser(("verify", "fsum"))
        assert [name for name, _ in _leaf_parsers(parser)] == ["verify fsum"]


def _flag_values(flag):
    """Values from the low end of the flag's range, and values just past either end."""
    name, kind, _, _, *rng = flag
    if kind is bool:
        return st.booleans()
    if isinstance(kind, tuple):
        return st.sampled_from(kind)
    lo, hi = rng[0] if rng else (-math.inf, math.inf)
    start = lo if lo > -math.inf else -2
    if kind is int:
        near = st.integers(int(start), int(min(hi, start + 20)))
        past = [v for v in (lo - 1, hi + 1) if math.isfinite(v)]
    else:
        near = st.floats(start, min(hi, start + 4))
        past = [math.nan, math.inf, -math.inf] + [
            math.nextafter(v, w) for v, w in ((lo, -math.inf), (hi, math.inf)) if math.isfinite(v)
        ]
    return st.one_of(near, st.sampled_from(past)) if past else near


# verify bezout takes no flag to draw and runs for seconds
_LEAVES = [row for row in cli.COMMANDS if row[3]]
_CASES = st.sampled_from(_LEAVES).flatmap(
    lambda row: st.tuples(st.just(row), st.tuples(*map(_flag_values, row[3])))
)


class TestTableContract:
    """Every table leaf, with flags drawn in and just past their ranges."""

    @settings(max_examples=1500, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(case=_CASES)
    def test_every_input_ends_in_rows_or_one_line(self, case, tmp_path, capsys):
        row, values = case
        path = tmp_path / "fuzz.csv"
        path.unlink(missing_ok=True)
        argv, bad = list(row[0]), None
        for (name, kind, _, _, *rng), value in zip(row[3], values):
            if kind is bool:
                argv += [name] if value else []
                continue
            argv.append(f"{name}={value}")
            lo, hi = rng[0] if rng else (-math.inf, math.inf)
            if bad is None and not isinstance(kind, tuple) and not lo <= value <= hi:
                bad = name
        capsys.readouterr()
        code = main(argv + ["--out", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("apmod: parameter error: ") and err.count("\n") == 1, err
            assert not path.exists()
        if bad is not None:
            assert code == 2 and err.startswith(f"apmod: parameter error: {bad} must be "), err
