"""CLI tests: exit codes, report formats, config layering, quantities.

Everything drives main(argv) in-process; stdout/stderr go through capsys,
except TestImports, which needs a fresh interpreter.
QMC-backed paths use small sample counts to stay fast; statistical
accuracy at full defaults is the acceptance suite's job.
"""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from mpmath import mp

from mahlerlab import cli, registry
from mahlerlab.cli import JSON_SCHEMA, RunConfig, UsageError, main
from mahlerlab.modular import NEWFORM_F, newform_coefficient
from mahlerlab.registry import IdentityCheck, get_check


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_verify_without_ids_or_all(self, capsys):
        code, _, err = run_cli(capsys, "verify")
        assert code == 2
        assert "--all" in err

    def test_unknown_id_suggests(self, capsys):
        code, _, err = run_cli(capsys, "verify", "eq-9.9")
        assert code == 2
        assert "did you mean" in err

    def test_passing_check_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "qexp-f-coeffs")
        assert code == 0
        assert out.startswith("PASS qexp-f-coeffs")

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        orig = get_check("eq-4.3")
        broken = IdentityCheck(
            id="eq-4.3",
            kind="high-precision",
            description=orig.description,
            lhs_plan=lambda ctx: registry.PlanResult((mp.mpf(1),)),
            rhs_plan=lambda ctx: registry.PlanResult((mp.mpf(2),)),
            tolerance=mp.mpf(0),
        )
        monkeypatch.setitem(registry._REGISTRY, "eq-4.3", broken)
        code, out, _ = run_cli(capsys, "verify", "eq-4.3")
        assert code == 1
        assert "FAIL eq-4.3" in out

    def test_bad_precision(self, capsys):
        code, _, err = run_cli(capsys, "verify", "ff-4.1", "--precision", "16")
        assert code == 2
        assert "precision" in err

    def test_bad_samples(self, capsys):
        code, _, err = run_cli(capsys, "verify", "ff-4.1", "--samples", "3000")
        assert code == 2
        assert "power of two" in err

    def test_bad_filter_tag(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--all", "--filter", "spectral")
        assert code == 2
        assert "filter" in err

    def test_bad_format_flag(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "ff-4.1", "--format", "xml")
        assert code == 2

    def test_unknown_quantity(self, capsys):
        code, _, err = run_cli(capsys, "compute", "tau", "7")
        assert code == 2
        assert "valid" in err


class TestVerifyFormats:
    def test_json_validates_against_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify",
            "qexp-ramanujan",
            "fourier-3.10",
            "eq-1.1",
            "--samples",
            "4096",
            "--format",
            "json",
        )
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, JSON_SCHEMA)
        assert doc["version"] == "v1"
        assert [r["id"] for r in doc["results"]] == [
            "qexp-ramanujan",
            "fourier-3.10",
            "eq-1.1",
        ]
        assert doc["summary"]["passed"] == 3

    def test_json_wall_ms_is_zero(self, capsys):
        _, out, _ = run_cli(capsys, "verify", "ff-4.1", "--format", "json")
        doc = json.loads(out)
        assert all(r["wall_ms"] == 0 for r in doc["results"])

    def test_json_reruns_are_byte_identical(self, capsys):
        argv = (
            "verify",
            "fourier-3.9",
            "eq-1.1",
            "qexp-f-coeffs",
            "--samples",
            "4096",
            "--format",
            "json",
        )
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_csv_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "ff-4.1", "ff-ahlgren-ono", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [row["id"] for row in rows] == ["ff-4.1", "ff-ahlgren-ono"]
        assert all(row["pass"] == "true" for row in rows)
        assert all(row["wall_ms"] == "0" for row in rows)

    def test_text_summary_line(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "wz-pair-1", "qexp-ramanujan")
        assert code == 0
        assert out.strip().endswith(
            "2 checks: 2 passed, 0 failed "
            "(exact 2, high-precision 0, statistical 0)"
        )

    def test_filter_runs_only_that_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--all", "--filter", "statistical",
            "--samples", "4096", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["results"]) == 5
        assert {r["kind"] for r in doc["results"]} == {"statistical"}


class TestFrozenReport:
    def test_highprec_96_report_is_byte_identical(self, capsys, tmp_path, monkeypatch):
        # tests/data/highprec_96.json was written by the mpf Levin table and
        # the mpf q-series walk, and the integer kernels reproduced every
        # byte; its two lambda-symmetry records were rewritten when Lambda(s)
        # moved from per-s tanh-sinh to axis_mellin's one trapezoidal grid
        # (asymmetry 4.2e-37 -> 2.2e-39 for f, 2.2e-35 -> 1.6e-37 for h).
        # It was rewritten again when the series checks moved to int partial
        # sums (thm-1.1, eq-2.10, eq-2.11, eq-3.2 and eq-4.3 changed lhs or
        # rhs, deviation and evals) and deviations became one rounding of
        # the exact difference (eq-1.5, eq-2.4, e-wan, eq-2.6, eq-2.7 and
        # eq-2.8-analytic no longer read 0.0), and once more when m_alpha's
        # integral route moved to ints in rho = 1 - sqrt(1 - sin u)
        # (fourier-3.10's lhs and deviation ...412350561804 -> ...412465356174)
        expected = (Path(__file__).parent / "data" / "highprec_96.json").read_text()
        monkeypatch.chdir(tmp_path)  # no mahlerlab.cfg
        code, out, err = run_cli(
            capsys, "verify", "--all", "--filter", "high-precision",
            "--precision", "96", "--format", "json",
        )
        assert (code, err) == (0, "")
        assert out == expected

    def test_exact_report_is_byte_identical(self, capsys, tmp_path, monkeypatch):
        # tests/data/exact_128.json freezes the exact kind's report: the WZ,
        # finite-field and q-expansion plans and the rational rendering of
        # their values must reproduce every byte
        expected = (Path(__file__).parent / "data" / "exact_128.json").read_text()
        monkeypatch.chdir(tmp_path)  # no mahlerlab.cfg
        code, out, err = run_cli(
            capsys, "verify", "--all", "--filter", "exact", "--format", "json",
        )
        assert (code, err) == (0, "")
        assert out == expected

    @pytest.mark.parametrize("quantity", ["mRk 16", "L f 4", "zeta 3", "catalan", "L h 3"])
    def test_headline_300_digits_is_byte_identical(self, capsys, tmp_path, monkeypatch, quantity):
        # tests/data/headline_300.json holds each command's stdout as the mpf
        # E1 and AGM loops wrote it; the int kernels must reproduce every byte
        expected = json.loads((Path(__file__).parent / "data" / "headline_300.json").read_text())
        monkeypatch.chdir(tmp_path)  # no mahlerlab.cfg
        code, out, err = run_cli(
            capsys, "compute", *quantity.split(), "--digits", "300", "--format", "json",
        )
        assert (code, err) == (0, "")
        assert out == expected[quantity]


    @pytest.mark.parametrize("quantity", ["K 0.5", "K 0.999999", "mRk 17", "mRk -40"])
    def test_kernels_300_digits_is_byte_identical(self, capsys, tmp_path, monkeypatch, quantity):
        # tests/data/kernels_300.json holds each command's stdout as the mpf
        # ell_k wrapper and the mpf direct pFq sum wrote it; the int kernels
        # must reproduce every byte
        expected = json.loads((Path(__file__).parent / "data" / "kernels_300.json").read_text())
        monkeypatch.chdir(tmp_path)  # no mahlerlab.cfg
        code, out, err = run_cli(
            capsys, "compute", *quantity.split(), "--digits", "300", "--format", "json",
        )
        assert (code, err) == (0, "")
        assert out == expected[quantity]


class TestCompute:
    def test_zeta_three_thirty_digits(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "zeta", "3", "--digits", "30")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "1.202056903159594285399738161511"
        assert lines[1] == "route: borwein"
        assert lines[2].startswith("error-estimate:")

    def test_ap_seven(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "ap", "7")
        assert code == 0
        assert out.splitlines()[0] == "24"
        assert "q-expansion" in out

    def test_ap_matches_module(self, capsys):
        for n in (2, 3, 9, 25):
            _, out, _ = run_cli(capsys, "compute", "ap", str(n))
            assert int(out.splitlines()[0]) == newform_coefficient(NEWFORM_F, n)

    def test_mrk_large_k_is_log_k(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "mRk", "1e6", "--digits", "12")
        assert code == 0
        value = mp.mpf(out.splitlines()[0])
        with mp.workprec(80):
            assert abs(value - mp.log(1_000_000)) < 1e-11

    def test_mrk_too_small_rejected(self, capsys):
        code, _, err = run_cli(capsys, "compute", "mRk", "8")
        assert code == 2
        assert "16" in err

    @pytest.mark.parametrize("k", ["inf", "1e400", "nan"])
    def test_mrk_non_finite_rejected(self, capsys, k):
        code, out, err = run_cli(capsys, "compute", "mRk", k)
        assert (code, out) == (2, "")
        assert err == f"mahlerlab: k must be a finite number, got {k!r}\n"

    @pytest.mark.parametrize(
        "k", ["1e163", "1e200", "9" * 400, "-" + "7" * 400],
        ids=["1e163", "1e200", "400-digits", "minus-400-digits"],
    )
    def test_mrk_huge_k(self, capsys, k):
        # 8/k^2 underflows a float from |k| ~ 1.3e162 on; the series target
        # comes from the exact scale, so these print log|k| - (8/k^2) 6F5
        code, out, err = run_cli(capsys, "compute", "mRk", k)
        assert (code, err) == (0, "")
        text = out.splitlines()[0]
        kq = Fraction(int(k)) if "e" not in k else Fraction(float(k))
        with mp.workprec(400):
            kk = mp.mpf(kq.numerator) / kq.denominator
            six_f_five = mp.hyper([mp.mpf(3) / 2] * 4 + [1, 1], [2] * 5, 256 / kk ** 2)
            ref = mp.log(abs(kk)) - 8 / kk ** 2 * six_f_five
            decimals = len(text.split(".")[1])
            assert abs(mp.mpf(text) - ref) <= mp.mpf(10) ** -decimals / 2

    def test_mrk_1e162_unchanged(self, capsys):
        # the largest decade that already worked prints the same bytes
        code, out, err = run_cli(capsys, "compute", "mRk", "1e162", "--format", "json")
        assert (code, err) == (0, "")
        assert out == (
            '{\n  "error_estimate": "1.0e-34",\n  "quantity": "mRk 1e162",\n'
            '  "route": "hypergeometric-6f5",\n'
            '  "value": "373.018785065035400748764555296983",\n  "version": "v1"\n}\n'
        )

    def test_ap_beyond_coefficient_limit_rejected(self, capsys):
        code, out, err = run_cli(capsys, "compute", "ap", "10000000")
        assert (code, out) == (2, "")
        assert err.startswith("mahlerlab: f: coefficient demand 10000000 exceeds limit")

    @pytest.mark.parametrize("argv, message", [
        (["L", "f"], "usage: compute L <f|h> <s>"),
        (["zeta"], "usage: compute zeta <s>"),
        (["catalan", "2"], "usage: compute catalan"),
        (["K", "0.1", "0.2"], "usage: compute K <k>"),
        (["mahler"], "usage: compute mahler <descriptor>"),
        (["mRk"], "usage: compute mRk <k>"),
        (["ap", "1", "2"], "usage: compute ap <n>"),
    ])
    def test_wrong_token_count(self, capsys, argv, message):
        code, _, err = run_cli(capsys, "compute", *argv)
        assert (code, err) == (2, f"mahlerlab: {message}\n")

    def test_catalan_and_l_value(self, capsys):
        _, out, _ = run_cli(capsys, "compute", "catalan", "--digits", "20")
        assert out.splitlines()[0] == "0.91596559417721901505"
        code, out, _ = run_cli(capsys, "compute", "L", "f", "4", "--digits", "20")
        assert code == 0
        assert out.splitlines()[0] == "0.95400065965047333772"

    def test_elliptic_modulus_domain(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "K", "0.5", "--digits", "15")
        assert code == 0
        assert out.splitlines()[0] == "1.685750354812596"
        code, _, _ = run_cli(capsys, "compute", "K", "1.5")
        assert code == 2

    def test_mahler_builtin(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "mahler", "p4", "--samples", "65536", "--digits", "8"
        )
        assert code == 0
        value = float(out.splitlines()[0])
        assert abs(value - 1.16624361612) < 1e-3
        assert "lattice-qmc" in out

    def test_mahler_descriptor_file(self, capsys, tmp_path):
        path = tmp_path / "two-torus.txt"
        path.write_text("# x + 1/x + y + 1/y - 4\n1 1 0\n1 -1 0\n1 0 1\n1 0 -1\n-4 0 0\n")
        code, out, _ = run_cli(
            capsys, "compute", "mahler", str(path), "--samples", "65536", "--digits", "6"
        )
        assert code == 0
        assert abs(float(out.splitlines()[0]) - 1.166244) < 1e-2

    def test_mahler_unknown_descriptor(self, capsys):
        code, _, err = run_cli(capsys, "compute", "mahler", "nope")
        assert code == 2
        assert "built-ins" in err

    def test_compute_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "zeta", "2", "--digits", "10", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["version"] == "v1"
        assert doc["value"] == "1.6449340668"
        assert doc["route"] == "borwein"


class TestConfigLayering:
    def test_config_file_sets_format(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mahlerlab.cfg").write_text("format = json\nprecision = 96\n")
        code, out, _ = run_cli(capsys, "verify", "ff-4.1")
        assert code == 0
        assert json.loads(out)["summary"]["passed"] == 1

    def test_flag_overrides_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mahlerlab.cfg").write_text("format = json\n")
        code, out, _ = run_cli(capsys, "verify", "ff-4.1", "--format", "text")
        assert code == 0
        assert out.startswith("PASS")

    def test_bad_config_key_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mahlerlab.cfg").write_text("precison = 96\n")
        code, _, err = run_cli(capsys, "verify", "ff-4.1")
        assert code == 2
        assert "precison" in err

    def test_bad_config_line_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mahlerlab.cfg").write_text("precision 96\n")
        code, _, err = run_cli(capsys, "verify", "ff-4.1")
        assert code == 2
        assert "key=value" in err

    def test_hex_seed_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "eq-1.1", "--samples", "4096",
            "--seed", "0x5EED", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["results"][0]["seed"] == 0x5EED

    def test_cache_env_and_flag(self, capsys, tmp_path, monkeypatch):
        # the coefficient disk cache is gone: the flag is a usage error and
        # the environment variable writes nothing
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("MAHLERLAB_CACHE", str(tmp_path / "env-cache"))
        code, out, _ = run_cli(capsys, "compute", "ap", "7")
        assert code == 0
        assert out.splitlines()[0] == "24"
        assert list(tmp_path.iterdir()) == []
        code, _, _ = run_cli(capsys, "compute", "ap", "7", "--cache", str(tmp_path))
        assert code == 2

    def test_repeated_config_key_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mahlerlab.cfg").write_text("precision = 96\nprecision = 64\n")
        code, out, err = run_cli(capsys, "verify", "ff-4.1")
        assert code == 2
        assert out == ""
        assert "mahlerlab.cfg:2" in err and "'precision' repeated" in err

    @pytest.mark.parametrize("command", ["verify", "compute"])
    def test_bad_config_digits_rejected(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mahlerlab.cfg").write_text("digits = abc\n")
        argv = ["verify", "qexp-ramanujan"] if command == "verify" else ["compute", "zeta", "3"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "digits must be an integer" in err

    def test_config_digits_sets_compute_width(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mahlerlab.cfg").write_text("digits = 12\n")
        code, out, _ = run_cli(capsys, "compute", "zeta", "3")
        assert code == 0
        assert out.splitlines()[0] == "1.202056903160"
        code, out, _ = run_cli(capsys, "compute", "zeta", "3", "--digits", "5")
        assert code == 0
        assert out.splitlines()[0] == "1.20206"


class TestFlagScope:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "qexp-ramanujan", "--digits", "5"],
            ["compute", "zeta", "3", "--filter", "exact"],
            ["compute", "zeta", "3", "--all"],
        ],
        ids=["verify --digits", "compute --filter", "compute --all"],
    )
    def test_flag_of_other_subcommand_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "unrecognized arguments" in err

    def test_benchmark_argv_still_parses(self):
        parser = cli._build_parser()
        verify = parser.parse_args(
            ["verify", "--all", "--filter", "exact", "--precision", "96",
             "--seed", "7", "--samples", "4096", "--format", "json"]
        )
        assert verify.all and verify.filter == "exact"
        compute = parser.parse_args(
            ["compute", "mRk", "16", "--digits", "300", "--format", "json"]
        )
        assert compute.digits == 300 and compute.quantity == ["mRk", "16"]


with mp.workprec(128):
    _MPF_A = mp.sqrt(2) / 3
    _MPF_B = -mp.pi * mp.mpf(10) ** -30

# value -> (json/csv field, text field at 20 digits, text deviation and
# tolerance field): an int prints in full except in the 3-digit field, a
# fraction as p/q while that fits (64 characters, 32), else in decimal
RENDER_TABLE = [
    (None, None, "-", "-"),
    (0, "0", "0", "0"),
    (5, "5", "5", "5.0"),
    (-7, "-7", "-7", "-7.0"),
    (10 ** 80, str(10 ** 80), str(10 ** 80), "1.0e+80"),
    (Fraction(0), "0", "0", "0"),
    (Fraction(3, 64), "3/64", "3/64", "0.0469"),
    (Fraction(-1, 3), "-1/3", "-1/3", "-0.333"),
    (Fraction(10 ** 40, 3), f"{10 ** 40}/3", "3.3333333333333333333e+39", "3.33e+39"),
    (Fraction(1, 10 ** 40), f"1/{10 ** 40}", "1.0e-40", "1.0e-40"),
    (Fraction(1, 3 ** 70), f"1/{3 ** 70}", "3.9949575565929530678e-34", "3.99e-34"),
    (
        Fraction(2, 3 ** 140),
        "3.191937175795827562710428902923240947573e-67",
        "3.1919371757958275627e-67",
        "3.19e-67",
    ),
    (
        _MPF_A,
        "0.4714045207910316829338962414032326928568",
        "0.47140452079103168293",
        "0.471",
    ),
    (
        _MPF_B,
        "-3.141592653589793238462643383279502884196e-30",
        "-3.1415926535897932385e-30",
        "-3.14e-30",
    ),
]


class TestHelpers:
    @pytest.mark.parametrize("value, machine, text, sci", RENDER_TABLE)
    def test_renderers(self, value, machine, text, sci):
        assert cli._machine_value(value) == machine
        assert cli._text_value(value, 20) == text
        assert cli._sci_value(value) == sci

    def test_fixed_decimal_padding_and_sign(self):
        assert cli._fixed_decimal(mp.mpf("1.5"), 3) == "1.500"
        assert cli._fixed_decimal(mp.mpf("-0.0625"), 2) == "-0.06"
        assert cli._fixed_decimal(mp.mpf("0.0001"), 2) == "0.00"
        assert cli._fixed_decimal(mp.mpf(3), 0) == "3"

    def test_run_config_validation(self):
        with pytest.raises(UsageError):
            RunConfig(precision=8).validate()
        with pytest.raises(UsageError):
            RunConfig(qmc_samples=3000).validate()
        with pytest.raises(UsageError):
            RunConfig(output_format="yaml").validate()
        with pytest.raises(UsageError):
            RunConfig(filter=("nope",)).validate()
        with pytest.raises(UsageError):
            RunConfig(digits=0).validate()
        assert RunConfig().validate() == RunConfig()


# One fresh interpreter: the commands that compute with mpmath and ints, then
# one that evaluates arrays.  Each step prints its exit code and whether
# numpy has been imported by then.
_IMPORT_PROBE = """
import contextlib, io, json, sys
from mahlerlab import cli

def step(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(list(argv))
    return [" ".join(argv), code, "numpy" in sys.modules]

steps = [["import mahlerlab.cli", 0, "numpy" in sys.modules]]
for quantity in (["catalan"], ["zeta", "3"], ["L", "f", "4"], ["mRk", "16"]):
    steps.append(step("compute", *quantity, "--digits", "30"))
steps.append(step("compute", "ap", "7"))
steps.append(step("verify", "eq-1.5", "lambda-symmetry-h", "--precision", "64"))
steps.append(step("verify", "qexp-ramanujan"))
steps.append(step("verify", "ff-ahlgren-ono"))
steps.append(step("verify", "ff-4.1"))
steps.append(step("verify", "--all", "--filter", "exact"))
steps.append(step("compute", "mahler", "p4", "--samples", "1024"))
print(json.dumps(steps))
"""


class TestImports:
    def test_numpy_loads_only_for_array_work(self, tmp_path):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        steps = json.loads(proc.stdout)
        assert [code for _, code, _ in steps] == [0] * len(steps)
        # the high-precision, compute, sieve, Greene and point-count paths,
        # and with them the whole exact kind, never build an array ...
        assert [name for name, _, numpy in steps[:11] if numpy] == []
        # ... the lattice rule does
        assert [numpy for _, _, numpy in steps[11:]] == [True]


# One fresh interpreter: import the CLI, run one statistical check, and
# count the process's threads.  Prints OPENBLAS_NUM_THREADS as the import
# and as main left it, the exit code, the thread count after the check and
# the name of the BLAS that numpy was built against.
_BLAS_PROBE = """
import contextlib, io, json, os
import mahlerlab
from mahlerlab import cli

after_import = os.environ.get("OPENBLAS_NUM_THREADS")
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["verify", "eq-1.1", "--samples", "1024"])
threads = len(os.listdir("/proc/self/task"))
import numpy
config = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {})
blas = config.get("blas", {}).get("name", "")
print(json.dumps([after_import, os.environ.get("OPENBLAS_NUM_THREADS"), code, threads, blas]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts /proc/self/task")
class TestBlasThreads:
    @pytest.mark.parametrize("setting, threads", [(None, 1), ("2", 2)])
    def test_cli_starts_no_blas_pool_unless_asked(self, tmp_path, setting, threads):
        # numpy's first import, inside the QMC check, starts OpenBLAS with
        # the thread count the environment holds when it runs: the CLI's
        # default of 1, or the caller's own value
        if threads > (os.cpu_count() or 1):
            pytest.skip("OpenBLAS starts at most one thread per core")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if setting is not None:
            env["OPENBLAS_NUM_THREADS"] = setting
        proc = subprocess.run([sys.executable, "-c", _BLAS_PROBE], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        after_import, after_main, code, count, blas = json.loads(proc.stdout)
        assert after_import == setting  # importing the library set nothing
        assert after_main == setting  # nor did main, once it returned
        assert code == 0
        if "openblas" not in blas.lower():
            pytest.skip(f"numpy is built against {blas or 'an unknown BLAS'}, not OpenBLAS")
        assert count == threads
