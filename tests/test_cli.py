"""Command-line front end: reports, exit statuses, canonical serialization."""

import json
import math
import warnings

import pytest
import sympy as sp
from hypothesis import example, given
from hypothesis import strategies as st

from dtnzeta import sfunc, symbolint
from dtnzeta.cli import RunConfig, main, render_report, run


class TestRunConfig:
    def test_rejects_unknown_command(self):
        with pytest.raises(ValueError):
            RunConfig(command="frobnicate")

    def test_rejects_low_precision(self):
        with pytest.raises(ValueError):
            RunConfig(command="verify-cylinder", dps=10)

    def test_rejects_out_of_range_degree(self):
        with pytest.raises(ValueError):
            RunConfig(command="derive-a0", m=2, q=2)


class TestReports:
    def test_canonical_round_trip(self):
        rows = [{"quantity": "x", "value": 1.0, "expression": None,
                 "citation": "c", "status": "PASS", "error_bound": None}]
        text = render_report("verify-cylinder", rows)
        parsed = json.loads(text)
        again = json.dumps(parsed, sort_keys=True, separators=(",", ":"))
        assert again == text

    def test_verify_cylinder_passes(self):
        status, report = run(RunConfig(command="verify-cylinder", m=2, q=0,
                                       a=1.0, L=2 * math.pi))
        payload = json.loads(report)
        assert status == 0
        assert payload["status"] == "PASS"
        assert all(r["status"] in ("PASS", "INFO") for r in payload["rows"])

    @pytest.mark.parametrize("a", [100.0, 1000.0])
    def test_verify_cylinder_long(self, a):
        # the zetas reach 1e9 (a = 100) and 1e15 (a = 1000) at s = 3; the
        # zeta-difference rows must pass within their float64 rounding bounds
        status, report = run(RunConfig(command="verify-cylinder", q=1, a=a))
        assert status == 0, report

    def test_verify_zeta_zero_passes(self):
        status, report = run(RunConfig(command="verify-zeta-zero", m=2, q=1, a=0.5))
        assert status == 0 and json.loads(report)["status"] == "PASS"

    def test_geom_constants_golden(self):
        status, report = run(RunConfig(command="geom-constants",
                                       geometry="unit-ball", m=3, q=0))
        payload = json.loads(report)
        assert status == 0
        golden = [r for r in payload["rows"] if r["quantity"].endswith("golden")]
        assert golden and all(r["status"] == "PASS" for r in golden)

    def test_specfun_selftest(self):
        status, report = run(RunConfig(command="specfun-selftest"))
        assert status == 0 and json.loads(report)["status"] == "PASS"

    @given(st.integers(min_value=15, max_value=100))
    @example(40)
    @example(60)
    @example(100)
    def test_specfun_selftest_every_precision(self, dps):
        status, report = run(RunConfig(command="specfun-selftest", dps=dps))
        assert status == 0 and json.loads(report)["status"] == "PASS"

    def test_conformal_check(self):
        status, report = run(RunConfig(command="conformal-check", m=2))
        assert status == 0 and json.loads(report)["status"] == "PASS"


class TestMain:
    def test_invalid_parameter_exit_code(self, capsys):
        assert main(["verify-cylinder", "--a", "-1"]) == 2
        assert "invalid-config" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--a", "--L"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_parameter_exit_code(self, capsys, flag, value):
        # NaN passed the positivity check and ran the branch series to its
        # cap; infinity ended in a ZeroDivisionError traceback
        assert main(["verify-cylinder", flag, value]) == 2
        assert "invalid-config" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--a", "--L"])
    def test_out_of_range_parameter_exit_code(self, capsys, flag):
        # finite but beyond the float64 range of the lattice sums: rejected
        # before any arithmetic, so no overflow warning; one error line
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify-cylinder", flag, "1e300"]) == 4
        err = capsys.readouterr().err
        assert "Traceback" not in err
        a, L = ("1e+300", "6.28319") if flag == "--a" else ("1", "1e+300")
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            f"error: schema-or-range: cylinder parameters a = {a}, L = {L} outside "
            "[1e-30, 1e+30], the float64 range of the lattice sums"]

    def test_missing_file_exit_code(self, capsys):
        assert main(["geom-constants", "--file", "/no/such/file.json"]) == 3
        assert "file-not-found" in capsys.readouterr().err

    def test_unknown_geometry_exit_code(self, capsys):
        assert main(["geom-constants", "--geometry", "nonexistent"]) == 4

    @pytest.mark.parametrize("command", ["verify-cylinder", "verify-zeta-zero"])
    @pytest.mark.parametrize("args", [["--a", "1", "--L", "1200"], ["--a", "0.001"]])
    def test_long_and_short_cylinders(self, capsys, command, args):
        # L/a >= 1200: the DtN log-det and zeta at 0 are closed forms, so no
        # branch-pair series (and no term cap) stands between them and PASS
        assert main([command, *args]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        checks = [r for r in rows if r["status"] != "INFO"]
        assert checks and all(r["status"] == "PASS" for r in checks)

    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify-cylinder", "--q", "1", "--output", str(out)]) == 0
        on_disk = out.read_text().strip()
        printed = capsys.readouterr().out.strip()
        assert on_disk == printed
        assert json.loads(on_disk)["status"] == "PASS"


# a reference off by a relative 1e-6, exact over QQ
OFF = 1 + sp.Rational(1, 10 ** 6)


def _failing(cfg: RunConfig) -> list[str]:
    status, report = run(cfg)
    failing = [r["quantity"] for r in json.loads(report)["rows"] if r["status"] == "FAIL"]
    assert status == (1 if failing else 0)
    return failing


class TestNegativeControls:
    """Every exact comparison of the CLI FAILs on a perturbed reference."""

    @pytest.mark.parametrize("m,q", [(2, 1), (3, 0)])
    def test_derive_a0(self, monkeypatch, m, q):
        ref = symbolint.a0_reference
        monkeypatch.setattr(symbolint, "a0_reference", lambda m, q: OFF * ref(m, q))
        assert _failing(RunConfig(command="derive-a0", m=m, q=q)) == ["a0-density"]

    def test_derive_terms_piece(self, monkeypatch):
        ref = symbolint.reference_term_table
        monkeypatch.setattr(symbolint, "reference_term_table",
                            lambda q: {**ref(q), "V7": OFF * ref(q)["V7"]})
        assert _failing(RunConfig(command="derive-terms", m=3, q=0)) == ["trace-term-V7"]

    def test_derive_terms_sum(self, monkeypatch):
        ref = symbolint.reference_table_sum
        monkeypatch.setattr(symbolint, "reference_table_sum", lambda q: OFF * ref(q))
        assert _failing(RunConfig(command="derive-terms", m=3, q=0)) == ["trace-term-sum"]

    def test_specfun_momentum_entry(self, monkeypatch):
        moment = sfunc.xi_moment
        monkeypatch.setattr(sfunc, "xi_moment", lambda dim, exps, p: (
            OFF if exps == (2, 2) else 1) * moment(dim, exps, p))
        assert _failing(RunConfig(command="specfun-selftest")) == [
            "momentum-integral-xi22-p(s/2 + 3)"]

    def test_specfun_gamma_ratio(self, monkeypatch):
        ratio = sfunc.gamma_ratio_at_zero
        monkeypatch.setattr(sfunc, "gamma_ratio_at_zero", lambda k: (
            ratio(k)[0], OFF * ratio(k)[1]))
        assert _failing(RunConfig(command="specfun-selftest")) == [
            f"gamma-ratio-at-zero-{k}" for k in (1, "1/2", 2)]
