"""Command-line front end: reports, exit statuses, canonical serialization."""

import json
import math
import warnings

import mpmath as mp
import pytest
import sympy as sp
from hypothesis import example, given
from hypothesis import strategies as st

from dtnzeta import geom, sfunc, symbolint
from dtnzeta.cli import RunConfig, main, render_report, run
from dtnzeta.symbolcas import chart


class TestRunConfig:
    def test_rejects_unknown_command(self):
        with pytest.raises(ValueError):
            RunConfig(command="frobnicate")

    def test_rejects_low_precision(self):
        with pytest.raises(ValueError):
            RunConfig(command="verify-cylinder", dps=10)

    def test_selftest_precision_bound(self):
        # the selftest's zeta'(0) took 3.7 s at 1010 digits and 24.9 s at 2010
        assert RunConfig(command="specfun-selftest", dps=1000).dps == 1000
        with pytest.raises(ValueError, match="at most 1000 digits"):
            RunConfig(command="specfun-selftest", dps=1001)

    def test_rejects_out_of_range_degree(self):
        with pytest.raises(ValueError):
            RunConfig(command="derive-a0", m=2, q=2)

    @pytest.mark.parametrize("command, m", [("verify-cylinder", 2), ("verify-zeta-zero", 2),
                                            ("conformal-check", 2), ("derive-a0", 3),
                                            ("geom-constants", 3), ("specfun-selftest", 3)])
    def test_dimension_defaults_to_command(self, command, m):
        assert RunConfig(command=command).m == m

    @pytest.mark.parametrize("source", [{"geometry": "cylinder"}, {"geometry": "unit-ball"},
                                        {"file": "g.json"}], ids=["cylinder", "unit-ball", "file"])
    def test_geometry_dimension_read_later(self, source):
        # the loaded geometry sets m, for a built-in as for a file
        assert RunConfig(command="geom-constants", **source).m is None


class TestReports:
    def test_canonical_round_trip(self):
        rows = [{"quantity": "x", "value": 1.0, "expression": None,
                 "citation": "c", "status": "PASS", "error_bound": None}]
        text = render_report("verify-cylinder", rows)
        parsed = json.loads(text)
        again = json.dumps(parsed, sort_keys=True, separators=(",", ":"))
        assert again == text

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_value_rejected(self, value):
        rows = [{"quantity": "x", "value": value, "expression": None,
                 "citation": "c", "status": "INFO", "error_bound": None}]
        with pytest.raises(ValueError, match="not JSON compliant"):
            render_report("geom-constants", rows)

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

    @pytest.mark.parametrize("m,q", [(2, 0), (2, 1), (3, 0), (3, 1), (3, 2)])
    def test_derive_a0_checks_both_densities(self, m, q):
        # the zeta(0) density is decided against the paper's table beside a0
        status, report = run(RunConfig(command="derive-a0", m=m, q=q))
        rows = json.loads(report)["rows"]
        assert status == 0
        assert [(r["quantity"], r["status"]) for r in rows] == [
            ("a0-density", "PASS"), ("a0-density-reference", "INFO"),
            ("q-density", "PASS"), ("q-density-reference", "INFO")]
        assert rows[2]["citation"] == f"q-density.dim{m}.q{q}"

    def test_specfun_selftest(self):
        status, report = run(RunConfig(command="specfun-selftest"))
        assert status == 0 and json.loads(report)["status"] == "PASS"

    @given(st.integers(min_value=15, max_value=100))
    @example(40)
    @example(60)
    @example(100)
    @example(324)
    @example(400)
    def test_specfun_selftest_every_precision(self, dps):
        # from dps 324 on, the float64 tolerance 10**-dps underflowed to 0.0
        # and every riemann-zeta row FAILed
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

    @pytest.mark.parametrize("args, a, L", [
        pytest.param(["--a", "1e300", "--L", "1e10"], "1e+300", "1e+10", id="volume-overflow"),
        pytest.param(["--L", "1e308"], "1", "1e+308", id="length-overflow"),
        pytest.param(["--a", "1e-200", "--L", "1e-200"], "1e-200", "1e-200",
                     id="volume-underflow"),
        pytest.param(["--L", "1e-322"], "1", "9.88131e-323", id="weight-underflow"),
    ])
    def test_cylinder_geometry_outside_float64_exit_code(self, capsys, args, a, L):
        # each exited 4 with its own message, naming the fields 'V' or 'ellY'
        # of the built geometry, or a volume or weight that was not positive
        assert main(["geom-constants", "--geometry", "cylinder", *args]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: schema-or-range: cylinder parameters a = {a}, L = {L} give a volume, "
            "boundary length or node weight outside the float64 range"]

    @pytest.mark.parametrize("args", [["--L", "1e-310"], ["--L", "1e307"],
                                      ["--a", "1e-300", "--L", "1e-20"]],
                             ids=["subnormal-weight", "long", "subnormal-volume"])
    def test_cylinder_geometry_at_float64_edges(self, capsys, args):
        # every volume, length and weight is a positive finite float: accepted
        assert main(["geom-constants", "--geometry", "cylinder", *args]) == 0

    def test_missing_file_exit_code(self, tmp_path, capsys):
        # a directory ended in an IsADirectoryError traceback with exit 1
        for path, line in (("/no/such/file.json", "error: file-not-found: /no/such/file.json"),
                           (str(tmp_path), f"error: input: Is a directory: {tmp_path}")):
            assert main(["geom-constants", "--file", path]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.splitlines() == [line]

    def test_unknown_geometry_exit_code(self, capsys):
        assert main(["geom-constants", "--geometry", "nonexistent"]) == 4

    @pytest.mark.parametrize("args, m, name", [([], 3, "unit-ball"),
                                               (["--m", "2"], 2, "unit-disk")])
    def test_default_geometry_follows_dimension(self, capsys, args, m, name):
        # without --geometry the built-in follows --m; the bare command asks for m = 3
        assert main(["geom-constants", *args]) == 0
        _, expected = run(RunConfig(command="geom-constants", m=m, geometry=name))
        assert capsys.readouterr().out.strip() == expected

    @pytest.mark.parametrize("command", ["verify-cylinder", "verify-zeta-zero", "conformal-check"])
    def test_two_dimensional_command_rejects_m3(self, capsys, command):
        # these model [0, a] x S^1 or the disk and reported their rows under m = 3
        assert main([command, "--m", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: invalid-config: {command} models a 2-dimensional geometry, "
            "but dimension m = 3 was requested"]

    @pytest.mark.parametrize("command", ["verify-cylinder", "verify-zeta-zero", "conformal-check"])
    def test_two_dimensional_command_bare(self, capsys, command):
        assert main([command]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "PASS"

    @pytest.mark.parametrize("command, option, value", [
        ("derive-a0", "a", "2"), ("derive-a0", "L", "3"), ("derive-a0", "geometry", "unit-ball"),
        ("derive-a0", "file", "g.json"), ("derive-a0", "dps", "40"),
        ("derive-terms", "a", "2"), ("derive-terms", "L", "3"),
        ("derive-terms", "geometry", "unit-ball"), ("derive-terms", "file", "g.json"),
        ("derive-terms", "dps", "40"),
        ("verify-cylinder", "geometry", "unit-disk"), ("verify-cylinder", "file", "g.json"),
        ("verify-zeta-zero", "geometry", "unit-disk"), ("verify-zeta-zero", "file", "g.json"),
        ("geom-constants", "a", "2"), ("geom-constants", "L", "3"),
        ("geom-constants", "dps", "40"),
        ("conformal-check", "q", "1"), ("conformal-check", "a", "2"),
        ("conformal-check", "L", "3"), ("conformal-check", "geometry", "unit-ball"),
        ("conformal-check", "file", "g.json"), ("conformal-check", "dps", "40"),
        ("specfun-selftest", "m", "3"), ("specfun-selftest", "q", "1"),
        ("specfun-selftest", "a", "2"), ("specfun-selftest", "L", "3"),
        ("specfun-selftest", "geometry", "unit-ball"), ("specfun-selftest", "file", "g.json"),
    ])
    def test_unread_option_exit_code(self, capsys, command, option, value):
        # each option was accepted and ignored: conformal-check --q 1 printed
        # the disk rows, specfun-selftest --m 3 its kernel rows
        assert main([command, f"--{option}", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: invalid-config: {command} does not read --{option}"]

    @pytest.mark.parametrize("args, message", [
        pytest.param(["derive-terms", "--m", "2"], "derive-terms models a 3-dimensional "
                     "geometry, but dimension m = 2 was requested", id="derive-terms-m2"),
        pytest.param(["geom-constants", "--geometry", "unit-disk", "--file", "g.json", "--m", "2"],
                     "geom-constants does not read --geometry", id="geometry-with-file"),
        pytest.param(["geom-constants", "--geometry", "cylinder", "--file", "g.json", "--a", "2"],
                     "geom-constants does not read --a, --geometry", id="cylinder-with-file"),
        pytest.param(["specfun-selftest", "--m", "3"], "specfun-selftest does not read --m",
                     id="selftest-m3"),
        pytest.param(["conformal-check", "--geometry", "unit-ball", "--q", "1"],
                     "conformal-check does not read --q, --geometry", id="conformal-two-options"),
        pytest.param(["specfun-selftest", "--dps", "1001"],
                     "specfun-selftest precision must be at most 1000 digits",
                     id="selftest-dps-1001"),
    ])
    def test_rejected_config_message(self, capsys, args, message):
        # derive-terms --m 2 exited 4 from the pipeline; --file silently
        # replaced --geometry, the selftest ran at any precision (--dps 4000
        # did not finish in 120 s), and the others ran
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: invalid-config: {message}"]

    @pytest.mark.parametrize("args", [
        pytest.param(["conformal-check", "--a", "1.0", "--q", "0"], id="conformal-defaults"),
        pytest.param(["specfun-selftest", "--L", str(2 * math.pi)], id="selftest-default-L"),
        pytest.param(["geom-constants", "--geometry", "cylinder", "--m", "2", "--a", "2",
                      "--L", "3"], id="cylinder-a-L"),
    ])
    def test_read_or_default_option_accepted(self, capsys, args):
        # an explicit default counts as not given; the cylinder reads a and L
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "PASS"

    @pytest.mark.parametrize("source", ["built-in", "file"])
    def test_dimension_mismatch_exit_code(self, tmp_path, capsys, source):
        # the dim-3 constants were reported under the requested m = 2
        if source == "file":
            path = tmp_path / "geometry.json"
            path.write_text(geom.unit_ball(n_polar=2, n_azimuth=2).to_json())
            args = ["--file", str(path)]
        else:
            args = ["--geometry", "unit-ball"]
        assert main(["geom-constants", *args, "--m", "2", "--q", "0"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: schema-or-range: geometry 'unit-ball' has dimension 3, "
            "but dimension m = 2 was requested"]

    @staticmethod
    def _geometry_args(tmp_path, source):
        if source != "file":
            return ["--geometry", source]
        path = tmp_path / "geometry.json"
        path.write_text(geom.unit_disk().to_json())
        return ["--file", str(path)]

    @pytest.mark.parametrize("source", ["cylinder", "unit-disk", "file"])
    @pytest.mark.parametrize("q", ["0", "1"])
    def test_geometry_sets_dimension(self, tmp_path, capsys, source, q):
        # without --m the dimension was 3, so each of these exited 4 with
        # "has dimension 2, but dimension m = 3 was requested"
        args = ["geom-constants", *self._geometry_args(tmp_path, source), "--q", q]
        assert main(args) == 0
        report = capsys.readouterr().out
        assert main([*args, "--m", "2"]) == 0
        assert capsys.readouterr().out == report

    @pytest.mark.parametrize("source", ["cylinder", "unit-disk", "file"])
    def test_geometry_dimension_mismatch_exit_code(self, tmp_path, capsys, source):
        args = ["geom-constants", *self._geometry_args(tmp_path, source), "--m", "3"]
        assert main(args) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: schema-or-range: geometry '")
        assert line.endswith("' has dimension 2, but dimension m = 3 was requested")

    @pytest.mark.parametrize("source", ["cylinder", "unit-disk", "file"])
    def test_geometry_dimension_bounds_degree(self, tmp_path, capsys, source):
        # the degree is checked against the geometry's dimension once it is loaded
        args = ["geom-constants", *self._geometry_args(tmp_path, source), "--q", "2"]
        assert main(args) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: schema-or-range: degree 2 out of range for dimension 2"]

    @pytest.mark.parametrize("field, edit", [
        pytest.param("m", lambda g: g.update(m=2.0), id="m-float"),
        pytest.param("kappa", lambda g: g["nodes"][0].update(kappa=["1.0"]), id="kappa-string"),
        pytest.param("kappa", lambda g: g["nodes"][3].update(kappa=[math.nan]), id="kappa-nan"),
        pytest.param("w", lambda g: g["nodes"][3].update(w=math.nan), id="w-nan"),
        pytest.param("tau_M", lambda g: g["nodes"][0].update(tau_M=math.inf), id="tau_M-inf"),
        pytest.param("V", lambda g: g.update(V=math.nan), id="V-nan"),
        pytest.param("label", lambda g: g.update(label=["x"]), id="label-list"),
        pytest.param("label", lambda g: g.update(label={"a": 1}), id="label-object"),
        pytest.param("label", lambda g: g.update(label=5), id="label-number"),
        pytest.param("label", lambda g: g.update(label=None), id="label-null"),
    ])
    def test_invalid_geometry_field_exit_code(self, tmp_path, capsys, field, edit):
        # a non-integer m or a non-numeric kappa ended in a TypeError
        # traceback; a NaN kappa or w printed bare NaN tokens; an infinite
        # tau_M and a NaN V passed; a list or object label ended in a
        # TypeError traceback, and a number or null label passed
        payload = json.loads(geom.unit_disk().to_json())
        edit(payload)
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(payload))
        assert main(["geom-constants", "--m", "2", "--file", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            f"error: schema-or-range: geometry field {field!r} must be ")

    @pytest.mark.parametrize("field", ["w", "kappa", "tau_M", "tau_Y", "V", "ellY"])
    def test_geometry_integer_beyond_float64_exit_code(self, tmp_path, capsys, field):
        # a JSON integer that no float64 holds raised an OverflowError, reported
        # only as "parameters outside the float64 range of the pipeline"
        payload = json.loads(geom.unit_ball(n_polar=2, n_azimuth=2).to_json())
        big = 10 ** 400
        if field in ("V", "ellY"):
            payload[field] = big
        else:
            payload["nodes"][0][field] = [big, 1.0] if field == "kappa" else big
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(payload))
        assert main(["geom-constants", "--file", str(path), "--q", "0"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: schema-or-range: geometry field {field!r} must be a finite number, "
            "got an integer beyond the float64 range"]

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize("field", ["w", "kappa", "tau_M", "tau_Y", "V", "ellY", "m"])
    def test_geometry_integer_beyond_digit_limit_exit_code(self, tmp_path, capsys, field,
                                                           sign):
        # a JSON integer of more digits than int() converts (4300) was reported
        # only as Python's "Exceeds the limit (4300 digits) for integer string
        # conversion", naming no field
        payload = json.loads(geom.unit_ball(n_polar=2, n_azimuth=2).to_json())
        if field in ("V", "ellY", "m"):
            payload[field] = "BIG"
        else:
            payload["nodes"][0][field] = ["BIG", 1.0] if field == "kappa" else "BIG"
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(payload).replace('"BIG"', sign + "1" + "0" * 5000))
        assert main(["geom-constants", "--file", str(path), "--q", "0"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: schema-or-range: only interior dimensions 2 and 3 are supported"
            if field == "m" else
            f"error: schema-or-range: geometry field {field!r} must be a finite number, "
            "got an integer beyond the float64 range"]

    @pytest.mark.parametrize("head, make", [
        pytest.param("geometry field 'nodes' must be ", lambda g: {**g, "nodes": 5},
                     id="nodes-number"),
        pytest.param("geometry field 'nodes' must be ", lambda g: {**g, "nodes": [5]},
                     id="node-number"),
        pytest.param("geometry field 'kappa' must be ",
                     lambda g: {**g, "nodes": [{**g["nodes"][0], "kappa": 1.0}]},
                     id="kappa-number"),
        pytest.param("a geometry file must hold a JSON object", lambda g: [1, 2],
                     id="payload-list"),
        pytest.param("unknown geometry key 'tauM', expected one of w, kappa, tau_M, tau_Y",
                     lambda g: {**g, "nodes": [{**n, "tauM": 6.0} for n in g["nodes"]]},
                     id="node-key-misspelt"),
        pytest.param("unknown geometry key 'lable', expected one of m, nodes, V, ellY, label",
                     lambda g: {**g, "lable": "disk"}, id="top-key-misspelt"),
        pytest.param("a geometry needs at least one boundary node",
                     lambda g: {**g, "nodes": []}, id="nodes-empty"),
        pytest.param("each node needs m-1 principal curvatures",
                     lambda g: {**g, "nodes": [{**g["nodes"][0], "kappa": [1.0, 1.0]},
                                               *g["nodes"][1:]]},
                     id="kappa-ragged"),
        pytest.param("weights sum to 5e-13, expected boundary volume 1e-13",
                     lambda g: {**g, "ellY": 1e-13, "nodes": [{"w": 5e-13, "kappa": [1e13]}]},
                     id="tiny-weight-sum"),
    ] + [
        pytest.param(f"geometry field {f!r} is missing",
                     lambda g, f=f: {k: v for k, v in g.items() if k != f}, id=f"{f}-missing")
        for f in ("m", "nodes", "V", "ellY")
    ] + [
        pytest.param(f"geometry field {f!r} is missing",
                     lambda g, f=f: {**g, "nodes": [{k: v for k, v in n.items() if k != f}
                                                   for n in g["nodes"]]},
                     id=f"node-{f}-missing")
        for f in ("w", "kappa")
    ])
    def test_invalid_geometry_shape_exit_code(self, tmp_path, capsys, head, make):
        # the first four ended in a TypeError traceback; a misspelt key was
        # dropped, so a node's "tauM" ran with tau_M = 0 and PASSed; an empty
        # node list was reported as "quadrature weights must be positive"; a
        # missing field printed only its bare KeyError ("schema-or-range: 'w'");
        # below ellY = 1 the weight sum was checked to 1e-12 absolute, so a
        # boundary of length 1e-13 with weights summing to 5e-13 exited 0
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(make(json.loads(geom.unit_disk().to_json()))))
        assert main(["geom-constants", "--m", "2", "--file", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: schema-or-range: {head}")

    @pytest.mark.parametrize("text", [
        pytest.param("[" * 100000 + "]" * 100000, id="deep-array"),
        pytest.param('{"m": 2, "nodes": ' + "[" * 5000 + "]" * 5000 + ', "V": 1, "ellY": 1}',
                     id="deep-nodes"),
    ])
    def test_deeply_nested_geometry_exit_code(self, tmp_path, capsys, text):
        # json.loads raised RecursionError: a 31-line traceback and exit 1,
        # the status of a report with a FAIL row
        path = tmp_path / "geometry.json"
        path.write_text(text)
        assert main(["geom-constants", "--file", str(path)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: schema-or-range: a geometry file nests its JSON too deeply to parse"]

    @pytest.mark.parametrize("make, node, q", [
        pytest.param(lambda: geom.rescale(geom.unit_disk(), 10.0), {"kappa": [1e308]}, "1",
                     id="disk-kappa"),
        pytest.param(lambda: geom.rescale(geom.unit_ball(n_polar=2, n_azimuth=2), 6.0),
                     {"tau_M": 1e308}, "0", id="ball-tau_M"),
        pytest.param(lambda: geom.unit_ball(n_polar=2, n_azimuth=2),
                     {"kappa": [1e200, 1.0]}, "0", id="ball-kappa-squared"),
    ])
    def test_overflowing_constant_exit_code(self, tmp_path, capsys, make, node, q):
        # finite fields whose constant overflows float64 printed a bare
        # -Infinity or Infinity, which is not JSON, and exited 0; here the a0
        # constants are -3.9e308 and 2.2e308.  A squared curvature that
        # overflows raised an OverflowError inside the density, reported only
        # as "parameters outside the float64 range of the pipeline"
        payload = json.loads(make().to_json())
        payload["nodes"] = [{**n, **node} for n in payload["nodes"]]
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(payload))
        assert main(["geom-constants", "--file", str(path), "--q", q]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("error: schema-or-range: the a0 constant of geometry ")
        assert line.endswith(" overflows float64")

    def test_large_constant_within_range(self, tmp_path, capsys):
        # the constants are 6.25e306 and 1.25e307, but the printed density
        # (... + 4*tauM - 4*tauY)/(256*pi) overflowed at 4*tauM and exited 4
        payload = json.loads(geom.unit_ball(n_polar=2, n_azimuth=2).to_json())
        payload["nodes"] = [{**n, "tau_M": 1e308} for n in payload["nodes"]]
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(payload))
        assert main(["geom-constants", "--file", str(path), "--q", "0"]) == 0
        values = [r["value"] for r in json.loads(capsys.readouterr().out)["rows"]]
        assert values == pytest.approx([1e308 / 16, 1e308 / 8], rel=1e-12)

    def test_integer_node_values_read_as_floats(self, tmp_path, capsys):
        # a file's integers become float64 columns: the disk with kappa 1
        # reports the bytes of the disk with kappa 1.0
        payload = json.loads(geom.unit_disk().to_json())
        out = []
        for kappa in (1.0, 1):
            payload["nodes"] = [{**n, "kappa": [kappa]} for n in payload["nodes"]]
            path = tmp_path / "geometry.json"
            path.write_text(json.dumps(payload))
            assert main(["geom-constants", "--file", str(path), "--q", "1"]) == 0
            out.append(capsys.readouterr().out)
        assert '"kappa": [1]' in path.read_text()
        assert out[0] == out[1]

    def test_file_labelled_as_built_in_has_no_golden_rows(self, tmp_path, capsys):
        # golden rows were keyed by the file's own label, so this disk of
        # curvature 2 FAILed gluing-constant-golden (residual 1.0) and exited 1
        payload = json.loads(geom.unit_disk().to_json())
        payload["nodes"] = [{**n, "kappa": [2.0]} for n in payload["nodes"]]
        assert payload["label"] == "unit-disk"
        path = tmp_path / "geometry.json"
        path.write_text(json.dumps(payload))
        assert main(["geom-constants", "--file", str(path), "--q", "0"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["quantity"] for r in rows] == ["gluing-constant", "zeta-zero-constant"]

    @pytest.mark.parametrize("command", ["verify-cylinder", "verify-zeta-zero"])
    @pytest.mark.parametrize("args", [["--a", "1", "--L", "1200"], ["--a", "0.001"]])
    def test_long_and_short_cylinders(self, capsys, command, args):
        # L/a >= 1200: the DtN log-det and zeta at 0 are closed forms, so
        # they PASS for any cylinder length
        assert main([command, *args]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        checks = [r for r in rows if r["status"] != "INFO"]
        assert checks and all(r["status"] == "PASS" for r in checks)

    @pytest.mark.parametrize("command", ["verify-cylinder", "verify-zeta-zero"])
    @pytest.mark.parametrize("args", [["--a", "3.3"], ["--q", "1", "--a", "3.3"],
                                      ["--a", "0.25", "--L", "1e30"]])
    def test_cylinder_report_independent_of_precision(self, capsys, command, args):
        # the cylinder values are float64, so --dps cannot change the report.
        # When the closed forms were taken at --dps digits, --dps 15 and 16
        # printed coarser residuals (--a 3.3 --dps 15 gave dtn-logdet-identity
        # 0.0, --q 1 --a 3.3 --dps 16 zeta-difference-s3 0.0, both
        # 4.440892098500626e-16 at --dps 30), every --dps but 30 moved the
        # zeta-difference tolerances at L = 1e30, and --dps 2000 took 18 s
        assert main([command, *args, "--dps", "30"]) == 0
        want = capsys.readouterr().out
        for dps in ("15", "16", "50", "2000"):
            assert main([command, *args, "--dps", dps]) == 0
            assert capsys.readouterr().out == want, dps

    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify-cylinder", "--q", "1", "--output", str(out)]) == 0
        on_disk = out.read_text().strip()
        printed = capsys.readouterr().out.strip()
        assert on_disk == printed
        assert json.loads(on_disk)["status"] == "PASS"

    @pytest.mark.parametrize("target", [lambda d: d / "missing" / "report.json",
                                        lambda d: d], ids=["missing-directory", "directory"])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, target):
        # the write ended in a FileNotFoundError or IsADirectoryError
        # traceback with exit 1, after the whole pipeline had run
        assert main(["specfun-selftest", "--output", str(target(tmp_path))]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: output: ")


# a reference off by a relative 1e-6, exact over QQ
OFF = 1 + sp.Rational(1, 10 ** 6)


def _failing(cfg: RunConfig) -> list[str]:
    status, report = run(cfg)
    failing = [r["quantity"] for r in json.loads(report)["rows"] if r["status"] == "FAIL"]
    assert status == (1 if failing else 0)
    return failing


def _perturb_momentum_entry(patch):
    moment = sfunc.xi_moment
    patch.setattr(sfunc, "xi_moment", lambda dim, exps, p: (
        OFF if exps == (2, 2) else 1) * moment(dim, exps, p))


def _perturb_gamma_ratio(patch):
    ratio = sfunc.gamma_ratio_at_zero
    patch.setattr(sfunc, "gamma_ratio_at_zero", lambda k: (ratio(k)[0], OFF * ratio(k)[1]))


def _perturb_term_piece(patch):
    ref = symbolint.reference_term_table
    patch.setattr(symbolint, "reference_term_table",
                  lambda q: {**ref(q), "V7": OFF * ref(q)["V7"]})


# negative controls of the exact rows that go through memoized kernels:
# (perturbation, the run, the rows it must FAIL)
MEMOIZED_CONTROLS = [
    (_perturb_momentum_entry, RunConfig(command="specfun-selftest"),
     ["momentum-integral-xi22-p(s/2 + 3)"]),
    (_perturb_gamma_ratio, RunConfig(command="specfun-selftest"),
     [f"gamma-ratio-at-zero-{k}" for k in (1, "1/2", 2)]),
    (_perturb_term_piece, RunConfig(command="derive-terms", m=3, q=0), ["trace-term-V7"]),
]


class TestNegativeControls:
    """Every exact comparison of the CLI FAILs on a perturbed reference."""

    @pytest.mark.parametrize("m,q", [(2, 1), (3, 0)])
    def test_derive_a0(self, monkeypatch, m, q):
        ref = symbolint.a0_reference
        monkeypatch.setattr(symbolint, "a0_reference", lambda m, q: OFF * ref(m, q))
        assert _failing(RunConfig(command="derive-a0", m=m, q=q)) == ["a0-density"]

    @pytest.mark.parametrize("m,q", [(2, 1), (3, 0)])
    def test_derive_a0_q_density(self, monkeypatch, m, q):
        ref = symbolint.q_density_reference
        monkeypatch.setattr(symbolint, "q_density_reference", lambda m, q: OFF * ref(m, q))
        assert _failing(RunConfig(command="derive-a0", m=m, q=q)) == ["q-density"]

    def test_derive_terms_piece(self, monkeypatch):
        _perturb_term_piece(monkeypatch)
        assert _failing(RunConfig(command="derive-terms", m=3, q=0)) == ["trace-term-V7"]

    def test_derive_terms_sum(self, monkeypatch):
        ref = symbolint.reference_table_sum
        monkeypatch.setattr(symbolint, "reference_table_sum", lambda q: OFF * ref(q))
        assert _failing(RunConfig(command="derive-terms", m=3, q=0)) == ["trace-term-sum"]

    def test_specfun_momentum_entry(self, monkeypatch):
        _perturb_momentum_entry(monkeypatch)
        assert _failing(RunConfig(command="specfun-selftest")) == [
            "momentum-integral-xi22-p(s/2 + 3)"]

    def test_specfun_gamma_ratio(self, monkeypatch):
        _perturb_gamma_ratio(monkeypatch)
        assert _failing(RunConfig(command="specfun-selftest")) == [
            f"gamma-ratio-at-zero-{k}" for k in (1, "1/2", 2)]

    def test_memoization_hides_no_fault(self, monkeypatch):
        # the exact kernels are memoized per process; a run that PASSed first,
        # with every cache warm, must still FAIL each perturbed row, and PASS
        # again once the perturbation is gone
        for _, cfg, _ in MEMOIZED_CONTROLS:
            assert _failing(cfg) == []
        for perturb, cfg, rows in MEMOIZED_CONTROLS:
            with monkeypatch.context() as patch:
                perturb(patch)
                assert _failing(cfg) == rows
            assert _failing(cfg) == []
        e = sfunc.xi_moment(2, (2, 2), sfunc.S / 2 + 3)
        assert sfunc._field(e) is sfunc._field(e)
        assert sfunc._field.cache_info().maxsize is not None
        ch = chart(3, 0)
        assert ch.p0 is ch.p0 and ch.p1 is ch.p1 and ch.p2 is ch.p2

    def test_specfun_riemann_zeta_below_float64(self, monkeypatch):
        # at dps 400 the tolerance 1e-400 is below the float64 range; a zeta
        # value off by 1e-395 FAILs, though both round to 0.0 in the report
        zeta = sfunc.riemann_zeta
        monkeypatch.setattr(sfunc, "riemann_zeta", lambda s, dps: zeta(s, dps) + mp.mpf(10) ** -395)
        cfg = RunConfig(command="specfun-selftest", dps=400)
        assert _failing(cfg) == [f"riemann-zeta-{s0}" for s0 in (2, 0, -1)]
