"""Configuration parsing, metric resolution, suite running, and the CLI."""

import importlib.resources
import json
import re
from pathlib import Path

import numpy as np
import pytest

import finsq.cli as cli
from finsq import finsler, geometry, square
from finsq.config import SUITE_NAMES, ConfigError, load_config, parse_config
from finsq.registry import MetricResolutionError, builtin_names, resolve_metric
from finsq.reporting import build_report, dumps, validate_report
from finsq.suites import TOLERANCES, run_suites

CONSTRUCT = {"construct": {"factor": {"type": "sphere", "dim": 2}, "c": 1.0, "d": 0.5}}


class TestConfig:
    def test_defaults(self):
        cfg = parse_config({"metric": "berwald"})
        assert cfg.suites == SUITE_NAMES
        assert cfg.samples == 100
        assert cfg.seed == 0
        assert cfg.max_x == 0.8
        assert cfg.b_cap == 0.9
        assert cfg.tolerances == {}

    def test_echo_reparses_to_same_config(self):
        cfg = parse_config({"metric": {"name": "sphere", "kappa": 2.0},
                            "suites": ["cfc", "pde"], "samples": 7, "seed": 5,
                            "tolerances": {"cfc/flag": 1e-3}})
        assert parse_config(cfg.echo()) == cfg

    # error messages must carry the JSON path of the offending entry
    @pytest.mark.parametrize("doc,needle", [
        ({}, "metric"),
        ({"metric": "berwald", "samples": 0}, "samples"),
        ({"metric": "berwald", "samples": 4.5}, "samples"),
        ({"metric": "berwald", "suites": []}, "suites"),
        ({"metric": "berwald", "suites": ["einstein", "bogus"]}, "suites/1"),
        ({"metric": "berwald", "suites": ["pde", "pde"]}, "suites"),
        ({"metric": "berwald", "extra_knob": 1}, "extra_knob"),
        ({"metric": "berwald", "b_cap": 1.5}, "b_cap"),
        ({"metric": "berwald", "max_x": 0.0}, "max_x"),
        ({"metric": "berwald", "tolerances": {"cfc/flag": -1.0}}, "tolerances"),
        ({"metric": "no-such-metric"}, "config/metric"),
        ({"metric": {"name": "sphere", "dim": 99}}, "config/metric"),
        ({"metric": {"weird": True}}, "config/metric"),
        # tolerance keys are exactly those of suites.TOLERANCES
        ({"metric": "berwald", "tolerances": {"cfc/flg": 1e-3}}, "tolerances/cfc/flg"),
        ({"metric": "berwald", "tolerances": {"closed/skew": 1e-3}}, "tolerances/closed/skew"),
        ({"metric": "berwald", "tolerances": {"spray-deform/conformal": 1e-3}},
         "tolerances/spray-deform/conformal"),
        ({"metric": "berwald", "tolerances": {"einstein/certificate": 1e-3}},
         "tolerances/einstein/certificate"),
        # JSON Infinity and NaN pass every numeric bound of the schemas
        ({"metric": "berwald", "tolerances": {"cfc/flag": float("inf")}},
         "tolerances/cfc/flag: Infinity is not a finite number"),
        ({"metric": "berwald", "max_x": float("nan")}, "max_x: NaN is not a finite number"),
        ({"metric": {"name": "sphere", "kappa": float("inf")}}, "metric/kappa: Infinity"),
        ({"metric": {"family": {"q": [0.1, float("nan"), 0.0]}}}, "metric/family/q/1: NaN"),
        # a refusal names the failing field of the oneOf branch
        ({"metric": {"name": "berwald", "dim": 7}},
         "config/metric: dim: 7 is greater than the maximum of 6"),
    ])
    def test_rejects_with_path(self, doc, needle):
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert needle in str(err.value)

    def test_unknown_key_lists_the_valid_keys_of_its_suite(self):
        with pytest.raises(ConfigError) as err:
            parse_config({"metric": "berwald", "tolerances": {"closed/skew": 1e-3}})
        assert "closed/skew.skew, closed/skew.skew-contraction" in str(err.value)

    def test_schema_suite_enum_is_suite_names(self):
        text = importlib.resources.files("finsq").joinpath("schemas/config.schema.json").read_text()
        enum = json.loads(text)["properties"]["suites"]["items"]["enum"]
        assert tuple(enum) == SUITE_NAMES

    def test_readme_configs_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        assert blocks
        for block in blocks:
            parse_config(json.loads(block))

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(["metric"])

    def test_load_good_file(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"metric": "euclidean", "samples": 5}))
        cfg = load_config(str(p))
        assert cfg.metric == "euclidean"
        assert cfg.samples == 5

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.json"))

    def test_load_invalid_json(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(p))


class TestRegistry:
    @pytest.mark.parametrize("name", ["berwald", "euclidean", "randers-drift",
                                      "randers-grad", "sphere"])
    def test_builtins_resolve(self, name):
        b = resolve_metric(name)
        assert b.name == name
        assert b.dim >= 2

    def test_builtin_listing(self):
        names = builtin_names()
        assert names == sorted(names)
        assert set(names) == {"berwald", "euclidean", "randers-drift",
                              "randers-grad", "sphere"}

    def test_named_form_forwards_params(self):
        b = resolve_metric({"name": "sphere", "dim": 4, "kappa": 2.25})
        assert b.dim == 4
        assert b.expected_flag == pytest.approx(2.25)
        assert b.expected_einstein_constant == pytest.approx(2.25)

    def test_construct_form(self):
        b = resolve_metric(CONSTRUCT)
        assert b.square_data
        assert b.construction is not None
        assert b.dim == 3
        assert b.expected_einstein_constant == 0.0
        assert b.expected_characterization_constant == pytest.approx(1.0)

    def test_family_form(self):
        b = resolve_metric({"family": {"dim": 3, "c": 0.7, "q": [0.1, 0.0, -0.05]}})
        assert b.square_data
        assert b.dim == 3
        assert b.expected_characterization_constant == pytest.approx(0.7)

    @pytest.mark.parametrize("request_", [
        *builtin_names(),
        CONSTRUCT,
        {"family": {"dim": 3, "c": 0.7}},
    ])
    def test_square_data_bundles_are_ricci_flat(self, request_):
        # the einstein suite checks Finsler Ricci-flatness of square data
        # only through the certificate's finsler-ricci family, against 0
        b = resolve_metric(request_)
        if b.square_data:
            assert b.expected_einstein_constant == 0.0

    @pytest.mark.parametrize("request_", [
        "nope",
        {"name": "nope"},
        {"name": "sphere", "scale": 0.4},
        {},
        17,
        {"construct": {"factor": {"type": "torus", "dim": 2}}},
    ])
    def test_rejects(self, request_):
        with pytest.raises(MetricResolutionError):
            resolve_metric(request_)


def _spray_samples(args) -> int:
    """How many samples one spray_jets(M, x, ...) call solves: x is one
    point or a block of points."""
    x = np.asarray(args[1])
    return len(x) if x.ndim == 2 else 1


class TestRunSuites:
    def test_inapplicable_suite_fails_with_reason(self):
        # a pure Riemannian bundle has no square data; the suite must not
        # pass vacuously
        cfg = parse_config({"metric": "euclidean", "suites": ["deformation"],
                            "samples": 3})
        res = run_suites(resolve_metric(cfg.metric), cfg)
        assert len(res) == 1
        assert not res[0].passed
        entry = res[0].checks[0]
        assert entry.name == "deformation/skipped"
        assert "square" in entry.detail["reason"]

    def test_results_keep_requested_order(self):
        cfg = parse_config({"metric": "berwald", "suites": ["pde", "cfc", "closed"],
                            "samples": 3})
        res = run_suites(resolve_metric(cfg.metric), cfg)
        assert [r.name for r in res] == ["pde", "cfc", "closed"]

    def test_tolerance_override_full_name(self):
        cfg = parse_config({"metric": "berwald", "suites": ["cfc"], "samples": 3,
                            "tolerances": {"cfc/flag": 1e-30}})
        res = run_suites(resolve_metric(cfg.metric), cfg)
        flag = next(c for c in res[0].checks if c.name == "cfc/flag")
        assert not flag.passed
        assert flag.detail["residuals"]["flag"]["tolerance"] == 1e-30

    def test_tolerance_override_certificate_family(self):
        cfg = parse_config({"metric": "berwald", "suites": ["einstein"], "samples": 4,
                            "tolerances": {"einstein/certificate.finsler-ricci": 1e-30}})
        res = run_suites(resolve_metric(cfg.metric), cfg)
        cert = next(c for c in res[0].checks if c.name == "einstein/certificate")
        assert not cert.passed
        assert cert.detail["residuals"]["finsler-ricci"]["tolerance"] == 1e-30

    def test_cfc_builds_one_flag_bundle_per_sample(self, monkeypatch):
        calls = self._count_builds(monkeypatch)
        cfg = parse_config({"metric": "berwald", "suites": ["cfc"], "samples": 3})
        res = run_suites(resolve_metric(cfg.metric), cfg)
        assert res[0].passed
        assert calls["spray_jets"] == 3

    def test_einstein_builds_one_flag_bundle_per_sample(self, monkeypatch):
        calls = []
        inner = finsler.spray_jets

        def counted(*args):
            calls.append(_spray_samples(args))
            return inner(*args)

        monkeypatch.setattr(finsler, "spray_jets", counted)
        cfg = parse_config({"metric": "berwald", "suites": ["einstein"], "samples": 3})
        res = run_suites(resolve_metric(cfg.metric), cfg)
        assert res[0].passed
        assert [c.name for c in res[0].checks] == ["einstein/certificate",
                                                   "einstein/scale-certificate"]
        assert sum(calls) == 3

    @staticmethod
    def _count_builds(monkeypatch, alpha=None):
        """Count point bundles, the samples of spray solves, and Riemannian
        sprays of alpha."""
        calls = {"beta_derivatives": 0, "spray_jets": 0, "geodesic_spray": 0}

        def counter(module, name, inner):
            def counted(*args):
                if name == "spray_jets":
                    calls[name] += _spray_samples(args)
                elif name != "geodesic_spray" or args[0] is alpha:
                    calls[name] += 1
                return inner(*args)
            monkeypatch.setattr(module, name, counted)

        counter(geometry, "beta_derivatives", geometry.beta_derivatives)
        counter(finsler, "spray_jets", finsler.spray_jets)
        # square names geodesic_spray itself, for the deformed pairs' sprays
        counter(geometry, "geodesic_spray", geometry.geodesic_spray)
        counter(square, "geodesic_spray", square.geodesic_spray)
        return calls

    def test_run_builds_each_bundle_once(self, monkeypatch):
        # every suite reads one sample table: one point bundle per sample,
        # one flag solve shared by cfc and einstein plus douglas's own, and
        # one spray of alpha shared by both spray-deform kinds
        bundle = resolve_metric("berwald")
        calls = self._count_builds(monkeypatch, bundle.alpha)
        cfg = parse_config({"metric": "berwald", "samples": 3})
        assert all(r.passed for r in run_suites(bundle, cfg))
        assert calls == {"beta_derivatives": 3, "spray_jets": 3 + 3, "geodesic_spray": 3}

    def test_cfc_and_einstein_share_flag_bundles(self, monkeypatch):
        calls = self._count_builds(monkeypatch)
        cfg = parse_config({"metric": "sphere", "suites": ["cfc", "einstein"], "samples": 3})
        assert all(r.passed for r in run_suites(resolve_metric(cfg.metric), cfg))
        assert calls["spray_jets"] == 3

    @pytest.mark.parametrize("metric", ["berwald", CONSTRUCT])
    def test_suite_results_do_not_depend_on_order(self, metric):
        def run(suites):
            cfg = parse_config({"metric": metric, "suites": suites, "samples": 3})
            return {r.name: r.to_json() for r in run_suites(resolve_metric(cfg.metric), cfg)}

        together = run(list(SUITE_NAMES))
        assert run(list(reversed(SUITE_NAMES))) == together
        for name in SUITE_NAMES:
            assert run([name]) == {name: together[name]}

    def test_einstein_default_tolerances_are_the_square_table(self):
        # every residual of a default run, not only the einstein certificates,
        # is judged against its suites.TOLERANCES entry
        keys = set()
        for metric in ("berwald", "sphere", CONSTRUCT):
            cfg = parse_config({"metric": metric, "samples": 3})
            for result in run_suites(resolve_metric(cfg.metric), cfg):
                for check in result.checks:
                    for fam, r in check.detail.get("residuals", {}).items():
                        key = check.name if check.name in TOLERANCES else f"{check.name}.{fam}"
                        assert r["tolerance"] == TOLERANCES[key], key
                        keys.add(key)
        assert keys == set(TOLERANCES) - {"einstein/certificate.constant"}

    @pytest.mark.parametrize("key", list(TOLERANCES))
    def test_every_tolerance_key_is_read(self, key):
        check, _, fam = key.partition(".")
        metric = ("sphere" if key == "einstein/finsler-residual"
                  else CONSTRUCT if key.startswith(("warped/", "einstein/certificate.constant"))
                  else "berwald")
        cfg = parse_config({"metric": metric, "suites": [key.split("/")[0]], "samples": 3,
                            "tolerances": {key: 1e-300}})
        entry = next(c for r in run_suites(resolve_metric(cfg.metric), cfg)
                     for c in r.checks if c.name == check)
        if key == "einstein/certificate.constant":
            assert entry.detail["constant_deviation"] > 1e-300
            assert not entry.passed
        else:
            residual = entry.detail["residuals"][fam or check.rsplit("/", 1)[-1]]
            assert residual["tolerance"] == 1e-300

    def test_einstein_without_square_data(self):
        cfg = parse_config({"metric": "sphere", "suites": ["einstein"], "samples": 3})
        res = run_suites(resolve_metric(cfg.metric), cfg)
        assert res[0].passed
        assert [c.name for c in res[0].checks] == ["einstein/finsler-residual"]
        cfg = parse_config({"metric": "randers-drift", "suites": ["einstein"], "samples": 3})
        entry = run_suites(resolve_metric(cfg.metric), cfg)[0].checks[0]
        assert entry.name == "einstein/skipped"
        assert entry.detail["reason"] == ("certificates need square alpha-beta data; "
                                          "no Einstein constant is known for this metric")


class TestReport:
    def test_schema_valid_and_deterministic(self):
        cfg = parse_config({"metric": "berwald", "suites": ["closed", "cfc"],
                            "samples": 4})
        bundle = resolve_metric(cfg.metric)
        a = build_report(cfg.echo(), run_suites(bundle, cfg))
        b = build_report(cfg.echo(), run_suites(bundle, cfg))
        validate_report(a)
        assert dumps(a) == dumps(b)
        assert a["schema"] == "finsq-report/1"
        assert a["versions"]["jet_backend"] in ("compiled", "numpy")

    def test_validate_rejects_malformed(self):
        import jsonschema
        with pytest.raises(jsonschema.ValidationError):
            validate_report({"schema": "finsq-report/1"})


class TestCommandLine:
    def test_check_pass(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = cli.main(["check", "--metric", "berwald", "--suites", "closed,cfc",
                         "--samples", "4", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 0
        assert "PASS: berwald" in err
        doc = json.loads(out.read_text())
        validate_report(doc)
        assert doc["passed"] is True

    def test_check_fail_exit_one(self, capsys):
        # drift form is not closed, so this is a designed failure
        code = cli.main(["check", "--metric", "randers-drift", "--suites", "closed",
                         "--samples", "4"])
        cap = capsys.readouterr()
        assert code == 1
        assert "FAIL: randers-drift" in cap.err
        assert json.loads(cap.out)["passed"] is False

    def test_check_reports_byte_identical(self, tmp_path, capsys):
        args = ["check", "--metric", "berwald", "--suites", "closed,cfc",
                "--samples", "4"]
        blobs = []
        for fname in ("a.json", "b.json"):
            p = tmp_path / fname
            assert cli.main(args + ["--out", str(p)]) == 0
            blobs.append(p.read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]

    def test_check_config_file_with_overrides(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"metric": "berwald", "suites": ["closed"],
                                 "samples": 4}))
        code = cli.main(["check", "--config", str(p), "--suites", "cfc"])
        cap = capsys.readouterr()
        assert code == 0
        doc = json.loads(cap.out)
        assert [s["name"] for s in doc["suites"]] == ["cfc"]

    def test_check_inline_construct_metric(self, capsys):
        code = cli.main(["check", "--metric",
                         '{"family": {"dim": 3, "c": 0.7, "q": [0.1, 0.0, -0.05]}}',
                         "--suites", "closed,einstein", "--samples", "5"])
        cap = capsys.readouterr()
        assert code == 0
        assert "berwald-family" in cap.err

    # the family's residuals (and at 1e308 its fitted constants) overflow
    # float64, which numpy warns of
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("c", ["1e200", "1e308"])
    def test_check_overflow_report_is_strict_json(self, c, capsys):
        code = cli.main(["check", "--metric", '{"family": {"dim": 3, "c": %s}}' % c,
                         "--samples", "3"])

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert code == 1

        def has_null(node):
            if isinstance(node, dict):
                return any(has_null(v) for v in node.values())
            return node is None

        checks = [c for suite in doc["suites"] for c in suite["checks"]]
        assert any(has_null(c["detail"]) for c in checks)
        assert not any(c["passed"] and has_null(c["detail"]) for c in checks)

    # the same overflow as above, through the one flag bundle `eval` reads
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_eval_non_finite_value_exits_one(self, capsys):
        code = cli.main(["eval", "--metric", '{"family": {"dim": 3, "c": 1e200}}',
                         "--x", "0,0,0", "--y", "1,0,0", "--quantity", "ricci"])
        cap = capsys.readouterr()
        assert code == 1
        assert "NaN" not in cap.out
        assert "verification error:" in cap.err and "non-finite" in cap.err
        assert "Traceback" not in cap.err

    def test_strong_convexity_message_prints_plain_numbers(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "metric": {"construct": {"factor": {"type": "flat", "dim": 2},
                                     "c": 0, "d": 0.99999999}},
            "samples": 5, "b_cap": 0.9999999999}))
        code = cli.main(["check", "--config", str(p)])
        err = capsys.readouterr().err
        assert code == 1
        assert "not strongly convex" in err
        assert "np.float64" not in err
        assert "0.0, 0.0, -0.0" not in err

    @pytest.mark.parametrize("argv", [
        ["check", "--metric", "no-such-metric", "--samples", "4"],
        ["check", "--metric", "{bad json"],
        ["check", "--metric", "berwald", "--suites", "bogus", "--samples", "4"],
        ["check", "--metric", "berwald", "--samples", "1"],
        ["check", "--config", "/definitely/not/here.json"],
        ["eval", "--metric", "euclidean", "--x", "0.1,0.2", "--y", "1,0,0"],
        ["eval", "--metric", "euclidean", "--x", "a,b,c", "--y", "1,0,0"],
        ["eval", "--metric", "sphere", "--x", "0.1,0.2,0.3", "--y", "1,0,0",
         "--quantity", "flag"],
        ["eval", "--metric", "berwald", "--x", "0,0,0,0", "--y", "0,0,0,0"],
        ["eval", "--metric", "berwald", "--x", "0,0,0,0", "--y", "1,0,0,0",
         "--u", "2,0,0,0", "--quantity", "flag"],
        ["eval", "--metric", "berwald", "--x", "1.5,0,0,0", "--y", "1,0,0,0"],
        ["eval", "--metric", "randers-grad", "--x", "3,0,0", "--y", "1,0,0"],
        ["construct", "--factor", "sphere", "--c", "0"],
        ["construct", "--factor", "flat", "--c", "1.0"],
        ["check", "--metric", '{"construct": {"c": 0, "d": 0.5}}', "--suites", "einstein",
         "--samples", "3"],
        ["check", "--metric", '{"name": "sphere", "kappa": Infinity}', "--samples", "3"],
        ["check", "--metric", '{"name": "randers-grad", "scale": NaN}', "--samples", "3"],
        ["eval", "--metric", '{"name": "sphere", "kappa": Infinity}', "--x", "0.1,0.1,0.1",
         "--y", "1,0,0"],
        ["eval", "--metric", '{"name": "berwald", "dim": 7}', "--x", "0,0,0,0,0,0,0",
         "--y", "1,0,0,0,0,0,0"],
        ["construct", "--c", "inf"],
        ["construct", "--d", "nan"],
        # finite kappa whose metric matrix underflows to zero
        ["check", "--metric", '{"name": "sphere", "kappa": 1e300}', "--samples", "3"],
        ["eval", "--metric", '{"name": "sphere", "kappa": 1e300}', "--x", "0.1,0.1,0.1",
         "--y", "1,0,0"],
        # finite warp constant whose factor matrix underflows to zero
        ["check", "--metric",
         '{"construct": {"factor": {"type": "sphere", "dim": 3}, "c": 1e200, "d": 0.5}}',
         "--samples", "3"],
        ["construct", "--c", "1e200"],
        # construct validates its request as check does
        ["construct", "--samples", "0"],
        ["construct", "--seed", "-1"],
        ["construct", "--samples", "1"],
        ["construct", "--dim", "7"],
        # a Philox key holds 128 bits
        ["check", "--metric", "berwald", "--suites", "pde", "--samples", "2",
         "--seed", str(2 ** 128)],
        # a tiny family constant whose sample box overflows float64
        ["check", "--metric", '{"family": {"dim": 3, "c": 5e-309}}', "--samples", "3"],
    ])
    def test_usage_errors_exit_two(self, argv, capsys):
        code = cli.main(argv)
        cap = capsys.readouterr()
        assert code == 2
        assert "error:" in cap.err
        assert "Traceback" not in cap.err

    def test_unknown_subcommand_exit_two(self, capsys):
        assert cli.main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert "finsq" in capsys.readouterr().out

    def test_eval_euclidean_norm(self, capsys):
        code = cli.main(["eval", "--metric", "euclidean", "--x", "0.1,0.2,0.3",
                         "--y", "3,4,0"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["value"] == pytest.approx(5.0)

    @pytest.mark.parametrize("quantity,expected", [
        ("g", np.eye(3).tolist()),
        ("spray", [0.0, 0.0, 0.0]),
        ("ricci", 0.0),
    ])
    def test_eval_flat_quantities(self, quantity, expected, capsys):
        code = cli.main(["eval", "--metric", "euclidean", "--x", "0,0,0",
                         "--y", "1,0,0", "--quantity", quantity])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert np.allclose(doc["value"], expected, atol=1e-12)

    @pytest.mark.parametrize("quantity", ["g", "spray", "ricci", "flag"])
    def test_eval_reads_the_flag_bundle(self, quantity, monkeypatch, capsys):
        x, y, u = [0.1, 0.2, 0.3, 0.1], [1.0, 0.2, -0.1, 0.4], [0.0, 1.0, 0.0, 0.0]
        cd = finsler.curvature_data(resolve_metric("berwald").metric, x, y)
        expected = {"g": cd.g.tolist(), "spray": cd.spray.tolist(), "ricci": cd.ricci,
                    "flag": cd.flag_curvature(u)}[quantity]
        calls = TestRunSuites._count_builds(monkeypatch)
        code = cli.main(["eval", "--metric", "berwald", "--x", "0.1,0.2,0.3,0.1",
                         "--y", "1,0.2,-0.1,0.4", "--u", "0,1,0,0", "--quantity", quantity])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["value"] == expected
        assert calls["spray_jets"] == 1

    def test_eval_sphere_flag(self, capsys):
        code = cli.main(["eval", "--metric", "sphere", "--x", "0.1,0.2,0.3",
                         "--y", "1,0.2,-0.1", "--u", "0,1,0", "--quantity", "flag"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["value"] == pytest.approx(1.0, abs=1e-10)

    def test_list_metrics(self, capsys):
        assert cli.main(["list-metrics"]) == 0
        names = capsys.readouterr().out.split()
        assert names == sorted(names)
        assert set(names) == {"berwald", "euclidean", "randers-drift",
                              "randers-grad", "sphere"}

    def test_construct_pass(self, tmp_path, capsys):
        out = tmp_path / "construction.json"
        code = cli.main(["construct", "--dim", "3", "--samples", "12",
                         "--out", str(out)])
        cap = capsys.readouterr()
        assert code == 0
        assert "fitted constant 1" in cap.err
        doc = json.loads(out.read_text())
        assert doc["schema"] == "finsq-construction/1"
        assert doc["certificate"]["passed"] is True
        assert doc["certificate"]["constant"] == pytest.approx(1.0, abs=1e-9)
