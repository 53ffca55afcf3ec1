import json
import math

import numpy as np
import pytest

import coherework.cli as cli
from coherework.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PHYSICS,
    EXIT_SCHEMA,
    REPORT_SCHEMA,
    SCHEMA_DOCUMENT,
    ScenarioError,
    dumps_stable,
    main,
    run_scenario,
    run_scenario_obj,
    validate_scenario,
    validate_schema,
)
from coherework.errors import NonFiniteError

THETA = math.pi / 3


def canonical_project_scenario():
    return {
        "kind": "project",
        "beta": 1.0,
        "state": {"bloch": {"a": 0.8, "theta": THETA}},
        "hamiltonian": {"diag": [-1.0, 1.0]},
    }


def write(tmp_path, obj, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestDumpsStable:
    def test_sorted_keys_and_float_format(self):
        text = dumps_stable({"b": 0.1, "a": 1})
        assert text.index('"a"') < text.index('"b"')
        assert "0.10000000000000001" in text

    def test_reparses_as_json(self):
        obj = {"x": [1.5, 2, None, True, "s"], "y": {"nested": [0.25]}}
        assert json.loads(dumps_stable(obj)) == obj

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps_stable({"x": math.inf})

    def test_non_finite_is_typed(self):
        with pytest.raises(NonFiniteError, match="cannot enter a report"):
            dumps_stable({"x": [1.0, math.nan]})

    def test_numpy_scalars_and_arrays(self):
        text = dumps_stable({"v": np.array([1.0, 2.0]), "n": np.int64(3)})
        assert json.loads(text) == {"v": [1.0, 2.0], "n": 3}


class TestValidator:
    def test_missing_field_named(self):
        scn = canonical_project_scenario()
        del scn["beta"]
        with pytest.raises(ScenarioError, match=r"\$\.beta"):
            validate_scenario(scn)

    def test_unknown_field_named(self):
        scn = canonical_project_scenario()
        scn["bogus"] = 1
        with pytest.raises(ScenarioError, match=r"\$\.bogus"):
            validate_scenario(scn)

    def test_bad_kind(self):
        with pytest.raises(ScenarioError, match=r"\$\.kind"):
            validate_scenario({"kind": "frobnicate"})

    def test_beta_must_be_positive(self):
        scn = canonical_project_scenario()
        scn["beta"] = 0.0
        with pytest.raises(ScenarioError, match=r"\$\.beta"):
            validate_scenario(scn)

    def test_oneof_reports_closest_failures(self):
        scn = canonical_project_scenario()
        scn["state"] = {"bloch": {"a": 0.8}}
        with pytest.raises(ScenarioError, match="theta"):
            validate_scenario(scn)

    def test_matrix_entry_shape(self):
        scn = canonical_project_scenario()
        scn["state"] = {"matrix": [[[1.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]}
        with pytest.raises(ScenarioError, match="items"):
            validate_scenario(scn)

    def test_report_schema_accepts_reports(self):
        report = run_scenario_obj(canonical_project_scenario())
        validate_schema(report, REPORT_SCHEMA)

    @pytest.mark.parametrize("scn", [
        canonical_project_scenario(),
        {"kind": "protocol", "beta": 1.0,
         "state": {"bloch": {"a": 0.8, "theta": THETA}},
         "hamiltonian": {"diag": [-1.0, 1.0]}, "steps": [10, 100]},
        {"kind": "bound_scan", "a": 0.9, "thetas": [0.1, 0.5]},
        {"kind": "jarzynski", "beta": 1.0, "hamiltonian": {"diag": [-1.0, 1.0]},
         "unitary": {"random": {"dim": 2, "seed": 1}}, "n_samples": 1000,
         "seed": 2},
        {"kind": "singleshot", "beta": 1.0,
         "state": {"bloch": {"a": 0.8, "theta": THETA}},
         "hamiltonian": {"diag": [-1.0, 1.0]}, "eps": 0.05, "n_copies": [4, 8]},
        {"kind": "correlations", "beta": 1.0,
         "state_sa": {"purify": {"bloch": {"a": 0.8, "theta": THETA}}},
         "hamiltonian": {"diag": [-1.0, 1.0]}},
    ], ids=lambda s: s["kind"])
    def test_every_kind_roundtrips_under_report_schema(self, scn):
        report = run_scenario_obj(scn)
        validate_schema(report, REPORT_SCHEMA)
        assert json.loads(dumps_stable(report))["scenario"] == scn

    def test_schema_document_lists_both(self):
        assert set(SCHEMA_DOCUMENT) >= {"scenario", "report"}


def _over_cap(field):
    """A scenario one above the cap on ``field``, and the path the error names."""
    if field == "dim":
        return {**canonical_project_scenario(),
                "state": {"random": {"dim": cli.MAX_DIM + 1, "seed": 1}}}, "$.state.random.dim"
    if field == "steps":
        return {**canonical_project_scenario(), "kind": "protocol",
                "steps": [10, cli.MAX_STEPS + 1]}, "$.steps[1]"
    return {"kind": "jarzynski", "beta": 1.0, "hamiltonian": {"diag": [0.0, 1.0]},
            "unitary": {"random": {"dim": 2, "seed": 1}},
            "n_samples": cli.MAX_SAMPLES + 1}, "$.n_samples"


class TestSizeCaps:
    def test_cap_values(self):
        assert (cli.MAX_DIM, cli.MAX_STEPS, cli.MAX_SAMPLES) == (64, 10**6, 10**7)

    @pytest.mark.parametrize("field", ["dim", "steps", "n_samples"])
    def test_cap_plus_one_is_schema_error_before_building(self, field, tmp_path,
                                                          capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built before validation")

        for name in ("random_density_matrix", "random_hamiltonian", "random_unitary",
                     "Hamiltonian", "build_plan", "transition_table",
                     "sample_trajectories"):
            monkeypatch.setattr(cli, name, refuse)
        scn, where = _over_cap(field)
        assert run_scenario(write(tmp_path, scn)) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert where in err and "must be <=" in err

    @pytest.mark.parametrize("field", ["dim", "steps", "n_samples"])
    def test_cap_itself_validates(self, field):
        scn, _ = _over_cap(field)
        if field == "dim":
            scn["state"]["random"]["dim"] = cli.MAX_DIM
        elif field == "steps":
            scn["steps"][1] = cli.MAX_STEPS
        else:
            scn["n_samples"] = cli.MAX_SAMPLES
        validate_scenario(scn)


class TestProjectScenario:
    def test_worked_value(self):
        report = run_scenario_obj(canonical_project_scenario())
        h2 = lambda x: -x * math.log(x) - (1 - x) * math.log(1 - x)
        assert report["results"]["work"] == pytest.approx(
            h2(0.65) - h2(0.8), abs=1e-9)
        assert report["results"]["entropy_change_bound"] == pytest.approx(
            0.0675, abs=1e-9)

    def test_scenario_echoed(self):
        scn = canonical_project_scenario()
        assert run_scenario_obj(scn)["scenario"] == scn

    def test_explicit_matrix_state(self):
        scn = canonical_project_scenario()
        scn["state"] = {"matrix": [[[0.65, 0.0], [0.2, 0.1]],
                                   [[0.2, -0.1], [0.35, 0.0]]]}
        report = run_scenario_obj(scn)
        assert report["results"]["work"] > 0

    def test_custom_projector_basis(self):
        # projecting in a non-energy basis moves energy; work may be a cost,
        # but the bookkeeping identities must hold
        scn = canonical_project_scenario()
        s = 1 / math.sqrt(2)
        scn["projectors"] = {"basis": [[[s, 0.0], [s, 0.0]],
                                       [[s, 0.0], [-s, 0.0]]]}
        res = run_scenario_obj(scn)["results"]
        assert res["energy_change"] == pytest.approx(0.3, abs=1e-12)
        assert res["work"] == pytest.approx(
            res["entropy_change"] - res["energy_change"], abs=1e-12)
        assert res["entropy_change"] >= 0

    def test_gibbs_state_gives_zero(self):
        scn = canonical_project_scenario()
        scn["state"] = {"gibbs": {}}
        report = run_scenario_obj(scn)
        assert report["results"]["work"] == pytest.approx(0.0, abs=1e-12)


class TestRunScenarioFile:
    def test_ok_run_writes_report(self, tmp_path, capsys):
        path = write(tmp_path, canonical_project_scenario())
        assert run_scenario(path) == EXIT_OK
        out = capsys.readouterr().out
        report = json.loads(out)
        assert "results" in report

    def test_byte_identical_reruns(self, tmp_path):
        path = write(tmp_path, canonical_project_scenario())
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert run_scenario(path, str(out1)) == EXIT_OK
        assert run_scenario(path, str(out2)) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_missing_file_is_io_error(self, capsys):
        assert run_scenario("/does/not/exist.json") == EXIT_IO
        assert "cannot read" in capsys.readouterr().err

    def test_invalid_json_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert run_scenario(str(path)) == EXIT_SCHEMA
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_literal_is_schema_error(self, tmp_path, capsys, bad):
        scn = canonical_project_scenario()
        scn["hamiltonian"] = {"diag": [bad, 1.0]}
        assert run_scenario(write(tmp_path, scn)) == EXIT_SCHEMA
        assert "non-finite number" in capsys.readouterr().err

    def test_overflowing_number_is_physics_error(self, tmp_path, capsys):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(canonical_project_scenario()).replace("-1.0", "-1e999"))
        assert run_scenario(str(path)) == EXIT_PHYSICS
        assert "NonFiniteError" in capsys.readouterr().err

    def test_non_finite_report_value_is_physics_error(self, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setitem(cli._RUNNERS, "project",
                            lambda scn, ctx: ({"work": math.inf}, []))
        out = tmp_path / "report.json"
        path = write(tmp_path, canonical_project_scenario())
        assert run_scenario(path, str(out)) == EXIT_PHYSICS
        assert "NonFiniteError" in capsys.readouterr().err
        assert not out.exists()

    def test_known_underflow_case_runs(self, tmp_path, capsys):
        # d=2 class masses fall below e^-745 at these copy numbers
        scn = {"kind": "singleshot", "beta": 1.0,
               "state": {"random": {"dim": 2, "seed": 1}},
               "hamiltonian": {"random": {"dim": 2, "seed": 101}},
               "eps": 0.05, "n_copies": [512, 1024]}
        assert run_scenario(write(tmp_path, scn)) == EXIT_OK
        points = json.loads(capsys.readouterr().out)["results"]["points"]
        assert all(math.isfinite(pt["work"]) for pt in points)

    def test_unhashable_kind_is_schema_error(self, tmp_path, capsys):
        assert main(["run", write(tmp_path, {"kind": ["project"]})]) == EXIT_SCHEMA
        assert "$.kind: must be one of" in capsys.readouterr().err

    @pytest.mark.parametrize("literal, where", [
        ("1.0", "$.beta"),                     # a scalar
        ("0.65", "$.state.matrix[0][0][0]"),   # an entry of a bulk-checked matrix
    ], ids=["beta", "matrix-entry"])
    def test_integer_beyond_a_double_is_schema_error(self, tmp_path, capsys,
                                                     literal, where):
        scn = canonical_project_scenario()
        scn["state"] = {"matrix": [[[0.65, 0.0], [0.2, 0.1]],
                                   [[0.2, -0.1], [0.35, 0.0]]]}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(scn).replace(literal, "9" * 400, 1))
        assert main(["run", str(path)]) == EXIT_SCHEMA
        assert f"{where}: integer too large for a double" in capsys.readouterr().err

    def test_integer_literal_beyond_the_parser_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(canonical_project_scenario())
                        .replace("1.0", "9" * 5000, 1))
        assert main(["run", str(path)]) == EXIT_SCHEMA
        assert "invalid JSON" in capsys.readouterr().err

    def test_nesting_beyond_the_parser_is_schema_error(self, tmp_path, capsys):
        scn = canonical_project_scenario()
        scn["state"] = {"gibbs": {"x": "NEST"}}
        path = tmp_path / "scn.json"
        path.write_text(json.dumps(scn).replace('"NEST"', "[" * 10**5 + "]" * 10**5))
        assert main(["run", str(path)]) == EXIT_SCHEMA
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("node", [None, 1.0, "gibbs", [{"gibbs": {}}]])
    def test_non_object_state_is_schema_error(self, tmp_path, capsys, node):
        scn = {**canonical_project_scenario(), "state": node}
        assert main(["run", write(tmp_path, scn)]) == EXIT_SCHEMA
        assert "$.state: expected object" in capsys.readouterr().err

    def test_one_level_system_runs(self, tmp_path, capsys):
        scn = {**canonical_project_scenario(), "state": {"gibbs": {}},
               "hamiltonian": {"diag": [0.5]}}
        assert main(["run", write(tmp_path, scn)]) == EXIT_OK
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["work"] == 0.0 and res["entropy_change_bound"] == 0.0

    def test_thermal_state_without_support_is_physics_error(self, tmp_path, capsys):
        # at beta = 1e308 the upper thermal populations underflow to zero
        scn = {"kind": "singleshot", "beta": 1e308,
               "state": {"random": {"dim": 3, "seed": 83}},
               "hamiltonian": {"diag": [-0.2, -0.4, 0.3]},
               "eps": 0.05, "n_copies": [2]}
        assert main(["run", write(tmp_path, scn)]) == EXIT_PHYSICS
        assert "SupportError" in capsys.readouterr().err

    def test_schema_violation_names_field(self, tmp_path, capsys):
        scn = canonical_project_scenario()
        del scn["hamiltonian"]
        assert run_scenario(write(tmp_path, scn)) == EXIT_SCHEMA
        assert "$.hamiltonian" in capsys.readouterr().err

    def test_gibbs_state_takes_no_fields(self, tmp_path, capsys):
        scn = {**canonical_project_scenario(), "state": {"gibbs": {"bogus": [1, 2, 3]}}}
        assert main(["run", write(tmp_path, scn)]) == EXIT_SCHEMA
        assert "$.state.gibbs.bogus: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize("beta", [1e-310, 5e-324])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_vanishing_beta_protocol_is_physics_error(self, tmp_path, capsys, beta):
        scn = {**canonical_project_scenario(), "kind": "protocol", "beta": beta,
               "steps": [10]}
        assert main(["run", write(tmp_path, scn)]) == EXIT_PHYSICS
        assert ("NonFiniteError: matrix of shape (2, 2) has NaN or infinite entries"
                in capsys.readouterr().err)

    def test_unnormalised_state_is_physics_error(self, tmp_path, capsys):
        scn = canonical_project_scenario()
        scn["state"] = {"matrix": [[[0.5, 0.0], [0.0, 0.0]],
                                   [[0.0, 0.0], [0.4, 0.0]]]}
        assert run_scenario(write(tmp_path, scn)) == EXIT_PHYSICS
        err = capsys.readouterr().err
        assert "DensityMatrix: trace" in err

    @pytest.mark.parametrize("kind_scn", [
        {"kind": "protocol", "beta": 1.0,
         "state": {"matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]]},
         "hamiltonian": {"diag": [-1.0, 1.0]}},
        {"kind": "singleshot", "beta": 1.0, "eps": 0.05, "n_copies": [4],
         "state": {"matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]]},
         "hamiltonian": {"diag": [-1.0, 1.0]}},
        {"kind": "correlations", "beta": 1.0,
         "state_sa": {"matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.4, 0.0]]],
                      "dims": [1, 2]},
         "hamiltonian": {"diag": [0.0]}},
    ])
    def test_no_kind_bypasses_state_validation(self, tmp_path, kind_scn, capsys):
        assert run_scenario(write(tmp_path, kind_scn)) == EXIT_PHYSICS
        assert "DensityMatrix: trace" in capsys.readouterr().err

    def test_non_hermitian_hamiltonian_is_physics_error(self, tmp_path, capsys):
        scn = {"kind": "jarzynski", "beta": 1.0,
               "hamiltonian": {"matrix": [[[0.0, 0.0], [1.0, 0.0]],
                                          [[0.0, 0.0], [0.0, 0.0]]]},
               "unitary": {"random": {"dim": 2, "seed": 1}}}
        assert run_scenario(write(tmp_path, scn)) == EXIT_PHYSICS
        assert "NonHermitianError" in capsys.readouterr().err

    def test_non_unitary_matrix_is_physics_error(self, tmp_path, capsys):
        scn = {"kind": "jarzynski", "beta": 1.0,
               "hamiltonian": {"diag": [-1.0, 1.0]},
               "unitary": {"matrix": [[[1.0, 0.0], [1.0, 0.0]],
                                      [[1.0, 0.0], [1.0, 0.0]]]}}
        assert run_scenario(write(tmp_path, scn)) == EXIT_PHYSICS
        assert "NotUnitaryError" in capsys.readouterr().err

    def test_energy_projection_of_state_with_mismatched_dim(self, tmp_path, capsys):
        scn = {"kind": "project", "beta": 1.0,
               "state": {"random": {"dim": 3, "seed": 1}},
               "hamiltonian": {"diag": [-1.0, 1.0]}}
        assert run_scenario(write(tmp_path, scn)) == EXIT_PHYSICS
        assert "DimMismatchError" in capsys.readouterr().err


class TestProtocolScenario:
    def test_series_errors_shrink(self):
        scn = {
            "kind": "protocol",
            "beta": 1.0,
            "state": {"bloch": {"a": 0.8, "theta": THETA}},
            "hamiltonian": {"diag": [-1.0, 1.0]},
            "steps": [10, 100, 1000],
        }
        report = run_scenario_obj(scn)
        series = report["series"][0]
        assert series["x"] == [10.0, 100.0, 1000.0]
        assert series["y"][0] > series["y"][1] > series["y"][2]
        exact = report["results"]["exact"]["totals"]["work"]
        assert exact == pytest.approx(report["results"]["w_opt"], abs=1e-9)


class TestBoundScanScenario:
    def test_pure_state_scan(self):
        scn = {"kind": "bound_scan", "a": 1.0,
               "thetas": [0.0, math.pi / 3, math.pi / 2]}
        report = run_scenario_obj(scn)
        points = report["results"]["points"]
        assert points[0]["bound"] == pytest.approx(0.0, abs=1e-12)
        assert points[2]["bound"] == pytest.approx(0.25, abs=1e-12)
        assert points[2]["entropy_change"] == pytest.approx(
            math.log(2), abs=1e-12)
        for pt in points:
            assert pt["bound"] <= pt["entropy_change"] + 1e-10


class TestJarzynskiScenario:
    def test_identity_and_sampling(self):
        scn = {
            "kind": "jarzynski",
            "beta": 1.0,
            "hamiltonian": {"diag": [-1.0, 1.0]},
            "hamiltonian_final": {"diag": [-2.0, 2.0]},
            "unitary": {"random": {"dim": 2, "seed": 11}},
            "n_samples": 50_000,
            "seed": 4,
        }
        report = run_scenario_obj(scn)
        res = report["results"]
        assert res["jarzynski_lhs"] == pytest.approx(res["jarzynski_rhs"],
                                                     abs=1e-10)
        assert res["jarzynski_rhs"] == pytest.approx(
            math.cosh(2) / math.cosh(1), abs=1e-12)
        assert res["sampling"]["n_samples"] == 50_000
        hist = report["series"][0]
        assert sum(hist["y"]) == 50_000
        assert report["provenance"]["seeds"]["$.unitary.random"] == 11

    def test_jump_with_underflowing_probability_counts(self, tmp_path, capsys):
        # the swap's jump 1000 -> 0 has probability e^-1000, which underflows,
        # and weight e^1000, which overflows; their product is exactly 1
        scn = {"kind": "jarzynski", "beta": 1.0,
               "hamiltonian": {"diag": [0.0, 1000.0]},
               "unitary": {"matrix": [[[0.0, 0.0], [1.0, 0.0]],
                                      [[1.0, 0.0], [0.0, 0.0]]]}}
        assert main(["run", write(tmp_path, scn)]) == EXIT_OK
        res = json.loads(capsys.readouterr().out)["results"]
        assert res["jarzynski_lhs"] == pytest.approx(1.0, abs=1e-12)
        assert res["jarzynski_rhs"] == pytest.approx(1.0, abs=1e-12)

    def test_deterministic_sampling_report(self):
        scn = {
            "kind": "jarzynski", "beta": 0.5,
            "hamiltonian": {"random": {"dim": 3, "seed": 2}},
            "unitary": {"random": {"dim": 3, "seed": 3}},
            "n_samples": 10_000, "seed": 9,
        }
        assert dumps_stable(run_scenario_obj(scn)) == dumps_stable(
            run_scenario_obj(scn))


class TestSingleshotScenario:
    def test_errors_shrink_with_copies(self):
        scn = {
            "kind": "singleshot", "beta": 1.0,
            "state": {"bloch": {"a": 0.8, "theta": THETA}},
            "hamiltonian": {"diag": [-1.0, 1.0]},
            "eps": 0.05, "n_copies": [8, 16, 32],
        }
        report = run_scenario_obj(scn)
        w_opt = report["results"]["w_opt"]
        errs = [abs(pt["work"] - w_opt) for pt in report["results"]["points"]]
        assert errs[0] > errs[1] > errs[2]
        assert report["results"]["failure_probability"] == pytest.approx(
            2 * 0.05 - 0.05**2)


class TestCorrelationsScenario:
    def test_purified_state(self):
        scn = {
            "kind": "correlations", "beta": 1.0,
            "state_sa": {"purify": {"bloch": {"a": 0.8, "theta": THETA}}},
            "hamiltonian": {"diag": [-1.0, 1.0]},
        }
        report = run_scenario_obj(scn)
        res = report["results"]
        assert res["lemma1"]["holds"] is True
        assert res["global_work"] == pytest.approx(
            res["system_work"] + res["delta"], abs=1e-9)

    def test_product_state(self):
        scn = {
            "kind": "correlations", "beta": 2.0,
            "state_sa": {"product": {
                "system": {"bloch": {"a": 0.7, "theta": 0.5}},
                "ancilla": {"random": {"dim": 3, "seed": 21}}}},
            "hamiltonian": {"diag": [-1.0, 1.0]},
        }
        res = run_scenario_obj(scn)["results"]
        assert res["delta"] == pytest.approx(0.0, abs=1e-10)
        assert res["global_work"] == pytest.approx(res["system_work"], abs=1e-10)


class TestMain:
    def test_run_subcommand(self, tmp_path, capsys):
        path = write(tmp_path, canonical_project_scenario())
        assert main(["run", path]) == EXIT_OK
        capsys.readouterr()

    def test_schema_subcommand(self, capsys):
        assert main(["schema"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert "scenario" in doc and "report" in doc

    def test_out_flag(self, tmp_path):
        path = write(tmp_path, canonical_project_scenario())
        out = tmp_path / "report.json"
        assert main(["run", path, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["results"]["work"] > 0


class TestEnergyScale:
    @pytest.mark.parametrize("seed", [2, 4, 5])
    def test_large_energy_protocol_runs(self, tmp_path, seed, capsys):
        # MHz-scale levels at beta = 1e-6: ordinary physics in large units
        scn = {"kind": "protocol", "beta": 1e-6,
               "hamiltonian": {"diag": [0.0, 1.3e6, 2.9e6, 4.1e6]},
               "state": {"random": {"dim": 4, "seed": seed}}}
        assert run_scenario(write(tmp_path, scn)) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        exact = report["results"]["exact"]["totals"]["work"]
        assert exact == pytest.approx(report["results"]["w_opt"], rel=1e-9)

    def test_first_law_violation_is_physics_error(self, tmp_path, monkeypatch, capsys):
        from coherework.protocol import LedgerEntry, WorkLedger

        bad = LedgerEntry("x", work=1.0, heat_absorbed=0.0,
                          energy_change=1.0, entropy_change=0.0)
        monkeypatch.setitem(cli._RUNNERS, "project",
                            lambda scn, ctx: WorkLedger((bad,)))
        assert run_scenario(write(tmp_path, canonical_project_scenario())) == EXIT_PHYSICS
        assert "ConsistencyError" in capsys.readouterr().err


def test_tolerances_come_from_the_library_constants():
    from coherework.linalg import CLUSTER_GAP, DEFAULT_TOL
    from coherework.protocol import PLAN_TOL
    from coherework.states import EIGENVALUE_FLOOR

    assert cli.TOLERANCES == {"hermitian": DEFAULT_TOL, "projector": DEFAULT_TOL,
                              "cluster_gap": CLUSTER_GAP,
                              "eigenvalue_floor": EIGENVALUE_FLOOR, "plan": PLAN_TOL}
    assert cli.TOLERANCES == {"hermitian": 1e-10, "projector": 1e-10, "cluster_gap": 1e-8,
                              "eigenvalue_floor": -1e-10, "plan": 1e-8}


def test_cli_import_loads_no_scipy():
    # scipy would add about 0.3 s to every CLI start; only self-test needs it
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(cli.__file__).resolve().parents[1])
    code = ("import sys, coherework.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"
