import gc
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import coherework.cli as cli
import coherework.protocol as protocol
import coherework.singleshot as singleshot
from coherework.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PHYSICS,
    EXIT_SCHEMA,
    EXIT_SELFTEST,
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

    def test_leaves_no_garbage_cycle(self):
        # a report's chunk list must be freed by reference counting alone
        report = run_scenario_obj(canonical_project_scenario())
        gc.collect()
        gc.disable()
        try:
            texts = {dumps_stable(report) for _ in range(5)}
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert len(texts) == 1


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


def _eye(n, scale=1.0):
    """The n x n matrix ``scale`` * 1 in the scenario's [re, im] form."""
    return [[[scale if i == j else 0.0, 0.0] for j in range(n)] for i in range(n)]


def _sized(field, n):
    """A scenario whose capped ``field`` has the value or length ``n``, and
    the path that an error over the cap names."""
    project = canonical_project_scenario()
    # the Hamiltonian next to an over-cap state or basis stays at the cap
    at_most = {"diag": [float(k) for k in range(min(n, cli.MAX_DIM))]}
    if field == "dim":
        return {**project, "state": {"random": {"dim": n, "seed": 1}}}, "$.state.random.dim"
    if field == "steps":
        return {**project, "kind": "protocol", "steps": [10, n]}, "$.steps[1]"
    if field == "n_samples":
        return {"kind": "jarzynski", "beta": 1.0, "hamiltonian": {"diag": [0.0, 1.0]},
                "unitary": {"random": {"dim": 2, "seed": 1}}, "n_samples": n}, "$.n_samples"
    if field == "diag":
        return ({**project, "state": {"gibbs": {}}, "hamiltonian": {"diag": [float(k) for k in range(n)]}},
                "$.hamiltonian.diag")
    if field == "matrix":
        return ({**project, "state": {"gibbs": {}}, "hamiltonian": {"matrix": _eye(n)}},
                "$.hamiltonian.matrix")
    if field == "pure":
        return ({**project, "state": {"pure": [[1.0, 0.0]] * n},
                 "hamiltonian": at_most}, "$.state.pure")
    if field == "basis":
        return ({**project, "state": {"gibbs": {}}, "hamiltonian": at_most,
                 "projectors": {"basis": _eye(n)}}, "$.projectors.basis")
    if field == "state_sa":
        return ({"kind": "correlations", "beta": 1.0,
                 "state_sa": {"matrix": _eye(n, 1.0 / n), "dims": [n // 2, 2]},
                 "hamiltonian": {"diag": at_most["diag"][:n // 2]}}, "$.state_sa.matrix")
    if field == "steps_count":
        return {**project, "kind": "protocol", "steps": [10] * n}, "$.steps"
    if field == "n_copies":
        return ({**project, "kind": "singleshot", "eps": 0.05,
                 "n_copies": list(range(1, n + 1))}, "$.n_copies")
    return {"kind": "bound_scan", "a": 0.9, "thetas": [0.001 * k for k in range(n)]}, "$.thetas"


# the cap on each field's value (the first three) or length
_CAPS = {"dim": cli.MAX_DIM, "steps": cli.MAX_STEPS, "n_samples": cli.MAX_SAMPLES,
         "diag": cli.MAX_DIM, "matrix": cli.MAX_DIM, "pure": cli.MAX_DIM, "basis": cli.MAX_DIM,
         "state_sa": cli.MAX_DIM, "steps_count": cli.MAX_SWEEP, "n_copies": cli.MAX_SWEEP,
         "thetas": cli.MAX_THETAS}


class TestSizeCaps:
    def test_cap_values(self):
        assert (cli.MAX_DIM, cli.MAX_STEPS, cli.MAX_SAMPLES) == (64, 10**6, 10**7)
        assert (cli.MAX_SWEEP, cli.MAX_THETAS) == (16, 1024)

    @pytest.mark.parametrize("field", list(_CAPS))
    def test_cap_plus_one_is_schema_error_before_building(self, field, tmp_path,
                                                          capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("built before validation")

        for name in ("random_density_matrix", "random_hamiltonian", "random_unitary",
                     "Hamiltonian", "DensityMatrix", "build_plan", "transition_table",
                     "sample_trajectories"):
            monkeypatch.setattr(cli, name, refuse)
        scn, where = _sized(field, _CAPS[field] + 1)
        assert run_scenario(write(tmp_path, scn)) == EXIT_SCHEMA
        err = capsys.readouterr().err
        wording = "must be <=" if field in ("dim", "steps", "n_samples") else "needs at most"
        assert f"{where}: {wording} {_CAPS[field]}" in err

    @pytest.mark.parametrize("field", ["dim", "steps", "n_samples"])
    def test_cap_itself_validates(self, field):
        validate_scenario(_sized(field, _CAPS[field])[0])

    @pytest.mark.parametrize("field", list(_CAPS)[3:])
    def test_list_at_its_cap_runs(self, field, tmp_path, capsys):
        scn, _ = _sized(field, _CAPS[field])
        assert run_scenario(write(tmp_path, scn)) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["scenario"] == scn


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

    @pytest.mark.parametrize("state", [{"bloch": {"a": 0.8, "theta": 1.0}},
                                       {"pure": [[1.0, 0.0], [0.0, 1.0]]}])
    def test_vanishing_beta_protocol_writes_one_line(self, tmp_path, state):
        # -ln(p) / beta overflows: the plan raises its typed error and numpy
        # prints no RuntimeWarning before it
        scn = {"kind": "protocol", "beta": 1e-310, "state": state,
               "hamiltonian": {"diag": [0.0, 1.0]}}
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]),
               "PYTHONWARNINGS": "default"}
        proc = subprocess.run(
            [sys.executable, "-m", "coherework.cli", "run", write(tmp_path, scn)],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == EXIT_PHYSICS
        assert proc.stderr.splitlines() == [
            "NonFiniteError: matrix of shape (2, 2) has NaN or infinite entries"]

    def test_non_finite_report_value_is_physics_error(self, tmp_path, capsys,
                                                      monkeypatch):
        monkeypatch.setitem(cli._RUNNERS, "project",
                            lambda scn, seeds: ({"work": math.inf}, []))
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

    def test_thermal_state_at_large_energies_runs(self, tmp_path, capsys):
        # the isotherm is a null step whose terms are rounding noise of
        # energies of 1e7; the first law is checked at that scale
        scn = {"kind": "protocol", "beta": 1e-7, "state": {"gibbs": {}},
               "hamiltonian": {"matrix": [[[0, 0], [3e6, 0]], [[3e6, 0], [1e7, 0]]]}}
        assert main(["run", write(tmp_path, scn)]) == EXIT_OK, capsys.readouterr().err

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

    def test_huge_non_hermitian_hamiltonian_is_physics_error(self, tmp_path, capsys):
        # ||H|| overflows to inf, so only the entry bound can reject this H
        scn = canonical_project_scenario()
        scn["hamiltonian"] = {"matrix": [[[1e200, 0.0], [5.0, 0.0]],
                                         [[-3.0, 0.0], [1.0, 0.0]]]}
        assert run_scenario(write(tmp_path, scn)) == EXIT_PHYSICS
        assert capsys.readouterr().err.startswith("NonFiniteError: ")

    def test_huge_pure_vector_is_physics_error(self, tmp_path, capsys):
        # the norm of this vector overflows, so its entries are bounded first
        scn = canonical_project_scenario()
        scn["state"] = {"pure": [[1e300, 0.0], [1e300, 0.0]]}
        assert run_scenario(write(tmp_path, scn)) == EXIT_PHYSICS
        assert capsys.readouterr().err.startswith("NonFiniteError: ")

    def test_zero_norm_pure_vector_is_physics_error(self, tmp_path, capsys):
        scn = canonical_project_scenario()
        scn["state"] = {"pure": [[0.0, 0.0], [0.0, 0.0]]}
        assert run_scenario(write(tmp_path, scn)) == EXIT_PHYSICS
        assert "zero norm" in capsys.readouterr().err

    def test_top_level_array_is_schema_error(self, tmp_path, capsys):
        assert run_scenario(write(tmp_path, [1, 2])) == EXIT_SCHEMA
        assert "must be a JSON object" in capsys.readouterr().err

    def test_ragged_matrix_row_is_schema_error(self, tmp_path, capsys):
        scn = canonical_project_scenario()
        scn["state"] = {"matrix": [[[0.5, 0.0], [0.0, 0.0]], [[0.5, 0.0]]]}
        assert run_scenario(write(tmp_path, scn)) == EXIT_SCHEMA
        assert "$.state.matrix[1]: ragged matrix row" in capsys.readouterr().err

    def test_unwritable_out_is_io_error(self, tmp_path, capsys):
        path = write(tmp_path, canonical_project_scenario())
        out = tmp_path / "missing" / "x.json"
        assert main(["run", path, "--out", str(out)]) == EXIT_IO
        assert capsys.readouterr().err.startswith(f"cannot write {out}")

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
    def test_one_level_copy_number_beyond_the_table_cap_is_physics_error(
            self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("type-class table built past the cap")

        monkeypatch.setattr(singleshot, "_type_table", refuse)
        scn = {"kind": "singleshot", "beta": 1.0, "state": {"gibbs": {}},
               "hamiltonian": {"diag": [0.0]}, "eps": 0.05, "n_copies": [10**9]}
        assert run_scenario(write(tmp_path, scn)) == EXIT_PHYSICS
        assert capsys.readouterr().err.startswith("AlphabetTooLargeError: ")

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

    def test_one_plan_for_every_copy_number(self, monkeypatch):
        calls = []
        build_plan = protocol.build_plan

        def counting(*args, **kwargs):
            calls.append(args)
            return build_plan(*args, **kwargs)

        # both names, so a plan built inside the library is counted too
        monkeypatch.setattr(cli, "build_plan", counting)
        monkeypatch.setattr(protocol, "build_plan", counting)
        scn = {"kind": "singleshot", "beta": 1.0,
               "state": {"random": {"dim": 3, "seed": 4}},
               "hamiltonian": {"random": {"dim": 3, "seed": 5}},
               "eps": 0.05, "n_copies": [4, 8, 16]}
        assert len(run_scenario_obj(scn)["results"]["points"]) == 3
        assert len(calls) == 1


class TestCorrelationsScenario:
    @pytest.mark.parametrize("state_sa, where, dims", [
        ({"purify": {"random": {"dim": 64, "seed": 1}}}, "$.state_sa.purify", "64 x 64 = 4096"),
        ({"product": {"system": {"gibbs": {}}, "ancilla": {"random": {"dim": 2, "seed": 1}}}},
         "$.state_sa.product", "64 x 2 = 128"),
    ], ids=["purify", "product"])
    def test_joint_dimension_beyond_the_cap_is_schema_error(self, state_sa, where, dims,
                                                             tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("joint state built before the cap check")

        monkeypatch.setattr(cli, "purify", refuse)
        monkeypatch.setattr(cli.np, "kron", refuse)
        scn = {"kind": "correlations", "beta": 1.0, "state_sa": state_sa,
               "hamiltonian": {"random": {"dim": 64, "seed": 2}}}
        assert run_scenario(write(tmp_path, scn)) == EXIT_SCHEMA
        assert (f"{where}: joint dimension {dims} exceeds the cap 64"
                in capsys.readouterr().err)

    def test_joint_dimension_at_the_cap_runs(self, tmp_path):
        scn = {"kind": "correlations", "beta": 1.0,
               "state_sa": {"purify": {"random": {"dim": 8, "seed": 1}}},
               "hamiltonian": {"random": {"dim": 8, "seed": 2}}}
        assert run_scenario(write(tmp_path, scn), str(tmp_path / "out.json")) == EXIT_OK

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

    # delta is S(rho_S) on a purification and 0 on a product; the thermal
    # qubit of diag(-1, 1) at beta 0.7 has S = ln(2 cosh 0.7) - 0.7 tanh 0.7
    @pytest.mark.parametrize("state_sa, delta", [
        ({"purify": {"gibbs": {}}}, math.log(2 * math.cosh(0.7)) - 0.7 * math.tanh(0.7)),
        ({"product": {"system": {"gibbs": {}},
                      "ancilla": {"random": {"dim": 3, "seed": 2}}}}, 0.0),
    ], ids=["purify", "product.system"])
    def test_gibbs_system_state(self, state_sa, delta):
        scn = {"kind": "correlations", "beta": 0.7, "state_sa": state_sa,
               "hamiltonian": {"diag": [-1.0, 1.0]}}
        res = run_scenario_obj(scn)["results"]
        # a state diagonal in the energy basis holds nothing to extract
        assert res["system_work"] == pytest.approx(0.0, abs=1e-12)
        assert res["delta"] == pytest.approx(delta, abs=1e-10)

    def test_gibbs_ancilla_needs_a_hamiltonian(self, tmp_path, capsys):
        scn = {"kind": "correlations", "beta": 1.0,
               "state_sa": {"product": {"system": {"bloch": {"a": 0.7, "theta": 0.5}},
                                        "ancilla": {"gibbs": {}}}},
               "hamiltonian": {"diag": [-1.0, 1.0]}}
        assert run_scenario(write(tmp_path, scn)) == EXIT_SCHEMA
        assert ("$.state_sa.product.ancilla.gibbs: needs a hamiltonian"
                in capsys.readouterr().err)

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

    def test_one_branch_contraction(self, monkeypatch):
        # delta_correlation and verify_lemma1 share the branch sum
        calls = []
        einsum = np.einsum

        def counting(subscripts, *operands, **kwargs):
            calls.append(subscripts)
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", counting)
        scn = {"kind": "correlations", "beta": 1.0,
               "state_sa": {"purify": {"random": {"dim": 3, "seed": 6}}},
               "hamiltonian": {"random": {"dim": 3, "seed": 7}}}
        run_scenario_obj(scn)
        assert calls.count("ik,iajb,jk->kab") == 1


class TestMain:
    def test_run_subcommand(self, tmp_path, capsys):
        path = write(tmp_path, canonical_project_scenario())
        assert main(["run", path]) == EXIT_OK
        capsys.readouterr()

    def test_schema_subcommand(self, capsys):
        assert main(["schema"]) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert "scenario" in doc and "report" in doc

    @pytest.mark.parametrize("passed, code", [(True, EXIT_OK), (False, EXIT_SELFTEST)])
    def test_self_test_exit_code(self, monkeypatch, passed, code):
        import coherework.acceptance

        monkeypatch.setattr(coherework.acceptance, "self_test",
                            lambda echo, verbose: passed)
        assert main(["self-test"]) == code
        assert main(["self-test", "--verbose"]) == code

    def test_out_flag(self, tmp_path):
        path = write(tmp_path, canonical_project_scenario())
        out = tmp_path / "report.json"
        assert main(["run", path, "--out", str(out)]) == EXIT_OK
        assert json.loads(out.read_text())["results"]["work"] > 0


class TestParser:
    def test_main_builds_one_parser(self, tmp_path, capsys):
        cli._parser.cache_clear()
        path = write(tmp_path, canonical_project_scenario())
        for argv in (["run", path], ["schema"], ["run", path]):
            assert main(argv) == EXIT_OK
        capsys.readouterr()
        assert cli._parser.cache_info().misses == 1
        assert cli._parser() is cli._parser()

    def test_no_argument_state_leaks_between_calls(self, tmp_path, capsys):
        path = write(tmp_path, canonical_project_scenario())
        out = tmp_path / "report.json"
        assert main(["run", path, "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert main(["run", path]) == EXIT_OK
        assert capsys.readouterr().out.encode() == out.read_bytes()

    @pytest.mark.parametrize("argv", [[], ["bogus"]], ids=["no-command", "bogus"])
    def test_usage_error_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_SCHEMA
        assert capsys.readouterr().err.startswith("usage: coherework")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: coherework")


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

    @pytest.mark.parametrize("scn", [
        {"kind": "project", "beta": 1e-310},
        {"kind": "singleshot", "beta": 5e-324, "eps": 0.05, "n_copies": [4]},
    ], ids=["project", "singleshot"])
    def test_vanishing_beta_work_is_non_finite_error(self, tmp_path, capsys, scn):
        # T*dS overflows: the error names the infinite term instead of
        # failing the energy balance by inf - inf = nan
        scn = {**scn, "hamiltonian": {"diag": [0.0, 1.0]},
               "state": {"bloch": {"a": 0.8, "theta": 1.0}}}
        assert main(["run", write(tmp_path, scn)]) == EXIT_PHYSICS
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("NonFiniteError: ")
        assert "first law" in err[0]

    def test_protocol_at_the_entry_bound_runs(self, tmp_path, capsys):
        # the plan's commutator products would overflow at H0's scale
        scn = {"kind": "protocol", "beta": 1e-150,
               "hamiltonian": {"matrix": [[[1e150, 0], [1e150, 1e150]],
                                          [[1e150, -1e150], [-1e150, 0]]]},
               "state": {"random": {"dim": 2, "seed": 3}}}
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["run", write(tmp_path, scn)]) == EXIT_OK
        results = json.loads(capsys.readouterr().out)["results"]
        assert results["w_opt"] == pytest.approx(5.003e146, rel=1e-3)
        assert results["exact"]["totals"]["work"] == pytest.approx(
            results["w_opt"], rel=1e-9)

    def test_first_law_violation_is_physics_error(self, tmp_path, monkeypatch, capsys):
        from coherework.projection import WorkReport

        monkeypatch.setitem(cli._RUNNERS, "project",
                            lambda scn, seeds: WorkReport(work=1.0, entropy_change=0.0,
                                                          energy_change=1.0, heat_absorbed=0.0))
        assert run_scenario(write(tmp_path, canonical_project_scenario())) == EXIT_PHYSICS
        assert "ConsistencyError" in capsys.readouterr().err


def _run_strict(tmp_path, capsys, scn):
    """Exit code and stderr lines of ``coherework run`` with RuntimeWarnings
    raised; the report goes to ``report.json`` in ``tmp_path``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["run", write(tmp_path, scn), "--out", str(tmp_path / "report.json")])
    return code, capsys.readouterr().err.splitlines()


def _results(tmp_path):
    return json.loads((tmp_path / "report.json").read_text())["results"]


_H2 = [[[2 ** -0.5, 0], [2 ** -0.5, 0]], [[2 ** -0.5, 0], [-(2 ** -0.5), 0]]]


class TestEdgeInputs:
    """Inputs at the edges of the schema end in a result or one typed error line."""

    def test_high_temperature_protocol_runs(self, tmp_path, capsys):
        # the isotherm work differs terms T S of about 1.1e8; a ledger scale of
        # max|e| = 1.625 failed the first law by 9.9e-9
        scn = {"kind": "protocol", "beta": 1e-8, "state": {"gibbs": {}},
               "hamiltonian": {"diag": [0.0, 0.25, 1.625]}}
        assert _run_strict(tmp_path, capsys, scn) == (EXIT_OK, [])

    def test_basis_entry_at_the_entry_bound_is_not_unitary(self, tmp_path, capsys):
        # is_unitary answers before forming b^dag b, which would overflow
        scn = {**canonical_project_scenario(),
               "projectors": {"basis": [[[1e150, 0], [0, 0]], [[0, 0], [1, 0]]]}}
        code, err = _run_strict(tmp_path, capsys, scn)
        assert (code, len(err)) == (EXIT_PHYSICS, 1)
        assert err[0].startswith("NotUnitaryError: ")

    def test_overflowing_beta_e_is_non_finite(self, tmp_path, capsys):
        # beta E of 1e312 overflows before thermal shifts by its largest exponent
        scn = {"kind": "project", "beta": 1e300, "state": {"gibbs": {}},
               "hamiltonian": {"diag": [1e12, 2e12]}}
        code, err = _run_strict(tmp_path, capsys, scn)
        assert (code, len(err)) == (EXIT_PHYSICS, 1)
        assert err[0] == ("NonFiniteError: thermal: beta * E overflows a double "
                          "(beta = 1e+300, max |E| = 2e+12)")

    @pytest.mark.parametrize("lhs, side", [(None, "left side <e^(beta W)>"),
                                           (1.0, "right side e^(-beta dF) = e^999.687")],
                             ids=["lhs", "rhs"])
    def test_overflowing_jarzynski_side_is_non_finite(self, tmp_path, capsys, monkeypatch,
                                                      lhs, side):
        # beta (F0 - Ftau) is about 999.7, beyond ln of the largest double (709.78)
        if lhs is not None:
            monkeypatch.setattr(cli, "jarzynski_average", lambda table: lhs)
        h = 2 ** -0.5
        scn = {"kind": "jarzynski", "beta": 1.0, "hamiltonian": {"diag": [0.0, 1.0]},
               "hamiltonian_final": {"diag": [0.0, -1000.0]},
               "unitary": {"matrix": [[[h, 0], [h, 0]], [[h, 0], [-h, 0]]]}}
        code, err = _run_strict(tmp_path, capsys, scn)
        assert (code, len(err)) == (EXIT_PHYSICS, 1)
        assert err[0].startswith("NonFiniteError: ")
        assert f"the {side}" in err[0] and "overflows a double" in err[0]

    def test_beta_e_beyond_a_double_is_a_zero_weight(self, tmp_path, capsys):
        # beta E = 1e312 overflows to a log weight of -inf; the impossible jump
        # from that level adds 0 although beta dE is -inf too
        scn = {"kind": "jarzynski", "beta": 1e300, "hamiltonian": {"diag": [0.0, 1e12]},
               "unitary": {"matrix": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}}
        assert _run_strict(tmp_path, capsys, scn) == (EXIT_OK, [])
        results = _results(tmp_path)
        assert results["jarzynski_lhs"] == results["jarzynski_rhs"] == 1.0

    def test_beta_e_beyond_a_double_keeps_a_possible_jump(self, tmp_path, capsys):
        # ln p = -inf of the jump down from the upper level meets beta dE =
        # -inf, but that jump has mass 1/2 and carries half of the average
        scn = {"kind": "jarzynski", "beta": 1e300, "hamiltonian": {"diag": [0.0, 1e12]},
               "unitary": {"matrix": _H2}}
        assert _run_strict(tmp_path, capsys, scn) == (EXIT_OK, [])
        results = _results(tmp_path)
        assert results["jarzynski_lhs"] == pytest.approx(results["jarzynski_rhs"], abs=1e-12)

    def test_sampled_weight_beyond_a_double_is_zero(self, tmp_path, capsys):
        # beta W = -1e312 for the jump up, e^(beta W) = 0
        scn = {"kind": "jarzynski", "beta": 1e300, "hamiltonian": {"diag": [0.0, 0.0]},
               "hamiltonian_final": {"diag": [0.0, 1e12]}, "unitary": {"matrix": _H2},
               "n_samples": 100, "seed": 1}
        assert _run_strict(tmp_path, capsys, scn) == (EXIT_OK, [])
        sampling = _results(tmp_path)["sampling"]
        assert 0.0 < sampling["exp_beta_w_estimate"] < 1.0

    def test_standard_error_with_squares_beyond_a_double(self, tmp_path, capsys):
        # e^(beta W) reaches e^400, so its squared deviations overflow; the
        # standard error, about e^400 / 10, does not
        scn = {"kind": "jarzynski", "beta": 1.0, "hamiltonian": {"diag": [0.0, 1.0]},
               "hamiltonian_final": {"diag": [-400.0, 0.0]}, "unitary": {"matrix": _H2},
               "n_samples": 100, "seed": 1}
        assert _run_strict(tmp_path, capsys, scn) == (EXIT_OK, [])
        report = json.loads((tmp_path / "report.json").read_text())
        histogram = report["series"][0]
        # the same spread in units of e^400
        x = np.exp(-np.array(histogram["x"]) - 400.0)
        c = np.array(histogram["y"])
        mean = c @ x / 100
        se = math.sqrt(c @ (x - mean) ** 2 / 99) / 10
        assert report["results"]["sampling"]["exp_beta_w_std_error"] == pytest.approx(
            se * math.exp(400.0), rel=1e-12)

    @staticmethod
    def _sampled(level):
        return {"kind": "jarzynski", "beta": 1.0, "hamiltonian": {"diag": [0.0, 1.0]},
                "hamiltonian_final": {"diag": [level, 0.0]}, "unitary": {"matrix": _H2},
                "n_samples": 10000, "seed": 1}

    def test_sampled_mean_of_a_sum_beyond_a_double_is_reported(self, tmp_path, capsys):
        # the count-weighted sum of e^(beta W) = e^705 over about half of the
        # draws overflows a double, but its mean, about 1.1e306, does not
        assert _run_strict(tmp_path, capsys, self._sampled(-705.0)) == (EXIT_OK, [])
        results = _results(tmp_path)
        sampling = results["sampling"]
        assert math.isfinite(sampling["exp_beta_w_std_error"])
        assert abs(sampling["exp_beta_w_estimate"] - results["jarzynski_lhs"]) <= (
            3.0 * sampling["exp_beta_w_std_error"])

    def test_sampled_mean_beyond_a_double_is_one_typed_error(self, tmp_path, capsys):
        # e^710 is beyond a double, so the mean is too; one typed line, with no warning
        code, err = _run_strict(tmp_path, capsys, self._sampled(-710.0))
        assert (code, len(err)) == (EXIT_PHYSICS, 1)
        assert err[0].startswith("NonFiniteError: ")

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ln p = -1e300 - ln 2 of the jump from the upper level rounds "
                              "to -1e300 and cancels against beta dE = -1e300, so that "
                              "jump adds 1 instead of 0.5; the cancellation-free sum moves "
                              "jarzynski_lhs bits (schema v2)")
    def test_jarzynski_sides_agree_at_a_cancelling_beta_de(self, tmp_path, capsys):
        scn = {"kind": "jarzynski", "beta": 1e300, "hamiltonian": {"diag": [0.0, 1.0]},
               "hamiltonian_final": {"diag": [0.0, 1e12]}, "unitary": {"matrix": _H2}}
        assert _run_strict(tmp_path, capsys, scn) == (EXIT_OK, [])
        results = _results(tmp_path)
        assert results["jarzynski_lhs"] == pytest.approx(results["jarzynski_rhs"], abs=1e-12)


def test_tolerances_come_from_the_library_constants():
    from coherework.linalg import CLUSTER_GAP, DEFAULT_TOL
    from coherework.states import EIGENVALUE_FLOOR

    # "plan" is a v1 report field that no check reads: it has no library constant
    assert cli.TOLERANCES == {"hermitian": DEFAULT_TOL, "projector": DEFAULT_TOL,
                              "cluster_gap": CLUSTER_GAP,
                              "eigenvalue_floor": EIGENVALUE_FLOOR, "plan": 1e-8}
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
