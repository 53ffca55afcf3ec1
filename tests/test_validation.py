"""One definition per input rule: the scenario-kind schemas, the ``[re, im]``
parser, the dimension check, and the energy-level rule they feed, which keeps
every report through ``main`` covariant under a change of energy unit."""

import contextlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherework.cli import EXIT_OK, EXIT_PHYSICS, EXIT_SCHEMA, ScenarioError, _complex_matrix, main
from coherework import errors
from coherework.errors import CohereworkError, DimMismatchError
from coherework.linalg import require_same_dim
from coherework.sampling import random_unitary

PINNED = Path(__file__).parent / "golden" / "pinned"

BLOCH = {"bloch": {"a": 0.8, "theta": 1.0}}
# the projection work of BLOCH in the energy basis at beta = 1: T dS
BLOCH_WORK = 0.13923656157578923


def _main(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _run(tmp_path, scn):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(scn))
    return _main(["run", str(path)])


def test_schema_bytes_are_pinned():
    code, out, _ = _main(["schema"])
    assert code == EXIT_OK
    assert out.encode() == (PINNED / "schema.json").read_bytes()


# per kind: a wrong value for every field, and a right one
_FIELDS = {
    "beta": (-1.0, 1.0),
    "state": ("x", BLOCH),
    "hamiltonian": ([], {"diag": [0.0, 1.0]}),
    "projectors": (5, "energy"),
    "steps": ([0], [10]),
    "purity_clamp": (1.0, 1e-6),
    "a": (2.0, 0.5),
    "thetas": ([], [0.0]),
    "hamiltonian_final": (1, {"diag": [0.0, 2.0]}),
    "unitary": ({}, {"random": {"dim": 2, "seed": 0}}),
    "n_samples": (0, 10),
    "seed": (-1, 0),
    "eps": (1.0, 0.1),
    "n_copies": ([0], [2]),
    "state_sa": ({}, {"purify": BLOCH}),
}
_REQUIRED = {
    "project": ["beta", "state", "hamiltonian"],
    "protocol": ["beta", "state", "hamiltonian"],
    "bound_scan": ["a", "thetas"],
    "jarzynski": ["beta", "hamiltonian", "unitary"],
    "singleshot": ["beta", "state", "hamiltonian", "eps", "n_copies"],
    "correlations": ["beta", "state_sa", "hamiltonian"],
}
_OPTIONAL = {
    "project": ["projectors"],
    "protocol": ["steps", "purity_clamp"],
    "bound_scan": [],
    "jarzynski": ["hamiltonian_final", "n_samples", "seed"],
    "singleshot": ["purity_clamp"],
    "correlations": ["projectors"],
}

# recorded before the kind schemas were built by one helper: the required
# fields are reported missing in this order, then the wrong values in this one
_ERRORS = {
    "project": [
        "$.beta: required field missing",
        "$.state: required field missing",
        "$.hamiltonian: required field missing",
        "$.beta: must be > 0, got -1.0",
        "$.state: expected object, got str",
        "$.hamiltonian: expected object, got list",
        "$.projectors: no schema alternative matched (closest errors: $.projectors: "
        "expected string, got int | $.projectors: expected object, got int)",
    ],
    "protocol": [
        "$.beta: required field missing",
        "$.state: required field missing",
        "$.hamiltonian: required field missing",
        "$.beta: must be > 0, got -1.0",
        "$.state: expected object, got str",
        "$.hamiltonian: expected object, got list",
        "$.steps[0]: must be >= 1, got 0",
        "$.purity_clamp: must be <= 0.001, got 1.0",
    ],
    "bound_scan": [
        "$.a: required field missing",
        "$.thetas: required field missing",
        "$.a: must be <= 1, got 2.0",
        "$.thetas: needs at least 1 items, got 0",
    ],
    "jarzynski": [
        "$.beta: required field missing",
        "$.hamiltonian: required field missing",
        "$.unitary: required field missing",
        "$.beta: must be > 0, got -1.0",
        "$.hamiltonian: expected object, got list",
        "$.hamiltonian_final: expected object, got int",
        "$.unitary: no schema alternative matched (closest errors: $.unitary.matrix: "
        "required field missing | $.unitary.random: required field missing)",
        "$.n_samples: must be >= 1, got 0",
        "$.seed: must be >= 0, got -1",
    ],
    "singleshot": [
        "$.beta: required field missing",
        "$.state: required field missing",
        "$.hamiltonian: required field missing",
        "$.eps: required field missing",
        "$.n_copies: required field missing",
        "$.beta: must be > 0, got -1.0",
        "$.state: expected object, got str",
        "$.hamiltonian: expected object, got list",
        "$.eps: must be < 1, got 1.0",
        "$.n_copies[0]: must be >= 1, got 0",
        "$.purity_clamp: must be <= 0.001, got 1.0",
    ],
    "correlations": [
        "$.beta: required field missing",
        "$.state_sa: required field missing",
        "$.hamiltonian: required field missing",
        "$.beta: must be > 0, got -1.0",
        "$.state_sa: no schema alternative matched (closest errors: $.state_sa.matrix: "
        "required field missing | $.state_sa.purify: required field missing | "
        "$.state_sa.product: required field missing)",
        "$.hamiltonian: expected object, got list",
        "$.projectors: no schema alternative matched (closest errors: $.projectors: "
        "expected string, got int | $.projectors: expected object, got int)",
    ],
}


@pytest.mark.parametrize("kind", sorted(_ERRORS))
def test_each_kind_reports_its_fields_in_order(kind, tmp_path):
    # start with every optional field wrong and every required one missing;
    # add each field reported missing (wrong), then mend each reported one
    scn = {"kind": kind, **{f: _FIELDS[f][0] for f in _OPTIONAL[kind]}}
    seen = []
    while True:
        code, _, err = _run(tmp_path, scn)
        if code != EXIT_SCHEMA:
            break
        assert err.startswith("schema violation: ") and err.endswith("\n")
        message = err[len("schema violation: "):-1]
        seen.append(message)
        field = message[2:].split(":")[0].split(".")[0].split("[")[0]
        missing = message.endswith("required field missing")
        scn[field] = _FIELDS[field][0 if missing else 1]
        assert len(seen) <= len(_ERRORS[kind])
    assert seen == _ERRORS[kind]
    assert set(scn) == {"kind", *_REQUIRED[kind], *_OPTIONAL[kind]}


def _per_entry(node):
    """The reference parse: one complex(re, im) per entry."""
    return np.array([[complex(e[0], e[1]) for e in row] for row in node], dtype=complex)


_EDGE_VALUES = [0, 1, -7, 0.0, -0.0, 2**53 + 1, -(2**53 + 1), 2**70 + 1, 2**1000 + 12345,
                1e150, -1e150, 5e-324, -5e-324, 2.2250738585072014e-308, 0.1, 1 / 3]


def test_complex_matrix_equals_per_entry_complex_on_edge_values():
    pairs = [[re, im] for re in _EDGE_VALUES for im in _EDGE_VALUES]
    node = [pairs[i:i + 16] for i in range(0, len(pairs), 16)]
    got = _complex_matrix(node, "$.m")
    want = _per_entry(node)
    assert got.shape == want.shape == (16, 16) and got.dtype == complex
    assert got.tobytes() == want.tobytes()


def test_complex_matrix_equals_per_entry_complex_on_random_64x64():
    rng = np.random.default_rng(3)
    node = rng.normal(scale=10.0, size=(64, 64, 2)).tolist()
    assert _complex_matrix(node, "$.m").tobytes() == _per_entry(node).tobytes()


def test_complex_matrix_reports_a_ragged_row():
    message = r"^\$\.m\[1\]: ragged matrix row \(expected 2 entries\)$"
    with pytest.raises(ScenarioError, match=message):
        _complex_matrix([[[1, 0], [0, 0]], [[0, 0]]], "$.m")


class TestRequireSameDim:
    def test_equal_dimensions_pass(self):
        require_same_dim("f", a=3)
        require_same_dim("f", a=3, b=3, c=3)
        require_same_dim("f", a=(2, 4), b=(2, 4))

    @pytest.mark.parametrize("odd", range(3))
    def test_any_one_different_raises_naming_every_operand(self, odd):
        dims = {name: 2 if i == odd else 3 for i, name in enumerate(["state", "H", "projectors"])}
        listed = ", ".join(f"{name} {d}" for name, d in dims.items())
        with pytest.raises(DimMismatchError) as info:
            require_same_dim("optimal_projection_work", **dims)
        assert str(info.value) == f"optimal_projection_work: dimensions differ ({listed})"

    def test_shapes_are_named_as_shapes(self):
        message = r"^t: dimensions differ \(V \(2, 3\), H \(2, 2\)\)$"
        with pytest.raises(DimMismatchError, match=message):
            require_same_dim("t", V=(2, 3), H=(2, 2))


@pytest.mark.parametrize("kind, extra", [("protocol", {}),
                                         ("singleshot", {"eps": 0.05, "n_copies": [4]})])
def test_state_and_hamiltonian_of_different_dimension_is_dim_mismatch(kind, extra, tmp_path):
    scn = {"kind": kind, "beta": 1.0, "state": {"random": {"dim": 3, "seed": 1}},
           "hamiltonian": {"diag": [0.0, 1.0]}, **extra}
    code, _, err = _run(tmp_path, scn)
    assert code == EXIT_PHYSICS
    assert err.startswith("DimMismatchError: ") and "dimensions differ (state 3, H 2" in err


class TestLevelsIgnoreUnitAndZero:
    def test_small_energy_scale_keeps_its_two_levels(self, tmp_path):
        scn = {"kind": "project", "beta": 1e9, "state": BLOCH,
               "hamiltonian": {"diag": [0.0, 1e-9]}}
        code, out, _ = _run(tmp_path, scn)
        assert code == EXIT_OK
        assert json.loads(out)["results"]["work"] == pytest.approx(BLOCH_WORK * 1e-9, rel=1e-9)

    @pytest.mark.parametrize("offset", [1e5, 1e7])
    def test_energy_offset_keeps_two_levels(self, offset, tmp_path):
        scn = {"kind": "project", "beta": 1.0, "state": BLOCH,
               "hamiltonian": {"diag": [offset, offset + 1e-3]}}
        code, out, _ = _run(tmp_path, scn)
        assert code == EXIT_OK
        assert json.loads(out)["results"]["work"] == pytest.approx(BLOCH_WORK, rel=1e-9)

    def test_protocol_at_an_offset_agrees_with_its_ledger(self, tmp_path):
        scn = {"kind": "protocol", "beta": 1.0, "state": BLOCH, "steps": [10],
               "hamiltonian": {"diag": [1e5, 1e5 + 1e-3]}}
        code, out, _ = _run(tmp_path, scn)
        assert code == EXIT_OK
        results = json.loads(out)["results"]
        assert results["w_opt"] == pytest.approx(BLOCH_WORK, rel=1e-9)
        assert results["exact"]["totals"]["work"] == pytest.approx(BLOCH_WORK, rel=1e-9)


# ---------------------------------------------------------------------------
# units through main: (sH, beta/s) is the same physics in units s times larger

# result keys that hold an energy; every other number is dimensionless
_ENERGY_KEYS = {"work", "heat_absorbed", "energy_change", "w_opt", "average_unitary_work",
                "projection_heat", "projection_extra_work", "work_estimate",
                "work_std_error", "system_work", "global_work"}
# per series label: whether its x and its y hold energies
_ENERGY_SERIES = {"abs_work_error_vs_steps": (False, True), "consistency_work": (False, True),
                  "delta_e_histogram": (True, False)}


def _hamiltonian(rng, d):
    """A random explicit Hamiltonian node, ``diag`` or ``matrix``, as a
    function of the factor its entries are scaled by."""
    if rng.random() < 0.5:
        e = rng.uniform(-1.0, 1.0, d)
        return lambda f: {"diag": [f * x for x in e]}
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 4.0  # exactly Hermitian
    return lambda f: {"matrix": [[[f * z.real, f * z.imag] for z in row] for row in h]}


def _unit_scenario(kind, rng, d):
    """The scenario of ``kind`` in units scaled by a factor f: (fH, beta/f)."""
    beta = float(np.exp(rng.uniform(np.log(0.2), np.log(5.0))))
    ham = _hamiltonian(rng, d)
    seed = lambda: int(rng.integers(1000))
    state = {"random": {"dim": d, "seed": seed()}} if rng.random() < 0.8 else {"gibbs": {}}
    basis = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    projectors = ("energy" if rng.random() < 0.5 else
                  {"basis": [[[z.real, z.imag] for z in row] for row in basis]})
    if kind == "project":
        extra = {"state": state, "projectors": projectors}
    elif kind == "protocol":
        extra = {"state": state, "steps": [10, 40]}
    elif kind == "jarzynski":
        extra = {"unitary": {"random": {"dim": d, "seed": seed()}},
                 "n_samples": 200, "seed": seed()}
        if rng.random() < 0.5:
            extra["hamiltonian_final"] = _hamiltonian(rng, d)
    elif kind == "singleshot":
        extra = {"state": state, "eps": 0.05, "n_copies": [2, 8]}
    else:
        ancilla = {"random": {"dim": int(rng.integers(2, 4)), "seed": seed()}}
        extra = {"projectors": projectors,
                 "state_sa": ({"purify": state} if rng.random() < 0.5 else
                              {"product": {"system": state, "ancilla": ancilla}})}
    return lambda f: {"kind": kind, "beta": beta / f, "hamiltonian": ham(f),
                      **{k: v(f) if callable(v) else v for k, v in extra.items()}}


def _assert_rescaled(x, y, s, energy=False):
    """``y`` is ``x`` in units s times larger: energies scale by s, to 1e-9
    relative, and every other value stays."""
    if isinstance(x, dict):
        assert x.keys() == y.keys()
        for key in x:
            _assert_rescaled(x[key], y[key], s, key in _ENERGY_KEYS)
    elif isinstance(x, list):
        assert len(x) == len(y)
        for a, b in zip(x, y):
            _assert_rescaled(a, b, s, energy)
    elif isinstance(x, (int, float)) and not isinstance(x, bool):
        # a report prints 0.0 as 0, so the types of x and y may differ
        want, unit = (s * x, s) if energy else (x, 1.0)
        assert abs(y - want) <= 1e-9 * unit * max(1.0, abs(x)), (x, y, s)
    else:
        assert x == y


@pytest.mark.parametrize("kind", ["project", "protocol", "jarzynski", "singleshot",
                                  "correlations"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), d=st.integers(2, 4), log_s=st.floats(-12.0, 9.0))
def test_units_of_energy_rescale_every_report_through_main(kind, seed, d, log_s,
                                                           tmp_path_factory):
    scenario = _unit_scenario(kind, np.random.default_rng(seed), d)
    s = 10.0 ** log_s
    path = tmp_path_factory.mktemp("units") / "scn.json"
    reports = []
    for f in (1.0, s):
        path.write_text(json.dumps(scenario(f)))
        code, out, err = _main(["run", str(path)])
        assert code == EXIT_OK, err
        reports.append(json.loads(out))
    base, scaled = reports
    _assert_rescaled(base["results"], scaled["results"], s)
    assert [r["label"] for r in base["series"]] == [r["label"] for r in scaled["series"]]
    for a, b in zip(base["series"], scaled["series"]):
        x_energy, y_energy = _ENERGY_SERIES[a["label"]]
        _assert_rescaled(a["x"], b["x"], s, x_energy)
        _assert_rescaled(a["y"], b["y"], s, y_energy)


# jarzynski scenarios through main at the edges of the schema's numbers

_EDGE_LEVELS = [0.0, 1e-300, -1e-300, 1.0, -1.0, 1e5, -1e5, 1e12, -1e12, 1e150, -1e150]


@st.composite
def edge_jarzynski_scenarios(draw):
    """A jarzynski scenario with beta over 10^[-300, 300], levels from the
    edges or the normal range, and V the identity, the Fourier matrix (a
    Hadamard for d = 2), a random unitary or one with a column scaled by
    1 +- 2e-10; the final Hamiltonian and the sampling are optional."""
    d = draw(st.integers(1, 4))
    levels = st.lists(st.one_of(st.sampled_from(_EDGE_LEVELS), st.floats(-10.0, 10.0)),
                      min_size=d, max_size=d)
    form = draw(st.sampled_from(["identity", "fourier", "random", "scaled"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if form == "identity":
        v = np.eye(d)
    elif form == "fourier":
        v = np.fft.fft(np.eye(d)) / np.sqrt(d)
    else:
        v = random_unitary(d, rng)
        if form == "scaled":
            v[:, rng.integers(d)] *= 1.0 + draw(st.sampled_from([2e-10, -2e-10]))
    log_beta = st.one_of(st.sampled_from([-300.0, 300.0]), st.floats(-300.0, 300.0))
    scn = {"kind": "jarzynski", "beta": 10.0 ** draw(log_beta),
           "hamiltonian": {"diag": draw(levels)},
           "unitary": {"matrix": [[[z.real, z.imag] for z in row] for row in v.astype(complex)]}}
    if draw(st.booleans()):
        scn["hamiltonian_final"] = {"diag": draw(levels)}
    if draw(st.booleans()):
        scn["n_samples"] = draw(st.integers(1, 1000))
        scn["seed"] = draw(st.integers(0, 1000))
    return scn


def _cannot_cancel(scn):
    """Whether every beta E of the scenario's levels is at most 1e4 in size or
    beyond a double: then no finite ln p rounds against beta dE, and the
    Jarzynski sides agree to the rounding of products of that size."""
    levels = scn["hamiltonian"]["diag"] + scn.get("hamiltonian_final", {"diag": []})["diag"]
    return all(abs(scn["beta"] * e) <= 1e4 or math.isinf(scn["beta"] * e) for e in levels)


def _numbers(node):
    """Every number in a parsed report node."""
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        return [x for item in node for x in _numbers(item)]
    return [node] if isinstance(node, (int, float)) and not isinstance(node, bool) else []


@settings(max_examples=200, deadline=None)
@given(scn=edge_jarzynski_scenarios())
def test_jarzynski_edge_inputs_end_in_a_result_or_one_typed_error(scn, tmp_path_factory):
    path = tmp_path_factory.mktemp("edge") / "scn.json"
    path.write_text(json.dumps(scn))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = _main(["run", str(path)])
    if code == EXIT_OK:
        assert err == ""
        report = json.loads(out)
        results = report["results"]
        assert all(math.isfinite(x) for x in _numbers([results, report["series"]]))
        if _cannot_cancel(scn):  # V's scaled column moves the sides apart by <= 4e-10
            assert results["jarzynski_lhs"] == pytest.approx(results["jarzynski_rhs"],
                                                             rel=1e-8, abs=1e-300)
        return
    lines = err.splitlines()
    assert code in (EXIT_SCHEMA, EXIT_PHYSICS) and len(lines) == 1, (code, err)
    if code == EXIT_SCHEMA:
        assert lines[0].startswith("schema violation: ")  # a ScenarioError
    else:
        name = lines[0].split(":", 1)[0]
        assert issubclass(getattr(errors, name, type(None)), CohereworkError), lines[0]
