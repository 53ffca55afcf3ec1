"""Scenario runner CLI.

``coherework run file.json`` parses a declarative scenario, dispatches to the
computation modules, and emits a deterministic JSON report (stdout or
``--out``). ``coherework self-test`` runs the built-in acceptance suite
(``--verbose`` adds each criterion's detail and time against its budget);
``coherework schema`` prints the schema both scenarios and reports are
validated against.

Exit codes: 0 success, 1 I/O failure, 2 schema violation (the message names
the offending field; size caps included) or a command-line usage error,
3 physics validation failure or a non-finite report value (the message
carries the library error name), 4 self-test failure.

``main(argv)`` may be called repeatedly in one process; it builds its
argument parser once, on the first call, and reuses it.

Reports are byte-stable: keys are sorted and floats printed with 17
significant digits, so identical (scenario, version) pairs produce identical
bytes.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import operator
import sys

import numpy as np

from . import __version__
from .correlations import BipartiteState, delta_correlation, global_optimal_work, verify_lemma1
from .errors import CohereworkError, NonFiniteError, StateValidationError
from .fluctuation import (
    average_unitary_work,
    jarzynski_average,
    projection_heat,
    sample_trajectories,
    transition_table,
)
from .linalg import CLUSTER_GAP, DEFAULT_TOL, as_matrix
from .projection import (
    ProjectorSet,
    energy_projectors,
    entropy_change_bound,
    optimal_projection_work,
    project,
)
from .protocol import (DEFAULT_PURITY_CLAMP, MAX_PURITY_CLAMP, build_plan, exact_step_works,
                       simulate)
from .sampling import random_density_matrix, random_hamiltonian, random_unitary
from .singleshot import consistency_work, smoothing_failure_probability
from .states import (
    EIGENVALUE_FLOOR,
    DensityMatrix,
    Hamiltonian,
    Temperature,
    bloch_qubit,
    free_energy,
    gibbs_state,
    purify,
    von_neumann_entropy,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_SCHEMA = 2
EXIT_PHYSICS = 3
EXIT_SELFTEST = 4

TOLERANCES = {
    "hermitian": DEFAULT_TOL,
    "projector": DEFAULT_TOL,
    "cluster_gap": CLUSTER_GAP,
    "eigenvalue_floor": EIGENVALUE_FLOOR,
    "plan": 1e-8,  # a v1 report field that no check reads
}


class ScenarioError(Exception):
    """Scenario or report does not match the schema; names the bad field."""


# ---------------------------------------------------------------------------
# schema document and mini-validator


# size caps, checked before anything is built: the documented working range
# of dense matrices, the length of every list a scenario sweeps over, and
# bounds on the work and memory a scenario may ask for
MAX_DIM = 64
MAX_SWEEP = 16  # entries of protocol steps and singleshot n_copies
MAX_THETAS = 1024
MAX_STEPS = 10**6
MAX_SAMPLES = 10**7

# a number leaf and an [re, im] pair: validate_schema checks a whole array of
# pairs in one scan
_NUMBER = {"type": "number"}
_PAIR = {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}
_VECTOR = {"type": "array", "items": _PAIR, "minItems": 1, "maxItems": MAX_DIM}
_MATRIX = {"type": "array", "items": _VECTOR, "minItems": 1, "maxItems": MAX_DIM}

_RANDOM_SCHEMA = {
    "type": "object",
    "required": ["dim", "seed"],
    "properties": {
        "dim": {"type": "integer", "minimum": 2, "maximum": MAX_DIM},
        "seed": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}


def _forms(**forms) -> list:
    """``oneOf`` branches, one per ``name=schema``: an object whose only field
    is ``name``. The order is kept: it orders the "closest errors" message."""
    return [{"required": [k], "properties": {k: s}, "additionalProperties": False}
            for k, s in forms.items()]


def _kind(name: str, required, **props) -> dict:
    """The schema of scenario kind ``name``: ``kind``, then ``required`` in
    order, must be present, and no field beyond ``props``. ``validate_schema``
    reports the first failure in the order of ``required`` and ``props``."""
    return {"type": "object", "required": ["kind", *required],
            "properties": {"kind": {"type": "string", "enum": [name]}, **props},
            "additionalProperties": False}


_STATE_SCHEMA = {
    "type": "object",
    "oneOf": _forms(
        matrix=_MATRIX,
        pure=_VECTOR,
        bloch={"type": "object", "required": ["a", "theta"],
               "properties": {"a": {"type": "number", "minimum": 0, "maximum": 1},
                              "theta": {"type": "number"}},
               "additionalProperties": False},
        gibbs={"type": "object", "additionalProperties": False},
        random=_RANDOM_SCHEMA,
    ),
}

_HAMILTONIAN_SCHEMA = {
    "type": "object",
    "oneOf": _forms(matrix=_MATRIX,
                    diag={"type": "array", "items": _NUMBER, "minItems": 1,
                          "maxItems": MAX_DIM},
                    random=_RANDOM_SCHEMA),
}

_UNITARY_SCHEMA = {"type": "object", "oneOf": _forms(matrix=_MATRIX, random=_RANDOM_SCHEMA)}

_PROJECTORS_SCHEMA = {
    "oneOf": [
        {"type": "string", "enum": ["energy"]},
        {"type": "object", "required": ["basis"],
         "properties": {"basis": _MATRIX},
         "additionalProperties": False},
    ],
}

_BETA_SCHEMA = {"type": "number", "exclusiveMinimum": 0}

# the fields the project, protocol and singleshot kinds share, in this order
_SYSTEM = {"beta": _BETA_SCHEMA, "state": _STATE_SCHEMA, "hamiltonian": _HAMILTONIAN_SCHEMA}
_PURITY_CLAMP = {"type": "number", "minimum": 0, "maximum": MAX_PURITY_CLAMP}

KIND_SCHEMAS = {
    "project": _kind("project", _SYSTEM, **_SYSTEM, projectors=_PROJECTORS_SCHEMA),
    "protocol": _kind(
        "protocol", _SYSTEM, **_SYSTEM,
        steps={"type": "array", "items": {"type": "integer", "minimum": 1, "maximum": MAX_STEPS},
               "minItems": 1, "maxItems": MAX_SWEEP},
        purity_clamp=_PURITY_CLAMP),
    "bound_scan": _kind("bound_scan", ["a", "thetas"],
                        a={"type": "number", "minimum": 0, "maximum": 1},
                        thetas={"type": "array", "items": _NUMBER, "minItems": 1,
                                "maxItems": MAX_THETAS}),
    "jarzynski": _kind(
        "jarzynski", ["beta", "hamiltonian", "unitary"],
        beta=_BETA_SCHEMA, hamiltonian=_HAMILTONIAN_SCHEMA, hamiltonian_final=_HAMILTONIAN_SCHEMA,
        unitary=_UNITARY_SCHEMA,
        n_samples={"type": "integer", "minimum": 1, "maximum": MAX_SAMPLES},
        seed={"type": "integer", "minimum": 0}),
    "singleshot": _kind(
        "singleshot", [*_SYSTEM, "eps", "n_copies"], **_SYSTEM,
        eps={"type": "number", "minimum": 0, "exclusiveMaximum": 1},
        n_copies={"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1,
                  "maxItems": MAX_SWEEP},
        purity_clamp=_PURITY_CLAMP),
    "correlations": _kind(
        "correlations", ["beta", "state_sa", "hamiltonian"],
        beta=_BETA_SCHEMA,
        state_sa={
            "type": "object",
            "oneOf": [
                {"required": ["matrix", "dims"],
                 "properties": {"matrix": _MATRIX,
                                "dims": {"type": "array",
                                         "items": {"type": "integer", "minimum": 1},
                                         "minItems": 2, "maxItems": 2}},
                 "additionalProperties": False},
                *_forms(purify=_STATE_SCHEMA,
                        product={"type": "object", "required": ["system", "ancilla"],
                                 "properties": {"system": _STATE_SCHEMA,
                                                "ancilla": _STATE_SCHEMA},
                                 "additionalProperties": False}),
            ],
        },
        hamiltonian=_HAMILTONIAN_SCHEMA,
        projectors=_PROJECTORS_SCHEMA),
}

SCENARIO_SCHEMA = {
    "$id": "coherework/scenario/v1",
    "oneOf": list(KIND_SCHEMAS.values()),
}

_SERIES_SCHEMA = {
    "type": "array",
    "items": {
        "type": "object",
        "required": ["label", "x", "y"],
        "properties": {
            "label": {"type": "string"},
            "x": {"type": "array", "items": _NUMBER},
            "y": {"type": "array", "items": _NUMBER},
        },
        "additionalProperties": False,
    },
}

REPORT_SCHEMA = {
    "$id": "coherework/report/v1",
    "type": "object",
    "required": ["scenario", "provenance", "results", "series"],
    "properties": {
        "scenario": {"type": "object"},
        "provenance": {
            "type": "object",
            "required": ["tool", "version", "seeds", "tolerances"],
            "properties": {
                "tool": {"type": "string"},
                "version": {"type": "string"},
                "seeds": {"type": "object"},
                "tolerances": {"type": "object"},
            },
            "additionalProperties": False,
        },
        "results": {"type": "object"},
        "series": _SERIES_SCHEMA,
    },
    "additionalProperties": False,
}

SCHEMA_DOCUMENT = {
    "title": "coherework scenario and report formats",
    "scenario": SCENARIO_SCHEMA,
    "report": REPORT_SCHEMA,
}

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
}

# the smallest integer that float() rounds to infinity: a "number" must be a
# double, so an integer literal at or beyond it is a schema violation
_INT_LIMIT = 2**1024 - 2**970


def _all_numbers(values) -> bool:
    """True when every entry of ``values`` passes :data:`_NUMBER`, in one scan.

    A False is not a verdict: the per-item check decides and words the error.
    """
    types = set(map(type, values))
    if types <= {float}:
        return True
    # min/max return NaN or the out-of-range int when either is present
    return (types <= {int, float}
            and -_INT_LIMIT < min(values) and max(values) < _INT_LIMIT)


def _all_items_valid(values: list, item_schema: dict) -> bool:
    """True when ``item_schema`` is :data:`_PAIR` and every entry passes it,
    decided in one scan; False (look item by item) otherwise."""
    return (item_schema == _PAIR and set(map(type, values)) <= {list}
            and set(map(len, values)) <= {2}
            and _all_numbers(list(itertools.chain.from_iterable(values))))


# (keyword, failing comparison, wording) of each numeric bound and item count,
# checked in this order
_BOUNDS = (("minimum", operator.lt, ">="), ("maximum", operator.gt, "<="),
           ("exclusiveMinimum", operator.le, ">"), ("exclusiveMaximum", operator.ge, "<"))
_COUNTS = (("minItems", operator.lt, "at least"), ("maxItems", operator.gt, "at most"))


def validate_schema(value, schema: dict, path: str = "$"):
    """Validate ``value`` against the subset of JSON Schema used here.

    ``path`` names ``value`` in messages. Raises :class:`ScenarioError`
    naming the first offending field.
    """
    # the type applies before any alternative: no oneOf branch names one
    typ = schema.get("type")
    if typ is not None and not _TYPE_CHECKS[typ](value):
        raise ScenarioError(f"{path}: expected {typ}, got {type(value).__name__}")
    if "oneOf" in schema:
        errors = []
        for branch in schema["oneOf"]:
            try:
                validate_schema(value, branch, path)
                return
            except ScenarioError as exc:
                # a branch whose required fields are all present is the one
                # meant (no closure over value: it would slow every call)
                meant = isinstance(value, dict) and value.keys() >= set(
                    branch.get("required", ()))
                errors.append((not meant, str(exc)))
        errors.sort(key=lambda e: e[0])
        raise ScenarioError(
            f"{path}: no schema alternative matched "
            f"(closest errors: {' | '.join(e for _, e in errors[:3])})"
        )
    if typ == "number" and isinstance(value, int) and not -_INT_LIMIT < value < _INT_LIMIT:
        raise ScenarioError(f"{path}: integer too large for a double")
    if "enum" in schema and value not in schema["enum"]:
        raise ScenarioError(f"{path}: must be one of {schema['enum']}, got {value!r}")
    # keyword checks apply by the value's actual type, as in JSON Schema
    if _TYPE_CHECKS["number"](value):
        for keyword, fails, wording in _BOUNDS:
            if keyword in schema and fails(value, schema[keyword]):
                raise ScenarioError(f"{path}: must be {wording} {schema[keyword]}, got {value}")
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ScenarioError(f"{path}.{key}: required field missing")
        props = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in props:
                    raise ScenarioError(f"{path}.{key}: unknown field")
        for key, sub in props.items():
            if key in value:
                validate_schema(value[key], sub, f"{path}.{key}")
    if isinstance(value, list):
        for keyword, fails, wording in _COUNTS:
            if keyword in schema and fails(len(value), schema[keyword]):
                raise ScenarioError(
                    f"{path}: needs {wording} {schema[keyword]} items, got {len(value)}")
        item_schema = schema.get("items")
        if item_schema is not None and not _all_items_valid(value, item_schema):
            for i, item in enumerate(value):
                validate_schema(item, item_schema, f"{path}[{i}]")


def validate_scenario(obj):
    if not isinstance(obj, dict):
        raise ScenarioError("$: scenario must be a JSON object")
    kind = obj.get("kind")
    # a list or an object is unhashable: test the type before the lookup
    if not isinstance(kind, str) or kind not in KIND_SCHEMAS:
        raise ScenarioError(
            f"$.kind: must be one of {sorted(KIND_SCHEMAS)}, got {kind!r}"
        )
    validate_schema(obj, KIND_SCHEMAS[kind])


# ---------------------------------------------------------------------------
# deterministic report serialisation


_FLOAT_FORMAT = "%.17g"
_INDENT = 2

# json.dumps of a string with the default arguments, without its per-call setup
_quote = json.encoder.encode_basestring_ascii


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise NonFiniteError(f"non-finite float {x!r} cannot enter a report")
    return _FLOAT_FORMAT % x


# the deepest float array a report holds is an echoed [re, im] matrix; deeper
# nesting is left to the recursion, which keeps a pathological nesting linear
_BLOCK_MAX_DEPTH = 3


def _float_block(o: list):
    """``(shape, leaves)`` of a non-empty rectangular nested list of plain
    floats at most :data:`_BLOCK_MAX_DEPTH` deep (a series, or an echoed
    ``[re, im]`` matrix), else None.

    ``leaves`` lists the floats in document order; each level is checked with
    one scan over all of its entries.
    """
    shape = [len(o)]
    leaves = o
    while True:
        types = set(map(type, leaves))
        if types == {float}:
            return shape, leaves
        lengths = set(map(len, leaves)) if types == {list} else ()
        if len(lengths) != 1 or 0 in lengths or len(shape) == _BLOCK_MAX_DEPTH:
            return None
        shape.extend(lengths)
        leaves = list(itertools.chain.from_iterable(leaves))


def _block_template(shape, level: int) -> str:
    """The text of a :func:`_float_block` at nesting ``level`` with one
    :data:`_FLOAT_FORMAT` slot per float, laid out as ``dumps_stable`` does."""
    text = _FLOAT_FORMAT
    for depth in range(len(shape) - 1, -1, -1):
        pad = " " * (_INDENT * (level + depth + 1))
        closing = " " * (_INDENT * (level + depth))
        text = f"[\n{pad}" + f",\n{pad}".join([text] * shape[depth]) + f"\n{closing}]"
    return text


def _emit(o, level: int, out: list) -> None:
    """Append the ``dumps_stable`` text of ``o`` at nesting ``level`` to
    ``out``. A module-level function rather than a closure over itself, so
    a call leaves no reference cycle for the garbage collector."""
    pad = " " * (_INDENT * (level + 1))
    closing = " " * (_INDENT * level)
    if o is None:
        out.append("null")
    elif isinstance(o, bool):
        out.append("true" if o else "false")
    elif isinstance(o, (int, np.integer)):
        out.append(str(int(o)))
    elif isinstance(o, (float, np.floating)):
        out.append(_format_float(float(o)))
    elif isinstance(o, str):
        out.append(_quote(o))
    elif isinstance(o, (list, tuple, np.ndarray)):
        block = _float_block(o) if type(o) is list else None
        if block is not None:
            shape, leaves = block
            # any inf or nan makes the sum non-finite (so may an overflow
            # of finite floats: then the loop finds nothing to raise)
            if not math.isfinite(sum(leaves)):
                for x in leaves:
                    _format_float(x)
            out.append(_block_template(shape, level) % tuple(leaves))
            return
        items = list(o)
        if not items:
            out.append("[]")
            return
        out.append("[\n")
        for i, item in enumerate(items):
            out.append(pad)
            _emit(item, level + 1, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(closing + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        out.append("{\n")
        keys = sorted(o)
        for i, key in enumerate(keys):
            if not isinstance(key, str):
                raise ValueError(f"non-string report key {key!r}")
            out.append(pad + _quote(key) + ": ")
            _emit(o[key], level + 1, out)
            out.append(",\n" if i + 1 < len(keys) else "\n")
        out.append(closing + "}")
    else:
        raise ValueError(f"cannot serialise {type(o).__name__} into a report")


def dumps_stable(obj) -> str:
    """JSON text with sorted keys, 17-significant-digit floats and an indent
    of :data:`_INDENT` spaces per level."""
    out = []
    _emit(obj, 0, out)
    return "".join(out)


# ---------------------------------------------------------------------------
# scenario building blocks


def _complex_matrix(node, path: str) -> np.ndarray:
    """The complex matrix of a schema-valid list of rows of ``[re, im]`` pairs."""
    width = len(node[0])
    for i, row in enumerate(node):
        if len(row) != width:
            raise ScenarioError(f"{path}[{i}]: ragged matrix row (expected {width} entries)")
    # each [re, im] pair of doubles is one complex128 in memory
    return np.array(node, dtype=float).view(complex)[..., 0]


def _seeded_rng(node, path, seeds) -> np.random.Generator:
    """The generator of a ``random`` block, its seed recorded in ``seeds``."""
    seed = int(node["random"]["seed"])
    seeds[f"{path}.random"] = seed
    return np.random.default_rng(seed)


def _build_state(node, path, seeds, h: Hamiltonian | None, t: Temperature | None) -> DensityMatrix:
    if "matrix" in node:
        return DensityMatrix(_complex_matrix(node["matrix"], f"{path}.matrix"))
    if "pure" in node:
        # a 1 x d matrix, so as_matrix bounds the entries before the norm
        vec = as_matrix(_complex_matrix([node["pure"]], f"{path}.pure"))[0]
        norm = np.linalg.norm(vec)
        if norm <= 0.0:
            raise StateValidationError("pure state vector has zero norm")
        vec = vec / norm
        return DensityMatrix(np.outer(vec, vec.conj()))
    if "bloch" in node:
        return bloch_qubit(float(node["bloch"]["a"]), float(node["bloch"]["theta"]))
    if "gibbs" in node:
        if h is None or t is None:
            raise ScenarioError(f"{path}.gibbs: needs a hamiltonian and beta in scope")
        return gibbs_state(h, t)
    return random_density_matrix(int(node["random"]["dim"]), _seeded_rng(node, path, seeds))


def _build_hamiltonian(node, path, seeds) -> Hamiltonian:
    if "matrix" in node:
        return Hamiltonian(_complex_matrix(node["matrix"], f"{path}.matrix"))
    if "diag" in node:
        return Hamiltonian(np.diag(np.array(node["diag"], dtype=float)).astype(complex))
    return random_hamiltonian(int(node["random"]["dim"]), _seeded_rng(node, path, seeds))


def _build_unitary(node, path, seeds) -> np.ndarray:
    if "matrix" in node:
        return _complex_matrix(node["matrix"], f"{path}.matrix")
    return random_unitary(int(node["random"]["dim"]), _seeded_rng(node, path, seeds))


def _build_projectors(node, path, h: Hamiltonian) -> ProjectorSet:
    if node == "energy" or node is None:
        return energy_projectors(h)
    return ProjectorSet.from_basis(_complex_matrix(node["basis"], f"{path}.basis"))


def _ledger_dict(ledger) -> dict:
    # every WorkReport field with its step label; vars() holds the four fields, not the scale
    return {"entries": [{"label": k, **vars(e)} for k, e in ledger.entries.items()],
            "totals": {"label": "total", **vars(ledger.totals)}}


# ---------------------------------------------------------------------------
# per-kind runners


def _run_project(scn, seeds):
    t = Temperature(beta=float(scn["beta"]))
    h = _build_hamiltonian(scn["hamiltonian"], "$.hamiltonian", seeds)
    rho = _build_state(scn["state"], "$.state", seeds, h, t)
    p = _build_projectors(scn.get("projectors"), "$.projectors", h)
    rep = optimal_projection_work(rho, h, p, t)
    bound = entropy_change_bound(rho, p) if p.is_rank_one else None
    return {**vars(rep), "entropy_change_bound": bound}, []


def _run_protocol(scn, seeds):
    t = Temperature(beta=float(scn["beta"]))
    h = _build_hamiltonian(scn["hamiltonian"], "$.hamiltonian", seeds)
    rho = _build_state(scn["state"], "$.state", seeds, h, t)
    steps = [int(s) for s in scn.get("steps", [100])]
    clamp = float(scn.get("purity_clamp", DEFAULT_PURITY_CLAMP))
    plan = build_plan(rho, h, t, purity_clamp=clamp)
    w_opt = optimal_projection_work(rho, h, energy_projectors(h), t).work
    exact = exact_step_works(plan)
    simulated = [{"steps": n, **_ledger_dict(simulate(plan, n))} for n in steps]
    results = {
        "w_opt": w_opt,
        "purity_clamp": clamp,
        "exact": _ledger_dict(exact),
        "simulated": simulated,
    }
    series = [{"label": "abs_work_error_vs_steps", "x": [float(n) for n in steps],
               "y": [abs(s["totals"]["work"] - w_opt) for s in simulated]}]
    return results, series


def _run_bound_scan(scn, seeds):
    a = float(scn["a"])
    thetas = [float(x) for x in scn["thetas"]]
    comp_basis = ProjectorSet.from_basis(np.eye(2, dtype=complex))
    points = []
    for theta in thetas:
        rho = bloch_qubit(a, theta)
        points.append({"theta": theta, "bound": entropy_change_bound(rho, comp_basis),
                       "entropy_change": von_neumann_entropy(project(rho, comp_basis))
                       - von_neumann_entropy(rho)})
    results = {"a": a, "bloch_length": abs(2.0 * a - 1.0), "points": points}
    series = [{"label": key, "x": thetas, "y": [pt[key] for pt in points]}
              for key in ("bound", "entropy_change")]
    return results, series


def _run_jarzynski(scn, seeds):
    t = Temperature(beta=float(scn["beta"]))
    h0 = _build_hamiltonian(scn["hamiltonian"], "$.hamiltonian", seeds)
    htau = (_build_hamiltonian(scn["hamiltonian_final"], "$.hamiltonian_final", seeds)
            if "hamiltonian_final" in scn else h0)
    v = _build_unitary(scn["unitary"], "$.unitary", seeds)
    table = transition_table(h0, htau, v, t)
    rho0 = gibbs_state(h0, t)
    f0 = free_energy(rho0, h0, t)
    ftau = free_energy(gibbs_state(htau, t), htau, t)
    rho_tau = DensityMatrix._trusted(v @ rho0.mat @ v.conj().T)
    heat = projection_heat(rho_tau, htau, t)
    lhs = jarzynski_average(table)
    exponent = -t.beta * (ftau - f0)
    try:
        rhs = math.exp(exponent)
    except OverflowError:
        raise NonFiniteError(
            f"jarzynski: the right side e^(-beta dF) = e^{exponent:.6g} overflows a double"
        ) from None
    # an optimal final measurement pays all of its heat out as extra work
    results = {
        "jarzynski_lhs": lhs,
        "jarzynski_rhs": rhs,
        "average_unitary_work": average_unitary_work(table),
        "projection_heat": heat,
        "projection_extra_work": heat,
        "sampling": None,
    }
    series = []
    if "n_samples" in scn:
        seed = int(scn.get("seed", 0))
        seeds["$.seed"] = seed
        stats = sample_trajectories(table, int(scn["n_samples"]), seed)
        # the TrajectoryStats scalars; the delta_e arrays go to the series
        results["sampling"] = {k: v for k, v in vars(stats).items()
                               if not k.startswith("delta_e_")}
        series.append({
            "label": "delta_e_histogram",
            "x": [float(x) for x in stats.delta_e_values],
            "y": [float(c) for c in stats.delta_e_counts],
        })
    return results, series


def _run_singleshot(scn, seeds):
    t = Temperature(beta=float(scn["beta"]))
    h = _build_hamiltonian(scn["hamiltonian"], "$.hamiltonian", seeds)
    rho = _build_state(scn["state"], "$.state", seeds, h, t)
    eps = float(scn["eps"])
    clamp = float(scn.get("purity_clamp", DEFAULT_PURITY_CLAMP))
    ns = [int(n) for n in scn["n_copies"]]
    w_opt = optimal_projection_work(rho, h, energy_projectors(h), t).work
    plan = build_plan(rho, h, t, purity_clamp=clamp)
    points = [{"n": n, "work": consistency_work(plan, eps, n)} for n in ns]
    results = {
        "eps": eps,
        "failure_probability": smoothing_failure_probability(eps),
        "w_opt": w_opt,
        "points": points,
    }
    series = [{"label": "consistency_work", "x": [float(n) for n in ns],
               "y": [pt["work"] for pt in points]}]
    return results, series


def _check_joint_dim(path: str, ds: int, da: int) -> None:
    """Refuse a joint state beyond :data:`MAX_DIM`, before it is built."""
    if ds * da > MAX_DIM:
        raise ScenarioError(
            f"{path}: joint dimension {ds} x {da} = {ds * da} exceeds the cap {MAX_DIM}")


def _build_bipartite(node, path, seeds, h: Hamiltonian, t: Temperature) -> BipartiteState:
    if "matrix" in node:
        ds, da = (int(d) for d in node["dims"])
        rho = DensityMatrix(_complex_matrix(node["matrix"], f"{path}.matrix"))
        return BipartiteState(rho_sa=rho, dim_s=ds, dim_a=da)
    if "purify" in node:
        rho_s = _build_state(node["purify"], f"{path}.purify", seeds, h, t)
        _check_joint_dim(f"{path}.purify", rho_s.dim, rho_s.dim)
        return BipartiteState(rho_sa=purify(rho_s), dim_s=rho_s.dim, dim_a=rho_s.dim)
    spec = node["product"]
    rho_s = _build_state(spec["system"], f"{path}.product.system", seeds, h, t)
    # the ancilla has no Hamiltonian, so it has no gibbs state
    rho_a = _build_state(spec["ancilla"], f"{path}.product.ancilla", seeds, None, t)
    _check_joint_dim(f"{path}.product", rho_s.dim, rho_a.dim)
    joint = DensityMatrix._trusted(np.kron(rho_s.mat, rho_a.mat))
    return BipartiteState(rho_sa=joint, dim_s=rho_s.dim, dim_a=rho_a.dim)


def _run_correlations(scn, seeds):
    t = Temperature(beta=float(scn["beta"]))
    h = _build_hamiltonian(scn["hamiltonian"], "$.hamiltonian", seeds)
    state = _build_bipartite(scn["state_sa"], "$.state_sa", seeds, h, t)
    p = _build_projectors(scn.get("projectors"), "$.projectors", h)
    delta = delta_correlation(state, p)
    system = optimal_projection_work(state.marginal_s, h, p, t)
    joint = global_optimal_work(state, h, p, t)
    lemma = verify_lemma1(state, p)
    results = {
        "delta": delta,
        "system_work": system.work,
        "global_work": joint.work,
        "lemma1": lemma._asdict(),
    }
    return results, []


_RUNNERS = {
    "project": _run_project,
    "protocol": _run_protocol,
    "bound_scan": _run_bound_scan,
    "jarzynski": _run_jarzynski,
    "singleshot": _run_singleshot,
    "correlations": _run_correlations,
}


def run_scenario_obj(obj: dict) -> dict:
    """Validate and execute a parsed scenario, returning the report dict."""
    validate_scenario(obj)
    seeds = {}
    results, series = _RUNNERS[obj["kind"]](obj, seeds)
    return {
        "scenario": obj,
        "provenance": {
            "tool": "coherework",
            "version": __version__,
            "seeds": seeds,
            "tolerances": dict(TOLERANCES),
        },
        "results": results,
        "series": series,
    }


def _reject_constant(name: str):
    raise ScenarioError(f"non-finite number {name} is not allowed in a scenario")


def run_scenario(path: str, out: str | None = None) -> int:
    """Run a scenario file; returns the process exit code."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        obj = json.loads(text, parse_constant=_reject_constant)
    except (ValueError, RecursionError, ScenarioError) as exc:
        # ValueError covers JSONDecodeError and integer literals longer than
        # the interpreter converts; RecursionError, nesting deeper than it parses
        print(f"invalid JSON in {path}: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    try:
        text = dumps_stable(run_scenario_obj(obj)) + "\n"
    except ScenarioError as exc:
        print(f"schema violation: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except CohereworkError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PHYSICS
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"cannot write {out}: {exc}", file=sys.stderr)
            return EXIT_IO
    return EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first main() call, never at import, so importing stays cheap
    parser = argparse.ArgumentParser(
        prog="coherework",
        description="Scenario runner for coherence-to-work numerics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a JSON scenario file")
    run_p.add_argument("file", help="scenario file path")
    run_p.add_argument("--out", help="write the report here instead of stdout")
    self_test_p = sub.add_parser("self-test", help="run the embedded acceptance suite")
    self_test_p.add_argument(
        "--verbose", action="store_true",
        help="also print each criterion's detail and its time against its budget")
    sub.add_parser("schema", help="print the scenario and report schema")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "run":
        return run_scenario(args.file, args.out)
    if args.command == "schema":
        sys.stdout.write(dumps_stable(SCHEMA_DOCUMENT) + "\n")
        return EXIT_OK
    from .acceptance import self_test

    return EXIT_OK if self_test(echo=print, verbose=args.verbose) else EXIT_SELFTEST


if __name__ == "__main__":
    sys.exit(main())
