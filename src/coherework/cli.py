"""Scenario runner CLI.

``coherework run file.json`` parses a declarative scenario, dispatches to the
computation modules, and emits a deterministic JSON report (stdout or
``--out``). ``coherework self-test`` runs the built-in acceptance suite;
``coherework schema`` prints the schema both scenarios and reports are
validated against.

Exit codes: 0 success, 1 I/O failure, 2 schema violation (the message names
the offending field; size caps included), 3 physics validation failure or a
non-finite report value (the message carries the library error name),
4 self-test failure.

Reports are byte-stable: keys are sorted and floats printed with 17
significant digits, so identical (scenario, version) pairs produce identical
bytes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
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
from .linalg import CLUSTER_GAP, DEFAULT_TOL, kron
from .projection import (
    ProjectorSet,
    energy_projectors,
    entropy_change_bound,
    optimal_projection_work,
    project,
)
from .protocol import PLAN_TOL, build_plan, exact_step_works, simulate
from .sampling import (
    random_density_matrix,
    random_hamiltonian,
    random_unitary,
    rng_from_seed,
)
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
    "plan": PLAN_TOL,
}


class ScenarioError(Exception):
    """Scenario or report does not match the schema; names the bad field."""


# ---------------------------------------------------------------------------
# schema document and mini-validator


# a number leaf and an [re, im] pair: validate_schema checks a whole array of
# either in one scan
_NUMBER = {"type": "number"}
_PAIR = {"type": "array", "items": _NUMBER, "minItems": 2, "maxItems": 2}


def _matrix_schema():
    row = {"type": "array", "items": _PAIR, "minItems": 1}
    return {"type": "array", "items": row, "minItems": 1}


def _vector_schema():
    return {"type": "array", "items": _PAIR, "minItems": 1}


# size caps, checked before anything is built: the documented working range
# of dense matrices, and bounds on the work and memory a scenario may ask for
MAX_DIM = 64
MAX_STEPS = 10**6
MAX_SAMPLES = 10**7

_RANDOM_SCHEMA = {
    "type": "object",
    "required": ["dim", "seed"],
    "properties": {
        "dim": {"type": "integer", "minimum": 2, "maximum": MAX_DIM},
        "seed": {"type": "integer", "minimum": 0},
    },
    "additionalProperties": False,
}

_STATE_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"required": ["matrix"], "properties": {"matrix": _matrix_schema()},
         "additionalProperties": False},
        {"required": ["pure"], "properties": {"pure": _vector_schema()},
         "additionalProperties": False},
        {"required": ["bloch"], "properties": {"bloch": {
            "type": "object", "required": ["a", "theta"],
            "properties": {"a": {"type": "number", "minimum": 0, "maximum": 1},
                           "theta": {"type": "number"}},
            "additionalProperties": False}},
         "additionalProperties": False},
        {"required": ["gibbs"], "properties": {"gibbs": {
            "type": "object", "additionalProperties": False}},
         "additionalProperties": False},
        {"required": ["random"], "properties": {"random": _RANDOM_SCHEMA},
         "additionalProperties": False},
    ],
}

_HAMILTONIAN_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"required": ["matrix"], "properties": {"matrix": _matrix_schema()},
         "additionalProperties": False},
        {"required": ["diag"], "properties": {"diag": {
            "type": "array", "items": _NUMBER, "minItems": 1}},
         "additionalProperties": False},
        {"required": ["random"], "properties": {"random": _RANDOM_SCHEMA},
         "additionalProperties": False},
    ],
}

_UNITARY_SCHEMA = {
    "type": "object",
    "oneOf": [
        {"required": ["matrix"], "properties": {"matrix": _matrix_schema()},
         "additionalProperties": False},
        {"required": ["random"], "properties": {"random": _RANDOM_SCHEMA},
         "additionalProperties": False},
    ],
}

_PROJECTORS_SCHEMA = {
    "oneOf": [
        {"type": "string", "enum": ["energy"]},
        {"type": "object", "required": ["basis"],
         "properties": {"basis": _matrix_schema()},
         "additionalProperties": False},
    ],
}

_BETA_SCHEMA = {"type": "number", "exclusiveMinimum": 0}

KIND_SCHEMAS = {
    "project": {
        "type": "object",
        "required": ["kind", "beta", "state", "hamiltonian"],
        "properties": {
            "kind": {"type": "string", "enum": ["project"]},
            "beta": _BETA_SCHEMA,
            "state": _STATE_SCHEMA,
            "hamiltonian": _HAMILTONIAN_SCHEMA,
            "projectors": _PROJECTORS_SCHEMA,
        },
        "additionalProperties": False,
    },
    "protocol": {
        "type": "object",
        "required": ["kind", "beta", "state", "hamiltonian"],
        "properties": {
            "kind": {"type": "string", "enum": ["protocol"]},
            "beta": _BETA_SCHEMA,
            "state": _STATE_SCHEMA,
            "hamiltonian": _HAMILTONIAN_SCHEMA,
            "steps": {"type": "array",
                      "items": {"type": "integer", "minimum": 1, "maximum": MAX_STEPS},
                      "minItems": 1},
            "purity_clamp": {"type": "number", "minimum": 0, "maximum": 1e-3},
        },
        "additionalProperties": False,
    },
    "bound_scan": {
        "type": "object",
        "required": ["kind", "a", "thetas"],
        "properties": {
            "kind": {"type": "string", "enum": ["bound_scan"]},
            "a": {"type": "number", "minimum": 0, "maximum": 1},
            "thetas": {"type": "array", "items": _NUMBER, "minItems": 1},
        },
        "additionalProperties": False,
    },
    "jarzynski": {
        "type": "object",
        "required": ["kind", "beta", "hamiltonian", "unitary"],
        "properties": {
            "kind": {"type": "string", "enum": ["jarzynski"]},
            "beta": _BETA_SCHEMA,
            "hamiltonian": _HAMILTONIAN_SCHEMA,
            "hamiltonian_final": _HAMILTONIAN_SCHEMA,
            "unitary": _UNITARY_SCHEMA,
            "n_samples": {"type": "integer", "minimum": 1, "maximum": MAX_SAMPLES},
            "seed": {"type": "integer", "minimum": 0},
        },
        "additionalProperties": False,
    },
    "singleshot": {
        "type": "object",
        "required": ["kind", "beta", "state", "hamiltonian", "eps", "n_copies"],
        "properties": {
            "kind": {"type": "string", "enum": ["singleshot"]},
            "beta": _BETA_SCHEMA,
            "state": _STATE_SCHEMA,
            "hamiltonian": _HAMILTONIAN_SCHEMA,
            "eps": {"type": "number", "minimum": 0, "exclusiveMaximum": 1},
            "n_copies": {"type": "array", "items": {"type": "integer", "minimum": 1},
                         "minItems": 1},
            "purity_clamp": {"type": "number", "minimum": 0, "maximum": 1e-3},
        },
        "additionalProperties": False,
    },
    "correlations": {
        "type": "object",
        "required": ["kind", "beta", "state_sa", "hamiltonian"],
        "properties": {
            "kind": {"type": "string", "enum": ["correlations"]},
            "beta": _BETA_SCHEMA,
            "state_sa": {
                "type": "object",
                "oneOf": [
                    {"required": ["matrix", "dims"],
                     "properties": {"matrix": _matrix_schema(),
                                    "dims": {"type": "array",
                                             "items": {"type": "integer", "minimum": 1},
                                             "minItems": 2, "maxItems": 2}},
                     "additionalProperties": False},
                    {"required": ["purify"],
                     "properties": {"purify": _STATE_SCHEMA},
                     "additionalProperties": False},
                    {"required": ["product"],
                     "properties": {"product": {
                         "type": "object", "required": ["system", "ancilla"],
                         "properties": {"system": _STATE_SCHEMA,
                                        "ancilla": _STATE_SCHEMA},
                         "additionalProperties": False}},
                     "additionalProperties": False},
                ],
            },
            "hamiltonian": _HAMILTONIAN_SCHEMA,
            "projectors": _PROJECTORS_SCHEMA,
        },
        "additionalProperties": False,
    },
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
    "boolean": lambda v: isinstance(v, bool),
}

# the smallest integer that float() rounds to infinity: a "number" must be a
# double, so an integer literal at or beyond it is a schema violation
_INT_LIMIT = 2**1024 - 2**970


def _path_str(path) -> str:
    """Render a lazy path: a root string, or a ``(parent, template, key)``
    triple whose template formats the key as ``.key`` or ``[i]``."""
    parts = []
    while isinstance(path, tuple):
        path, template, key = path
        parts.append(template.format(key))
    return path + "".join(reversed(parts))


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
    """True when every entry passes ``item_schema``, decided in one scan for
    number leaves and ``[re, im]`` pairs; False (look item by item) otherwise."""
    if item_schema == _NUMBER:
        return _all_numbers(values)
    if item_schema == _PAIR:
        return (set(map(type, values)) <= {list} and set(map(len, values)) <= {2}
                and _all_numbers(list(itertools.chain.from_iterable(values))))
    return False


def validate_schema(value, schema: dict, path="$"):
    """Validate ``value`` against the subset of JSON Schema used here.

    ``path`` names ``value`` in messages: a string, or the lazy triple the
    recursion passes so that no path string is built unless one is raised.
    Raises :class:`ScenarioError` naming the first offending field.
    """
    # the type applies before any alternative: no oneOf branch names one
    typ = schema.get("type")
    if typ is not None and not _TYPE_CHECKS[typ](value):
        raise ScenarioError(
            f"{_path_str(path)}: expected {typ}, got {type(value).__name__}")
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
            f"{_path_str(path)}: no schema alternative matched "
            f"(closest errors: {' | '.join(e for _, e in errors[:3])})"
        )
    if typ == "number" and isinstance(value, int) and not -_INT_LIMIT < value < _INT_LIMIT:
        raise ScenarioError(f"{_path_str(path)}: integer too large for a double")
    if "enum" in schema and value not in schema["enum"]:
        raise ScenarioError(
            f"{_path_str(path)}: must be one of {schema['enum']}, got {value!r}")
    # keyword checks apply by the value's actual type, as in JSON Schema
    if _TYPE_CHECKS["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            raise ScenarioError(
                f"{_path_str(path)}: must be >= {schema['minimum']}, got {value}")
        if "maximum" in schema and value > schema["maximum"]:
            raise ScenarioError(
                f"{_path_str(path)}: must be <= {schema['maximum']}, got {value}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            raise ScenarioError(
                f"{_path_str(path)}: must be > {schema['exclusiveMinimum']}, got {value}"
            )
        if "exclusiveMaximum" in schema and value >= schema["exclusiveMaximum"]:
            raise ScenarioError(
                f"{_path_str(path)}: must be < {schema['exclusiveMaximum']}, got {value}"
            )
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise ScenarioError(f"{_path_str(path)}.{key}: required field missing")
        props = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in props:
                    raise ScenarioError(f"{_path_str(path)}.{key}: unknown field")
        for key, sub in props.items():
            if key in value:
                validate_schema(value[key], sub, (path, ".{}", key))
    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            raise ScenarioError(
                f"{_path_str(path)}: needs at least {schema['minItems']} items, "
                f"got {len(value)}"
            )
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            raise ScenarioError(
                f"{_path_str(path)}: needs at most {schema['maxItems']} items, "
                f"got {len(value)}"
            )
        item_schema = schema.get("items")
        if item_schema is not None and not _all_items_valid(value, item_schema):
            for i, item in enumerate(value):
                validate_schema(item, item_schema, (path, "[{}]", i))


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


def _block_template(shape, level: int, indent: int) -> str:
    """The text of a :func:`_float_block` at nesting ``level`` with one
    :data:`_FLOAT_FORMAT` slot per float, laid out as ``dumps_stable`` does."""
    text = _FLOAT_FORMAT
    for depth in range(len(shape) - 1, -1, -1):
        pad = " " * (indent * (level + depth + 1))
        closing = " " * (indent * (level + depth))
        text = f"[\n{pad}" + f",\n{pad}".join([text] * shape[depth]) + f"\n{closing}]"
    return text


def dumps_stable(obj, indent: int = 2) -> str:
    """JSON text with sorted keys and 17-significant-digit floats."""
    out = []

    def emit(o, level):
        pad = " " * (indent * (level + 1))
        closing = " " * (indent * level)
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
                out.append(_block_template(shape, level, indent) % tuple(leaves))
                return
            items = list(o)
            if not items:
                out.append("[]")
                return
            out.append("[\n")
            for i, item in enumerate(items):
                out.append(pad)
                emit(item, level + 1)
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
                emit(o[key], level + 1)
                out.append(",\n" if i + 1 < len(keys) else "\n")
            out.append(closing + "}")
        else:
            raise ValueError(f"cannot serialise {type(o).__name__} into a report")

    emit(obj, 0)
    return "".join(out)


# ---------------------------------------------------------------------------
# scenario building blocks


def _complex_matrix(node, path: str) -> np.ndarray:
    width = len(node[0])
    rows = []
    for i, row in enumerate(node):
        if len(row) != width:
            raise ScenarioError(f"{path}[{i}]: ragged matrix row (expected {width} entries)")
        rows.append([complex(ent[0], ent[1]) for ent in row])
    return np.array(rows, dtype=complex)


def _build_state(node, path, ctx, h: Hamiltonian | None, t: Temperature | None) -> DensityMatrix:
    if "matrix" in node:
        return DensityMatrix(_complex_matrix(node["matrix"], f"{path}.matrix"))
    if "pure" in node:
        vec = np.array([complex(e[0], e[1]) for e in node["pure"]])
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
    spec = node["random"]
    ctx["seeds"][f"{path}.random"] = int(spec["seed"])
    return random_density_matrix(int(spec["dim"]), rng_from_seed(int(spec["seed"])))


def _build_hamiltonian(node, path, ctx) -> Hamiltonian:
    if "matrix" in node:
        return Hamiltonian(_complex_matrix(node["matrix"], f"{path}.matrix"))
    if "diag" in node:
        return Hamiltonian(np.diag([float(x) for x in node["diag"]]).astype(complex))
    spec = node["random"]
    ctx["seeds"][f"{path}.random"] = int(spec["seed"])
    return random_hamiltonian(int(spec["dim"]), rng_from_seed(int(spec["seed"])))


def _build_unitary(node, path, ctx) -> np.ndarray:
    if "matrix" in node:
        return _complex_matrix(node["matrix"], f"{path}.matrix")
    spec = node["random"]
    ctx["seeds"][f"{path}.random"] = int(spec["seed"])
    return random_unitary(int(spec["dim"]), rng_from_seed(int(spec["seed"])))


def _build_projectors(node, path, ctx, h: Hamiltonian) -> ProjectorSet:
    if node == "energy" or node is None:
        return energy_projectors(h)
    return ProjectorSet.from_basis(_complex_matrix(node["basis"], f"{path}.basis"))


def _ledger_dict(ledger) -> dict:
    entry = lambda e: {
        "label": e.label,
        "work": e.work,
        "heat_absorbed": e.heat_absorbed,
        "energy_change": e.energy_change,
        "entropy_change": e.entropy_change,
    }
    return {"entries": [entry(e) for e in ledger.entries],
            "totals": entry(ledger.totals)}


# ---------------------------------------------------------------------------
# per-kind runners


def _run_project(scn, ctx):
    t = Temperature(beta=float(scn["beta"]))
    h = _build_hamiltonian(scn["hamiltonian"], "$.hamiltonian", ctx)
    rho = _build_state(scn["state"], "$.state", ctx, h, t)
    p = _build_projectors(scn.get("projectors"), "$.projectors", ctx, h)
    rep = optimal_projection_work(rho, h, p, t)
    results = {
        "work": rep.work,
        "entropy_change": rep.entropy_change,
        "energy_change": rep.energy_change,
        "heat_absorbed": rep.heat_absorbed,
        "entropy_change_bound": entropy_change_bound(rho, p) if p.is_rank_one else None,
    }
    return results, []


def _run_protocol(scn, ctx):
    t = Temperature(beta=float(scn["beta"]))
    h = _build_hamiltonian(scn["hamiltonian"], "$.hamiltonian", ctx)
    rho = _build_state(scn["state"], "$.state", ctx, h, t)
    steps = [int(s) for s in scn.get("steps", [100])]
    clamp = float(scn.get("purity_clamp", 1e-9))
    plan = build_plan(rho, h, t, purity_clamp=clamp)
    w_opt = optimal_projection_work(rho, h, energy_projectors(h), t).work
    exact = exact_step_works(plan)
    simulated = []
    errors = []
    for n in steps:
        ledger = simulate(plan, n)
        simulated.append({"steps": n, **_ledger_dict(ledger)})
        errors.append(abs(ledger.totals.work - w_opt))
    results = {
        "w_opt": w_opt,
        "purity_clamp": clamp,
        "exact": _ledger_dict(exact),
        "simulated": simulated,
    }
    series = [{"label": "abs_work_error_vs_steps",
               "x": [float(n) for n in steps], "y": errors}]
    return results, series


def _run_bound_scan(scn, ctx):
    a = float(scn["a"])
    thetas = [float(x) for x in scn["thetas"]]
    comp_basis = ProjectorSet.from_basis(np.eye(2, dtype=complex))
    points = []
    bounds = []
    gains = []
    for theta in thetas:
        rho = bloch_qubit(a, theta)
        bound = entropy_change_bound(rho, comp_basis)
        gain = (von_neumann_entropy(project(rho, comp_basis))
                - von_neumann_entropy(rho))
        points.append({"theta": theta, "bound": bound, "entropy_change": gain})
        bounds.append(bound)
        gains.append(gain)
    results = {"a": a, "bloch_length": abs(2.0 * a - 1.0), "points": points}
    series = [{"label": "bound", "x": thetas, "y": bounds},
              {"label": "entropy_change", "x": thetas, "y": gains}]
    return results, series


def _run_jarzynski(scn, ctx):
    t = Temperature(beta=float(scn["beta"]))
    h0 = _build_hamiltonian(scn["hamiltonian"], "$.hamiltonian", ctx)
    if "hamiltonian_final" in scn:
        htau = _build_hamiltonian(scn["hamiltonian_final"], "$.hamiltonian_final", ctx)
    else:
        htau = h0
    v = _build_unitary(scn["unitary"], "$.unitary", ctx)
    table = transition_table(h0, htau, v, t)
    rho0 = gibbs_state(h0, t)
    f0 = free_energy(rho0, h0, t)
    ftau = free_energy(gibbs_state(htau, t), htau, t)
    rho_tau = DensityMatrix(v @ rho0.mat @ v.conj().T)
    heat = projection_heat(rho_tau, htau, t)
    results = {
        "jarzynski_lhs": jarzynski_average(table),
        "jarzynski_rhs": math.exp(-t.beta * (ftau - f0)),
        "average_unitary_work": average_unitary_work(table),
        "projection_heat": heat.heat,
        "projection_extra_work": heat.extra_work,
        "sampling": None,
    }
    series = []
    if "n_samples" in scn:
        seed = int(scn.get("seed", 0))
        ctx["seeds"]["$.seed"] = seed
        stats = sample_trajectories(table, int(scn["n_samples"]), seed)
        results["sampling"] = {
            "n_samples": stats.n_samples,
            "seed": stats.seed,
            "exp_beta_w_estimate": stats.exp_beta_w_estimate,
            "exp_beta_w_std_error": stats.exp_beta_w_std_error,
            "work_estimate": stats.work_estimate,
            "work_std_error": stats.work_std_error,
        }
        series.append({
            "label": "delta_e_histogram",
            "x": [float(x) for x in stats.delta_e_values],
            "y": [float(c) for c in stats.delta_e_counts],
        })
    return results, series


def _run_singleshot(scn, ctx):
    t = Temperature(beta=float(scn["beta"]))
    h = _build_hamiltonian(scn["hamiltonian"], "$.hamiltonian", ctx)
    rho = _build_state(scn["state"], "$.state", ctx, h, t)
    eps = float(scn["eps"])
    clamp = float(scn.get("purity_clamp", 1e-9))
    ns = [int(n) for n in scn["n_copies"]]
    w_opt = optimal_projection_work(rho, h, energy_projectors(h), t).work
    points = []
    works = []
    for n in ns:
        w = consistency_work(rho, h, t, eps, n, purity_clamp=clamp)
        points.append({"n": n, "work": w})
        works.append(w)
    results = {
        "eps": eps,
        "failure_probability": smoothing_failure_probability(eps),
        "w_opt": w_opt,
        "points": points,
    }
    series = [{"label": "consistency_work", "x": [float(n) for n in ns], "y": works}]
    return results, series


def _build_bipartite(node, path, ctx, t: Temperature) -> BipartiteState:
    if "matrix" in node:
        ds, da = (int(d) for d in node["dims"])
        rho = DensityMatrix(_complex_matrix(node["matrix"], f"{path}.matrix"))
        return BipartiteState(rho_sa=rho, dim_s=ds, dim_a=da)
    if "purify" in node:
        rho_s = _build_state(node["purify"], f"{path}.purify", ctx, None, t)
        return BipartiteState(rho_sa=purify(rho_s), dim_s=rho_s.dim, dim_a=rho_s.dim)
    spec = node["product"]
    rho_s = _build_state(spec["system"], f"{path}.product.system", ctx, None, t)
    rho_a = _build_state(spec["ancilla"], f"{path}.product.ancilla", ctx, None, t)
    joint = DensityMatrix(kron(rho_s.mat, rho_a.mat))
    return BipartiteState(rho_sa=joint, dim_s=rho_s.dim, dim_a=rho_a.dim)


def _run_correlations(scn, ctx):
    t = Temperature(beta=float(scn["beta"]))
    h = _build_hamiltonian(scn["hamiltonian"], "$.hamiltonian", ctx)
    state = _build_bipartite(scn["state_sa"], "$.state_sa", ctx, t)
    p = _build_projectors(scn.get("projectors"), "$.projectors", ctx, h)
    delta = delta_correlation(state, p)
    system = optimal_projection_work(state.marginal_s, h, p, t)
    joint = global_optimal_work(state, h, p, t)
    lemma = verify_lemma1(state, p)
    results = {
        "delta": delta,
        "system_work": system.work,
        "global_work": joint.work,
        "lemma1": {"lhs": lemma.lhs, "rhs": lemma.rhs, "holds": lemma.holds},
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
    ctx = {"seeds": {}}
    results, series = _RUNNERS[obj["kind"]](obj, ctx)
    return {
        "scenario": obj,
        "provenance": {
            "tool": "coherework",
            "version": __version__,
            "seeds": ctx["seeds"],
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coherework",
        description="Scenario runner for coherence-to-work numerics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a JSON scenario file")
    run_p.add_argument("file", help="scenario file path")
    run_p.add_argument("--out", help="write the report here instead of stdout")
    sub.add_parser("self-test", help="run the embedded acceptance suite")
    sub.add_parser("schema", help="print the scenario and report schema")
    args = parser.parse_args(argv)

    if args.command == "run":
        return run_scenario(args.file, args.out)
    if args.command == "schema":
        sys.stdout.write(dumps_stable(SCHEMA_DOCUMENT) + "\n")
        return EXIT_OK
    from .acceptance import self_test

    return EXIT_OK if self_test(echo=print) else EXIT_SELFTEST


if __name__ == "__main__":
    sys.exit(main())
