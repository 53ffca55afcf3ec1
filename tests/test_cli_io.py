"""The CLI's I/O layer: report serialisation, scenario validation, and a
scenario fuzzer for the whole ``coherework run`` path.

``dumps_stable`` renders arrays of floats with one formatting pass and
``validate_schema`` scans arrays of ``[re, im]`` pairs in bulk. Both must
keep every byte of output and every error message of the plain recursive
versions kept below as references: one recursive call per value, one path
string per entry.
"""

import contextlib
import copy
import io
import json
import math
import random
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coherework.cli import KIND_SCHEMAS, ScenarioError, dumps_stable, main, validate_schema
from coherework.errors import NonFiniteError

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))


def reference_dumps_stable(obj) -> str:
    indent = 2
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
            x = float(o)
            if not math.isfinite(x):
                raise NonFiniteError(f"non-finite float {x!r} cannot enter a report")
            out.append(f"{x:.17g}")
        elif isinstance(o, str):
            out.append(json.dumps(o))
        elif isinstance(o, (list, tuple, np.ndarray)):
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
                out.append(pad + json.dumps(key) + ": ")
                emit(o[key], level + 1)
                out.append(",\n" if i + 1 < len(keys) else "\n")
            out.append(closing + "}")
        else:
            raise ValueError(f"cannot serialise {type(o).__name__} into a report")

    emit(obj, 0)
    return "".join(out)


_REFERENCE_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
}


def reference_validate_schema(value, schema, path="$"):
    # the type is checked before oneOf, as in the validator: before that
    # order, a non-object state or Hamiltonian passed every branch
    checks = _REFERENCE_TYPE_CHECKS
    typ = schema.get("type")
    if typ is not None and not checks[typ](value):
        raise ScenarioError(f"{path}: expected {typ}, got {type(value).__name__}")
    if "oneOf" in schema:
        errors = []
        for branch in schema["oneOf"]:
            try:
                reference_validate_schema(value, branch, path)
                return
            except ScenarioError as exc:
                meant = isinstance(value, dict) and value.keys() >= set(
                    branch.get("required", ()))
                errors.append((not meant, str(exc)))
        errors.sort(key=lambda e: e[0])
        raise ScenarioError(
            f"{path}: no schema alternative matched "
            f"(closest errors: {' | '.join(e for _, e in errors[:3])})"
        )
    if "enum" in schema and value not in schema["enum"]:
        raise ScenarioError(f"{path}: must be one of {schema['enum']}, got {value!r}")
    if checks["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            raise ScenarioError(f"{path}: must be >= {schema['minimum']}, got {value}")
        if "maximum" in schema and value > schema["maximum"]:
            raise ScenarioError(f"{path}: must be <= {schema['maximum']}, got {value}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            raise ScenarioError(
                f"{path}: must be > {schema['exclusiveMinimum']}, got {value}")
        if "exclusiveMaximum" in schema and value >= schema["exclusiveMaximum"]:
            raise ScenarioError(
                f"{path}: must be < {schema['exclusiveMaximum']}, got {value}")
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
                reference_validate_schema(value[key], sub, f"{path}.{key}")
    if isinstance(value, list):
        if "minItems" in schema and len(value) < schema["minItems"]:
            raise ScenarioError(
                f"{path}: needs at least {schema['minItems']} items, got {len(value)}")
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            raise ScenarioError(
                f"{path}: needs at most {schema['maxItems']} items, got {len(value)}")
        item_schema = schema.get("items")
        if item_schema is not None:
            for i, item in enumerate(value):
                reference_validate_schema(item, item_schema, f"{path}[{i}]")


def _outcome(fn, *args):
    """The value ``fn`` returns, or the type and message of what it raises."""
    try:
        return "ok", fn(*args)
    except (ValueError, TypeError, NonFiniteError, ScenarioError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# dumps_stable


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_golden_file_is_its_own_serialisation(path):
    text = path.read_text()
    assert dumps_stable(json.loads(text)) + "\n" == text


_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0, 2.5e-17]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_LEAVES = st.one_of(
    _FLOATS,
    st.sampled_from([0, -1, 2**60, -(2**60), 2**64 + 1]),
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(max_size=6),
    _FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
)


def _rectangular(leaf, max_depth=3):
    """Nested lists of one shape throughout, the form rendered in one pass."""
    return st.lists(st.integers(1, 4), min_size=1, max_size=max_depth).flatmap(
        lambda shape: st.lists(leaf, min_size=math.prod(shape),
                               max_size=math.prod(shape)).map(
            lambda flat: np.array(flat, dtype=object).reshape(shape).tolist()))


_ARRAYS = st.one_of(
    st.lists(_FLOATS, max_size=5).map(lambda v: np.array(v, dtype=float)),
    st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda s: st.lists(_FLOATS, min_size=s[0] * s[1], max_size=s[0] * s[1]).map(
            lambda v: np.array(v, dtype=float).reshape(s))),
)
_VALUES = st.recursive(
    st.one_of(_LEAVES, _ARRAYS, _rectangular(_FLOATS), st.just([]), st.just({})),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
        # nearly rectangular: one ragged or mistyped row among float rows
        st.tuples(_rectangular(_FLOATS, 2), inner).map(lambda t: t[0] + [t[1]]),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_dumps_stable_matches_reference(value):
    assert dumps_stable(value) == reference_dumps_stable(value)


def _with_non_finite(value, bad, position):
    """``value`` with the float leaf at ``position`` (in document order)
    replaced by ``bad``; None when it has no plain float leaf."""
    value = copy.deepcopy(value)
    slots = []

    def walk(node):
        items = (sorted(node.items()) if isinstance(node, dict)
                 else enumerate(node) if isinstance(node, list) else ())
        for key, item in items:
            if type(item) is float:
                slots.append((node, key))
            else:
                walk(item)

    walk(value)
    if not slots:
        return None
    node, key = slots[position % len(slots)]
    node[key] = bad
    return value


@settings(max_examples=200, deadline=None)
@given(_VALUES, st.sampled_from([math.inf, -math.inf, math.nan]), st.integers(0, 99))
def test_non_finite_raises_as_reference(value, bad, position):
    value = _with_non_finite(value, bad, position)
    if value is None:
        return
    expected = _outcome(reference_dumps_stable, value)
    assert expected[0] is NonFiniteError
    assert _outcome(dumps_stable, value) == expected


@pytest.mark.parametrize("value", [
    [1e308, 1e308],                      # finite, though their sum overflows
    {"m": [[[1e308, -1e308], [1e308, 5e-324]]]},
    [[1.0, 2.0], [3.0]],                 # ragged
    [[[0.0]]] * 2 + [[[[1.0]]]],         # deeper than a matrix
])
def test_finite_edge_cases_match_reference(value):
    assert dumps_stable(value) == reference_dumps_stable(value)


@pytest.mark.parametrize("value", [
    {1: 2.0},
    {"a": [1.0, 2.0], 3: "x"},
    [1.0, {"k": {(1, 2): 0.5}}],
    [[1.0, math.nan], [math.inf, 2.0]],
    [[1.0, 2.0], [3.0, -math.inf]],
    {"m": [[[0.0, 1.0], [math.nan, 0.0]]], "a": math.inf},
    [1.0, 2j],
])
def test_errors_match_reference(value):
    expected = _outcome(reference_dumps_stable, value)
    assert expected[0] != "ok"
    assert _outcome(dumps_stable, value) == expected


# ---------------------------------------------------------------------------
# validate_schema

def _matrix(rng, d):
    return [[[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(d)] for _ in range(d)]


def base_scenarios(rng):
    """One valid scenario of every kind and every state and Hamiltonian
    form, at d <= 4; bases and matrices are random, not physical, since only
    the schema reads them."""
    d = rng.choice([2, 3, 4])
    rand = lambda: {"random": {"dim": d, "seed": rng.randrange(100)}}
    state = rng.choice([
        {"matrix": _matrix(rng, d)},
        {"pure": [[rng.uniform(-1, 1), rng.uniform(-1, 1)] for _ in range(d)]},
        {"bloch": {"a": rng.random(), "theta": rng.uniform(0, 3)}},
        {"gibbs": {}},
        rand(),
    ])
    ham = rng.choice([{"matrix": _matrix(rng, d)},
                      {"diag": [rng.uniform(-1, 1) for _ in range(d)]}, rand()])
    return [
        {"kind": "project", "beta": rng.uniform(0.5, 2), "state": state,
         "hamiltonian": ham, "projectors": rng.choice(
             ["energy", {"basis": _matrix(rng, d)}])},
        {"kind": "protocol", "beta": 1.0, "state": state, "hamiltonian": ham,
         "steps": [10, 100], "purity_clamp": 1e-9},
        {"kind": "bound_scan", "a": rng.random(),
         "thetas": [rng.uniform(0, 3) for _ in range(rng.randrange(1, 6))]},
        {"kind": "jarzynski", "beta": 0.5, "hamiltonian": ham,
         "hamiltonian_final": rand(), "unitary": rng.choice(
             [rand(), {"matrix": _matrix(rng, d)}]),
         "n_samples": 100, "seed": 3},
        {"kind": "singleshot", "beta": 1.0, "state": state, "hamiltonian": ham,
         "eps": 0.05, "n_copies": [2, 4]},
        {"kind": "correlations", "beta": 1.0, "hamiltonian": ham,
         "state_sa": rng.choice([
             {"purify": state},
             {"product": {"system": state, "ancilla": rand()}},
             {"matrix": _matrix(rng, d), "dims": [1, d]}])},
    ]


# replacement values: every JSON type, bounds of every keyword, and numbers
# that only a bulk scan's min/max could misjudge; no integer beyond a double,
# which the validator now rejects on purpose (tested in test_cli.py)
MUTANT_VALUES = [
    None, True, False, 0, 1, -1, 2, 65, 10**7 + 1, 0.0, -0.0, 0.5, 1.5, -2.5,
    1e-3, 2e-3, 1e308, -1e308, 5e-324, "x", "energy", "project", [], {},
    [1.0], [1.0, 2.0], [1.0, 2.0, 3.0], [1, 2], [1.0, "x"], [True, 0.0],
    [[1.0, 0.0]], [[1.0, 0.0], [0.0]], [[[1.0, 0.0]]], {"dim": 2, "seed": 1},
    {"random": {"dim": 2, "seed": 1}}, {"diag": [1.0, 2.0]}, {"gibbs": {}},
    [float("nan"), 1.0], [float("inf"), 1], [1, float("nan")],
]


def _locations(node, where=()):
    yield where
    if isinstance(node, dict):
        for key in node:
            yield from _locations(node[key], where + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _locations(item, where + (i,))


def mutate(scenario, rng, values=MUTANT_VALUES):
    """A copy of ``scenario`` with one to three random edits: replace a
    value, delete a field or an entry, add an unknown field, or append an
    entry; new values come from ``values``."""
    scenario = copy.deepcopy(scenario)
    for _ in range(rng.randrange(1, 4)):
        locations = list(_locations(scenario))[1:]
        if not locations:
            break
        *parent_keys, key = rng.choice(locations)
        parent = scenario
        for k in parent_keys:
            parent = parent[k]
        edit = rng.randrange(4)
        if edit == 1:
            del parent[key]
        elif edit == 0 or not isinstance(parent[key], (dict, list)):
            parent[key] = copy.deepcopy(rng.choice(values))
        elif isinstance(parent[key], dict):
            parent[key]["bogus"] = copy.deepcopy(rng.choice(values))
        else:
            parent[key].append(copy.deepcopy(rng.choice(values)))
    return scenario


def test_validate_schema_messages_match_reference():
    rng = random.Random(20150209)
    outcomes = {"ok": 0, "error": 0}
    for _ in range(400):
        for scenario in base_scenarios(rng):
            mutant = mutate(scenario, rng)
            if not isinstance(mutant.get("kind"), str):
                mutant["kind"] = scenario["kind"]
            schema = KIND_SCHEMAS.get(mutant["kind"], KIND_SCHEMAS["project"])
            expected = _outcome(reference_validate_schema, mutant, schema)
            assert _outcome(validate_schema, mutant, schema) == expected, mutant
            outcomes["ok" if expected[0] == "ok" else "error"] += 1
    # the corpus exercises both verdicts in quantity
    assert min(outcomes.values()) > 300, outcomes


def test_validate_schema_accepts_every_base_scenario():
    rng = random.Random(7)
    for _ in range(50):
        for scenario in base_scenarios(rng):
            validate_schema(scenario, KIND_SCHEMAS[scenario["kind"]])


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.one_of(st.floats(), st.integers(-(2**1100), 2**1100),
                          st.booleans(), st.sampled_from([2**1024 - 2**970,
                                                          2**1024 - 2**970 - 1])),
                max_size=6))
def test_number_array_scan_matches_item_loop(values):
    # a schema the pair scan recognises and an equal one it does not give one
    # verdict and message
    schema = {"type": "array", "items": {"type": "number"}}
    fast = _outcome(validate_schema, values, schema)
    slow = _outcome(validate_schema, values,
                    {"type": "array", "items": {"type": "number", "minimum": -math.inf}})
    assert fast == slow
    pairs = [[v, 0.0] for v in values]
    fast = _outcome(validate_schema, pairs, {"type": "array", "items": {
        "type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}})
    slow = _outcome(validate_schema, pairs, {"type": "array", "items": {
        "type": "array", "items": {"type": "number", "minimum": -math.inf},
        "minItems": 2, "maxItems": 2}})
    assert fast == slow


# ---------------------------------------------------------------------------
# scenario fuzzer: every input ends on a documented exit code

# beyond MUTANT_VALUES: integers no double holds, and kinds of every JSON type
FUZZ_VALUES = MUTANT_VALUES + [
    10**400, -(10**400), 2**1024 - 2**970, 2**1024 - 2**970 - 1,
    ["project"], {"kind": "project"}, 1e-300,
]


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.randoms(use_true_random=False))
def test_fuzzed_scenarios_exit_on_a_documented_code(rng):
    scenario = mutate(rng.choice(base_scenarios(rng)), rng, FUZZ_VALUES)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", str(path)])
    assert code in (0, 2, 3), scenario


def _run_fuzz_mutant(seed: int, path: Path):
    """``(exit code, stderr, scenario)`` of ``coherework run`` on the mutant
    of ``seed``, with every warning raised as an error."""
    rng = random.Random(seed)
    scenario = mutate(rng.choice(base_scenarios(rng)), rng, FUZZ_VALUES)
    path.write_text(json.dumps(scenario))
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["run", str(path)])
    return code, err.getvalue(), scenario


def test_fuzz_sweep_exits_on_a_documented_code_without_warnings(tmp_path):
    # fixed seeds, so a numpy RuntimeWarning anywhere in the sweep is a fault
    for seed in range(4000):
        code, _, scenario = _run_fuzz_mutant(seed, tmp_path / "scenario.json")
        assert code in (0, 2, 3), (seed, scenario)


@pytest.mark.parametrize("seed", [147, 1112, 1517, 3851])
def test_fuzz_mutants_with_huge_entries_are_non_finite(seed, tmp_path):
    # mutants with 1e308 entries, which overflow norms and eigensolvers
    # unless the entry bound rejects them first
    code, err, _ = _run_fuzz_mutant(seed, tmp_path / "scenario.json")
    assert code == 3 and err.startswith("NonFiniteError: "), err
