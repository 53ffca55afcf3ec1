"""Golden-report guard: fixed scenarios must keep reproducing recorded reports.

Each file in ``tests/golden/`` is the report ``coherework run`` wrote for one
scenario, and the scenario is the report's own ``scenario`` echo. Keys,
strings, integers, booleans and nulls must match exactly; floats within
1e-12 * max(1, |x|). The recorded files are the reference: a change that
moves a number beyond that tolerance is a behaviour change to explain, not a
reason to rewrite the data.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from coherework.cli import dumps_stable, run_scenario_obj

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))


def _assert_matches(new, old, path="$"):
    if isinstance(new, dict):
        assert isinstance(old, dict), path
        assert sorted(new) == sorted(old), f"{path}: keys differ"
        for key in new:
            _assert_matches(new[key], old[key], f"{path}.{key}")
    elif isinstance(new, (list, tuple, np.ndarray)):
        assert isinstance(old, list) and len(new) == len(old), f"{path}: length differs"
        for i, (a, b) in enumerate(zip(new, old)):
            _assert_matches(a, b, f"{path}[{i}]")
    elif isinstance(new, (float, np.floating)):
        assert isinstance(old, (int, float)) and not isinstance(old, bool), path
        tol = 1e-12 * max(1.0, abs(old))
        assert math.isfinite(new) and abs(new - old) <= tol, (
            f"{path}: {new!r} differs from recorded {old!r} by {abs(new - old):.3e}"
        )
    else:
        if isinstance(new, np.integer):
            new = int(new)
        assert type(new) is type(old) and new == old, f"{path}: {new!r} != {old!r}"


def test_every_kind_is_covered():
    kinds = {json.loads(f.read_text())["scenario"]["kind"] for f in GOLDEN}
    assert kinds == {"project", "protocol", "bound_scan", "jarzynski",
                     "singleshot", "correlations"}


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_report_matches_recorded(path):
    recorded = json.loads(path.read_text())
    report = run_scenario_obj(recorded["scenario"])
    dumps_stable(report)  # must still serialise
    _assert_matches(report, recorded)
