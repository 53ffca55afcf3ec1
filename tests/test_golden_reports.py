"""Golden-report guard: fixed scenarios must keep reproducing recorded reports.

Each file in ``tests/golden/`` is the report ``coherework run`` wrote for one
scenario, and the scenario is the report's own ``scenario`` echo. Keys,
strings, integers, booleans and nulls must match exactly; floats within
1e-12 * max(1, |x|). The recorded files are the reference: a change that
moves a number beyond that tolerance is a behaviour change to explain, not a
reason to rewrite the data. Once it is explained, :func:`record` rewrites a
file from its scenario and lists the paths that moved:
``PYTHONPATH=src python tests/test_golden_reports.py tests/golden/NAME.json``.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from coherework.cli import dumps_stable, run_scenario_obj

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))


def _moved(new, old, path="$"):
    """Each path at which ``new`` departs from the recorded ``old`` beyond
    the tolerance, with how it differs."""
    if isinstance(new, dict):
        if not isinstance(old, dict):
            yield f"{path}: {old!r} is not an object"
        elif sorted(new) != sorted(old):
            yield f"{path}: keys differ"
        else:
            for key in new:
                yield from _moved(new[key], old[key], f"{path}.{key}")
    elif isinstance(new, (list, tuple, np.ndarray)):
        if not (isinstance(old, list) and len(new) == len(old)):
            yield f"{path}: length differs"
        else:
            for i, (a, b) in enumerate(zip(new, old)):
                yield from _moved(a, b, f"{path}[{i}]")
    elif isinstance(new, (float, np.floating)):
        if not isinstance(old, (int, float)) or isinstance(old, bool):
            yield f"{path}: {old!r} is not a number"
        elif not (math.isfinite(new) and abs(new - old) <= 1e-12 * max(1.0, abs(old))):
            yield f"{path}: {new!r} differs from recorded {old!r} by {abs(new - old):.3e}"
    else:
        if isinstance(new, np.integer):
            new = int(new)
        if not (type(new) is type(old) and new == old):
            yield f"{path}: {new!r} != {old!r}"


def test_every_kind_is_covered():
    kinds = {json.loads(f.read_text())["scenario"]["kind"] for f in GOLDEN}
    assert kinds == {"project", "protocol", "bound_scan", "jarzynski",
                     "singleshot", "correlations"}


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_report_matches_recorded(path):
    recorded = json.loads(path.read_text())
    report = run_scenario_obj(recorded["scenario"])
    dumps_stable(report)  # must still serialise
    assert list(_moved(report, recorded)) == []


def record(path: Path) -> list:
    """Rewrite the golden file ``path`` with the report of its own scenario
    and return the paths that moved beyond the tolerance."""
    recorded = json.loads(path.read_text())
    report = run_scenario_obj(recorded["scenario"])
    moved = list(_moved(report, recorded))
    path.write_text(dumps_stable(report) + "\n")
    return moved


if __name__ == "__main__":
    for name in sys.argv[1:]:
        for line in record(Path(name)):
            print(f"{name}: {line}")
