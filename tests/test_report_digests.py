"""Report bytes of the benchmark workloads, pinned as digests.

``golden/pinned/report_digests.json`` holds, for each named workload, the
sha256 of the concatenated sha256 hex digests of its reports at one seed,
each report being ``dumps_stable(run_scenario_obj(scenario)) + "\\n"``, the
bytes ``coherework run`` prints and ``perfbench/run.py`` reports as
``report_sha256``. A change that must move no report byte passes this test.

Floats are computed by numpy and its BLAS, whose last bits may differ on
another build or CPU, so the digests are compared only in the environment
they were recorded in; elsewhere the test skips and names what differs (the
golden reports, compared to 1e-12, still run everywhere). To re-record after
a deliberate change, :func:`record` writes ``environment()`` and
``digests(w)`` into the file: ``PYTHONPATH=src python
tests/test_report_digests.py`` prints each workload's old and new digest.
"""

import hashlib
import importlib.util
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from coherework.cli import dumps_stable, run_scenario_obj

ROOT = Path(__file__).resolve().parent.parent
PINNED_FILE = ROOT / "tests" / "golden" / "pinned" / "report_digests.json"
PINNED = json.loads(PINNED_FILE.read_text())


def _workloads():
    # perfbench is a directory of scripts, not a package: load the module by
    # path, registered first (its dataclasses look their module up)
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "workloads.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    """The numpy version, BLAS build and CPU model the digests depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {"numpy": np.__version__, "blas": blas, "cpu": _cpu_model()}


def digests(workload: str, seed: int) -> str:
    reports = (dumps_stable(run_scenario_obj(op.scenario)) + "\n"
               for op in _workloads().generate(workload, seed))
    joined = "".join(hashlib.sha256(r.encode()).hexdigest() for r in reports)
    return hashlib.sha256(joined.encode()).hexdigest()


@pytest.mark.parametrize("workload", sorted(PINNED["report_sha256"]))
def test_report_bytes_are_unchanged(workload):
    here = environment()
    differ = [f"{k}: recorded {PINNED['environment'][k]!r}, here {here[k]!r}"
              for k in here if here[k] != PINNED["environment"][k]]
    if differ:
        pytest.skip("digests were recorded elsewhere; " + "; ".join(differ))
    assert digests(workload, PINNED["seed"]) == PINNED["report_sha256"][workload]


def record() -> dict:
    """Rewrite the pinned file with this environment and the digests of its
    workloads at its seed; returns each workload's (old, new) digest."""
    old = PINNED["report_sha256"]
    new = {w: digests(w, PINNED["seed"]) for w in sorted(old)}
    pinned = {"environment": environment(), "report_sha256": new, "seed": PINNED["seed"]}
    PINNED_FILE.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    return {w: (old[w], new[w]) for w in new}


if __name__ == "__main__":
    for workload, (old, new) in record().items():
        print(f"{workload}: {old} -> {new}")
