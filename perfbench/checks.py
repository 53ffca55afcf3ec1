"""Output checks for each scenario kind and for the self-test.

Each check reads only the report's numbers and the scenario the benchmark
generated; none calls back into the library, so a defect in a code path
cannot also hide itself in its check. A check returns ``None`` when the
output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import math

import numpy as np


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _project(op, r):
    scale = max(1.0, abs(r["heat_absorbed"]), abs(r["energy_change"]), abs(r["work"]))
    gap = abs(r["work"] - (r["heat_absorbed"] - r["energy_change"]))
    if gap > 1e-9 * scale:
        return f"work != heat_absorbed - energy_change (gap {gap:.3e})"
    bound = r["entropy_change_bound"]
    if bound is not None and bound > r["entropy_change"] + 1e-10:
        return f"entropy_change {r['entropy_change']!r} below its bound {bound!r}"
    return None


def _bound_scan(op, r):
    for point in r["points"]:
        if point["bound"] > point["entropy_change"] + 1e-12:
            return f"bound exceeds entropy_change at theta={point['theta']!r}"
    return None


def _protocol(op, r):
    c = r["purity_clamp"]
    budget = 2.0 * op.dim * c * math.log(1.0 / c) if c > 0.0 else 0.0
    gap = abs(r["exact"]["totals"]["work"] - r["w_opt"])
    if gap > budget + 1e-9 * max(1.0, abs(r["w_opt"])):
        return f"exact total work misses w_opt by {gap:.3e} (clamp budget {budget:.3e})"
    if [s["steps"] for s in r["simulated"]] != op.scenario["steps"]:
        return "simulated ledgers do not match the requested step counts"
    return None


def _jarzynski(op, r):
    lhs, rhs = r["jarzynski_lhs"], r["jarzynski_rhs"]
    if abs(lhs - rhs) > 1e-10 * max(abs(lhs), abs(rhs)):
        return f"Jarzynski lhs {lhs!r} != rhs {rhs!r}"
    s = r["sampling"]
    if s is not None:
        se = s["exp_beta_w_std_error"]
        if not se > 0.0 or abs(s["exp_beta_w_estimate"] - lhs) > 5.0 * se:
            return (f"Monte-Carlo estimate {s['exp_beta_w_estimate']!r} not within "
                    f"5 standard errors ({se!r}) of {lhs!r}")
    return None


def _entropy(eigenvalues) -> float:
    return -float(sum(x * math.log(x) for x in eigenvalues if x > 0.0))


def _dephasing_work(scenario) -> float | None:
    """T * (S(diag rho) - S(rho)) for an explicit state and a diagonal
    Hamiltonian with distinct levels: the optimal work of projecting onto
    the energy eigenbasis, whose energy change is zero. None otherwise."""
    levels = scenario["hamiltonian"].get("diag")
    if "matrix" not in scenario["state"] or levels is None or \
            min(np.diff(np.sort(levels))) < 1e-6:
        return None
    rho = np.array([[complex(*z) for z in row] for row in scenario["state"]["matrix"]])
    gain = _entropy(np.diag(rho).real) - _entropy(np.linalg.eigvalsh(rho))
    return gain / scenario["beta"]


def _singleshot(op, r):
    works = [p["work"] for p in r["points"]]
    if [p["n"] for p in r["points"]] != op.scenario["n_copies"]:
        return "points do not match the requested n_copies"
    if not all(math.isfinite(w) for w in works + [r["w_opt"]]):
        return f"non-finite work in {works!r}"
    eps = op.scenario["eps"]
    if not _close(r["failure_probability"], 2.0 * eps - eps * eps, 1e-12):
        return f"failure_probability {r['failure_probability']!r} != 2 eps - eps^2"
    w_opt = _dephasing_work(op.scenario)
    if w_opt is not None and not _close(r["w_opt"], w_opt, 1e-9):
        return f"w_opt {r['w_opt']!r} != T dS = {w_opt!r}"
    return None


def _correlations(op, r):
    surplus = r["global_work"] - r["system_work"]
    if not _close(surplus, r["delta"] / op.scenario["beta"], 1e-9):
        return f"global_work - system_work = {surplus!r} != delta/beta"
    if r["lemma1"]["holds"] is not True:
        return "lemma1 does not hold"
    return None


_KIND_CHECKS = {
    "project": _project,
    "bound_scan": _bound_scan,
    "protocol": _protocol,
    "jarzynski": _jarzynski,
    "singleshot": _singleshot,
    "correlations": _correlations,
}


def check_report(op, report: dict) -> str | None:
    """Check one parsed `coherework run` report against its scenario."""
    if report.get("scenario") != op.scenario:
        return "report does not echo its scenario"
    try:
        return _KIND_CHECKS[op.scenario["kind"]](op, report["results"])
    except (KeyError, TypeError) as exc:
        return f"report lacks an expected field: {type(exc).__name__}: {exc}"


def check_selftest(lines: list[str]) -> list[str]:
    """Lines of `coherework self-test` output that are not PASS lines."""
    return [line for line in lines if not line.startswith("PASS")]
