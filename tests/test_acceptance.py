"""Acceptance suite: every shipped guarantee, one criterion per test.

Also exercised through `coherework self-test`; the per-criterion checks and
budgets live in coherework.acceptance so CLI and pytest agree exactly. The
suite runs once per session, as one `self_test` call whose `run_all` results
also serve the per-criterion and aggregate tests; the repeatability test
re-runs four of the cheaper criteria alone.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import coherework.acceptance as acceptance
import coherework.singleshot as singleshot
from coherework.acceptance import criterion_names, run_criterion, self_test
from coherework.cli import main

PINNED_STDOUT = Path(__file__).parent / "golden" / "pinned" / "self_test_stdout.sha256"


@pytest.fixture(scope="session")
def self_test_run():
    """``(passed, output lines, run_all results)`` of one self_test run."""
    recorded = []
    real_run_all = acceptance.run_all

    def recording_run_all():
        results = real_run_all()
        recorded.append(results)
        return results

    lines = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "run_all", recording_run_all)
        passed = self_test(echo=lines.append)
    return passed, lines, recorded[-1]


@pytest.mark.parametrize("name", criterion_names())
def test_criterion(name, self_test_run):
    result = next(r for r in self_test_run[2] if r.name == name)
    print(f"{'PASS' if result.passed else 'FAIL'}  {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    assert result.elapsed <= result.budget


def test_ln2_mutation_is_detected(monkeypatch):
    monkeypatch.setattr(singleshot, "LN2", 0.7)
    result = run_criterion("07_single_shot_consistency")
    assert not result.passed


def test_full_suite_aggregates_and_detects_mutation(self_test_run):
    results = self_test_run[2]
    names = [r.name for r in results]
    assert names[:-1] == list(criterion_names())
    assert names[-1] == "10_aggregate_and_mutation"
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
        assert r.passed, f"{r.name}: {r.detail}"
    assert sum(r.elapsed for r in results) < 180.0


def test_self_test_output_is_stable(self_test_run):
    passed, lines, results = self_test_run
    assert passed
    assert len(lines) == 11  # ten criteria plus the summary line
    assert all(line.startswith("PASS") for line in lines)
    # a second run in the same process reaches the same verdict and detail
    for name in ("03_quasistatic_convergence", "05_jarzynski_identity",
                 "07_single_shot_consistency", "09_max_work_fixed_energy"):
        first = next(r for r in results if r.name == name)
        again = run_criterion(name)
        assert (again.passed, again.detail) == (first.passed, first.detail)


def test_self_test_stdout_is_pinned(self_test_run):
    # the bytes `coherework self-test` prints: one echo call per line
    stdout = "".join(line + "\n" for line in self_test_run[1])
    assert hashlib.sha256(stdout.encode()).hexdigest() == PINNED_STDOUT.read_text().strip()


def test_verbose_adds_detail_and_time_under_each_line(self_test_run, monkeypatch, capsys):
    _, lines, results = self_test_run
    monkeypatch.setattr(acceptance, "run_all", lambda: results)
    assert main(["self-test", "--verbose"]) == 0
    verbose = capsys.readouterr().out.splitlines()
    assert [line for line in verbose if not line.startswith(" ")] == lines
    for r in results:
        at = verbose.index(f"PASS  {r.name}")
        assert verbose[at + 1] == f"      {r.detail}"
        assert verbose[at + 2] == f"      {r.elapsed:.2f} s of a {r.budget:.0f} s budget"


def test_block_lp_equals_separate_lps(monkeypatch):
    # record criterion 07's block solves, then solve every fifth case alone
    real = acceptance._dmax_linprog
    solves = []

    def recording(ps, qs, eps):
        values = real(ps, qs, eps)
        solves.append((ps, qs, eps, values))
        return values

    monkeypatch.setattr(acceptance, "_dmax_linprog", recording)
    assert run_criterion("07_single_shot_consistency").passed
    assert [len(ps) for ps, *_ in solves] == [25] * 12
    for ps, qs, eps, values in solves:
        for k in range(0, 25, 5):
            alone = real(ps[k:k + 1], qs[k:k + 1], eps)[0]
            assert abs(values[k] - alone) <= 1e-12
            smoothed = singleshot.d_max_eps(singleshot.Distribution(ps[k]),
                                            singleshot.Distribution(qs[k]), eps)
            assert abs(values[k] - smoothed) <= 1e-12


@pytest.mark.parametrize("dim, eps, index", [(3, 0.1, 0), (4, 0.01, 12), (4, 0.3, 24)])
def test_single_shot_detects_one_shifted_instance(monkeypatch, dim, eps, index):
    # with dim 3 or 4 and eps > 0, criterion 07 calls d_max_eps only for its
    # LP cases, 25 instances per (dim, eps), and no other oracle sees them
    real = acceptance.d_max_eps
    seen = []

    def shifted(p, q, e):
        value = real(p, q, e)
        if len(p) == dim and e == eps:
            seen.append(value)
            if len(seen) == index + 1:
                return value + 1e-6
        return value

    monkeypatch.setattr(acceptance, "d_max_eps", shifted)
    result = run_criterion("07_single_shot_consistency")
    assert len(seen) == 25
    assert not result.passed, result.detail
