"""Acceptance suite: every shipped guarantee, one criterion per test.

Also exercised through `coherework self-test`; the per-criterion checks and
budgets live in coherework.acceptance so CLI and pytest agree exactly. The
suite runs twice per session, as two `self_test` calls whose `run_all`
results also serve the per-criterion and aggregate tests.
"""

import pytest

import coherework.acceptance as acceptance
import coherework.singleshot as singleshot
from coherework.acceptance import criterion_names, run_criterion, self_test


@pytest.fixture(scope="session")
def self_test_runs():
    """``(passed, output lines, run_all results)`` of two self_test runs."""
    recorded = []
    real_run_all = acceptance.run_all

    def recording_run_all():
        results = real_run_all()
        recorded.append(results)
        return results

    runs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(acceptance, "run_all", recording_run_all)
        for _ in range(2):
            lines = []
            passed = self_test(echo=lines.append)
            runs.append((passed, lines, recorded[-1]))
    return runs


@pytest.mark.parametrize("name", criterion_names())
def test_criterion(name, self_test_runs):
    result = next(r for r in self_test_runs[0][2] if r.name == name)
    print(f"{'PASS' if result.passed else 'FAIL'}  {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"
    assert result.elapsed <= result.budget


def test_ln2_mutation_is_detected(monkeypatch):
    monkeypatch.setattr(singleshot, "LN2", 0.7)
    result = run_criterion("07_single_shot_consistency")
    assert not result.passed


def test_full_suite_aggregates_and_detects_mutation(self_test_runs):
    results = self_test_runs[0][2]
    names = [r.name for r in results]
    assert names[:-1] == list(criterion_names())
    assert names[-1] == "10_aggregate_and_mutation"
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}")
        assert r.passed, f"{r.name}: {r.detail}"
    assert sum(r.elapsed for r in results) < 180.0


def test_self_test_output_is_stable(self_test_runs):
    (passed1, lines1, _), (passed2, lines2, _) = self_test_runs
    assert passed1
    assert passed2
    assert lines1 == lines2
    assert len(lines1) == 11  # ten criteria plus the summary line
    assert all(line.startswith("PASS") for line in lines1)
