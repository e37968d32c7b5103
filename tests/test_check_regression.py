"""Tests for the benchmark regression gate (``benchmarks/check_regression.py``).

Access-count regressions are always fatal; the timing check (compiled must
beat the reference) is advisory in quick mode, where wall-clock on shared CI
runners is unreliable by the module's own account.
"""

import copy

from benchmarks.check_regression import MAX_ACCESS_REGRESSION, compare


def report(mode="quick", accesses=1000, speedup=10.0, autotuned=400):
    return {
        "meta": {"mode": mode},
        "workloads": {
            "scheduler": {
                "tiers": {
                    "reference": {"accesses": 0},
                    "compiled": {"accesses": accesses},
                },
                "speedup_compiled_vs_reference": speedup,
                "autotuned": {"accesses": autotuned},
            }
        },
    }


def test_healthy_report_passes():
    baseline = report()
    failures, warnings = compare(copy.deepcopy(baseline), baseline)
    assert failures == [] and warnings == []


def test_access_regression_is_fatal_in_quick_mode():
    baseline = report()
    current = report(accesses=int(1000 * MAX_ACCESS_REGRESSION) + 100)
    failures, warnings = compare(current, baseline)
    assert any("regression" in f for f in failures)
    assert warnings == []


def test_autotuned_access_regression_is_fatal():
    baseline = report()
    current = report(autotuned=int(400 * MAX_ACCESS_REGRESSION) + 50)
    failures, warnings = compare(current, baseline)
    assert any("autotuned" in f and "regression" in f for f in failures)
    assert warnings == []


def test_missing_autotuned_section_fails_when_baseline_has_it():
    # A --skip-autotune run must not silently disable the autotuned gate.
    baseline = report()
    current = report()
    del current["workloads"]["scheduler"]["autotuned"]
    failures, warnings = compare(current, baseline)
    assert any("autotuned" in f and "missing" in f for f in failures)
    assert warnings == []


def test_autotuned_section_optional_when_baseline_lacks_it():
    # Older baselines without the column impose no autotuned gate.
    baseline = report()
    del baseline["workloads"]["scheduler"]["autotuned"]
    current = report()
    del current["workloads"]["scheduler"]["autotuned"]
    failures, warnings = compare(current, baseline)
    assert failures == [] and warnings == []


def test_timing_inversion_is_advisory_in_quick_mode():
    baseline = report()
    current = report(speedup=0.7)
    failures, warnings = compare(current, baseline)
    assert failures == []
    assert len(warnings) == 1 and "advisory" in warnings[0]


def test_timing_inversion_is_fatal_in_default_mode():
    baseline = report(mode="default")
    current = report(mode="default", speedup=0.7)
    failures, warnings = compare(current, baseline)
    assert any("slower than the reference tier" in f for f in failures)
    assert warnings == []


def test_strict_accesses_fails_on_any_increase():
    # The chaos job's zero-overhead gate: disabled fault hooks and undo-log
    # bookkeeping must not add a single counted access, even well inside
    # the 2x headroom of the default gate.
    baseline = report()
    current = report(accesses=1002)
    failures, warnings = compare(current, baseline)
    assert failures == []  # within 2x: the default gate passes...
    failures, warnings = compare(current, baseline, strict_accesses=True)
    assert any("strict gate" in f and "+2" in f for f in failures)
    assert warnings == []


def test_strict_accesses_covers_the_autotuned_section():
    baseline = report()
    current = report(autotuned=401)
    failures, _ = compare(current, baseline, strict_accesses=True)
    assert any("autotuned" in f and "strict gate" in f for f in failures)


def test_strict_accesses_passes_on_identical_and_improved_counts():
    baseline = report()
    failures, warnings = compare(copy.deepcopy(baseline), baseline, strict_accesses=True)
    assert failures == [] and warnings == []
    improved = report(accesses=900, autotuned=300)
    failures, warnings = compare(improved, baseline, strict_accesses=True)
    assert failures == [] and warnings == []


def test_missing_workload_and_tier_are_fatal():
    baseline = report()
    current = copy.deepcopy(baseline)
    del current["workloads"]["scheduler"]["tiers"]["compiled"]
    failures, _ = compare(current, baseline)
    assert any("tier missing" in f for f in failures)
    current = {"meta": {"mode": "quick"}, "workloads": {}}
    failures, _ = compare(current, baseline)
    assert any("workload missing" in f for f in failures)
