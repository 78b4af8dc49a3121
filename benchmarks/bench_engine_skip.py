"""Engine scale: round skipping at n ≥ 10⁴ (E1b_large).

E1b_large runs local broadcast on rings two decades of n past the
Figure-1 sweeps — the regime where engine implementation choices, not
asymptotic shape, dominate wall-clock time. The round-robin series is
~63/64 provably silent rounds, which the skip-enabled bank engine
fast-forwards through. Round counts stay bit-identical either way, and
``tests/test_skip_properties.py`` pins the skip win as a count of
rounds skipped rather than as a timing ratio.

Which kernel each algorithm selects — the struct-of-arrays decay
kernels this experiment exercises — is pinned deterministically by
``tests/test_bank_rng.py`` rather than by comparing timings.
"""

from __future__ import annotations

from benchmarks._common import assert_growth, assert_success, run_experiment


def test_e1b_large_engine_scale(benchmark):
    result = run_experiment(benchmark, "E1b_large")
    assert_success(result)
    assert_growth(result, "round-robin (1/64 broadcasters)", "near-linear")
    assert_growth(result, "static-local-decay [8]", "sublinear")
    # The static-row separation, at engine scale: decay's polylog beats
    # the linear slot schedule by the experiment's contrast claim.
    for claim, ratio, holds in result.contrast_outcomes():
        assert holds, f"{claim.description}: measured {ratio:.1f}x"
