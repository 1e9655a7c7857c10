"""The deterministic rollback-cascade scenario (Table 1, column 3)."""

from repro.analysis import check_recovery
from repro.core.recovery import DamaniGargProcess
from repro.harness.scenarios import cascade
from repro.protocols.strom_yemini import StromYeminiProcess
from repro.runtime.trace import EventKind


def test_strom_yemini_rolls_p2_back_twice():
    result = cascade(StromYeminiProcess)
    p2 = result.protocols[2]
    assert p2.stats.rollbacks == 2
    # Both rollbacks trace to the single root failure (P0's first crash).
    assert p2.stats.rollbacks_per_failure == {(0, 1): 2}
    assert p2.stats.max_rollbacks_for_single_failure == 2


def test_strom_yemini_cascade_is_still_safe():
    result = cascade(StromYeminiProcess)
    verdict = check_recovery(
        result,
        expect_minimal_rollback=False,
        expect_single_rollback_per_failure=False,
        expect_maximum_recovery=False,
    )
    assert verdict.ok, verdict.violations


def test_damani_garg_rolls_p2_back_once_on_the_same_scenario():
    result = cascade(DamaniGargProcess)
    p2 = result.protocols[2]
    assert p2.stats.rollbacks == 1
    assert p2.stats.max_rollbacks_for_single_failure == 1
    verdict = check_recovery(result)
    assert verdict.ok, verdict.violations


def test_cascade_mechanism_is_the_rollback_announcement():
    """S-Y pays extra tokens for the cascade: P1's rollback broadcasts."""
    sy = cascade(StromYeminiProcess)
    dg = cascade(DamaniGargProcess)
    sy_tokens = sy.trace.count(EventKind.TOKEN_SEND, pid=1)
    dg_tokens = dg.trace.count(EventKind.TOKEN_SEND, pid=1)
    assert sy_tokens >= 1          # P1 announced its rollback
    assert dg_tokens == 0          # D-G rollback is silent


def test_both_protocols_reach_equivalent_app_outcomes():
    """Both end with the infected states gone; the surviving payload
    histories agree."""
    sy = cascade(StromYeminiProcess)
    dg = cascade(DamaniGargProcess)
    for pid in range(3):
        assert (
            sy.protocols[pid].executor.state
            == dg.protocols[pid].executor.state
        )
