import numpy as np
import pytest

from evprune import saliency
from evprune.errors import ValidationError
from evprune.events import EventFrame
from evprune.verify import check_mask_laws, run_suites, suite_names

QUICK_CASES = {"rope.properties": 120, "saliency.mask": 60, "events.roundtrip": 25,
               "events.accumulate": 20, "pack.roundtrip": 20, "encoder.equivalence": 8,
               "costmodel.laws": 15}
FULL_CASES = {"rope.properties": 360, "saliency.mask": 200, "events.roundtrip": 80,
              "events.accumulate": 60, "pack.roundtrip": 60, "encoder.equivalence": 12,
              "costmodel.laws": 40}
# (invariant, repro seed) each quick suite reports under --inject-fault
FAULTS = {
    "rope.properties": ("rope.norm_preservation", 14000),
    "saliency.mask": ("saliency.nesting", 20000),
    "events.roundtrip": ("events.binary_roundtrip", 30000),
    "events.accumulate": ("events.accumulate_bruteforce", 40000),
    "pack.roundtrip": ("pack.scatter_roundtrip", 50001),
    "encoder.equivalence": ("encoder.packed_equals_masked_dense", 61600),
    # the fault swaps the two reports; that step drops 2.4 merge cells
    "costmodel.laws": ("costmodel.monotonic_in_tau", 70000),
}


class TestRunSuites:
    def test_quick_all_pass(self):
        results = run_suites(full=False)
        assert [r.name for r in results] == list(suite_names())
        assert all(r.passed for r in results)
        assert {r.name: r.cases for r in results} == QUICK_CASES

    def test_full_runs_more_cases(self):
        quick = {r.name: r.cases for r in run_suites(full=False)}
        results = run_suites(full=True)
        assert all(r.passed for r in results)
        full = {r.name: r.cases for r in results}
        assert all(full[name] > quick[name] for name in quick)
        assert full == FULL_CASES

    def test_unknown_fault_name_rejected(self):
        with pytest.raises(ValidationError, match="unknown suite"):
            run_suites(full=False, inject_fault="nonsense.suite")

    @pytest.mark.parametrize("suite", suite_names())
    def test_injected_fault_is_detected(self, suite):
        """Each suite must catch a deliberately perturbed case and report
        the violated invariant with a reproduction seed."""
        results = {r.name: r for r in run_suites(full=False, inject_fault=suite)}
        broken = results[suite]
        assert not broken.passed
        assert broken.failure is not None
        assert "repro seed" in str(broken.failure)
        assert (broken.failure.invariant, broken.failure.seed) == FAULTS[suite]
        others = [r for name, r in results.items() if name != suite]
        assert all(r.passed for r in others)


@pytest.mark.parametrize("tau", [0.05, 0.07, 0.3 + 0.1])
def test_mask_count_law_states_the_guard(tau):
    """tau * 100 lies just above an integer for these taus, and
    ``retained_count``'s guard rounds it down; one extra kept patch trips."""
    smap = EventFrame(np.random.Generator(np.random.PCG64(5)).random((10, 10)))
    mask = saliency.quantile_mask(smap, tau)
    assert check_mask_laws(smap, mask, mask, 7.5) is None
    bits = mask.bits.copy()
    bits.flat[np.flatnonzero(bits == 0)[0]] = 1
    extra = saliency.PatchMask(bits, tau)
    assert check_mask_laws(smap, mask, extra, 7.5)[0] == "saliency.exact_cardinality"
