import numpy as np
import pytest

from evprune import costmodel, events, packing, saliency, verify
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


def _mask_laws(scores, bits, scale=7.5):
    mask = saliency.PatchMask(np.array(bits), 0.5)
    return check_mask_laws(EventFrame(np.array(scores)), mask, mask, scale)


def _stream(t):
    return events.EventStream(4, 2, t, [1] * len(t), [0] * len(t), [1] * len(t))


def _accumulate_laws(monkeypatch):
    stream = _stream([0, 1, 2])
    frame = events.accumulate(stream, 0, 3)
    monkeypatch.setattr(events, "resize_to", lambda frame, w, h: EventFrame(np.zeros((h, w))))
    return verify.check_accumulate(stream, 0, 3, frame)


def _csv_roundtrip(monkeypatch):
    stream = _stream([0, 1])
    monkeypatch.setattr(events, "read_events_csv", lambda text: _stream([0]))
    return verify.check_events_roundtrip(stream, events.write_events_bin(stream))


def _cost_laws(monkeypatch):
    profile = costmodel.load_shipped_profile("qwen2vl_2b_like")
    works = [costmodel.WorkloadSpec(56, 56, 0.5, 0, 0)] * 2
    reports = [costmodel.estimate(profile, work) for work in works]
    charged = costmodel.CostReport(dict.fromkeys(costmodel._STAGES, 1), 0, 0, 0)
    monkeypatch.setattr(costmodel, "estimate", lambda profile, work: charged)
    return verify.check_cost_laws(profile, works, reports)


def _oracle_laws(_):
    tokens, kept = np.zeros((1, 4)), np.array([[0, 0]])
    packed, oracle = (packing.PackedSequence(tokens, kept, grid) for grid in ((1, 1), (1, 2)))
    return verify._within(
        {"encoder.packed_equals_masked_dense": verify.packed_oracle_error(packed, oracle)})


@pytest.mark.parametrize("invariant, check", [
    ("saliency.threshold_consistency", lambda _: _mask_laws([[1.0, 2.0]], [[1, 0]])),
    ("saliency.raster_tie_break", lambda _: _mask_laws([[1.0, 1.0]], [[0, 1]])),
    # a positive scale that rounds 1 and 1.25 to the same subnormal ties them
    ("saliency.scale_invariance", lambda _: _mask_laws([[1.0, 1.25]], [[0, 1]], 5e-324)),
    ("encoder.packed_equals_masked_dense", _oracle_laws),
    ("events.binary_roundtrip", lambda _: verify.check_events_roundtrip(
        _stream([0, 1]), events.write_events_bin(_stream([0])))),
    ("events.csv_roundtrip", _csv_roundtrip),
    ("events.resize_conservation", _accumulate_laws),
    ("costmodel.zero_workload", _cost_laws),
])
def test_a_broken_law_names_its_invariant(invariant, check, monkeypatch):
    # no test had seen these laws fail; resize_to, read_events_csv and estimate
    # are replaced because no input makes them break their law
    assert check(monkeypatch)[0] == invariant


def test_max_rel_err_refuses_differing_shapes():
    with pytest.raises(ValidationError, match=r"shapes differ: \(2,\) vs \(1, 2\)"):
        verify.max_rel_err(np.zeros(2), np.zeros((1, 2)))
