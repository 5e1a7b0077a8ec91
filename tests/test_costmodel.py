import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evprune.costmodel import (
    ArchProfile,
    CostReport,
    LlmDims,
    VitDims,
    WorkloadSpec,
    compare,
    estimate,
    load_arch_profile,
    load_shipped_profile,
    shipped_profile_names,
)
from evprune.errors import FormatError, ValidationError
from evprune.events import EventFrame
from evprune.packing import pack_patches
from evprune.saliency import quantile_mask, retained_count
from evprune.verify import check_cost_laws


def toy_profile(d_vit=64, d_llm=128, merge=1):
    return ArchProfile(
        name="toy",
        vit=VitDims(d_model=d_vit, n_layers=2, n_heads=4, mlp_ratio=2.0,
                    patch_size=4, merge_size=merge, channels=3),
        llm=LlmDims(d_model=d_llm, n_layers=3, n_heads=4, mlp_ratio=3.0),
    )


def report_with_total(macs):
    breakdown = dict.fromkeys(
        ("vit_attention", "vit_mlp", "merge", "llm_prefill", "llm_decode"), 0)
    breakdown["llm_prefill"] = macs
    return CostReport(breakdown=breakdown,
                      visual_tokens_dense=0, visual_tokens_retained=0,
                      merged_tokens=0)


class TestEstimate:
    def test_zero_workload_is_zero_cost(self):
        """``check_cost_laws`` checks the empty workload's MACs; its FLOPs and
        every breakdown term are zero too."""
        report = estimate(toy_profile(), WorkloadSpec(0, 0, 0.5, 0, 0))
        assert report.macs == 0 and report.flops == 0
        assert all(v == 0 for v in report.breakdown.values())

    def test_closed_form_recomputation(self):
        prof = toy_profile()
        work = WorkloadSpec(image_height=32, image_width=24, tau=0.25,
                            text_tokens=10, decode_tokens=4)
        report = estimate(prof, work)

        n_dense = (32 // 4) * (24 // 4)
        n = retained_count(0.75, n_dense)
        d, h, layers = 64, 128, 2
        vit_attn = layers * (4 * n * d * d + 2 * n * n * d)
        vit_mlp = layers * (2 * n * d * h)
        assert report.breakdown["vit_attention"] == vit_attn
        assert report.breakdown["vit_mlp"] == vit_mlp
        assert report.visual_tokens_dense == n_dense
        assert report.visual_tokens_retained == n

        merge_in = 64
        assert report.breakdown["merge"] == n * (merge_in**2 + merge_in * 128)

        pre = n + 10
        dl, hl, ll = 128, 384, 3
        assert report.breakdown["llm_prefill"] == ll * (
            4 * pre * dl * dl + 2 * pre * pre * dl + 2 * pre * dl * hl)

        ctx_sum = sum(pre + t for t in range(1, 5))
        assert report.breakdown["llm_decode"] == ll * (
            4 * 4 * dl * dl + 2 * dl * ctx_sum + 4 * 2 * dl * hl)

        assert report.macs == sum(report.breakdown.values())
        assert report.flops == 2 * report.macs

    def test_doubling_d_model_scales_projection_and_attention(self):
        # with n fixed: projections (4*n*d^2) go x4, score/mix matmuls
        # (2*n^2*d) go x2
        n = 48  # 32x24 image, patch 4, tau 0
        work = WorkloadSpec(32, 24, 0.0, 0, 0)
        small = estimate(toy_profile(d_vit=64), work)
        big = estimate(toy_profile(d_vit=128), work)
        layers = 2
        for d, rep in ((64, small), (128, big)):
            proj = layers * 4 * n * d * d
            mix = layers * 2 * n * n * d
            assert rep.breakdown["vit_attention"] == proj + mix
        proj_small = layers * 4 * n * 64 * 64
        mix_small = layers * 2 * n * n * 64
        assert big.breakdown["vit_attention"] == 4 * proj_small + 2 * mix_small

    def test_linearity_limit_reduction_approaches_tau(self):
        # huge width, tiny grid, no prompt: n^2 terms vanish and the
        # sparse/dense ratio tends to the retained fraction
        prof = ArchProfile(
            name="wide",
            vit=VitDims(4096, 2, 4, 2.0, patch_size=4, merge_size=1, channels=3),
            llm=LlmDims(4096, 2, 4, 2.0),
        )
        dense = estimate(prof, WorkloadSpec(16, 16, 0.0, 0, 0))
        sparse = estimate(prof, WorkloadSpec(16, 16, 0.5, 0, 0))
        ratio = sparse.macs / dense.macs
        assert abs(ratio - 0.5) < 0.01

    def test_merge_cell_granularity_matches_mask_pipeline(self):
        prof = toy_profile(merge=2)
        rng = np.random.Generator(np.random.PCG64(3))
        for tau in (0.0, 0.3, 0.45, 0.7, 1.0):
            report = estimate(prof, WorkloadSpec(32, 32, tau, 5, 0))
            smap = EventFrame(rng.random((8, 8)))
            mask = quantile_mask(smap, 1.0 - tau, merge_size=2)
            packed = pack_patches(rng.standard_normal((64, 3)), mask)
            assert report.visual_tokens_retained == mask.k == len(packed)

    def test_indivisible_merge_grid_rejected(self):
        prof = toy_profile(merge=2)
        with pytest.raises(ValidationError):
            estimate(prof, WorkloadSpec(36, 32, 0.5, 0, 0))  # 9x8 grid

    @settings(deadline=None, max_examples=100)
    @given(st.sampled_from((1, 2)), st.integers(0, 20), st.integers(0, 20),
           st.floats(0, 1), st.floats(0, 1), st.integers(0, 100), st.integers(0, 30))
    @example(1, 0, 0, 0.5, 0.5, 0, 0)
    @example(1, 16, 16, 0.0, 0.2, 7, 3)
    @example(1, 16, 16, 0.2, 0.4, 7, 3)
    @example(1, 16, 16, 0.4, 0.6, 7, 3)
    @example(1, 16, 16, 0.6, 0.8, 7, 3)
    @example(1, 16, 16, 0.8, 1.0, 7, 3)
    def test_cost_laws(self, merge, cell_rows, cell_cols, t1, t2, text, decode):
        """MACs fall as the dropped fraction rises, and nothing costs nothing."""
        profile = toy_profile(merge=merge)
        side = 4 * merge  # pixels per merge cell
        works = [WorkloadSpec(cell_rows * side, cell_cols * side, tau, text, decode)
                 for tau in sorted((t1, t2))]
        reports = [estimate(profile, work) for work in works]
        assert check_cost_laws(profile, works, reports) is None

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 20), st.integers(0, 20), st.floats(0, 1),
           st.integers(0, 100), st.integers(0, 30))
    def test_flops_twice_macs_always(self, gh, gw, tau, text, decode):
        work = WorkloadSpec(gh * 4, gw * 4, tau, text, decode)
        report = estimate(toy_profile(), work)
        assert report.flops == 2 * report.macs
        assert report.visual_tokens_retained <= report.visual_tokens_dense

    def test_a_report_is_its_breakdown(self):
        """Totals are derived, so a report whose totals disagree with its
        stages cannot be built."""
        assert [f.name for f in dataclasses.fields(CostReport)] == [
            "breakdown", "visual_tokens_dense", "visual_tokens_retained", "merged_tokens"]
        report = report_with_total(5)
        assert (report.macs, report.flops) == (5, 10)
        assert report.to_dict()["macs_total"] == 5
        with pytest.raises(TypeError):
            CostReport(macs=5, flops=10, breakdown=report.breakdown,
                       visual_tokens_dense=0, visual_tokens_retained=0, merged_tokens=0)

    def test_breakdown_cannot_be_written_after_the_checks(self):
        # a write into the checked copy made macs negative
        report = report_with_total(5)
        with pytest.raises(TypeError):
            report.breakdown["llm_prefill"] = -7
        with pytest.raises(TypeError):
            del report.breakdown["llm_prefill"]
        assert report.macs == 5 and dict(report.breakdown) == report_with_total(5).breakdown

    @pytest.mark.parametrize("breakdown, match", [
        (None, "breakdown must be a mapping"),
        ([0, 0, 0, 0, 0], "breakdown must be a mapping"),
        ({"vit_attention": 7.5}, "vit_attention MACs must be an integer, got 7.5"),
        ({"merge": "3"}, "merge MACs must be an integer, got '3'"),
        ({"llm_decode": True}, "llm_decode MACs must be an integer, got True"),
        ({"vit_mlp": -1}, "vit_mlp MACs must be >= 0, got -1"),
    ], ids=["None", "list", "float", "str", "bool", "negative"])
    def test_breakdown_holds_non_negative_integers(self, breakdown, match):
        # a float breakdown printed macs_total=7.5; None and str raised TypeError
        if isinstance(breakdown, dict):
            breakdown = report_with_total(0).breakdown | breakdown
        with pytest.raises(ValidationError, match=match):
            CostReport(breakdown, 0, 0, 0)

    @pytest.mark.parametrize("tokens, match", [
        (("4", 1, 1), "visual_tokens_dense must be an integer, got '4'"),
        ((4, 1.0, 1), "visual_tokens_retained must be an integer, got 1.0"),
        ((4, 1, -1), "merged_tokens must be >= 0, got -1"),
    ])
    def test_token_counts_are_non_negative_integers(self, tokens, match):
        # a str count raised TypeError; a float or negative one was kept
        with pytest.raises(ValidationError, match=match):
            CostReport(report_with_total(0).breakdown, *tokens)

    def test_numpy_integers_are_kept_as_ints(self):
        breakdown = {stage: np.int64(macs) for stage, macs in report_with_total(3).breakdown.items()}
        report = CostReport(breakdown, np.int32(4), np.uint8(2), np.int64(1))
        assert report.to_dict() == report_with_total(3).to_dict() | {
            "visual_tokens_dense": 4, "visual_tokens_retained": 2, "merged_tokens": 1}
        assert all(type(v) is int for v in report.to_dict().values())


class TestCompare:
    def test_half_drop_reduction_pair(self):
        dense = report_with_total(7_350_000_000_000)   # 14.7 TFLOPs
        sparse = report_with_total(3_700_000_000_000)  # 7.4 TFLOPs
        red = compare(dense, sparse)
        assert type(red) is float
        assert round(red, 1) == 49.7

    def test_point_three_drop_reduction_pair(self):
        dense = report_with_total(7_350_000_000_000)   # 14.7 TFLOPs
        sparse = report_with_total(5_150_000_000_000)  # 10.3 TFLOPs
        assert round(compare(dense, sparse), 1) == 29.9

    def test_equal_reports_give_zero(self):
        rep = report_with_total(1000)
        assert compare(rep, rep) == 0.0

    def test_signed_when_sparse_exceeds_dense(self):
        assert compare(report_with_total(100), report_with_total(150)) == -50.0

    def test_zero_dense_rejected(self):
        zero = estimate(toy_profile(), WorkloadSpec(0, 0, 0.0, 0, 0))
        with pytest.raises(ValidationError):
            compare(zero, zero)


class TestProfiles:
    def test_shipped_profiles_load(self):
        names = shipped_profile_names()
        assert "qwen2vl_2b_like" in names and "qwen2vl_7b_like" in names
        p2 = load_shipped_profile("qwen2vl_2b_like")
        assert p2.vit.d_model == 1280 and p2.llm.d_model == 1536
        assert p2.llm.mlp_hidden == 8960
        p7 = load_shipped_profile("qwen2vl_7b_like")
        assert p7.llm.d_model == 3584 and p7.llm.mlp_hidden == 18944

    def test_unknown_shipped_name(self):
        for name in ("nonexistent",
                     "../profiles/qwen2vl_2b_like",  # a shipped profile, by a path
                     "../../../configs/encoder"):  # a file outside the package
            with pytest.raises(ValidationError, match="no shipped profile"):
                load_shipped_profile(name)

    def test_text_roundtrip_and_validation(self):
        text = """
        name = tiny
        vit.d_model = 8
        vit.n_layers = 1
        vit.n_heads = 2
        vit.mlp_ratio = 2.0
        vit.patch_size = 2
        vit.merge_size = 1
        vit.channels = 3
        llm.d_model = 8
        llm.n_layers = 1
        llm.n_heads = 2
        llm.mlp_ratio = 2.0
        """
        prof = load_arch_profile(text)
        assert prof.name == "tiny" and prof.vit.mlp_hidden == 16
        with pytest.raises(FormatError):
            load_arch_profile(text + "extra.key = 1\n")
        with pytest.raises(FormatError):
            load_arch_profile("name = x\n")

    def test_dimension_validation(self):
        with pytest.raises(ValidationError):
            VitDims(0, 1, 1, 1.0, 1, 1, 1)
        with pytest.raises(ValidationError):
            LlmDims(8, 1, 1, 0.0)


class TestWorkload:
    def test_tau_range_enforced(self):
        with pytest.raises(ValidationError):
            WorkloadSpec(32, 32, 1.5, 0, 0)
        with pytest.raises(ValidationError):
            WorkloadSpec(32, 32, -0.1, 0, 0)

    def test_field_types_checked(self):
        """392.5 rows gave a report with visual_tokens_dense=784.0."""
        with pytest.raises(ValidationError, match="field image_height: expected integer"):
            WorkloadSpec(392.5, 392, 0.5, 0, 0)
        with pytest.raises(ValidationError, match="field tau: expected number"):
            WorkloadSpec(32, 32, True, 0, 0)
        with pytest.raises(ValidationError, match="field n_heads: expected integer"):
            VitDims(8, 1, 2.0, 1.0, 1, 1, 1)
        with pytest.raises(ValidationError, match="field mlp_ratio: expected number"):
            LlmDims(8, 1, 1, "2.0")
        assert WorkloadSpec(32, 32, 1, 0, 0).tau == 1

    def test_numpy_scalar_fields_are_stored_as_python_numbers(self):
        # int32 dimensions made the MAC counts wrap, with an overflow warning
        profile = ArchProfile(
            "np", VitDims(*map(np.int32, (1024, 24, 16)), np.float32(4.0),
                          *map(np.int32, (14, 2, 3))),
            LlmDims(*map(np.int32, (4096, 32, 32)), np.float32(2.6875)))
        work = WorkloadSpec(np.int64(448), np.uint16(448), np.float32(0.5),
                            np.int16(32), np.int8(8))
        records = (profile.vit, profile.llm, work)
        for record in records:
            for f in dataclasses.fields(record):
                assert type(getattr(record, f.name)) is {"int": int, "float": float}[f.type]
        python = ArchProfile("py", VitDims(1024, 24, 16, 4.0, 14, 2, 3),
                             LlmDims(4096, 32, 32, 2.6875))
        assert estimate(profile, work) == estimate(python, WorkloadSpec(448, 448, 0.5, 32, 8))

    @pytest.mark.parametrize("build", [
        lambda: WorkloadSpec(32, 32, 10**400, 0, 0),
        lambda: VitDims(8, 1, 1, 10**400, 1, 1, 1),
        lambda: LlmDims(8, 1, 1, -(10**400)),
    ])
    def test_float_fields_beyond_float_range_rejected(self, build):
        with pytest.raises(ValidationError, match="beyond float range"):
            build()

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            WorkloadSpec(32, 32, 0.5, -1, 0)
        with pytest.raises(ValidationError):
            WorkloadSpec(-4, 32, 0.5, 0, 0)
