import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evprune import costmodel
from evprune.encoder import EncoderConfig, load_encoder_config
from evprune.errors import FormatError, ValidationError
from evprune.events import EventStream, read_events_bin, write_events_bin
from evprune.featio import read_features, write_features
from evprune.kvtext import decode_ascii, parse_kv
from evprune.ppm import read_ppm, to_gray01, write_ppm
from evprune.saliency import PatchMask, mask_from_text, mask_to_text

from conftest import VALID_ENCODER, VALID_PROFILE, kv_documents, kv_text, near_valid_bytes


class TestPpm:
    def test_write_read_write_is_identity(self):
        rng = np.random.Generator(np.random.PCG64(2))
        img = rng.integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
        blob = write_ppm(img)
        back = read_ppm(blob)
        assert np.array_equal(back, img)
        assert write_ppm(back) == blob

    def test_header_comments_and_whitespace(self):
        img = read_ppm(b"P6 # comment\n# another\n 2\t1 # w h\n255\n" + bytes(6))
        assert img.shape == (1, 2, 3)

    @pytest.mark.parametrize("header", [b"P6 1_0 1 255\n", b"P6 +2 1 255\n",
                                        b"P6 2 1 0_255\n", b"P6 2 -0 255\n"])
    def test_header_fields_are_unsigned_ascii_decimal(self, header):
        """int() read b"1_0" as 10 and took signs."""
        with pytest.raises(FormatError, match="non-numeric PPM header"):
            read_ppm(header + bytes(30))

    @pytest.mark.parametrize("byte", [b"\x0b", b"\x0c"], ids=["VT", "FF"])
    def test_vertical_tab_and_form_feed_are_not_header_whitespace(self, byte):
        assert read_ppm(b"P6 1\t1\r255\n" + bytes(3)).shape == (1, 1, 3)
        with pytest.raises(FormatError, match="non-numeric PPM header"):
            read_ppm(b"P6 1" + byte + b"1 1 255\n" + bytes(3))
        with pytest.raises(FormatError, match="not terminated by whitespace"):
            read_ppm(b"P6 1 1 255" + byte + bytes(3))

    def test_rejects_wrong_magic(self):
        with pytest.raises(FormatError):
            read_ppm(b"P5\n2 1\n255\n" + bytes(2))

    def test_magic_is_the_whole_first_token(self):
        # only the prefix was compared, so "P6x" was read as "P6"
        with pytest.raises(FormatError, match=r"not a P6 PPM \(bad magic\)"):
            read_ppm(b"P6x 1 1 255\n" + bytes(3))
        assert read_ppm(b"P6#c\n1 1 255\n" + bytes(3)).shape == (1, 1, 3)

    def test_rejects_two_byte_maxval(self):
        with pytest.raises(FormatError):
            read_ppm(b"P6\n1 1\n65535\n" + bytes(6))

    @pytest.mark.parametrize("maxval, samples, scaled", [
        (15, [15, 15, 15], [255, 255, 255]),  # read as near-black before maxval was honoured
        (15, [0, 7, 8], [0, 119, 136]),
        (1, [0, 1, 0], [0, 255, 0]),
        (2, [0, 1, 2], [0, 128, 255]),  # a half rounds up
        (254, [0, 127, 254], [0, 128, 255]),
        (255, [0, 127, 255], [0, 127, 255]),
    ])
    def test_samples_are_scaled_from_maxval(self, maxval, samples, scaled):
        image = read_ppm(b"P6 1 1 %d\n" % maxval + bytes(samples))
        assert image.dtype == np.uint8 and image.tolist() == [[scaled]]

    def test_every_maxval_maps_its_full_range_onto_0_to_255(self):
        for maxval in range(1, 256):
            levels = np.repeat(np.arange(maxval + 1, dtype=np.uint8), 3)
            image = read_ppm(b"P6 %d 1 %d\n" % (maxval + 1, maxval) + levels.tobytes())
            expected = [(v * 255 + maxval // 2) // maxval for v in range(maxval + 1)]
            assert image[0, :, 1].tolist() == expected
            assert expected[0] == 0 and expected[-1] == 255

    @pytest.mark.parametrize("maxval, sample", [(15, 200), (15, 16), (1, 2), (254, 255)])
    def test_rejects_a_sample_above_maxval(self, maxval, sample):
        raster = bytes([0, 0, 0, 0, 0, sample])  # pixel (1, 0), blue
        with pytest.raises(FormatError, match=f"^PPM sample {sample} at pixel \\(1, 0\\) "
                                              f"exceeds maxval {maxval}$"):
            read_ppm(b"P6 2 1 %d\n" % maxval + raster)

    def test_rejects_truncated_raster(self):
        with pytest.raises(FormatError):
            read_ppm(b"P6\n2 2\n255\n" + bytes(11))

    @pytest.mark.parametrize("header, match", [
        (b"9" * 5000 + b" 1", "PPM header field too long"),
        (b"9" * 4000 + b" " + b"9" * 4000, "expected an integer of 26578 bits"),
    ], ids=["field", "raster_size"])
    def test_rejects_numbers_too_long_to_print(self, header, match):
        # int() converts and prints at most 4300 digits; both raised ValueError
        with pytest.raises(FormatError, match=match):
            read_ppm(b"P6\n" + header + b"\n255\n" + bytes(3))

    def test_rejects_trailing_bytes(self):
        with pytest.raises(FormatError):
            read_ppm(b"P6\n1 1\n255\n" + bytes(4))

    @pytest.mark.parametrize("size", [b"0 1", b"1 0", b"0 0"])
    def test_rejects_an_empty_raster(self, size):
        with pytest.raises(FormatError, match="bad PPM dimensions"):
            read_ppm(b"P6\n" + size + b"\n255\n")

    def test_writer_rejects_non_uint8(self):
        with pytest.raises(ValidationError):
            write_ppm(np.zeros((2, 2, 3), dtype=np.float64))

    def test_gray_conversion_range(self):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        img[0, 0] = (255, 255, 255)
        gray = to_gray01(img)
        assert gray[0, 0] == 1.0 and gray[1, 1] == 0.0

    @pytest.mark.parametrize("shape", [(2, 2, 0), (2, 2, 3, 1), (4,)])
    def test_gray_conversion_rejects_other_shapes(self, shape):
        # (2, 2, 0) gave NaN with a warning and (2, 2, 3, 1) was averaged over axis 2
        with pytest.raises(ValidationError, match=r"\(H, W\) or \(H, W, C >= 1\)"):
            to_gray01(np.zeros(shape, dtype=np.uint8))


class TestEvt1Writer:
    def test_refuses_a_timestamp_beyond_u32(self):
        with pytest.raises(ValidationError, match=f"timestamp {2**32} does not fit u32"):
            write_events_bin(EventStream(2, 2, [5, 2**32], [0, 1], [1, 0], [1, -1]))
        last = EventStream(2, 2, [5, 2**32 - 1], [0, 1], [1, 0], [1, -1])
        assert read_events_bin(write_events_bin(last)).t_us.tolist() == [5, 2**32 - 1]


class TestFeatureDump:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 20), st.integers(1, 16), st.integers(0, 2**31))
    def test_roundtrip_bit_exact(self, count, dim, seed):
        rng = np.random.Generator(np.random.PCG64(seed))
        feats = rng.standard_normal((count, dim)).astype(np.float32)
        blob = write_features(feats)
        assert len(blob) == 8 + 4 * count * dim
        back = read_features(blob)
        assert back.dtype == np.float32
        assert np.array_equal(back, feats)
        assert write_features(back) == blob

    def test_rejects_truncated(self):
        blob = write_features(np.ones((2, 3), dtype=np.float32))
        with pytest.raises(FormatError):
            read_features(blob[:-4])
        with pytest.raises(FormatError):
            read_features(blob + b"\0")
        with pytest.raises(FormatError):
            read_features(b"\0\0\0")

    def test_rejects_non_2d(self):
        with pytest.raises(ValidationError):
            write_features(np.zeros(5))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e300, -3.5e38])
    def test_rejects_values_float32_cannot_hold(self, value):
        # NaN was written silently and 1e300 warned "overflow encountered in cast"
        with pytest.raises(ValidationError, match="finite and within float32 range"):
            write_features(np.array([[0.0, value]]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_reader_rejects_what_the_writer_refuses(self, value):
        # returned [[0. nan]] and the like
        blob = write_features(np.zeros((1, 2), dtype=np.float32))
        with pytest.raises(FormatError, match="non-finite"):
            read_features(blob[:-4] + np.array([value], "<f4").tobytes())


class TestKvText:
    def test_parses_comments_blanks_dotted_keys(self):
        kv = parse_kv("# header\n\na.b = 1\nc= two words \n")
        assert kv == {"a.b": "1", "c": "two words"}

    def test_rejects_duplicate_key(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_kv("a = 1\na = 2\n")

    def test_rejects_missing_equals(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_kv("just a line\n")

    def test_rejects_empty_key(self):
        with pytest.raises(FormatError, match="^line 1: empty key$"):
            parse_kv("= 5\n")

    def test_decode_ascii_names_the_offending_byte(self):
        assert decode_ascii(b"a = 1\n", "doc") == "a = 1\n"
        with pytest.raises(FormatError, match="doc: non-ASCII byte at offset 4"):
            decode_ascii(b"a = \xe9\n", "doc")


VALUES = st.one_of(
    st.text(max_size=12),
    st.floats().map(repr),
    st.integers(-2, 64).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "Infinity"]),
    st.sampled_from(["1_0", "\u0663", "0x10", "", "2.0", "16"]),
)


class TestKvLoadersFuzz:
    """Any text gives a value, a FormatError or a ValidationError."""

    @pytest.mark.parametrize("ratio", ["nan", "inf", "1e999"])
    def test_non_finite_mlp_ratio_rejected(self, ratio):
        with pytest.raises(FormatError, match="finite"):
            load_encoder_config(kv_text({**VALID_ENCODER, "mlp_ratio": ratio}))
        with pytest.raises(FormatError, match="finite"):
            costmodel.load_arch_profile(
                kv_text({**VALID_PROFILE, "llm.mlp_ratio": ratio}))

    @settings(deadline=None, max_examples=300)
    @given(kv_documents(VALID_ENCODER, VALUES))
    def test_load_encoder_config(self, text):
        try:
            config = load_encoder_config(text)
        except (FormatError, ValidationError):
            return
        assert isinstance(config, EncoderConfig)
        assert math.isfinite(config.mlp_ratio)

    @settings(deadline=None, max_examples=300)
    @given(kv_documents(VALID_PROFILE, VALUES))
    def test_load_arch_profile(self, text):
        try:
            profile = costmodel.load_arch_profile(text)
        except (FormatError, ValidationError):
            return
        assert isinstance(profile, costmodel.ArchProfile)
        assert math.isfinite(profile.vit.mlp_ratio)
        assert math.isfinite(profile.llm.mlp_ratio)


REPO = Path(__file__).resolve().parents[1]
# Document keys are record field names, so these lists are the file formats:
# renaming a field must fail here rather than silently rename a key.
ENCODER_KEYS = ["patch_size", "channels", "d_model", "n_layers", "n_heads",
                "mlp_ratio", "merge_size", "d_out", "seed"]
PROFILE_KEYS = ["name", "vit.d_model", "vit.n_layers", "vit.n_heads", "vit.mlp_ratio",
                "vit.patch_size", "vit.merge_size", "vit.channels",
                "llm.d_model", "llm.n_layers", "llm.n_heads", "llm.mlp_ratio"]


def readme_config_block():
    readme = (REPO / "README.md").read_text()
    return re.search(r"An encoder config is.*?```\n(.*?)```", readme, re.S).group(1)


class TestDocumentKeys:
    def test_loaders_require_exactly_the_pinned_keys_in_order(self):
        with pytest.raises(FormatError) as info:
            load_encoder_config("")
        assert str(info.value) == f"encoder config: missing keys {', '.join(ENCODER_KEYS)}"
        with pytest.raises(FormatError) as info:
            costmodel.load_arch_profile("")
        assert str(info.value) == f"arch profile: missing keys {', '.join(PROFILE_KEYS)}"

    @pytest.mark.parametrize("source", ["configs/encoder.cfg", "README.md"])
    def test_shipped_encoder_configs_load(self, source):
        text = (readme_config_block() if source == "README.md"
                else (REPO / source).read_text(encoding="ascii"))
        kv = parse_kv(text)
        assert list(kv) == ENCODER_KEYS
        config = load_encoder_config(text)
        assert [getattr(config, key) for key in ENCODER_KEYS] == [
            float(v) if key == "mlp_ratio" else int(v) for key, v in kv.items()]

    @pytest.mark.parametrize("name", ["qwen2vl_2b_like", "qwen2vl_7b_like"])
    def test_shipped_profiles_load(self, name):
        kv = parse_kv((REPO / "src/evprune/profiles" / f"{name}.cfg").read_text(encoding="ascii"))
        assert list(kv) == PROFILE_KEYS
        profile = costmodel.load_shipped_profile(name)
        assert profile.name == kv.pop("name")
        for key, value in kv.items():
            record, field = key.split(".")
            got = getattr(getattr(profile, record), field)
            assert got == (float(value) if field == "mlp_ratio" else int(value))


@pytest.mark.parametrize("load, valid, edits, error, message", [
    # missing keys are reported before unknown keys
    (load_encoder_config, VALID_ENCODER, {"seed": None, "bogus": "1"},
     FormatError, "encoder config: missing keys seed"),
    (costmodel.load_arch_profile, VALID_PROFILE, {"llm.n_heads": None, "vit.bogus": "1"},
     FormatError, "arch profile: missing keys llm.n_heads"),
    # the first unparseable field in declaration order is named
    (load_encoder_config, VALID_ENCODER, {"seed": "x", "d_model": "y", "mlp_ratio": "nan"},
     FormatError, "key d_model: expected integer, got 'y'"),
    (costmodel.load_arch_profile, VALID_PROFILE,
     {"llm.d_model": "x", "vit.channels": "y", "vit.mlp_ratio": "z"},
     FormatError, "key vit.mlp_ratio: expected number, got 'z'"),
    # vit dimensions are validated before any llm value is parsed: exit 1, not 2
    (costmodel.load_arch_profile, VALID_PROFILE, {"vit.d_model": "0", "llm.d_model": "x"},
     ValidationError, "all encoder dimensions must be >= 1"),
    # int() and float() take these spellings; errors.integer and errors.real do not
    (load_encoder_config, VALID_ENCODER, {"patch_size": "1_16"},
     FormatError, "key patch_size: expected integer, got '1_16'"),
    (load_encoder_config, VALID_ENCODER, {"mlp_ratio": "\u0664.0"},
     FormatError, "key mlp_ratio: expected number, got '\u0664.0'"),
    (load_encoder_config, VALID_ENCODER, {"mlp_ratio": "4_0.0"},
     FormatError, "key mlp_ratio: expected number, got '4_0.0'"),
    (costmodel.load_arch_profile, VALID_PROFILE, {"vit.patch_size": "1_16"},
     FormatError, "key vit.patch_size: expected integer, got '1_16'"),
    (costmodel.load_arch_profile, VALID_PROFILE, {"llm.mlp_ratio": "\u0664.0"},
     FormatError, "key llm.mlp_ratio: expected number, got '\u0664.0'"),
    (costmodel.load_arch_profile, VALID_PROFILE, {"vit.mlp_ratio": "4_0.0"},
     FormatError, "key vit.mlp_ratio: expected number, got '4_0.0'"),
])
def test_loader_error_precedence(load, valid, edits, error, message):
    kv = {key: value for key, value in {**valid, **edits}.items() if value is not None}
    # reversed, so that document order is not declaration order
    with pytest.raises(error) as info:
        load(kv_text(dict(reversed(kv.items()))))
    assert type(info.value) is error and str(info.value) == message


def mask_documents():
    """Arbitrary text, or a mask document with its header or one row edited."""
    valid = mask_to_text(PatchMask(np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8), 0.5))
    header_fields = st.one_of(
        st.integers(-3, 4).map(str), st.sampled_from(["100000000000", "-1", "1e3", "x"]))

    @st.composite
    def edited(draw):
        lines = valid.splitlines()
        if draw(st.booleans()):
            lines[0] = " ".join(draw(st.lists(header_fields, min_size=2, max_size=4)))
        else:
            at = draw(st.integers(1, len(lines) - 1))
            lines[at] = draw(st.text(alphabet="01 2\t", max_size=10))
        return "\n".join(lines) + "\n"

    return st.one_of(st.text(max_size=80), edited())


class TestReaderFuzz:
    """Any input gives a value, a FormatError or a ValidationError."""

    @pytest.mark.parametrize("text", ["1 -1 0.5\n1\n", "1 100000000000 0.5\n1\n",
                                      "0 99999999999999999999 0.5\n",
                                      "1_0 1 0.5\n" + "1\n" * 10, "\u0661 1 0.5\n1\n",
                                      "1 1 0_5\n1\n", "1 1 \u0660.\u0665\n1\n",
                                      "100000000000 0 0.5\n"])
    def test_mask_header_checked_before_allocation(self, text):
        with pytest.raises(FormatError):
            mask_from_text(text)

    @settings(deadline=None, max_examples=300)
    @given(mask_documents())
    def test_mask_from_text(self, text):
        try:
            mask = mask_from_text(text)
        except (FormatError, ValidationError):
            return
        assert mask_from_text(mask_to_text(mask)).bits.tolist() == mask.bits.tolist()

    @settings(deadline=None, max_examples=300)
    @given(near_valid_bytes(mask_to_text(
        PatchMask(np.array([[1, 0, 1], [0, 1, 0]], dtype=np.uint8), 0.5)).encode("ascii")))
    def test_mask_from_text_bytes(self, data):
        """Every byte value, through latin-1, which maps each to one character."""
        try:
            mask = mask_from_text(data.decode("latin-1"))
        except (FormatError, ValidationError):
            return
        assert mask_from_text(mask_to_text(mask)).bits.tolist() == mask.bits.tolist()

    @settings(deadline=None, max_examples=300)
    @given(near_valid_bytes(write_ppm(np.arange(18, dtype=np.uint8).reshape(2, 3, 3))))
    def test_read_ppm(self, data):
        try:
            img = read_ppm(data)
        except (FormatError, ValidationError):
            return
        assert img.dtype == np.uint8 and img.ndim == 3 and img.shape[2] == 3

    @settings(deadline=None, max_examples=300)
    @given(near_valid_bytes(write_features(np.arange(6, dtype=np.float32).reshape(2, 3))))
    def test_read_features(self, data):
        try:
            feats = read_features(data)
        except (FormatError, ValidationError):
            return
        assert feats.dtype == np.float32 and feats.tobytes() == data[8:]
