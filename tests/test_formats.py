import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evprune import costmodel
from evprune.encoder import EncoderConfig, load_encoder_config
from evprune.errors import FormatError, ValidationError
from evprune.featio import read_features, write_features
from evprune.kvtext import decode_ascii, parse_kv
from evprune.ppm import read_ppm, to_gray01, write_ppm
from evprune.saliency import PatchMask, mask_from_text, mask_to_text


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

    def test_rejects_wrong_magic(self):
        with pytest.raises(FormatError):
            read_ppm(b"P5\n2 1\n255\n" + bytes(2))

    def test_rejects_two_byte_maxval(self):
        with pytest.raises(FormatError):
            read_ppm(b"P6\n1 1\n65535\n" + bytes(6))

    def test_rejects_truncated_raster(self):
        with pytest.raises(FormatError):
            read_ppm(b"P6\n2 2\n255\n" + bytes(11))

    def test_rejects_trailing_bytes(self):
        with pytest.raises(FormatError):
            read_ppm(b"P6\n1 1\n255\n" + bytes(4))

    def test_writer_rejects_non_uint8(self):
        with pytest.raises(ValidationError):
            write_ppm(np.zeros((2, 2, 3), dtype=np.float64))

    def test_gray_conversion_range(self):
        img = np.zeros((2, 2, 3), dtype=np.uint8)
        img[0, 0] = (255, 255, 255)
        gray = to_gray01(img)
        assert gray[0, 0] == 1.0 and gray[1, 1] == 0.0


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

    def test_decode_ascii_names_the_offending_byte(self):
        assert decode_ascii(b"a = 1\n", "doc") == "a = 1\n"
        with pytest.raises(FormatError, match="doc: non-ASCII byte at offset 4"):
            decode_ascii(b"a = \xe9\n", "doc")


VALID_ENCODER = dict(patch_size="2", channels="3", d_model="16", n_layers="1",
                     n_heads="2", mlp_ratio="2.0", merge_size="1", d_out="8",
                     seed="5")
VALID_PROFILE = {
    "name": "tiny", "vit.d_model": "8", "vit.n_layers": "1", "vit.n_heads": "2",
    "vit.mlp_ratio": "2.0", "vit.patch_size": "2", "vit.merge_size": "1",
    "vit.channels": "3", "llm.d_model": "8", "llm.n_layers": "1",
    "llm.n_heads": "2", "llm.mlp_ratio": "2.0",
}
VALUES = st.one_of(
    st.text(max_size=12),
    st.floats().map(repr),
    st.integers(-2, 64).map(str),
    st.sampled_from(["nan", "inf", "-inf", "1e999", "Infinity"]),
    st.sampled_from(["1_0", "\u0663", "0x10", "", "2.0", "16"]),
)


@st.composite
def kv_documents(draw, valid):
    """Arbitrary text, or a valid document with a few values replaced or
    dropped and possibly one arbitrary line added."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(max_size=200))
    kv = dict(valid)
    for key in draw(st.lists(st.sampled_from(sorted(valid)), max_size=2, unique=True)):
        if draw(st.integers(0, 3)):
            kv[key] = draw(VALUES)
        else:
            del kv[key]
    lines = [f"{key} = {value}" for key, value in kv.items()]
    if draw(st.integers(0, 3)) == 0:
        lines.append(draw(st.text(max_size=20)))
    return "\n".join(draw(st.permutations(lines)))


def kv_text(kv):
    return "".join(f"{key} = {value}\n" for key, value in kv.items())


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
    @given(kv_documents(VALID_ENCODER))
    def test_load_encoder_config(self, text):
        try:
            config = load_encoder_config(text)
        except (FormatError, ValidationError):
            return
        assert isinstance(config, EncoderConfig)
        assert math.isfinite(config.mlp_ratio)

    @settings(deadline=None, max_examples=300)
    @given(kv_documents(VALID_PROFILE))
    def test_load_arch_profile(self, text):
        try:
            profile = costmodel.load_arch_profile(text)
        except (FormatError, ValidationError):
            return
        assert isinstance(profile, costmodel.ArchProfile)
        assert math.isfinite(profile.vit.mlp_ratio)
        assert math.isfinite(profile.llm.mlp_ratio)


@st.composite
def near_valid_bytes(draw, valid):
    """Arbitrary bytes, or a valid blob with a few bytes replaced, inserted
    or cut off."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.binary(max_size=200))
    blob = bytearray(valid)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(blob)))
        op = draw(st.integers(0, 2))
        if op == 0 and at < len(blob):
            blob[at] = draw(st.integers(0, 255))
        elif op == 1:
            blob[at:at] = draw(st.binary(min_size=1, max_size=8))
        else:
            del blob[at:]
    return bytes(blob)


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
                                      "1_0 1 0.5\n" + "1\n" * 10, "\u0661 1 0.5\n1\n"])
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
