"""The event path's vectorized kernels against plain numpy oracles, bit for bit.

Each oracle is the straightforward expression of the kernel's contract:
``mean(axis=2) / 255`` for ``to_gray01``, an int64 stable argsort for the
order of ``EventStream``'s columns, and ``np.add.at`` for ``resize_to``.
Results are compared as bytes, so a sign of zero or a last bit counts.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evprune.errors import ValidationError
from evprune.events import EventFrame, EventStream, resize_to
from evprune.ppm import to_gray01

INT64 = np.iinfo(np.int64)


def gray_oracle(image: np.ndarray) -> np.ndarray:
    img = image.astype(np.float64)
    return (img.mean(axis=2) if img.ndim == 3 else img) / 255.0


def resize_oracle(counts: np.ndarray, width: int, height: int) -> np.ndarray:
    if counts.shape == (height, width):
        return counts
    ys = (np.arange(counts.shape[0]) * height) // counts.shape[0]
    xs = (np.arange(counts.shape[1]) * width) // counts.shape[1]
    out = np.zeros((height, width))
    np.add.at(out, (ys[:, None], xs[None, :]), counts)
    return out


def same_bits(got: np.ndarray, want: np.ndarray) -> bool:
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


class TestGray:
    @settings(deadline=None, max_examples=80)
    @given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 4), st.integers(0, 2**32))
    def test_uint8_matches_the_float_mean(self, height, width, channels, seed):
        rng = np.random.default_rng(seed)
        image = rng.integers(0, 256, size=(height, width, channels), dtype=np.uint8)
        assert same_bits(to_gray01(image), gray_oracle(image))

    @pytest.mark.parametrize("channels", [1, 2, 3, 4])
    def test_uint8_extremes_and_a_camera_sized_frame(self, channels):
        image = np.random.default_rng(channels).integers(
            0, 256, size=(480, 640, channels), dtype=np.uint8)
        image[0, 0] = 255
        image[0, 1] = 0
        assert same_bits(to_gray01(image), gray_oracle(image))

    def test_strided_uint8_view(self):
        image = np.random.default_rng(1).integers(0, 256, size=(12, 10, 4), dtype=np.uint8)
        view = image[::2, ::3, 1:]
        assert same_bits(to_gray01(view), gray_oracle(view))

    @pytest.mark.parametrize("image", [
        np.random.default_rng(2).random((5, 6, 3)) * 255,
        np.random.default_rng(3).random((5, 6, 2)).astype(np.float32) * 255,
        np.random.default_rng(4).integers(-10**12, 10**12, size=(5, 6, 3)),
        np.random.default_rng(5).integers(0, 256, size=(5, 6)).astype(np.uint8),
        np.random.default_rng(6).random((5, 6)) * 255,
        np.random.default_rng(7).integers(0, 2, size=(5, 6, 3)).astype(bool),
    ], ids=["float64", "float32", "int64", "uint8-2d", "float64-2d", "bool"])
    def test_other_images_keep_the_mean(self, image):
        assert same_bits(to_gray01(image), gray_oracle(image))


def time_order_oracle(t: np.ndarray) -> np.ndarray:
    return np.argsort(t.astype(np.int64), kind="stable")


def assert_stream_orders(t, x=None, y=None, p=None):
    """EventStream stores the int64 stable argsort's gathers of its columns or,
    given a negative timestamp, names the earliest one."""
    i = np.arange(len(t))
    x, y = (i % 40 if x is None else x), (i % 30 if y is None else y)
    p = np.where(i % 3, 1, -1) if p is None else p
    if t.min() < 0:
        with pytest.raises(ValidationError, match=f"^negative timestamp {int(t.min())}$"):
            EventStream(40, 30, t, x, y, p)
        return
    stream = EventStream(40, 30, t, x, y, p)
    order = time_order_oracle(t)
    for got, want in zip((stream.t_us, stream.x, stream.y, stream.polarity), (t, x, y, p)):
        assert np.array_equal(got, want[order])


class TestTimeOrder:
    @pytest.mark.parametrize("t", [
        [5, 5, 3, 3, 5, 0, 0],                                # ties
        [-7, 3, -7, -2**40, 0, 12],                           # negative timestamps
        [0xFFFF, 0, 7, 0xFFFF, 0, 1],                         # span exactly 0xFFFF
        [0x10000, 0, 7, 0x10000, 0, 1],                       # span 0x10000
        [INT64.max, INT64.min, 0, INT64.max, INT64.min],      # the whole int64 range
        [INT64.max, INT64.max - 0xFFFF, INT64.max - 3],       # narrow span at the top
        [INT64.min + 0xFFFF, INT64.min, INT64.min + 2],       # narrow span at the bottom
        [INT64.max, INT64.max - 0x10000, INT64.max - 3],
    ])
    def test_matches_the_int64_stable_argsort(self, t):
        assert_stream_orders(np.array(t, dtype=np.int64))

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.uint8, np.uint16, np.uint32])
    def test_narrow_dtypes_do_not_wrap(self, dtype):
        info = np.iinfo(dtype)
        assert_stream_orders(np.array([info.max, info.min, info.max, 0, info.min + 1], dtype=dtype))
        xy = np.array([3, 1, 4, 1, 5], dtype=dtype)  # non-negative narrow columns throughout
        assert_stream_orders(np.array([info.max, 0, info.max, 1, 0], dtype=dtype), xy, xy)

    @settings(deadline=None, max_examples=150)
    @given(st.integers(INT64.min, INT64.max), st.sampled_from([1, 0xFFFF, 0x10000, 2**40]),
           st.integers(0, 2**32), st.integers(2, 200))
    def test_matches_the_oracle_on_random_spans(self, base, span, seed, n):
        rng = np.random.default_rng(seed)
        offsets = rng.integers(0, span, size=n, endpoint=True)
        assert_stream_orders(np.array([min(max(base + int(o), INT64.min), INT64.max)
                                       for o in offsets], dtype=np.int64))

    @pytest.mark.parametrize("span", [0xFFFE, 0xFFFF, 0x10000, INT64.max])
    def test_stream_columns_are_the_stably_sorted_gathers(self, span):
        rng = np.random.default_rng(span % 1000)
        n = 5000
        t = rng.integers(0, span, size=n, endpoint=True)
        t[:2] = (0, span)  # the span is exact
        t[100:200] = t[50]  # ties
        assert_stream_orders(t, rng.integers(0, 40, size=n), rng.integers(0, 30, size=n),
                             rng.choice(np.array([-1, 1]), size=n))

    @pytest.mark.parametrize("last", [500, 70_000])
    def test_first_bad_event_in_time_order_is_reported(self, last):
        # The two faults tie at t = 1: the stable order puts the polarity one first.
        t = np.array([last, 1, 1, 0])
        with pytest.raises(ValidationError, match=r"polarity must be -1 or \+1, got 0"):
            EventStream(4, 4, t, np.array([0, 0, 9, 0]), np.zeros(4, int), np.array([1, 0, 1, 1]))


class TestResize:
    @pytest.mark.parametrize("source, target", [
        ((480, 640), (448, 448)),  # the camera frame onto the encoder grid
        ((37, 23), (11, 17)),
        ((7, 5), (13, 11)),        # upsampling
        ((6, 9), (6, 4)),
    ])
    def test_poisson_counts_match_add_at(self, source, target):
        counts = np.random.default_rng(sum(source)).poisson(0.7, size=source).astype(np.float64)
        got = resize_to(EventFrame(counts), target[1], target[0]).counts
        assert same_bits(got, resize_oracle(counts, target[1], target[0]))

    @settings(deadline=None, max_examples=80)
    @given(st.integers(1, 30), st.integers(1, 30), st.integers(1, 30), st.integers(1, 30),
           st.integers(0, 2**32))
    def test_float_counts_match_add_at(self, height, width, out_h, out_w, seed):
        rng = np.random.default_rng(seed)
        scale = rng.choice([1e-300, 1.0, 1e300], size=(height, width))
        counts = rng.random((height, width)) * scale
        counts[rng.random((height, width)) < 0.2] = -0.0
        got = resize_to(EventFrame(counts), out_w, out_h).counts
        assert same_bits(got, resize_oracle(counts, out_w, out_h))
