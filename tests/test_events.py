import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from evprune.errors import FormatError, ValidationError
from evprune.events import (
    EventFrame,
    EventStream,
    accumulate,
    read_events_bin,
    read_events_csv,
    resize_to,
    simulate_events,
    write_events_bin,
)
from evprune.verify import check_accumulate, check_events_roundtrip

from conftest import as_tuples, stream_of


@st.composite
def streams(draw):
    width = draw(st.integers(1, 50))
    height = draw(st.integers(1, 50))
    n = draw(st.integers(0, 60))
    column = lambda values: draw(st.lists(values, min_size=n, max_size=n))
    t = sorted(column(st.integers(0, 5000)))
    x = column(st.integers(0, width - 1))
    y = column(st.integers(0, height - 1))
    p = column(st.sampled_from((-1, 1)))
    return EventStream(width, height, *(np.array(c, dtype=np.int64) for c in (t, x, y, p)))


class TestEventStream:
    def test_sorts_stably_on_construction(self):
        stream = stream_of(4, 2, (10, 1, 0, 1), (5, 3, 1, -1), (5, 2, 0, 1))
        # stable: the two t=5 events keep their original relative order
        assert as_tuples(stream) == [(5, 3, 1, -1), (5, 2, 0, 1), (10, 1, 0, 1)]

    def test_rejects_out_of_bounds(self):
        with pytest.raises(ValidationError):
            stream_of(4, 2, (0, 4, 0, 1))
        with pytest.raises(ValidationError):
            stream_of(4, 2, (0, 0, 2, 1))

    def test_rejects_bad_polarity(self):
        with pytest.raises(ValidationError):
            stream_of(4, 2, (0, 0, 0, 0))

    def test_extent(self):
        stream = stream_of(4, 4, (7, 0, 0, 1), (30, 1, 1, -1))
        assert stream.extent_us() == (7, 31)
        assert stream_of(4, 4).extent_us() == (0, 0)


class TestCsv:
    def test_directives_and_sorting(self):
        stream = read_events_csv(b"# width 4\n# height 2\n10,1,0,1\n5,3,1,-1\n")
        assert (stream.sensor_width, stream.sensor_height) == (4, 2)
        assert stream.t_us.tolist() == [5, 10]

    @pytest.mark.parametrize("bom", [b"\xef\xbb\xbf", "\ufeff"])
    def test_leading_byte_order_mark_is_dropped(self, bom):
        # it was read as part of line 1: a header, or a bad row after a directive
        body = "5,1,1,1\n6,2,1,0\n"
        for text, sensor in ((body, (3, 2)), ("# width 4\n# height 3\n" + body, (4, 3))):
            stream = read_events_csv(bom + (text.encode() if isinstance(bom, bytes) else text))
            assert (stream.sensor_width, stream.sensor_height) == sensor
            assert stream.t_us.tolist() == [5, 6]

    def test_empty_body_with_directives(self):
        stream = read_events_csv(b"# width 4\n# height 2\n")
        assert len(stream) == 0
        assert (stream.sensor_width, stream.sensor_height) == (4, 2)

    def test_directives_split_on_ascii_space_and_tab_only(self):
        stream = read_events_csv("#\twidth  4\n # height\t\t3 \n1,2,2,1\n")
        assert (stream.sensor_width, stream.sensor_height) == (4, 3)
        # U+3000 and NBSP do not separate: line 1 is the header, line 2 a bad row
        with pytest.raises(FormatError, match="line 2"):
            read_events_csv("# width\u3000 4\n# height\xa03\n1,2,2,1\n")

    @pytest.mark.parametrize("text, message", [
        ("# width -4\n1,0,0,1\n", "line 1: width must be >= 0, got -4"),
        ("# width -4\n", "line 1: width must be >= 0, got -4"),
        ("# width 4\n# height -1\n", "line 2: height must be >= 0, got -1"),
    ], ids=["width_before_an_event", "width_alone", "height_on_line_2"])
    def test_negative_directive_names_its_line(self, text, message):
        with pytest.raises(ValidationError, match=message):
            read_events_csv(text)

    def test_directive_beyond_int_conversion_is_a_format_error(self):
        # int() converts at most 4300 digits; this raised ValueError
        with pytest.raises(FormatError, match="^line 2: bad height directive$"):
            read_events_csv("# width 4\n# height " + "9" * 5000 + "\n0,0,0,1\n")

    def test_field_beyond_int_conversion_does_not_fit_int64(self):
        """In the integer grammar, so not a malformed row, though int() refuses it."""
        with pytest.raises(ValidationError, match="^line 2: value does not fit int64 in "):
            read_events_csv("0,0,0,1\n" + "9" * 5000 + ",0,0,1\n")

    def test_directive_beyond_4096_bits_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="^line 1: width must fit 4096 bits"):
            read_events_csv("# width " + "9" * 2000 + "\n0,0,0,1\n")

    def test_out_of_bounds_against_declared_dims(self):
        with pytest.raises(ValidationError, match="line"):
            read_events_csv(b"# width 4\n# height 2\n10,9,0,1\n")

    def test_zero_polarity_maps_to_negative(self):
        stream = read_events_csv(b"3,0,0,0\n")
        assert stream.polarity.tolist() == [-1]

    def test_header_line_skipped(self):
        stream = read_events_csv(b"t,x,y,p\n3,1,1,1\n")
        assert len(stream) == 1

    def test_inferred_dims(self):
        stream = read_events_csv(b"0,3,5,1\n1,1,2,-1\n")
        assert (stream.sensor_width, stream.sensor_height) == (4, 6)

    def test_malformed_row_reports_line(self):
        with pytest.raises(FormatError, match="line 2"):
            read_events_csv(b"0,0,0,1\n0,0,1\n")
        with pytest.raises(FormatError, match="line 2"):
            read_events_csv(b"0,0,0,1\nz,0,0,1\n")


class TestBinary:
    def test_empty_stream_is_header_only(self):
        blob = write_events_bin(stream_of(3, 2))
        assert len(blob) == 16
        assert blob[:4] == b"EVT1"
        width, height = struct.unpack_from("<HH", blob, 6)
        assert (width, height) == (3, 2)

    def test_truncated_record_count(self):
        stream = stream_of(2, 2, (1, 0, 0, 1), (2, 1, 1, -1))
        blob = write_events_bin(stream)
        with pytest.raises(FormatError):
            read_events_bin(blob[:-9])  # count says 2, one record present

    def test_bad_magic_and_version(self):
        blob = write_events_bin(stream_of(2, 2))
        with pytest.raises(FormatError):
            read_events_bin(b"XXXX" + blob[4:])
        with pytest.raises(FormatError):
            read_events_bin(blob[:4] + b"\x02\x00" + blob[6:])

    def test_rejects_nonzero_reserved_field(self):
        blob = write_events_bin(stream_of(2, 2))
        with pytest.raises(FormatError, match="reserved field must be 0"):
            read_events_bin(blob[:10] + b"\x01\x00" + blob[12:])

    @settings(deadline=None, max_examples=60)
    @given(streams())
    def test_roundtrip_laws(self, stream):
        assert check_events_roundtrip(stream, write_events_bin(stream)) is None


class TestAccumulate:
    @settings(deadline=None, max_examples=60)
    @given(streams(), st.integers(-100, 5100), st.integers(-100, 5100))
    @example(stream_of(2, 2, (0, 1, 1, 1), (1, 1, 1, -1), (2, 1, 1, 1), (3, 0, 0, 1)), 0, 4)
    @example(stream_of(1, 1, (0, 0, 0, 1), (1, 0, 0, -1)), 0, 2)
    @example(stream_of(1, 1, (3, 0, 0, 1), (7, 0, 0, 1)), 3, 7)
    def test_accumulate_laws(self, stream, a, b):
        t0, t1 = sorted((a, b))
        assert check_accumulate(stream, t0, t1, accumulate(stream, t0, t1)) is None

    def test_empty_window_is_zero(self):
        stream = stream_of(2, 2, (5, 0, 0, 1))
        frame = accumulate(stream, 5, 5)
        assert frame.total() == 0
        assert check_accumulate(stream, 5, 5, frame) is None

    def test_rejects_inverted_window(self):
        with pytest.raises(ValidationError):
            accumulate(stream_of(1, 1), 5, 4)

    @settings(deadline=None, max_examples=40)
    @given(streams(), st.integers(0, 5000), st.integers(0, 5000))
    def test_additive_over_disjoint_windows(self, stream, a, c):
        a, c = min(a, c), max(a, c)
        b = (a + c) // 2
        left = accumulate(stream, a, b).counts
        right = accumulate(stream, b, c).counts
        both = accumulate(stream, a, c).counts
        assert np.array_equal(left + right, both)


class TestResize:
    def test_identity_for_same_dims(self):
        frame = EventFrame(np.arange(12.0).reshape(3, 4))
        out = resize_to(frame, 4, 3)
        assert np.array_equal(out.counts, frame.counts)

    def test_uniform_rebinning(self):
        frame = EventFrame(np.ones((4, 4)))
        out = resize_to(frame, 2, 2)
        assert np.array_equal(out.counts, np.full((2, 2), 4.0))

    def test_total_conserved_non_divisible(self):
        rng = np.random.Generator(np.random.PCG64(5))
        frame = EventFrame(rng.integers(0, 9, size=(6, 8)).astype(np.float64))
        out = resize_to(frame, 5, 3)
        assert out.counts.shape == (3, 5)
        assert abs(out.total() - frame.total()) <= 1e-9 * max(frame.total(), 1.0)

    def test_upscale_conserves_too(self):
        frame = EventFrame(np.array([[2.0, 1.0], [0.0, 5.0]]))
        out = resize_to(frame, 5, 7)
        assert out.total() == frame.total()

    @pytest.mark.parametrize("width, height, match", [
        (1.5, 1, "target width must be an integer"),
        (1, "2", "target height must be an integer"),
        (0, 1, "target width must be >= 1"),
    ])
    def test_rejects_sizes_that_are_not_positive_integers(self, width, height, match):
        # 1.5 raised TypeError from np.zeros
        with pytest.raises(ValidationError, match=match):
            resize_to(EventFrame(np.ones((2, 2))), width, height)

    @pytest.mark.parametrize("width, height", [(2**70, 1), (1, 2**70), (2**12 + 1, 2**12)])
    def test_rejects_a_target_beyond_the_pixel_cap_before_allocating(self, width, height):
        # 2**70 raised OverflowError; smaller targets were allocated uncapped
        with pytest.raises(ValidationError, match="exceeds MAX_FRAME_PIXELS"):
            resize_to(EventFrame(np.ones((2, 2))), width, height)


class TestSimulate:
    def test_static_scene_is_empty(self):
        a = np.full((4, 4), 0.5)
        assert len(simulate_events(a, a, 0.2, 100)) == 0

    def test_single_pixel_count_with_log_guard(self):
        # |log(0.1*e^0.6 + 1e-3) - log(0.1 + 1e-3)| / 0.2 = 2.9776...,
        # so the guard pulls the count below 3; brute-force check agrees.
        a = np.array([[0.1]])
        b = np.array([[0.1 * math.exp(0.6)]])
        expected = math.floor(
            abs(math.log(b[0, 0] + 1e-3) - math.log(a[0, 0] + 1e-3)) / 0.2
        )
        assert expected == 2
        stream = simulate_events(a, b, 0.2, 1000)
        assert len(stream) == expected
        assert stream.polarity.tolist() == [1] * expected

    def test_single_pixel_clean_three_events(self):
        a = np.array([[0.2]])
        b = np.array([[0.2 * math.exp(0.65)]])
        stream = simulate_events(a, b, 0.2, 900)
        assert stream.t_us.tolist() == [0, 300, 600]
        assert stream.polarity.tolist() == [1, 1, 1]

    def test_swap_flips_polarity_keeps_counts(self):
        rng = np.random.Generator(np.random.PCG64(11))
        a = rng.random((6, 6))
        b = rng.random((6, 6))
        fwd = simulate_events(a, b, 0.15, 500)
        rev = simulate_events(b, a, 0.15, 500)
        assert len(fwd) == len(rev)
        key = lambda e: (e[2], e[1], e[0])
        for e1, e2 in zip(sorted(as_tuples(fwd), key=key), sorted(as_tuples(rev), key=key)):
            assert e1[:3] == e2[:3]
            assert e1[3] == -e2[3]

    def test_doubled_contrast_at_most_halves_counts_per_pixel(self):
        rng = np.random.Generator(np.random.PCG64(3))
        a = rng.random((5, 5))
        b = rng.random((5, 5))
        fine = accumulate(simulate_events(a, b, 0.1, 100), 0, 101)
        coarse = accumulate(simulate_events(a, b, 0.2, 100), 0, 101)
        assert np.all(coarse.counts <= fine.counts // 2)
        assert fine.total() > 0  # non-vacuous

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValidationError):
            simulate_events(np.zeros((2, 2)), np.zeros((2, 3)), 0.2, 10)

    def test_rejects_equal_shaped_frames_that_are_not_2d(self):
        with pytest.raises(ValidationError, match="frames must be 2-D"):
            simulate_events(np.zeros((2, 2, 3)), np.zeros((2, 2, 3)), 0.2, 10)

    def test_rejects_out_of_range_intensity(self):
        with pytest.raises(ValidationError):
            simulate_events(np.full((1, 1), 1.5), np.zeros((1, 1)), 0.2, 10)
