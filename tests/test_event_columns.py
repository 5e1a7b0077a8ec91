"""Columnar EventStream: storage, vectorized readers and simulator against
their per-event references, input rejection, and reader fuzzing."""

import math
import re
import struct
from fractions import Fraction
import tracemalloc
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from evprune import events
from evprune.errors import FormatError, ValidationError
from evprune.events import (
    EventFrame,
    EventStream,
    accumulate,
    read_events_bin,
    read_events_csv,
    simulate_events,
    write_events_bin,
)

from conftest import as_tuples, stream_of

HEADER = struct.Struct("<4sHHHHI")
RECORD = struct.Struct("<IHHb")


def evt1(width, height, records, count=None):
    count = len(records) if count is None else count
    return HEADER.pack(b"EVT1", 1, width, height, 0, count) + b"".join(
        RECORD.pack(*r) for r in records)


def simulate_reference(a, b, contrast, duration_us):
    """The simulator's contract as a per-pixel, per-event loop over Python ints."""
    dlog = np.log(b + 1e-3) - np.log(a + 1e-3)
    out = []
    for y, x in zip(*np.nonzero(np.floor(np.abs(dlog) / contrast))):
        n = int(np.floor(abs(dlog[y, x]) / contrast))
        p = 1 if dlog[y, x] >= 0 else -1
        out += [(k * duration_us // n, int(x), int(y), p) for k in range(n)]
    return sorted(out, key=lambda e: e[0])


class TestColumns:
    def test_columns_are_read_only_typed_and_sorted(self):
        stream = stream_of(4, 2, (10, 1, 0, 1), (5, 3, 1, -1))
        assert stream.t_us.tolist() == [5, 10]
        assert [c.dtype for c in (stream.t_us, stream.x, stream.y, stream.polarity)] == [
            np.int64, np.int64, np.int64, np.int8]
        with pytest.raises(ValueError):
            stream.x[0] = 0

    def test_columns_must_be_one_dimensional_and_of_equal_length(self):
        one = np.ones(2, dtype=np.int64)
        with pytest.raises(ValidationError, match="differ in length: 2, 2, 2, 3"):
            EventStream(4, 2, one, one, one, np.ones(3, dtype=np.int64))
        with pytest.raises(ValidationError, match=r"x must be 1-D, got shape \(1, 2\)"):
            EventStream(4, 2, one, one.reshape(1, 2), one, one)

    @pytest.mark.parametrize("column, match", [
        (np.array([0.0, 1.0]), "must hold integers that fit int64, got dtype float64"),
        (np.array([False, True]), "must hold integers that fit int64, got dtype bool"),
        (np.array([0, 1], dtype=object), "must hold real numbers, got dtype object"),
        (np.array([0, 2**63], dtype=np.uint64), "must hold integers that fit int64"),
        ([0, [1]], "must be a rectangular array")],
        ids=["float", "bool", "object", "uint64", "ragged"])
    @pytest.mark.parametrize("name", ["t_us", "x", "y", "polarity"])
    def test_column_must_cast_to_int64_without_loss(self, name, column, match):
        columns = {"t_us": [0, 1], "x": [0, 1], "y": [0, 1], "polarity": [1, 1]}
        columns[name] = column
        with pytest.raises(ValidationError, match=f"^{name} {match}"):
            EventStream(4, 2, **columns)

    def test_polarity_is_checked_before_the_int8_cast(self):
        with pytest.raises(ValidationError, match="polarity must be -1 or \\+1, got 257"):
            stream_of(4, 2, (0, 0, 0, 257))

    @pytest.mark.parametrize("t", [[1, 5], [5, 1]], ids=["sorted", "unsorted"])
    def test_stream_keeps_its_own_copies(self, t):
        columns = [np.array(t), np.array([1, 2]), np.array([0, 1]),
                   np.array([1, -1], dtype=np.int8)]
        stream = EventStream(4, 2, *columns)
        before = as_tuples(stream)
        for column in columns:
            assert column.flags.writeable
            column[:] = 0
        assert as_tuples(stream) == before

    def test_first_offending_event_in_time_order_is_named(self):
        with pytest.raises(ValidationError, match=r"event at \(9, 0\)"):
            stream_of(4, 2, (7, 0, 0, 5), (3, 9, 0, 1))
        with pytest.raises(ValidationError, match="polarity must be -1 or \\+1, got 5"):
            stream_of(4, 2, (7, 9, 0, 1), (3, 0, 0, 5))

    @pytest.mark.parametrize("bad", [1.7, "3", None])
    def test_non_integer_field_rejected(self, bad):
        """A float, string or object column is refused, not truncated or parsed."""
        zeros = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValidationError, match="t_us must hold (integers|real numbers)"):
            EventStream(4, 2, np.array([0, bad]), zeros, zeros, np.ones(2, dtype=np.int64))

    def test_timestamp_beyond_int64_rejected(self):
        with pytest.raises(ValidationError, match="int64"):
            EventStream(4, 2, [2**63], [0], [0], [1])
        with pytest.raises(ValidationError, match="int64"):
            read_events_csv(b"99999999999999999999,0,0,1\n")

    @pytest.mark.parametrize("t0, t1, match", [
        (0.0, 5, "window start must be an integer"),
        (0, "5", "window end must be an integer"),
        (0, None, "window end must be an integer"),
    ])
    def test_window_bounds_must_be_integers(self, t0, t1, match):
        # a float bound was accepted; a str or None one raised TypeError
        with pytest.raises(ValidationError, match=match):
            accumulate(stream_of(2, 1, (0, 0, 0, 1)), t0, t1)

    @pytest.mark.parametrize("width, height, match", [
        (-1, 2, "sensor width must be >= 0, got -1"),
        (4, "2", "sensor height must be an integer"),
        (4.0, 2, "sensor width must be an integer"),
    ])
    def test_sensor_dimensions_are_non_negative_integers(self, width, height, match):
        with pytest.raises(ValidationError, match=match):
            EventStream(width, height, [0], [0], [0], [1])

    def test_window_bounds_beyond_int64(self):
        stream = stream_of(2, 1, (0, 0, 0, 1), (2**63 - 1, 1, 0, 1))
        assert accumulate(stream, -(2**70), 2**70).total() == 2
        assert accumulate(stream, 2**63 - 1, 2**64).counts.tolist() == [[0.0, 1.0]]

    def test_accumulate_cap_checked_before_counting(self, monkeypatch):
        stream = stream_of(4, 3, (0, 1, 1, 1))
        monkeypatch.setattr(events, "MAX_FRAME_PIXELS", 12)
        assert accumulate(stream, 0, 1).total() == 1
        monkeypatch.setattr(events, "MAX_FRAME_PIXELS", 11)
        monkeypatch.setattr(events.np, "bincount", None)  # never reached
        with pytest.raises(ValidationError, match="MAX_FRAME_PIXELS"):
            accumulate(stream, 0, 1)


    def test_accumulate_copies_counts_once(self):
        """int64 counts and their float64 copy: the peak stays under 2.5x the frame."""
        stream = stream_of(1024, 1024, (0, 3, 4, 1))
        tracemalloc.start()
        try:
            frame = accumulate(stream, 0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * frame.counts.nbytes


    def test_read_allocates_nothing_per_event_beyond_its_columns(self):
        """On the seeded pair's EVT1 bytes, read_events_bin peaks within half a
        byte per event of the 25 the stream holds: each column is copied once
        and no per-event check keeps a temporary beside the copies (the
        elementwise checks peaked a byte per event higher)."""
        a, b = seeded_pair()
        blob = bytes(write_events_bin(simulate_events(a, b, 0.1, 33_000)))
        tracemalloc.start()
        try:
            stream = read_events_bin(blob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(c.nbytes for c in (stream.t_us, stream.x, stream.y, stream.polarity))
        assert len(stream) > 150_000
        assert (peak - held) / len(stream) < 0.5


def domain_reference(width, height, events):
    """The stream's domain checks as a per-event loop over Python ints: the
    message naming the first event, in stable time order, outside the domain,
    or None when every event lies inside it."""
    for t, x, y, p in sorted(events, key=lambda e: e[0]):
        if t < 0:
            return f"negative timestamp {t}"
        if not (0 <= x < width and 0 <= y < height):
            return f"event at ({x}, {y}) outside sensor {width}x{height}"
        if p not in (-1, 1):
            return f"polarity must be -1 or +1, got {p}"
    return None


def _fits(value, dtype):
    info = np.iinfo(dtype)
    return info.min <= value <= info.max


@st.composite
def event_columns(draw):
    """(width, height, columns): t, x and y of int64, int32 or uint16 and
    polarity of int8, int16 or uint8; t sorted, unsorted or tied; and up to two
    injected faults, each a value its column's dtype can hold."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    dtypes = [draw(st.sampled_from([np.int64, np.int32, np.uint16])) for _ in range(3)]
    dtypes.append(draw(st.sampled_from([np.int8, np.int16, np.uint8])))
    n = draw(st.integers(0, 12))
    time_order = draw(st.sampled_from(["sorted", "unsorted", "tied"]))
    t = draw(st.lists(st.integers(0, 2 if time_order == "tied" else 1000), min_size=n, max_size=n))
    if time_order == "sorted":
        t.sort()
    x = draw(st.lists(st.integers(0, width - 1), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, height - 1), min_size=n, max_size=n))
    p = draw(st.lists(st.sampled_from([v for v in (-1, 1) if _fits(v, dtypes[3])]),
                      min_size=n, max_size=n))
    columns = [t, x, y, p]
    faults = [[-1], [-1, width], [-1, height], [0, 2, -2, 257]]
    for _ in range(draw(st.integers(0, 2)) if n else 0):
        col = draw(st.sampled_from(
            [c for c in range(4) if any(_fits(v, dtypes[c]) for v in faults[c])]))
        value = draw(st.sampled_from([v for v in faults[col] if _fits(v, dtypes[col])]))
        columns[col][draw(st.integers(0, n - 1))] = value
    return width, height, [np.array(c, dtype=d) for c, d in zip(columns, dtypes)]


@settings(deadline=None, max_examples=400)
@example((3, 2, [np.zeros(0, dtype=np.int64)] * 4))
@given(event_columns())
def test_stream_accepts_exactly_what_the_per_event_reference_accepts(case):
    """The reductions refuse a stream exactly when some event is outside the
    domain, and the refusal names the reference's first bad event."""
    width, height, columns = case
    events = list(zip(*(c.tolist() for c in columns)))
    message = domain_reference(width, height, events)
    if message is None:
        assert as_tuples(EventStream(width, height, *columns)) == sorted(events, key=lambda e: e[0])
    else:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            EventStream(width, height, *columns)


class TestBinaryErrors:
    def test_lowest_record_wins_across_checks(self):
        blob = evt1(4, 4, [(5, 0, 0, 1), (3, 0, 0, 1), (9, 0, 0, 0)])
        with pytest.raises(FormatError, match="record 1: timestamps not sorted"):
            read_events_bin(blob)
        blob = evt1(4, 4, [(5, 0, 0, 1), (9, 0, 0, 2), (3, 0, 0, 1)])
        with pytest.raises(FormatError, match="record 1: polarity byte"):
            read_events_bin(blob)

    def test_polarity_wins_a_tie_on_the_same_record(self):
        blob = evt1(4, 4, [(5, 0, 0, 1), (3, 0, 0, 0)])
        with pytest.raises(FormatError, match="record 1: polarity byte must be -1 or \\+1, got 0"):
            read_events_bin(blob)

    def test_out_of_bounds_record_is_a_validation_error(self):
        with pytest.raises(ValidationError, match=r"event at \(4, 0\) outside sensor 4x4"):
            read_events_bin(evt1(4, 4, [(1, 0, 0, 1), (2, 4, 0, 1)]))

    def test_stream_does_not_alias_a_mutable_buffer(self):
        blob = bytearray(evt1(4, 4, [(1, 2, 3, 1)]))
        stream = read_events_bin(blob)
        blob[16:] = bytes(9)
        assert as_tuples(stream) == [(1, 2, 3, 1)]


class TestSimulateColumns:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 6), st.integers(1, 6), st.floats(0.02, 1.5),
           st.sampled_from([0, 1, 999, 33_000, 2**40, 2**62]), st.integers(0, 2**32 - 1))
    def test_matches_per_event_reference(self, h, w, contrast, duration, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.random((h, w)), rng.random((h, w))
        stream = simulate_events(a, b, contrast, duration)
        assert as_tuples(stream) == simulate_reference(a, b, contrast, duration)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_pixel_rejected(self, bad):
        a = np.full((2, 2), 0.5)
        b = a.copy()
        b[1, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="intensities"):
                simulate_events(a, b, 0.2, 100)
            with pytest.raises(ValidationError, match="intensities"):
                simulate_events(b, a, 0.2, 100)

    def test_nan_contrast_rejected(self):
        a = np.zeros((1, 1))
        with pytest.raises(ValidationError, match="contrast"):
            simulate_events(a, a, float("nan"), 100)

    @pytest.mark.parametrize("contrast", [None, "0.5", True, 0.5 + 0j])
    def test_contrast_must_be_a_real_number(self, contrast):
        # None and "0.5" raised TypeError, a complex one TypeError, and True ran as 1
        a = np.zeros((1, 1))
        with pytest.raises(ValidationError, match="contrast"):
            simulate_events(a, a, contrast, 10)

    @pytest.mark.parametrize("contrast", [Fraction(1, 10), np.float64(0.1), np.float32(0.1)])
    def test_contrast_may_be_any_real_number(self, contrast):
        # the count is |dlog| / float(contrast); a Fraction divided an object array
        a, b = seeded_pair(height=6, width=8)
        want = simulate_reference(a, b, float(contrast), 1000)
        assert want and as_tuples(simulate_events(a, b, contrast, 1000)) == want

    @pytest.mark.parametrize("duration, match", [
        (10.0, "duration must be an integer"),
        ("10", "duration must be an integer"),
        (-1, "duration must be >= 0, got -1"),
    ])
    def test_duration_must_be_a_non_negative_integer(self, duration, match):
        # equal frames emit no events, so 10.0 was accepted; "10" raised TypeError
        a = np.zeros((1, 1))
        with pytest.raises(ValidationError, match=match):
            simulate_events(a, a, 0.5, duration)

    def test_cap_checked_before_allocating(self, monkeypatch):
        a, b = np.zeros((1, 2)), np.ones((1, 2))
        per_pixel = math.floor(math.log(1.001 / 1e-3) / 0.5)
        monkeypatch.setattr(events, "MAX_SIMULATED_EVENTS", 2 * per_pixel)
        assert len(simulate_events(a, b, 0.5, 100)) == 2 * per_pixel
        monkeypatch.setattr(events, "MAX_SIMULATED_EVENTS", 2 * per_pixel - 1)
        with pytest.raises(ValidationError, match="MAX_SIMULATED_EVENTS"):
            simulate_events(a, b, 0.5, 100)

    def test_infinite_count_rejected_without_warning(self):
        a, b = np.zeros((1, 2)), np.ones((1, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="MAX_SIMULATED_EVENTS"):
                simulate_events(a, b, 1e-320, 100)  # the count overflows to inf

    def test_duration_beyond_int64_rejected(self):
        with pytest.raises(ValidationError, match="duration"):
            simulate_events(np.zeros((1, 1)), np.ones((1, 1)), 1.0, 2**63)


def seeded_pair(seed=17, height=480, width=640):
    """Gray frames in [0, 1] like a camera pair: a textured background with
    independent noise per frame and a bright block that moves (about 0.3M
    events at contrast 0.1)."""
    rng = np.random.default_rng(seed)
    base = rng.integers(70, 131, (height, width)).astype(np.float64)
    a, b = (np.clip(np.rint(base + rng.normal(0.0, 8.0, base.shape)), 0, 255) for _ in range(2))
    a[100:220, 50:250] = 230.0
    b[106:226, 70:270] = 230.0
    return a / 255.0, b / 255.0


def strip_pair(m, contrast=0.005):
    """One row whose pixel i emits i + 1 events: counts 1..m, one pixel each."""
    a = np.zeros((1, m))
    b = 1e-3 * np.exp(contrast * (np.arange(m) + 1.5))[None, :] - 1e-3
    assert np.array_equal(np.floor(np.log((b + 1e-3) / 1e-3) / contrast)[0], np.arange(1, m + 1))
    return a, b


def raster_then_sorted(a, b, contrast, duration_us):
    """The simulator's contract as ``framebench/check.py::expected_stream``
    computes it: each pixel in raster order emits its events k = 0..n-1,
    then one stable sort by time. (t, x, y, p) as int64 columns."""
    dlog = np.log(b + 1e-3) - np.log(a + 1e-3)
    n = np.floor(np.abs(dlog) / contrast).astype(np.int64)
    ys, xs = np.nonzero(n)
    per = n[ys, xs]
    owner = np.repeat(np.arange(len(per)), per)
    k = np.arange(owner.size) - np.repeat(np.cumsum(per) - per, per)
    t = k * duration_us // per[owner]
    order = np.argsort(t, kind="stable")
    p = np.where(dlog[ys, xs] >= 0, 1, -1)[owner]
    return [col[order] for col in (t, xs[owner], ys[owner], p)]


def assert_same_columns(stream, want):
    got = [stream.t_us, stream.x, stream.y, stream.polarity.astype(np.int64)]
    for name, g, w in zip(("t_us", "x", "y", "polarity"), got, want):
        assert g.tobytes() == w.astype(np.int64).tobytes(), name


class TestSimulateOrder:
    """The simulator builds its columns in time order; they must equal the
    raster-emit-then-stable-sort contract byte for byte."""

    @pytest.mark.parametrize("contrast", [0.1, 0.02])
    @pytest.mark.parametrize("duration", [0, 1, 7, 33_000, 75_000, 2**40])
    def test_seeded_pair_matches_the_sorted_contract(self, duration, contrast):
        a, b = seeded_pair()
        assert_same_columns(simulate_events(a, b, contrast, duration),
                            raster_then_sorted(a, b, contrast, duration))

    @pytest.mark.parametrize("duration", [0, 7, 33_000, 2**40])
    def test_strip_of_every_count_matches_the_sorted_contract(self, duration):
        # 1..m events at one pixel each: as many (count, k) pairs as events,
        # and pixels with several events at one timestamp when duration < m
        a, b = strip_pair(1000)
        stream = simulate_events(a, b, 0.005, duration)
        assert len(stream) == 1000 * 1001 // 2
        assert_same_columns(stream, raster_then_sorted(a, b, 0.005, duration))

    @pytest.mark.parametrize("duration", [7, 33_000])
    def test_counts_beyond_16_bits_match_the_sorted_contract(self, duration):
        # 69k and 62k events at two pixels: the count key no longer fits uint16
        a, b = np.zeros((2, 2)), np.array([[1.0, 0.5], [0.0, 0.0]])
        stream = simulate_events(a, b, 1e-4, duration)
        assert len(stream) > 2 * 0xFFFF
        assert_same_columns(stream, raster_then_sorted(a, b, 1e-4, duration))

    def test_simulated_columns_need_no_sort(self, monkeypatch):
        sorted_t = []

        def stream(width, height, t, *columns):
            sorted_t.append(bool(np.all(t[1:] >= t[:-1])))
            return EventStream(width, height, t, *columns)

        monkeypatch.setattr(events, "EventStream", stream)
        a, b = seeded_pair()
        for contrast, duration in ((0.1, 33_000), (0.02, 7), (0.1, 2**40)):
            assert len(simulate_events(a, b, contrast, duration))
        assert len(simulate_events(*strip_pair(200), 0.005, 50))
        assert sorted_t == [True] * 4

    def test_heap_peak_per_event(self):
        """Narrow temporaries: the simulator peaked at 138 bytes per event
        on this pair (195k events) when it built int64 columns in raster
        order and sorted them by time, and peaks near 38 now."""
        a, b = seeded_pair()
        tracemalloc.start()
        try:
            stream = simulate_events(a, b, 0.1, 33_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(stream) > 150_000
        assert peak / len(stream) < 80


class TestEventFrameFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_counts_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            EventFrame(np.array([[1.0, bad]]))

    @pytest.mark.parametrize("counts, match", [
        ("abc", "real numbers"),
        ([[1, 2], [3]], "rectangular"),
        (np.array([[1 + 2j, 3]]), "real numbers"),
        (np.array([[1, None]], dtype=object), "real numbers"),
    ], ids=["str", "ragged", "complex", "object"])
    def test_non_real_counts_rejected_before_the_float_copy(self, counts, match):
        # "abc" and the ragged list raised numpy's ValueError; complex counts
        # were accepted with their imaginary part dropped
        with pytest.raises(ValidationError, match=match):
            EventFrame(counts)

    def test_bool_int_and_float_counts_are_accepted(self):
        for counts in ([[True, False]], [[1, 0]], np.array([[1.0, 0.0]], dtype=np.float32)):
            assert EventFrame(counts).counts.tolist() == [[1.0, 0.0]]


# ------------------------------------------------------------------ fuzzing

_CSV_CHARS = st.sampled_from(list("0123456789,,,-+_# \t\n\n\r\x0b\x1cwidtheaxy. "))
_CSV_TEXT = st.lists(_CSV_CHARS, max_size=120).map("".join)


def _read_or_reject(reader, data):
    try:
        return reader(data)
    except (FormatError, ValidationError):
        return None


@settings(deadline=None, max_examples=300)
@given(st.one_of(
    st.binary(max_size=80),
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 6),
              st.binary(max_size=60)).map(
        lambda v: HEADER.pack(b"EVT1", 1, v[0], v[1], 0, v[2]) + v[3]),
))
def test_fuzz_read_events_bin(data):
    stream = _read_or_reject(read_events_bin, data)
    if stream is not None:
        assert write_events_bin(stream) == data


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.binary(max_size=80), _CSV_TEXT.map(str.encode),
                 st.text(max_size=60).map(str.encode)))
def test_fuzz_read_events_csv(data):
    stream = _read_or_reject(read_events_csv, data)
    if stream is not None:
        assert isinstance(stream, EventStream)


def test_non_ascii_text_skips_the_numpy_parser(monkeypatch):
    """On numpy 2.4 some non-BMP text crashes np.loadtxt, so no call may get any."""
    loadtxt = np.loadtxt

    def ascii_only(lines, *args, **kwargs):
        assert all(line.isascii() for line in lines), "non-ASCII text reached np.loadtxt"
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", ascii_only)
    assert len(read_events_csv("t,\U000cb30e\n1,2,3,1\n")) == 1
    with pytest.raises(FormatError, match="line 2: non-integer field"):
        read_events_csv("1,2,3,1\n1,2,3,\U000cb30eEb\n")


@st.composite
def valid_csv(draw):
    """(text, events, (width, height)): a valid CSV file in the spellings
    writers produce (directives or not, a header or not, blank lines,
    padding, signs, 0/1 or -1/1 polarity, LF, CRLF or CR line ends), the
    (t, x, y, p) events it holds in file order and its sensor dimensions."""
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    declared = draw(st.booleans())
    head = [f"# width {width}", f"# height {height}"] if declared else []
    if draw(st.booleans()):
        head.append(draw(st.sampled_from(["t_us,x,y,polarity", "t,x,y,p", " time , x"])))
    zero_one = draw(st.booleans())
    rows, written = [], []
    for _ in range(draw(st.integers(0, 30))):
        t = draw(st.integers(0, 2**40))
        x, y = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        p = draw(st.sampled_from([0, 1] if zero_one else [-1, 1]))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        sign = draw(st.sampled_from(["", "+"]))
        rows.append(f"{pad}{sign}{t}{pad},{x},{pad}{y},{p}{pad}")
        written.append((t, x, y, p or -1))
        if draw(st.integers(0, 9)) == 0:
            rows.append("")
    if not declared:
        width = max((e[1] for e in written), default=-1) + 1
        height = max((e[2] for e in written), default=-1) + 1
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = newline.join(head + rows) + draw(st.sampled_from(["", newline]))
    return text, written, (width, height)


@settings(deadline=None, max_examples=150)
@given(valid_csv())
def test_csv_reads_exactly_the_events_written(case):
    text, written, dims = case
    stream = read_events_csv(text)
    assert (stream.sensor_width, stream.sensor_height) == dims
    assert as_tuples(stream) == sorted(written, key=lambda e: e[0])  # stable, as the stream


_BAD_ROWS = ["1_000,1,1,1", "1.5,0,0,1", "1,2,3", "1,2,3,1,5", "x,0,0,1", "1,,0,1",
             "１,0,0,1", "\xa01,0,0,1", " ", "\x1f", "# width 4",
             "99999999999999999999,0,0,1", "-5,0,0,1", "0,0,0,2"]


@settings(deadline=None, max_examples=150)
@given(valid_csv(), st.sampled_from(_BAD_ROWS), st.data())
def test_csv_error_names_the_one_corrupted_line(case, bad, data):
    text, written, _ = case
    lines = text.splitlines()
    # Event lines after the first: the first body line may be read as a header.
    candidates = [i for i, line in enumerate(lines) if line and line.strip()[0] in "+0123456789"]
    assume(len(candidates) >= 2)
    i = data.draw(st.sampled_from(candidates[1:]))
    lines[i] = bad
    with pytest.raises((FormatError, ValidationError), match=f"^line {i + 1}: "):
        read_events_csv("\n".join(lines))


@pytest.mark.parametrize("where", [0, 37_123, 49_999])
def test_csv_error_search_takes_logarithmic_parses(monkeypatch, where):
    n = 50_000
    lines = [f"{i},{i % 7},{i % 5},1" for i in range(n)]
    lines[where] = "1_5,0,0,1"
    calls = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **k: calls.append(1) or loadtxt(*a, **k))
    with pytest.raises(FormatError, match=f"^line {where + 1}: non-integer field"):
        read_events_csv("\n".join(lines))
    assert len(calls) <= math.ceil(math.log2(n)) + 1


@pytest.mark.parametrize("text, error, line", [
    ("1_000,1,1,1\n", FormatError, 1),              # not skipped as a header
    ("46.56,1,1,1\n0,0,0,1\n", FormatError, 1),     # not skipped as a header
    ("0,0,0,1\n1_000,1,1,1\n", FormatError, 2),
    ("0,0,0,1\n１,1,1,1\n", FormatError, 2),    # fullwidth digit
    ("0,0,0,1\n1,١,1,1\n", FormatError, 2),    # Arabic-Indic digit
    ("0,0,0,1\n\xa01,1,1,1\n", FormatError, 2),     # NBSP padding
    ("0,0,0,1\n1,1,1,1　\n", FormatError, 2),   # ideographic space padding
    ("0,0,0,1\n \n1,1,1,1\n", FormatError, 2),      # whitespace-only line
    ("0,0,0,1\n\x1f\n1,1,1,1\n", FormatError, 2),
    ("# width 1_0\n0,0,0,1\n", FormatError, 1),
    ("# width 4\n# height +1_0\n0,0,0,1\n", FormatError, 2),
    ("# width ４\n0,0,0,1\n", FormatError, 1),
])
def test_csv_rejects_spellings_outside_the_integer_grammar(text, error, line):
    with pytest.raises(error, match=f"^line {line}: "):
        read_events_csv(text)


@pytest.mark.parametrize("text, dims", [
    ("# width +4\n# height -0\n", (4, 0)),
    ("t,x,y,p\n +3\t,\x1f1,-0, 1\n", (2, 1)),
    ("# width 4\n# height 2\n\n0,0,0,1\n\n", (4, 2)),
])
def test_csv_accepts_signs_and_padding(text, dims):
    stream = read_events_csv(text)
    assert (stream.sensor_width, stream.sensor_height) == dims


def test_csv_names_the_first_bad_line_in_the_file():
    # Line 5's event comes first in time order, line 3's first in the file.
    text = "# width 4\n# height 2\n9,7,0,1\n3,0,0,1\n1,0,0,5\n"
    with pytest.raises(ValidationError, match="^line 3: event at \\(7, 0\\) outside sensor 4x2$"):
        read_events_csv(text)


@pytest.mark.parametrize("row, message", [
    ("-3,0,0,1", "negative timestamp -3"),
    ("3,4,1,1", "event at \\(4, 1\\) outside sensor 4x2"),
    ("3,0,1,2", "polarity must be -1 or \\+1, got 2"),
], ids=["timestamp", "sensor", "polarity"])
def test_csv_domain_error_is_the_stream_s(row, message):
    with pytest.raises(ValidationError, match=f"^line 4: {message}$"):
        read_events_csv(f"# width 4\n# height 2\n0,0,0,1\n{row}\n5,1,1,1\n")


def test_valid_csv_builds_one_stream(monkeypatch):
    built = []

    def stream(*args):
        built.append(len(args[2]))
        return EventStream(*args)

    monkeypatch.setattr(events, "EventStream", stream)
    text = "".join(f"{(i * 7919) % 1000},{i % 40},{i % 30},{i % 2}\n" for i in range(1000))
    assert len(read_events_csv(text)) == 1000
    assert built == [1000]


def test_refused_csv_builds_one_stream(monkeypatch):
    built = []

    def stream(*args):
        built.append(len(args[2]))
        return EventStream(*args)

    monkeypatch.setattr(events, "EventStream", stream)
    rows = [f"{(i * 7919) % 1000},{i % 40},{i % 30},{i % 2}\n" for i in range(1000)]
    text = "# width 40\n# height 30\n" + "".join(rows[:-1]) + "5,40,0,1\n"
    message = "^line 1002: event at \\(40, 0\\) outside sensor 40x30$"
    with pytest.raises(ValidationError, match=message):
        read_events_csv(text)
    assert built == [1000]


# ------------------------------------------- canonical CSV bodies in one call

_DIGITS = "0123456789"


@st.composite
def canonical_csv(draw):
    """A CSV text whose body ``events._canonical_csv`` parses: an optional
    byte-order mark, directives, empty lines and a header in a head of "\\n"
    lines, then rows of four 1- to 18-byte digit fields, any of which may
    start with a "-", each row ending in "\\n". Most fields lie in the stream's
    domain; some do not, so that the stream refuses the file."""
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    head = []
    if draw(st.booleans()):
        pad = draw(st.sampled_from([" ", "\t", "  "]))
        head += [f"#{pad}width {width}", f"# height{pad}{height}"]
    head += [""] * draw(st.integers(0, 2))
    head += [draw(st.sampled_from(["t_us,x,y,polarity", "t,x,y,p", " time , x"]))] \
        if draw(st.booleans()) else []
    any_field = st.tuples(st.sampled_from(["", "-"]), st.text(_DIGITS, min_size=1, max_size=17)) \
        .map("".join) | st.text(_DIGITS, min_size=18, max_size=18)
    rows = []
    for _ in range(draw(st.integers(1, 25))):
        row = [str(draw(st.integers(0, 2**40))), str(draw(st.integers(0, width - 1))),
               str(draw(st.integers(0, height - 1))), draw(st.sampled_from(["-1", "0", "1"]))]
        if draw(st.integers(0, 19)) == 0:
            row[draw(st.integers(0, 3))] = draw(any_field)
        rows.append(",".join(row) + "\n")
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "".join(line + "\n" for line in head) + "".join(rows)


def _edit(text, data):
    """``text`` after one edit that takes its body off the one-call path."""
    body_at = text.rfind("\n", 0, len(text) - 1) + 1  # the last row
    row = text[body_at:-1]
    fields = row.split(",")
    i = data.draw(st.integers(0, 3))
    edit = data.draw(st.sampled_from(
        ["pad", "crlf", "x1f", "blank", "no final newline", "long field", "inner minus",
         "trailing comma", "split row", "non-digit", "head break", "second bom", "sign"]))
    if edit == "pad":
        fields[i] = data.draw(st.sampled_from([" ", "\t"])) + fields[i]
    elif edit == "sign":
        fields[i] = "+" + fields[i].lstrip("-")
    elif edit == "x1f":
        fields[i] += "\x1f"
    elif edit == "long field":
        fields[i] = fields[i][:1] + "0" * (19 - len(fields[i])) + fields[i][1:]
    elif edit == "inner minus":
        fields[i] = fields[i][:1] + "-" + fields[i][1:]
    elif edit == "trailing comma":
        fields.append("")
    elif edit == "split row":  # as many separators, in another order
        fields[1] += "\n" + fields.pop(2)
    elif edit == "non-digit":
        fields[i] += data.draw(st.sampled_from([".", "_", "e", "x", "/", ":"]))
    elif edit == "crlf":
        return text[:-1] + "\r\n"
    elif edit == "blank":
        return text[:body_at] + "\n" + text[body_at:]
    elif edit == "no final newline":
        return text[:-1]
    elif edit == "head break":
        at = data.draw(st.integers(0, text.index("\n")))
        return text[:at] + data.draw(st.sampled_from(["\r", "\r\n", "\x0b", "\x1c"])) + text[at:]
    elif edit == "second bom":
        return "\ufeff" + text
    return text[:body_at] + ",".join(fields) + "\n"


def _outcome(text):
    """The stream ``read_events_csv`` gives, as plain values, or its error."""
    try:
        stream = read_events_csv(text)
    except (FormatError, ValidationError) as exc:
        return type(exc), str(exc)
    return (stream.sensor_width, stream.sensor_height,
            *(getattr(stream, name).tolist() for name in ("t_us", "x", "y", "polarity")))


def _line_by_line(text):
    with unittest.mock.patch.object(events, "_canonical_csv", lambda text: None):
        return _outcome(text)


@settings(deadline=None, max_examples=300)
@given(canonical_csv(), st.booleans())
def test_canonical_csv_reads_as_the_line_by_line_path(text, as_bytes):
    assert events._canonical_csv(text.removeprefix("\ufeff")) is not None
    assert _outcome(text.encode() if as_bytes else text) == _line_by_line(text)


@settings(deadline=None, max_examples=300)
@given(canonical_csv(), st.data())
def test_one_edit_off_the_canonical_form_reads_as_the_line_by_line_path(text, data):
    edited = _edit(text, data)
    assert _outcome(edited) == _line_by_line(edited)


@pytest.mark.parametrize("text", [
    "0,1,1,1\n0,1,1,\n",  # np.fromstring takes a trailing separator
    "0,1,1,1\n0,1,1,1,\n", "0,1,1,1\n0,1,1\n", "0,1,1,1\n-,1,1,1\n", "0,1,1,1\n1-2,1,1,1\n",
    "0,1,1,1\n1,1,1,1--\n", "0,1,1,1\n,1,1,1\n", "0,1,1,1\n1,1,1,1\n\n", "0,1,1,1",
    "0,1,1,1\n" + "9" * 19 + ",1,1,1\n", "9" * 19 + ",1,1,1\n", "0,1,1,1\n1,2\n3,4\n",
    "0,1,1,1\n1,1\n1,1,1,1,1,1\n", "0,1,1,1\n5", "0,1,1,1\n1.5,1,1,1\n",
    "# width 4\r# height 4\n0,1,1,1\n",
])
def test_near_canonical_csv_reads_as_the_line_by_line_path(text):
    assert _outcome(text) == _line_by_line(text)


def test_canonical_csv_takes_one_numpy_call(monkeypatch):
    """With the line-by-line row parser broken, a canonical file still reads
    and a padded one reaches that parser."""
    def broken(*args):
        raise AssertionError("_csv_rows reached")

    monkeypatch.setattr(events, "_csv_rows", broken)
    text = "# width 640\n# height 480\nt_us,x,y,polarity\n0,273,155,-1\n1,70,75,1\n"
    assert as_tuples(read_events_csv(text.encode())) == [(0, 273, 155, -1), (1, 70, 75, 1)]
    with pytest.raises(AssertionError, match="_csv_rows reached"):
        read_events_csv(text.replace("1,70", "1, 70"))


def test_refused_canonical_csv_names_its_line():
    text = "# width 4\n# height 2\n\nt,x,y,p\n0,0,0,1\n9,0,1,-1\n3,4,0,1\n"
    assert events._canonical_csv(text) is not None
    with pytest.raises(ValidationError, match="^line 7: event at \\(4, 0\\) outside sensor 4x2$"):
        read_events_csv(text)
