"""Columnar EventStream: storage, vectorized readers and simulator against
their per-event references, input rejection, and reader fuzzing."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evprune import events
from evprune.errors import FormatError, ValidationError
from evprune.events import (
    Event,
    EventFrame,
    EventStream,
    accumulate,
    read_events_bin,
    read_events_csv,
    simulate_events,
    write_events_bin,
)

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


def as_tuples(stream):
    return list(zip(stream.t_us.tolist(), stream.x.tolist(), stream.y.tolist(),
                    stream.polarity.tolist()))


class TestColumns:
    def test_columns_are_read_only_typed_and_sorted(self):
        stream = EventStream(4, 2, (Event(10, 1, 0, 1), Event(5, 3, 1, -1)))
        assert stream.t_us.tolist() == [5, 10]
        assert [c.dtype for c in (stream.t_us, stream.x, stream.y, stream.polarity)] == [
            np.int64, np.int64, np.int64, np.int8]
        with pytest.raises(ValueError):
            stream.x[0] = 0

    def test_events_tuple_is_built_on_demand(self):
        stream = read_events_csv(b"3,1,0,1\n1,0,1,0\n")
        assert "events" not in vars(stream)
        assert stream.events == (Event(1, 0, 1, -1), Event(3, 1, 0, 1))
        assert stream.events is stream.events

    def test_first_offending_event_in_time_order_is_named(self):
        with pytest.raises(ValidationError, match=r"event at \(9, 0\)"):
            EventStream(4, 2, (Event(7, 0, 0, 5), Event(3, 9, 0, 1)))
        with pytest.raises(ValidationError, match="polarity must be -1 or \\+1, got 5"):
            EventStream(4, 2, (Event(7, 9, 0, 1), Event(3, 0, 0, 5)))

    @pytest.mark.parametrize("bad", [1.7, "3", None])
    def test_non_integer_field_rejected(self, bad):
        with pytest.raises(ValidationError, match="integers"):
            EventStream(4, 2, (Event(0, 0, 0, 1), Event(bad, 0, 0, 1)))

    def test_timestamp_beyond_int64_rejected(self):
        with pytest.raises(ValidationError, match="int64"):
            EventStream(4, 2, (Event(2**63, 0, 0, 1),))
        with pytest.raises(ValidationError, match="int64"):
            read_events_csv(b"99999999999999999999,0,0,1\n")

    def test_window_bounds_beyond_int64(self):
        stream = EventStream(2, 1, (Event(0, 0, 0, 1), Event(2**63 - 1, 1, 0, 1)))
        assert accumulate(stream, -(2**70), 2**70).total() == 2
        assert accumulate(stream, 2**63 - 1, 2**64).counts.tolist() == [[0.0, 1.0]]


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


class TestEventFrameFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_counts_rejected(self, bad):
        with pytest.raises(ValidationError, match="finite"):
            EventFrame(np.array([[1.0, bad]]))


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
    monkeypatch.setattr(events, "_csv_body_fast",
                        lambda *args: pytest.fail("non-ASCII text reached np.loadtxt"))
    assert len(read_events_csv("t,\U000cb30e\n1,2,3,1\n")) == 1
    with pytest.raises(FormatError, match="line 2: non-integer field"):
        read_events_csv("1,2,3,1\n1,2,3,\U000cb30eEb\n")


def _split(text):
    lines = text.splitlines()
    return lines, *events._csv_directives(lines)


@st.composite
def valid_csv(draw):
    """Valid CSV files in the spellings writers produce: directives or not,
    a header or not, blank lines, padding, signs, 0/1 or -1/1 polarity,
    and LF, CRLF or CR line ends."""
    width, height = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    declared = draw(st.booleans())
    head = [f"# width {width}", f"# height {height}"] if declared else []
    if draw(st.booleans()):
        head.append(draw(st.sampled_from(["t_us,x,y,polarity", "t,x,y,p", " time , x"])))
    zero_one = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        t = draw(st.integers(0, 2**40))
        x, y = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        p = draw(st.sampled_from([0, 1] if zero_one else [-1, 1]))
        pad = draw(st.sampled_from(["", " ", "\t"]))
        sign = draw(st.sampled_from(["", "+"]))
        rows.append(f"{pad}{sign}{t}{pad},{x},{pad}{y},{p}{pad}")
        if draw(st.integers(0, 9)) == 0:
            rows.append("")
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return newline.join(head + rows) + draw(st.sampled_from(["", newline]))


@settings(deadline=None, max_examples=150)
@given(valid_csv())
def test_csv_fast_parse_agrees_with_per_line_parser(text):
    lines, width, height, start = _split(text)
    fast = events._csv_body_fast(lines, start, width, height)
    slow = events._csv_body_lines(lines, start, width, height)
    if fast is None:
        assert not slow[2].size  # only an empty body falls back
        return
    assert fast[:2] == slow[:2]
    for got, want in zip(fast[2:], slow[2:]):
        assert got.tolist() == want.tolist()


@settings(deadline=None, max_examples=300)
@given(_CSV_TEXT)
def test_csv_fast_parse_never_accepts_what_the_per_line_parser_reads_differently(text):
    lines, width, height, start = _split(text)
    fast = events._csv_body_fast(lines, start, width, height)
    if fast is None:
        return
    slow = events._csv_body_lines(lines, start, width, height)
    assert fast[:2] == slow[:2]
    for got, want in zip(fast[2:], slow[2:]):
        assert got.tolist() == want.tolist()
