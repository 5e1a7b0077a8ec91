"""Columnar EventStream: storage, vectorized readers and simulator against
their per-event references, input rejection, and reader fuzzing."""

import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
        with pytest.raises(ValidationError, match=r"x must be a 1-D column .* shape \(1, 2\)"):
            EventStream(4, 2, one, one.reshape(1, 2), one, one)

    @pytest.mark.parametrize("column", [
        np.array([0.0, 1.0]), np.array([False, True]), np.array([0, 1], dtype=object),
        np.array([0, 2**63], dtype=np.uint64)], ids=["float", "bool", "object", "uint64"])
    @pytest.mark.parametrize("name", ["t_us", "x", "y", "polarity"])
    def test_column_must_cast_to_int64_without_loss(self, name, column):
        columns = {"t_us": [0, 1], "x": [0, 1], "y": [0, 1], "polarity": [1, 1]}
        columns[name] = column
        with pytest.raises(ValidationError, match=f"{name} must be a 1-D column of integers"):
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
        with pytest.raises(ValidationError, match="integers"):
            EventStream(4, 2, np.array([0, bad]), zeros, zeros, np.ones(2, dtype=np.int64))

    def test_timestamp_beyond_int64_rejected(self):
        with pytest.raises(ValidationError, match="int64"):
            EventStream(4, 2, [2**63], [0], [0], [1])
        with pytest.raises(ValidationError, match="int64"):
            read_events_csv(b"99999999999999999999,0,0,1\n")

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
