"""Event-camera data: streams, windowed accumulation, serialization, simulation.

Core objects
------------
- EventStream: an immutable, time-sorted event stream with sensor bounds,
  stored as four sealed numpy columns, which no caller can make writable
  again: ``t_us``, ``x``, ``y`` (int64) and ``polarity`` (int8, -1 or +1).
  Its one constructor, ``EventStream(width, height, t_us, x, y, polarity)``,
  takes integer columns, copies each once, stable-sorts them by time and
  validates them; it is the one place where events are sorted and
  checked against their domain. A few reductions over the copies decide
  every check (min and max of x, y and polarity, t[0] of the sorted
  times), and the per-event pass that names the first bad event, in time
  order, runs only for a stream they refuse. Every reader, writer and the
  simulator work on these columns directly; the simulator builds them
  already in time order, so its streams skip the sort.
- EventFrame: event counts per cell: per pixel over a temporal window, or
  per patch as saliency scores.

File formats
------------
CSV: UTF-8 text, split into lines by ``str.splitlines``; only empty lines
are skipped. The file may start with directive lines ``# width W`` and
``# height H``; without them the sensor dimensions are inferred as
max(x)+1, max(y)+1. The first non-empty line after the directives is a
header, and is skipped, unless its first field, stripped, starts with a
digit, ``+`` or ``-``. Every other non-empty line is ``t_us,x,y,p``: four
integers in the grammar of ``errors.integer`` that fit int64, padded with
spaces or tabs if at all (``np.loadtxt`` also strips U+001F, the one other
whitespace a line can hold). A directive's ``#``, name and value are
separated by spaces or tabs; its value is a non-negative integer in the
same grammar. Polarity is -1/1 or 0/1, 0 mapped to -1. One leading
byte-order mark, U+FEFF, is dropped first. A canonical file is parsed in
one ``np.fromstring`` call, without splitting the text into lines: ASCII
text whose head (directives, empty lines, header) has no line break but
``\\n``, and a non-empty body of rows of four fields, each 1 to 18 bytes
of digits with an optional leading ``-``, every row ending in ``\\n``.
Byte passes over the body check that form; any other spelling (padding,
``+``, ``\\r\\n``, empty lines in the body, longer fields, no final
newline, a malformed row) is split by ``str.splitlines`` and its rows
parsed in one ``np.loadtxt`` call, and only that path names a malformed
row. Both give the same stream or the same error for every input. The
first malformed row, or else the first event outside the domain, is
reported with its line number. The events go to one EventStream; if it
refuses them, its per-event pass runs once more on the columns in file
order to name the first bad line.

EVT1 binary: 16-byte header

    bytes 0..3   magic "EVT1"
    bytes 4..5   u16 LE version (= 1)
    bytes 6..7   u16 LE sensor_width
    bytes 8..9   u16 LE sensor_height
    bytes 10..11 u16 LE reserved (= 0)
    bytes 12..15 u32 LE record count

followed by 9-byte records: u32 LE t_us, u16 LE x, u16 LE y, i8 polarity.
Records must be sorted by t_us; files that read successfully round-trip
bit-exactly.

Simulation emits at most MAX_SIMULATED_EVENTS events per frame pair; the
total is checked before any per-event array is allocated. Its events come
in time order, then in raster order of their pixel, then in order of k for
a pixel that emits several at one timestamp: the order a stable sort by
time gives to events emitted pixel by pixel in raster order. Accumulation
counts at most MAX_FRAME_PIXELS sensor pixels, and resizing makes at most
that many cells, each checked before the counts are allocated.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import numbers
import struct
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import (FormatError, ValidationError, as_record, as_size, integer, is_integer,
                     real_array, sealed, shown)

EVT1_MAGIC = b"EVT1"
EVT1_VERSION = 1
_HEADER = struct.Struct("<4sHHHHI")
# Packed (unaligned) record layout, itemsize 9.
_RECORD = np.dtype([("t_us", "<u4"), ("x", "<u2"), ("y", "<u2"), ("polarity", "i1")])
_LOG_GUARD = 1e-3
_INT64_MAX = np.iinfo(np.int64).max

# Upper bound on the events one simulate_events call may emit, checked
# before any per-event array exists. A call peaks at about 37 bytes per
# event (tracemalloc, 1.47M events from a 640x480 pair), so a call at the
# cap peaks near 0.6 GiB. A single 0 -> 1 pixel at contrast 1e-3 already
# yields 6908 events.
MAX_SIMULATED_EVENTS = 2**24

# Upper bound on width * height for accumulate, checked before the per-pixel
# counts exist. A frame at the cap (4096 x 4096) holds int64 counts and then
# their float64 copy, 128 MiB each; EVT1's u16 header fields alone would allow
# 4.3G pixels. ``check_cells`` applies the same cap to every other grid- or
# table-sized allocation.
MAX_FRAME_PIXELS = 2**24


def check_cells(cells: int, what: str) -> None:
    """A grid or table of ``cells`` cells fits MAX_FRAME_PIXELS, else a ValidationError."""
    if cells > MAX_FRAME_PIXELS:
        raise ValidationError(f"{what} exceeds MAX_FRAME_PIXELS = {MAX_FRAME_PIXELS}")


# Column names, in constructor order.
_COLUMNS = ("t_us", "x", "y", "polarity")

# The separators of one canonical CSV row, ",,,\n", read as one "<u4".
_ROW_SEPARATORS = int.from_bytes(b",,,\n", "little")
# A translation table for canonical CSV bodies: "\n" to ",", the other bytes
# of the alphabet 0-9 , - to themselves, and every other byte to NUL.
_CANONICAL_BYTES = bytes(
    c if chr(c) in "0123456789,-" else ord(",") if c == ord("\n") else 0 for c in range(256))


@dataclass(frozen=True, eq=False)
class EventStream:
    """Time-sorted events within a fixed sensor extent, as numpy columns.

    The constructor takes four equal-length 1-D integer columns whose
    dtype casts to int64 without loss. It copies each column once, stable-
    sorts the copies by timestamp (preserving the input order among equal
    timestamps) and validates every event against the sensor bounds and
    polarity by reductions over them. Only when those refuse the stream
    does a per-event pass name the first bad event in time order. It
    stores the int64 copies (int8 for polarity) sealed so that they cannot
    be made writable again; the caller's arrays are never aliased.
    """

    sensor_width: int
    sensor_height: int
    t_us: np.ndarray
    x: np.ndarray
    y: np.ndarray
    polarity: np.ndarray

    def __post_init__(self):
        width = as_size(self.sensor_width, "sensor width", 0)
        height = as_size(self.sensor_height, "sensor height", 0)
        t, x, y, p = (_checked_column(getattr(self, name), name) for name in _COLUMNS)
        if not len(t) == len(x) == len(y) == len(p):
            raise ValidationError(
                f"event columns differ in length: {len(t)}, {len(x)}, {len(y)}, {len(p)}")
        # One contiguous copy of each column, which every check below reads:
        # int64 coordinates, and polarity in its own dtype until it is checked,
        # as the int8 cast would wrap 257 to 1. The order is checked on t's copy
        # before the others exist, so its temporary does not raise the peak.
        t = t.astype(np.int64)
        order = np.argsort(t, kind="stable") if np.any(t[1:] < t[:-1]) else None
        if order is not None:  # each gather is a copy the caller cannot reach
            t, x, y, p = t[order], x[order], y[order], p[order]
        x, y = (col.astype(np.int64, copy=order is None) for col in (x, y))
        p = p.copy() if order is None else p
        # A few reductions decide the checks, and only a refused stream gets the
        # per-event pass that names its first bad event. t is sorted, so t[0]
        # bounds every timestamp.
        if len(t) and not (
                t[0] >= 0 and x.min() >= 0 and int(x.max()) < width
                and y.min() >= 0 and int(y.max()) < height
                and int(p.min()) >= -1 and int(p.max()) <= 1 and np.count_nonzero(p) == len(p)):
            raise ValidationError(_first_fault(width, height, t, x, y, p)[1])
        object.__setattr__(self, "sensor_width", width)
        object.__setattr__(self, "sensor_height", height)
        for name, col in zip(_COLUMNS, (t, x, y, p.astype(np.int8, copy=False))):
            object.__setattr__(self, name, sealed(col))

    def __len__(self) -> int:
        return len(self.t_us)

    def extent_us(self) -> tuple[int, int]:
        """Half-open window [t_first, t_last + 1) covering all events."""
        if not len(self):
            return (0, 0)
        return (int(self.t_us[0]), int(self.t_us[-1]) + 1)


def _checked_column(values, name: str) -> np.ndarray:
    arr = real_array(values, name, 1)
    if arr.dtype.kind not in "iu" or not np.can_cast(arr.dtype, np.int64):
        raise ValidationError(f"{name} must hold integers that fit int64, got dtype {arr.dtype}")
    return arr


def _first_fault(width: int, height: int, t, x, y, p) -> tuple[int, str]:
    """The index of the first event, in the columns' own order, outside the domain,
    and the reason: the per-event pass, run only on columns the reductions refused."""
    out_of_bounds = (x < 0) | (x >= width) | (y < 0) | (y >= height)
    i = int(np.flatnonzero((t < 0) | out_of_bounds | ((p != 1) & (p != -1)))[0])
    if t[i] < 0:
        return i, f"negative timestamp {int(t[i])}"
    if out_of_bounds[i]:
        return i, f"event at ({int(x[i])}, {int(y[i])}) outside sensor {width}x{height}"
    return i, f"polarity must be -1 or +1, got {int(p[i])}"


@dataclass(frozen=True, eq=False)
class EventFrame:
    """Finite, non-negative event counts per cell, shape (height, width): per
    pixel for a windowed frame, per patch for ``saliency.patch_scores``."""

    counts: np.ndarray

    def __post_init__(self):
        arr = np.array(real_array(self.counts, "counts", 2), dtype=np.float64)
        if not (np.isfinite(arr).all() and (arr >= 0).all()):
            raise ValidationError("counts must be finite and non-negative")
        object.__setattr__(self, "counts", sealed(arr))

    @property
    def height(self) -> int:
        return self.counts.shape[0]

    @property
    def width(self) -> int:
        return self.counts.shape[1]

    def total(self) -> float:
        return float(self.counts.sum())


def read_events_csv(data: bytes | str) -> EventStream:
    """Parse the CSV event format described in the module docstring.

    Raises FormatError for bytes that are not UTF-8, bad directives and
    malformed rows, and ValidationError for values that do not fit int64 or
    events that ``EventStream`` refuses, each naming the offending line: for
    refused events, the first bad line in the file."""
    try:
        text = data if isinstance(data, str) else data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}") from None
    text = text.removeprefix("\ufeff")
    canonical = _canonical_csv(text)
    if canonical is not None:
        width, height, first, rows = canonical
        body = None
    else:
        lines = text.splitlines()
        width, height, first = _csv_head(lines)
        body = lines[first:]
        rows = _csv_rows(body, text.isascii())
        if rows is None:
            raise _csv_row_error(body, first)
    t, x, y, p = (np.ascontiguousarray(col) for col in rows.T)
    del rows  # so that the stream's copies of the columns can reuse its memory
    p[p == 0] = -1
    width = max(int(x.max(initial=-1)), -1) + 1 if width is None else width  # 0 if all x < 0
    height = max(int(y.max(initial=-1)), -1) + 1 if height is None else height

    try:
        return EventStream(width, height, t, x, y, p)
    except ValidationError:  # it names the first bad event in time order, not in the file
        i, reason = _first_fault(width, height, t, x, y, p)
        # A canonical body has no empty lines: its row i is on line first + i + 1.
        row = i if body is None else [j for j, line in enumerate(body) if line][i]
        raise ValidationError(f"line {first + row + 1}: {reason}") from None


def _csv_head(lines: Iterable[str]) -> tuple[int | None, int | None, int]:
    """Declared (width, height) and the number of head lines: the directives,
    the empty lines after them and the optional header. ``lines`` is read up
    to the first non-empty line after the directives."""
    dims: dict[str, int] = {}
    directives = True
    idx = -1
    for idx, line in enumerate(lines):
        if directives:
            parts = [part for part in line.replace("\t", " ").split(" ") if part]
            directives = len(parts) == 3 and parts[0] == "#" and parts[1] in ("width", "height")
            if directives:
                try:
                    value = integer(parts[2])
                except ValueError:
                    raise FormatError(f"line {idx + 1}: bad {parts[1]} directive") from None
                dims[parts[1]] = as_size(value, f"line {idx + 1}: {parts[1]}", 0)
                continue
        if line:
            lead = line.split(",", 1)[0].strip()
            header = not (lead[:1].isdigit() or lead.startswith(("+", "-")))
            return dims.get("width"), dims.get("height"), idx + header
    return dims.get("width"), dims.get("height"), idx + 1


def _canonical_csv(text: str) -> tuple[int | None, int | None, int, np.ndarray] | None:
    """The declared (width, height), the head line count and the (n, 4) rows of
    a ``text`` whose body is canonical, parsed in one numpy call; None for any
    other text, which only the line-by-line path reads.

    Canonical: ASCII text whose head holds no line break but "\\n", and a
    non-empty body of lines "a,b,c,d\\n" whose fields are 1 to 18 bytes of
    digits, the first of which may be a "-". Every such field fits int64, and
    ``np.fromstring`` reads it as ``np.loadtxt`` does. It also takes a
    trailing separator silently, so these byte checks are its only guard."""
    if not text.isascii():
        return None
    starts = [0]  # the offset of each head line read so far, and of the next

    def head_lines():
        while (end := text.find("\n", starts[-1])) >= 0:
            line = text[starts[-1]:end]
            if line.splitlines() not in ([], [line]):  # it holds "\r" or another break
                return
            starts.append(end + 1)
            yield line

    width, height, first = _csv_head(head_lines())
    # One pass maps "\n" to "," for np.fromstring and every byte outside the
    # body's alphabet, 0-9 , - \n, to NUL.
    body = text[starts[first]:].encode("ascii")
    mapped = body.translate(_CANONICAL_BYTES)
    if not body.endswith(b"\n") or b"\0" in mapped:
        return None
    raw = np.frombuffer(body, dtype=np.uint8)
    sep = raw < ord("-")  # "," or "\n": the alphabet's only bytes below "-"
    ends = np.flatnonzero(sep)  # where each field ends
    fields = np.diff(ends)  # each field's length + 1, after the first
    minus = raw == ord("-")
    if not (len(ends) % 4 == 0
            and (raw[ends].view("<u4") == _ROW_SEPARATORS).all()
            and 1 <= ends[0] <= 18 and fields.min() >= 2 and fields.max() <= 19
            # a "-" follows a separator (or starts the body) and precedes a digit
            and not (minus[1:] & ~sep[:-1]).any()
            and not (minus[:-1] & (raw[1:] <= ord("-"))).any()):
        return None
    values = np.fromstring(mapped, dtype=np.int64, sep=",")
    return width, height, first, values.reshape(-1, 4)


def _csv_rows(lines: list[str], is_ascii: bool = False) -> np.ndarray | None:
    """The (n, 4) int64 rows of the non-empty ``lines``, or None if any is not
    four integers that fit int64: the one parse of CSV rows. ``is_ascii`` vouches
    that the lines are ASCII; joining 50k lines to check that costs 1 ms."""
    if not any(lines):
        return np.empty((0, 4), dtype=np.int64)  # np.loadtxt warns on no data
    # Only ASCII text goes to np.loadtxt: on numpy 2.4 some lines holding
    # characters outside the Basic Multilingual Plane crash the interpreter
    # there ('\U000cb30eEb' does, within a few thousand calls).
    if not (is_ascii or "".join(lines).isascii()):
        return None
    try:
        rows = np.loadtxt(lines, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape[1] == 4 else None


def _csv_row_error(body: list[str], first: int) -> Exception:
    """The error naming the first line that ``_csv_rows`` rejects in a ``body`` it
    rejects, found by a binary search for the shortest rejected prefix: ceil(log2(n))
    parses, each of the part still unchecked."""
    lo, hi = 0, len(body)  # body[:lo] parses, body[:hi] does not
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _csv_rows(body[lo:mid]) is None:
            hi = mid
        else:
            lo = mid
    fields = body[lo].split(",")
    where = f"line {first + lo + 1}"
    if len(fields) != 4:
        return FormatError(f"{where}: expected 4 fields, got {len(fields)}")
    if all(map(is_integer, fields)):
        return ValidationError(f"{where}: value does not fit int64 in {body[lo]!r}")
    return FormatError(f"{where}: non-integer field in {body[lo]!r}")


def write_events_bin(stream: EventStream) -> bytearray:
    """Serialize to EVT1, built in place in one bytearray. Bit-exact inverse
    of read_events_bin."""
    as_record(stream, EventStream, "stream")
    if not (0 <= stream.sensor_width <= 0xFFFF and 0 <= stream.sensor_height <= 0xFFFF):
        raise ValidationError("sensor dimensions do not fit u16")
    if len(stream) and stream.t_us[-1] > 0xFFFFFFFF:  # the last is the largest
        i = np.searchsorted(stream.t_us, 0xFFFFFFFF, side="right")
        raise ValidationError(f"timestamp {int(stream.t_us[i])} does not fit u32")
    out = bytearray(_HEADER.size + len(stream) * _RECORD.itemsize)
    _HEADER.pack_into(
        out, 0, EVT1_MAGIC, EVT1_VERSION, stream.sensor_width, stream.sensor_height, 0,
        len(stream))
    records = np.frombuffer(out, dtype=_RECORD, offset=_HEADER.size)
    for name in _RECORD.names:
        records[name] = getattr(stream, name)
    del records  # releases its export of `out`, so the caller may resize it
    return out


def read_events_bin(data: bytes) -> EventStream:
    """Parse EVT1 bytes. Rejects anything that would not round-trip."""
    if len(data) < _HEADER.size:
        raise FormatError("truncated header")
    magic, version, width, height, reserved, count = _HEADER.unpack_from(data, 0)
    if magic != EVT1_MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != EVT1_VERSION:
        raise FormatError(f"unsupported version {version}")
    if reserved != 0:
        raise FormatError("reserved field must be 0")
    expected = _HEADER.size + count * _RECORD.itemsize
    if len(data) != expected:
        raise FormatError(f"record count {count} implies {expected} bytes, file has {len(data)}")
    records = np.frombuffer(data, dtype=_RECORD, count=count, offset=_HEADER.size)
    t, p = records["t_us"], records["polarity"]
    if np.any(t[1:] < t[:-1]):
        raise _bad_record(t, p)
    try:
        # The record-field views go to the stream, which copies each column
        # once and checks polarity with the bounds.
        return EventStream(width, height, t, records["x"], records["y"], p)
    except ValidationError:
        error = _bad_record(t, p)  # a bad polarity byte is the file's error
        if error is None:
            raise
        raise error from None


def _bad_record(t: np.ndarray, p: np.ndarray) -> FormatError | None:
    """The error naming the lowest EVT1 record whose polarity byte is not -1 or
    +1 or whose timestamp is below the one before it, if any; on a tie the
    polarity check wins, as it runs first for each record."""
    bad_polarity = np.flatnonzero((p != 1) & (p != -1))[:1]
    unsorted = np.flatnonzero(t[1:] < t[:-1])[:1] + 1
    if bad_polarity.size and not (unsorted.size and unsorted[0] < bad_polarity[0]):
        i = bad_polarity[0]
        return FormatError(f"record {i}: polarity byte must be -1 or +1, got {int(p[i])}")
    if unsorted.size:
        return FormatError(f"record {unsorted[0]}: timestamps not sorted")
    return None


def _count_before(t_us: np.ndarray, bound: int) -> int:
    """Number of events with t_us < bound (t_us sorted, non-negative)."""
    if bound > _INT64_MAX:
        return len(t_us)
    return int(np.searchsorted(t_us, max(bound, 0), side="left"))


def accumulate(stream: EventStream, t0_us: int, t1_us: int) -> EventFrame:
    """Count events per pixel over the half-open window [t0_us, t1_us).

    Counting is polarity-agnostic: opposite-polarity events at the same
    pixel add up instead of cancelling, so motion is never masked by
    alternating signs.
    """
    as_record(stream, EventStream, "stream")
    t0_us, t1_us = as_size(t0_us, "window start", None), as_size(t1_us, "window end", None)
    if t0_us > t1_us:
        raise ValidationError(f"window start {t0_us} after end {t1_us}")
    width, height = stream.sensor_width, stream.sensor_height
    check_cells(width * height, f"sensor {width}x{height}")
    lo = _count_before(stream.t_us, t0_us)
    hi = _count_before(stream.t_us, t1_us)
    pixels = stream.y[lo:hi] * width
    pixels += stream.x[lo:hi]
    counts = np.bincount(pixels, minlength=width * height).reshape(height, width)
    return EventFrame(counts)


def resize_to(frame: EventFrame, width: int, height: int) -> EventFrame:
    """Rebin counts onto a width x height grid, conserving the total.

    Source pixel (x, y) lands in target bin (x*width//w, y*height//h);
    pure coordinate rebinning, no interpolation, so no fractional
    pseudo-events are introduced.
    """
    as_record(frame, EventFrame, "frame")
    width, height = as_size(width, "target width"), as_size(height, "target height")
    check_cells(width * height, f"target {width}x{height}")
    if width == frame.width and height == frame.height:
        return frame
    ys = (np.arange(frame.height, dtype=np.int64) * height) // frame.height
    xs = (np.arange(frame.width, dtype=np.int64) * width) // frame.width
    # bincount adds each bin's source pixels in raster order, as np.add.at
    # does, so the float sums equal that oracle's bit for bit.
    bins = (ys[:, None] * width + xs[None, :]).ravel()
    out = np.bincount(bins, weights=frame.counts.ravel(), minlength=width * height)
    return EventFrame(out.reshape(height, width))


def simulate_events(
    frame_a: np.ndarray,
    frame_b: np.ndarray,
    contrast: float,
    duration_us: int,
) -> EventStream:
    """Two-frame contrast-threshold event simulation.

    Per pixel, the brightness change in log space is quantized by the
    contrast threshold: n = floor(|log(b + g) - log(a + g)| / contrast)
    with log guard g = 1e-3. The pixel emits n events whose polarity is
    the sign of the log difference, timestamped k * duration_us // n for
    k = 0..n-1 (evenly spaced in [0, duration_us)). Deterministic; equal
    frames produce the empty stream. Raises ValidationError when the total
    would exceed MAX_SIMULATED_EVENTS.

    The events come in time order, then raster order of their pixel, then
    k order, and are built in that order: the pixels are bucketed by count,
    the few (count, k) pairs are sorted by timestamp, and each pair's bucket
    is laid out in turn; no per-event array is sorted by time. Below 2**31
    pixels, per-event indices are int32, and timestamps are uint16 when
    duration_us is at most 0xFFFF; only the pixel index that the column
    gathers read, and the permutation of the sort that orders pairs sharing
    a timestamp, are native-int (intp), which a gather takes unconverted.
    """
    a, b = (real_array(f, "frames", 2).astype(np.float64, copy=False) for f in (frame_a, frame_b))
    if a.shape != b.shape:
        raise ValidationError(f"frame shapes differ: {a.shape} vs {b.shape}")
    real = isinstance(contrast, numbers.Real) and not isinstance(contrast, bool)
    try:
        threshold = float(contrast) if real else np.nan  # the divisor a Fraction would give
    except OverflowError:
        raise ValidationError(
            f"contrast threshold {shown(contrast)} is beyond float range") from None
    if not 0 < threshold < np.inf:
        raise ValidationError(f"contrast threshold must be > 0 and finite, got {shown(contrast)}")
    duration_us = as_size(duration_us, "duration", 0)
    if duration_us > _INT64_MAX:
        raise ValidationError("duration does not fit int64")
    # Written so that NaN, which min and max propagate, fails too; the
    # initial values let an empty frame pass.
    if not all(f.min(initial=0.0) >= 0 and f.max(initial=1.0) <= 1 for f in (a, b)):
        raise ValidationError("pixel intensities must lie in [0, 1]")

    # In place, so that at most three float64 frames are live at once.
    dlog = b + _LOG_GUARD
    np.log(dlog, out=dlog)
    log_a = a + _LOG_GUARD
    dlog -= np.log(log_a, out=log_a)
    del log_a
    dlog = dlog.ravel()
    n = np.abs(dlog)
    with np.errstate(over="ignore"):  # an infinite count fails the cap below
        n /= threshold
    np.floor(n, out=n)
    total = n.sum()
    if not total <= MAX_SIMULATED_EVENTS:
        raise ValidationError(
            f"frames would emit {total:.0f} events, more than "
            f"MAX_SIMULATED_EVENTS = {MAX_SIMULATED_EVENTS}")
    if total == 0:
        return EventStream(a.shape[1], a.shape[0], *[np.zeros(0, dtype=np.int64)] * 4)

    # Every index below (of a pixel, event, bucket or pair) is below the
    # larger of these two.
    index = np.int32 if max(a.size, int(total)) < 2**31 else np.int64
    # The emitting pixels in raster order: `owner` is an index into these.
    pixel = np.flatnonzero(n > 0).astype(index)
    y, x = np.divmod(pixel, a.shape[1])
    sign = np.where(dlog[pixel] >= 0, np.int8(1), np.int8(-1))
    per = n[pixel]
    del dlog, n

    # The pixels bucketed by count, in raster order within a bucket: one
    # stable sort, a radix sort when the key fits 16 bits.
    key = per.astype(np.uint16 if per.max() <= 0xFFFF else index)
    del per
    # Native-int (intp), so that no gather below converts it or its copies.
    by_count = np.argsort(key, kind="stable")
    key = key[by_count]
    bucket_start = np.flatnonzero(np.diff(key, prepend=key.dtype.type(0)))
    counts = key[bucket_start].astype(np.int64)
    bucket_size = np.diff(bucket_start, append=key.size)
    del key

    # The (count, k) pairs, one per event time of a bucket, built in
    # (count, k) order and stably sorted by timestamp k * duration // count,
    # computed without an int64 overflow of k * duration. A bucket of count
    # c has c pairs, so there are at most as many pairs as events, and
    # usually far fewer.
    bucket = np.repeat(np.arange(counts.size, dtype=index), counts)
    k = np.arange(bucket.size, dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)
    count = counts[bucket]
    q, r = np.divmod(duration_us, count)
    # The dtype holds every t < duration.
    pair_t = (k * q + k * r // count).astype(np.uint16 if duration_us <= 0xFFFF else np.int64)
    del k, count, q, r
    by_time = np.argsort(pair_t, kind="stable")  # a radix sort for 16-bit timestamps
    pair_t = pair_t[by_time]
    bucket = bucket[by_time]
    del by_time

    # Each pair's bucket laid out in turn: event i of a pair whose bucket
    # starts at s is pixel by_count[s + i].
    size = bucket_size[bucket]
    at = np.repeat((bucket_start[bucket] - (np.cumsum(size) - size)).astype(index), size)
    at += np.arange(at.size, dtype=index)
    owner = by_count[at]
    del at, by_count
    t = np.repeat(pair_t, size)

    # Pairs that share a timestamp interleave their buckets; a sort by
    # (timestamp rank, pixel) restores raster order among them. Events with
    # equal keys are one pixel's at one timestamp, equal in every column.
    # The key is one ascending run per pair, which the stable sort (timsort)
    # merges in half the time of numpy's default sort.
    new_time = pair_t[1:] != pair_t[:-1]
    if not new_time.all():
        rank = np.concatenate(([0], np.cumsum(new_time)))
        wide = (int(rank[-1]) + 1) * pixel.size > 2**31
        key = np.repeat(rank.astype(np.int64 if wide else np.int32), size)
        del rank
        key *= pixel.size
        key += owner
        owner = owner[np.argsort(key, kind="stable")]
        del key
    x, y, sign = x[owner], y[owner], sign[owner]
    del owner  # before the stream makes its copies, which set the peak
    return EventStream(a.shape[1], a.shape[0], t, x, y, sign)
