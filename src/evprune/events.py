"""Event-camera data: streams, windowed accumulation, serialization, simulation.

Core objects
------------
- EventStream: an immutable, time-sorted event stream with sensor bounds,
  stored as four read-only numpy columns ``t_us`` (int64), ``x``, ``y``
  (int64) and ``polarity`` (int8, -1 or +1). Every reader, writer and the
  simulator work on these columns directly.
- Event: one sensor record (t_us, x, y, polarity). It is the input of the
  ``EventStream(width, height, events)`` constructor and the element type of
  ``EventStream.events``, a tuple built only when that attribute is read.
- EventFrame: a per-pixel accumulation of events over a temporal window.

File formats
------------
CSV: UTF-8 lines ``t_us,x,y,p``. The file may start with up to two directive
lines ``# width W`` and ``# height H``; without them the sensor dimensions
are inferred as max(x)+1, max(y)+1. One optional header line (first field
not an integer) is skipped after the directives. Polarity is given as -1/1
or 0/1, with 0 mapped to -1. A well-formed body is parsed in one numpy
call; any other body goes through a per-line parser, which either accepts
the rarer spellings ``int()`` allows or raises an error naming the line.

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
total is checked before any per-event array is allocated.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import FormatError, ValidationError

EVT1_MAGIC = b"EVT1"
EVT1_VERSION = 1
_HEADER = struct.Struct("<4sHHHHI")
# Packed (unaligned) record layout, itemsize 9.
_RECORD = np.dtype([("t_us", "<u4"), ("x", "<u2"), ("y", "<u2"), ("polarity", "i1")])
_LOG_GUARD = 1e-3
_INT64_MAX = np.iinfo(np.int64).max

# Upper bound on the events one simulate_events call may emit, checked
# before any per-event array exists. Building a stream peaks at about 110
# bytes per event (measured on 0.9M events), so a call at the cap peaks near
# 1.8 GiB. A single 0 -> 1 pixel at contrast 1e-3 already yields 6908 events.
MAX_SIMULATED_EVENTS = 2**24


@dataclass(frozen=True)
class Event:
    """One brightness-change record: time in microseconds, pixel, sign."""

    t_us: int
    x: int
    y: int
    polarity: int


@dataclass(frozen=True, eq=False, init=False)
class EventStream:
    """Time-sorted events within a fixed sensor extent, as numpy columns.

    The constructor takes ``Event`` records, stable-sorts them by timestamp
    (preserving the original order among equal timestamps) and validates
    every record against the sensor bounds. The readers and the simulator
    build streams from columns through the same validation.
    """

    sensor_width: int
    sensor_height: int
    t_us: np.ndarray
    x: np.ndarray
    y: np.ndarray
    polarity: np.ndarray

    def __init__(self, sensor_width: int, sensor_height: int, events: Iterable[Event]):
        evs = tuple(events)
        fields = {name: [getattr(e, name) for e in evs]
                  for name in ("t_us", "x", "y", "polarity")}
        # np.array would silently truncate 1.7 and parse "3".
        if not all(isinstance(v, (int, np.integer)) for col in fields.values() for v in col):
            raise ValidationError("event fields must be integers")
        self._set_columns(sensor_width, sensor_height,
                          *(_int_column(col, name) for name, col in fields.items()))

    @classmethod
    def _from_columns(cls, sensor_width: int, sensor_height: int,
                      t_us: np.ndarray, x: np.ndarray, y: np.ndarray,
                      polarity: np.ndarray) -> EventStream:
        """Build from int columns the caller owns; they become read-only."""
        stream = cls.__new__(cls)
        stream._set_columns(sensor_width, sensor_height, t_us, x, y, polarity)
        return stream

    def _set_columns(self, width, height, t, x, y, p) -> None:
        if width < 0 or height < 0:
            raise ValidationError("sensor dimensions must be non-negative")
        if np.any(t[1:] < t[:-1]):
            order = np.argsort(t, kind="stable")
            t, x, y, p = t[order], x[order], y[order], p[order]
        out_of_bounds = (x < 0) | (x >= width) | (y < 0) | (y >= height)
        bad = np.flatnonzero((t < 0) | out_of_bounds | ((p != 1) & (p != -1)))
        if bad.size:
            i = bad[0]
            if t[i] < 0:
                raise ValidationError(f"negative timestamp {int(t[i])}")
            if out_of_bounds[i]:
                raise ValidationError(
                    f"event at ({int(x[i])}, {int(y[i])}) outside sensor {width}x{height}")
            raise ValidationError(f"polarity must be -1 or +1, got {int(p[i])}")
        columns = {"t_us": t.astype(np.int64, copy=False),
                   "x": x.astype(np.int64, copy=False),
                   "y": y.astype(np.int64, copy=False),
                   "polarity": p.astype(np.int8, copy=False)}
        object.__setattr__(self, "sensor_width", width)
        object.__setattr__(self, "sensor_height", height)
        for name, col in columns.items():
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    @cached_property
    def events(self) -> tuple[Event, ...]:
        """The records as ``Event`` objects, built on first access."""
        return tuple(map(Event, self.t_us.tolist(), self.x.tolist(),
                         self.y.tolist(), self.polarity.tolist()))

    def __len__(self) -> int:
        return len(self.t_us)

    def extent_us(self) -> tuple[int, int]:
        """Half-open window [t_first, t_last + 1) covering all events."""
        if not len(self):
            return (0, 0)
        return (int(self.t_us[0]), int(self.t_us[-1]) + 1)


def _int_column(values: list[int], name: str) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        raise ValidationError(f"{name} value does not fit int64") from None


@dataclass(frozen=True, eq=False)
class EventFrame:
    """Per-pixel finite, non-negative accumulation, shape (height, width)."""

    counts: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.counts, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError("counts must be a 2D array")
        if not np.isfinite(arr).all():
            raise ValidationError("counts must be finite")
        if np.any(arr < 0):
            raise ValidationError("counts must be non-negative")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

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

    Raises FormatError for malformed rows (wrong field count, non-integer
    fields) or bytes that are not UTF-8, and ValidationError for domain
    violations (coordinates outside the declared dimensions, negative
    timestamps, bad polarity values), both with the offending line number.
    """
    if isinstance(data, str):
        text = data
    else:
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"not UTF-8 text: {exc}") from None
    lines = text.splitlines()
    width, height, start = _csv_directives(lines)
    # Only ASCII text goes to np.loadtxt: on numpy 2.4 some lines holding
    # characters outside the Basic Multilingual Plane crash the interpreter
    # there ('\U000cb30eEb' does, within a few thousand calls).
    parsed = _csv_body_fast(lines, start, width, height) if text.isascii() else None
    if parsed is None:
        parsed = _csv_body_lines(lines, start, width, height)
    return EventStream._from_columns(*parsed)


def _csv_directives(lines: list[str]) -> tuple[int | None, int | None, int]:
    """Declared (width, height) and the index of the first body line."""
    dims: dict[str, int] = {}
    idx = 0
    while idx < len(lines):
        parts = lines[idx].strip().split()
        if not (len(parts) == 3 and parts[0] == "#" and parts[1] in ("width", "height")):
            break
        try:
            dims[parts[1]] = int(parts[2])
        except ValueError:
            raise FormatError(f"line {idx + 1}: bad {parts[1]} directive") from None
        idx += 1
    return dims.get("width"), dims.get("height"), idx


def _csv_body_fast(lines: list[str], start: int, width: int | None, height: int | None):
    """(width, height, t, x, y, p) of a body that numpy parses in one call
    and that holds only valid rows; None when the body needs the per-line
    parser, which then accepts it or raises the line-numbered error.

    ``np.loadtxt`` accepts a subset of what ``int()`` accepts: it rejects
    ``1_000``, overflow, ``1.0`` and whitespace-only lines, which all fall
    back."""
    first = next((i for i in range(start, len(lines)) if lines[i].strip()), None)
    if first is None:
        return None
    if not _is_int(lines[first].split(",")[0].strip()):
        first += 1  # the optional header line
    body = lines[first:]
    if not any(body):
        return None
    try:
        rows = np.loadtxt(body, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    if rows.shape[1] != 4:
        return None
    t, x, y, p = (np.ascontiguousarray(col) for col in rows.T)
    p[p == 0] = -1
    width = int(x.max()) + 1 if width is None else width
    height = int(y.max()) + 1 if height is None else height
    valid = ((t >= 0) & ((p == 1) | (p == -1))
             & (x >= 0) & (x < width) & (y >= 0) & (y < height))
    if not valid.all():
        return None
    return width, height, t, x, y, p


def _csv_body_lines(lines: list[str], start: int, width: int | None, height: int | None):
    """Per-line parse of the body: (width, height, t, x, y, p) or the
    error naming the first offending line."""
    rows: list[tuple[int, int, int, int, int]] = []
    header_allowed = True
    for lineno in range(start, len(lines)):
        line = lines[lineno].strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(",")]
        if header_allowed and fields and not _is_int(fields[0]):
            header_allowed = False
            continue
        header_allowed = False
        if len(fields) != 4:
            raise FormatError(f"line {lineno + 1}: expected 4 fields, got {len(fields)}")
        try:
            t, x, y, p = (int(f) for f in fields)
        except ValueError:
            raise FormatError(f"line {lineno + 1}: non-integer field in {line!r}") from None
        if t < 0:
            raise ValidationError(f"line {lineno + 1}: negative timestamp {t}")
        if p == 0:
            p = -1
        if p not in (-1, 1):
            raise ValidationError(f"line {lineno + 1}: polarity must be -1, 0 or 1, got {p}")
        rows.append((lineno + 1, t, x, y, p))

    if width is None:
        width = max((r[2] for r in rows), default=-1) + 1
    if height is None:
        height = max((r[3] for r in rows), default=-1) + 1
    for lineno, t, x, y, p in rows:
        if not (0 <= x < width and 0 <= y < height):
            raise ValidationError(
                f"line {lineno}: event at ({x}, {y}) outside declared "
                f"dimensions {width}x{height}"
            )
    t, x, y, p = (_int_column([r[i] for r in rows], name)
                  for i, name in enumerate(("t_us", "x", "y", "polarity"), start=1))
    return width, height, t, x, y, p


def _is_int(field: str) -> bool:
    try:
        int(field)
        return True
    except ValueError:
        return False


def write_events_bin(stream: EventStream) -> bytes:
    """Serialize to EVT1. Bit-exact inverse of read_events_bin."""
    if not (0 <= stream.sensor_width <= 0xFFFF and 0 <= stream.sensor_height <= 0xFFFF):
        raise ValidationError("sensor dimensions do not fit u16")
    too_late = np.flatnonzero(stream.t_us > 0xFFFFFFFF)
    if too_late.size:
        raise ValidationError(f"timestamp {int(stream.t_us[too_late[0]])} does not fit u32")
    records = np.empty(len(stream), dtype=_RECORD)
    for name in _RECORD.names:
        records[name] = getattr(stream, name)
    header = _HEADER.pack(
        EVT1_MAGIC, EVT1_VERSION, stream.sensor_width, stream.sensor_height, 0, len(stream))
    return header + records.tobytes()


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
        raise FormatError(
            f"record count {count} implies {expected} bytes, file has {len(data)}"
        )
    records = np.frombuffer(data, dtype=_RECORD, count=count, offset=_HEADER.size)
    t = records["t_us"].astype(np.int64)
    p = records["polarity"].astype(np.int8)
    # Report the lowest offending record; on a tie the polarity check wins,
    # as it runs first for each record.
    bad_polarity = np.flatnonzero((p != 1) & (p != -1))[:1]
    unsorted = np.flatnonzero(t[1:] < t[:-1])[:1] + 1
    if bad_polarity.size and not (unsorted.size and unsorted[0] < bad_polarity[0]):
        i = bad_polarity[0]
        raise FormatError(f"record {i}: polarity byte must be -1 or +1, got {int(p[i])}")
    if unsorted.size:
        raise FormatError(f"record {unsorted[0]}: timestamps not sorted")
    return EventStream._from_columns(
        width, height, t, records["x"].astype(np.int64), records["y"].astype(np.int64), p)


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
    if t0_us > t1_us:
        raise ValidationError(f"window start {t0_us} after end {t1_us}")
    width, height = stream.sensor_width, stream.sensor_height
    lo = _count_before(stream.t_us, t0_us)
    hi = _count_before(stream.t_us, t1_us)
    pixels = stream.y[lo:hi] * width + stream.x[lo:hi]
    counts = np.bincount(pixels, minlength=width * height).reshape(height, width)
    return EventFrame(counts)


def resize_to(frame: EventFrame, width: int, height: int) -> EventFrame:
    """Rebin counts onto a width x height grid, conserving the total.

    Source pixel (x, y) lands in target bin (x*width//w, y*height//h);
    pure coordinate rebinning, no interpolation, so no fractional
    pseudo-events are introduced.
    """
    if width < 1 or height < 1:
        raise ValidationError("target dimensions must be >= 1")
    if width == frame.width and height == frame.height:
        return frame
    ys = (np.arange(frame.height, dtype=np.int64) * height) // frame.height
    xs = (np.arange(frame.width, dtype=np.int64) * width) // frame.width
    out = np.zeros((height, width), dtype=np.float64)
    np.add.at(out, (ys[:, None], xs[None, :]), frame.counts)
    return EventFrame(out)


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
    """
    a = np.asarray(frame_a, dtype=np.float64)
    b = np.asarray(frame_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 2:
        raise ValidationError(f"frame shapes differ: {a.shape} vs {b.shape}")
    if not contrast > 0:
        raise ValidationError("contrast threshold must be > 0")
    if duration_us < 0:
        raise ValidationError("duration must be non-negative")
    if duration_us > _INT64_MAX:
        raise ValidationError("duration does not fit int64")
    # Written so that NaN fails too.
    if not (np.all((a >= 0) & (a <= 1)) and np.all((b >= 0) & (b <= 1))):
        raise ValidationError("pixel intensities must lie in [0, 1]")

    dlog = (np.log(b + _LOG_GUARD) - np.log(a + _LOG_GUARD)).ravel()
    with np.errstate(over="ignore"):  # an infinite count fails the cap below
        n = np.floor(np.abs(dlog) / contrast)
    total = n.sum()
    if not total <= MAX_SIMULATED_EVENTS:
        raise ValidationError(
            f"frames would emit {total:.0f} events, more than "
            f"MAX_SIMULATED_EVENTS = {MAX_SIMULATED_EVENTS}")

    # Pixels in raster order, each emitting its events k = 0..n-1.
    pixel = np.flatnonzero(n)
    per = n[pixel].astype(np.int64)
    owner = np.repeat(np.arange(pixel.size), per)
    k = np.arange(owner.size) - (np.cumsum(per) - per)[owner]
    count = per[owner]
    # k * duration // count without an int64 overflow of k * duration.
    q, r = np.divmod(duration_us, count)
    t = k * q + k * r // count
    y, x = np.divmod(pixel[owner], a.shape[1])
    p = np.where(dlog[pixel] >= 0, 1, -1).astype(np.int8)[owner]
    return EventStream._from_columns(a.shape[1], a.shape[0], t, x, y, p)
