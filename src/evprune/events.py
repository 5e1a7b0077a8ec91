"""Event-camera data: streams, windowed accumulation, serialization, simulation.

Core objects
------------
- EventStream: an immutable, time-sorted event stream with sensor bounds,
  stored as four read-only numpy columns ``t_us`` (int64), ``x``, ``y``
  (int64) and ``polarity`` (int8, -1 or +1). Its one constructor,
  ``EventStream(width, height, t_us, x, y, polarity)``, takes integer
  columns, sorts and validates them and keeps its own copies. Every reader,
  writer and the simulator work on these columns directly.
- EventFrame: a per-pixel accumulation of events over a temporal window.

File formats
------------
CSV: UTF-8 text, split into lines by ``str.splitlines``; only empty lines
are skipped. The file may start with directive lines ``# width W`` and
``# height H``; without them the sensor dimensions are inferred as
max(x)+1, max(y)+1. The first non-empty line after the directives is a
header, and is skipped, unless its first field, stripped, starts with a
digit, ``+`` or ``-``. Every other non-empty line is ``t_us,x,y,p``: four
ASCII decimal integers that fit int64, each with an optional sign and
padding of spaces or tabs (``np.loadtxt`` also strips U+001F, the one
other whitespace character a line can hold). Directive values are spelled
the same way. Polarity is given as -1/1 or 0/1, with 0 mapped to -1. The
body is parsed in one numpy call. A malformed row anywhere in it is
reported, with its line number, before any value outside the domain.

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
total is checked before any per-event array is allocated. Accumulation
counts at most MAX_FRAME_PIXELS sensor pixels, checked before the counts
are allocated.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

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

# Upper bound on width * height for accumulate, checked before the per-pixel
# counts exist. A frame at the cap (4096 x 4096) holds int64 counts and then
# their float64 copy, 128 MiB each; EVT1's u16 header fields alone would allow
# 4.3G pixels.
MAX_FRAME_PIXELS = 2**24


# Column name -> stored dtype, in constructor order.
_COLUMNS = {"t_us": np.int64, "x": np.int64, "y": np.int64, "polarity": np.int8}


@dataclass(frozen=True, eq=False)
class EventStream:
    """Time-sorted events within a fixed sensor extent, as numpy columns.

    The constructor takes four equal-length 1-D integer columns whose
    dtype casts to int64 without loss. It stable-sorts them by timestamp
    (preserving the input order among equal timestamps), validates every
    event against the sensor bounds, and stores read-only int64 copies
    (int8 for polarity); the caller's arrays are never aliased.
    """

    sensor_width: int
    sensor_height: int
    t_us: np.ndarray
    x: np.ndarray
    y: np.ndarray
    polarity: np.ndarray

    def __post_init__(self):
        width, height = self.sensor_width, self.sensor_height
        if width < 0 or height < 0:
            raise ValidationError("sensor dimensions must be non-negative")
        t, x, y, p = (_checked_column(getattr(self, name), name) for name in _COLUMNS)
        if not len(t) == len(x) == len(y) == len(p):
            raise ValidationError(
                f"event columns differ in length: {len(t)}, {len(x)}, {len(y)}, {len(p)}")
        order = np.argsort(t, kind="stable") if np.any(t[1:] < t[:-1]) else None
        if order is not None:
            t, x, y, p = t[order], x[order], y[order], p[order]
        # Checked before the int8 cast, which would wrap a polarity of 257 to 1.
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
        for (name, dtype), col in zip(_COLUMNS.items(), (t, x, y, p)):
            # The sorted gather is already a copy the caller cannot reach.
            col = col.astype(dtype, copy=order is None)
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    def __len__(self) -> int:
        return len(self.t_us)

    def extent_us(self) -> tuple[int, int]:
        """Half-open window [t_first, t_last + 1) covering all events."""
        if not len(self):
            return (0, 0)
        return (int(self.t_us[0]), int(self.t_us[-1]) + 1)


def _checked_column(values, name: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.dtype.kind not in "iu" or not np.can_cast(arr.dtype, np.int64):
        raise ValidationError(
            f"{name} must be a 1-D column of integers that fit int64, "
            f"got {arr.dtype} of shape {arr.shape}")
    return arr


@dataclass(frozen=True, eq=False)
class EventFrame:
    """Per-pixel finite, non-negative accumulation, shape (height, width)."""

    counts: np.ndarray

    def __post_init__(self):
        arr = np.array(self.counts, dtype=np.float64)
        if arr.ndim != 2:
            raise ValidationError("counts must be a 2D array")
        if not np.isfinite(arr).all():
            raise ValidationError("counts must be finite")
        if np.any(arr < 0):
            raise ValidationError("counts must be non-negative")
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

    Raises FormatError for bytes that are not UTF-8, bad directives and
    malformed rows, and ValidationError for values that do not fit int64 or
    break the domain, each naming the offending line."""
    try:
        text = data if isinstance(data, str) else data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"not UTF-8 text: {exc}") from None
    lines = text.splitlines()
    width, height, first = _csv_directives(lines)
    first = next((i for i in range(first, len(lines)) if lines[i]), len(lines))
    if first < len(lines):
        lead = lines[first].split(",", 1)[0].strip()
        if not (lead[:1].isdigit() or lead.startswith(("+", "-"))):
            first += 1  # the optional header line
    body = lines[first:]
    rows = _csv_rows(body, text.isascii())
    if rows is None:
        raise _csv_row_error(body, first)
    t, x, y, p = (np.ascontiguousarray(col) for col in rows.T)
    del rows  # so that the stream's copies of the columns can reuse its memory
    p[p == 0] = -1
    width = int(x.max(initial=-1)) + 1 if width is None else width
    height = int(y.max(initial=-1)) + 1 if height is None else height
    # Any bad value is reported before any event outside the sensor.
    bad_value = (t < 0) | ((p != 1) & (p != -1))
    bad = np.flatnonzero(bad_value if bad_value.any() else
                         (x < 0) | (x >= width) | (y < 0) | (y >= height))
    if bad.size:
        i = bad[0]
        where = f"line {first + [j for j, line in enumerate(body) if line][i] + 1}"
        if t[i] < 0:
            raise ValidationError(f"{where}: negative timestamp {t[i]}")
        if bad_value[i]:
            raise ValidationError(f"{where}: polarity must be -1, 0 or 1, got {p[i]}")
        raise ValidationError(
            f"{where}: event at ({x[i]}, {y[i]}) outside declared dimensions {width}x{height}")
    return EventStream(width, height, t, x, y, p)


def _csv_directives(lines: list[str]) -> tuple[int | None, int | None, int]:
    """Declared (width, height) and the index of the first line after them."""
    dims: dict[str, int] = {}
    idx = 0
    while idx < len(lines):
        parts = lines[idx].strip().split()
        if not (len(parts) == 3 and parts[0] == "#" and parts[1] in ("width", "height")):
            break
        if not _is_int(parts[2]):
            raise FormatError(f"line {idx + 1}: bad {parts[1]} directive")
        dims[parts[1]] = int(parts[2])
        idx += 1
    return dims.get("width"), dims.get("height"), idx


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
    """The error naming the first line that ``_csv_rows`` rejects in a
    ``body`` it rejects, found by binary search for the shortest rejected
    prefix: ceil(log2(len(body))) parses of its still unchecked part."""
    lo, hi = 0, len(body)  # body[:lo] is accepted, body[:hi] is not
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
    if all(map(_is_int, fields)):
        return ValidationError(f"{where}: value does not fit int64 in {body[lo]!r}")
    return FormatError(f"{where}: non-integer field in {body[lo]!r}")


def _is_int(field: str) -> bool:
    """A padded, optionally signed ASCII decimal integer of any size."""
    digits = field.strip()
    if digits.startswith(("+", "-")):
        digits = digits[1:]
    return field.isascii() and digits.isdigit()


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
    t, p = records["t_us"], records["polarity"]
    # Report the lowest offending record; on a tie the polarity check wins,
    # as it runs first for each record.
    bad_polarity = np.flatnonzero((p != 1) & (p != -1))[:1]
    unsorted = np.flatnonzero(t[1:] < t[:-1])[:1] + 1
    if bad_polarity.size and not (unsorted.size and unsorted[0] < bad_polarity[0]):
        i = bad_polarity[0]
        raise FormatError(f"record {i}: polarity byte must be -1 or +1, got {int(p[i])}")
    if unsorted.size:
        raise FormatError(f"record {unsorted[0]}: timestamps not sorted")
    return EventStream(width, height, t, records["x"], records["y"], p)


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
    if width * height > MAX_FRAME_PIXELS:
        raise ValidationError(
            f"sensor {width}x{height} exceeds MAX_FRAME_PIXELS = {MAX_FRAME_PIXELS}")
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
    if a.ndim != 2 or b.ndim != 2:
        raise ValidationError(f"frames must be 2-D, got shapes {a.shape} and {b.shape}")
    if a.shape != b.shape:
        raise ValidationError(f"frame shapes differ: {a.shape} vs {b.shape}")
    if not 0 < contrast < np.inf:
        raise ValidationError(f"contrast threshold must be > 0 and finite, got {contrast}")
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
    return EventStream(a.shape[1], a.shape[0], t, x, y, p)
