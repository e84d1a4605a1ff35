"""Gestures: digraphs whose arrows carry sampled paths in R^d.

A gesture assigns a point to every vertex and a sampled path to every
arrow, with each path starting at its source vertex's point and ending
at its target's.  Mapping every point through a function f yields
another gesture on the same digraph, and this mapping respects identity
and composition at the sample level, so gesture-valued constructions
can be pushed between spaces (for example, amplitude-time envelopes
into color space) without re-deriving the combinatorics.

Bands are sampled fixed-endpoint homotopies between two paths: a stack
of rows interpolating from one boundary path to the other while pinning
both shared endpoints.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

__all__ = [
    "ENDPOINT_TOLERANCE",
    "EndpointError",
    "GestureFormatError",
    "Digraph",
    "SampledPath",
    "Band",
    "Gesture",
    "constant_path",
    "reverse",
    "concatenate",
    "linear_band",
    "make_gesture",
    "map_path",
    "map_gesture",
    "adsr_gesture",
    "serialize_gesture",
    "parse_gesture",
]

ENDPOINT_TOLERANCE = 1e-9
# adsr_gesture's path size cap; envelope-transfer peaks near 70 MB RSS at 10**6 points
MAX_PATH_POINTS = 1_000_000
_TEXT_ROWS = 2048  # path lines per _float_text call: its temporaries stay near 1 MB, which malloc reuses
# parse_gesture's records by tag: what an early end of text names, the form a bad line
# names, the field count with the tag (0: any from 2 up), the field type, its error
_RECORDS = {
    "digraph": ("'digraph V A' header", "'digraph V A' header", 3, int, "counts must be integers"),
    "a": ("arrow line 'a SRC DST'", "'a SRC DST'", 3, int, "arrow endpoints must be integers"),
    "v": ("vertex line 'v X0 ...'", "'v X0 X1 ...'", 0, float, "coordinates must be floats"),
    "p": (
        "path header 'p INDEX COUNT'", "'p INDEX COUNT'", 3, int, "path header fields must be integers"
    ),
    "": ("path sample line", "", 0, float, "coordinates must be floats"),  # untagged
}


class EndpointError(ValueError):
    """Raised when endpoints that must coincide do not."""


class GestureFormatError(ValueError):
    """Raised when gesture text fails to parse."""


@dataclass(frozen=True)
class Digraph:
    """Finite directed multigraph; arrows are (source, target) vertex ids."""

    vertex_count: int
    arrows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # isfinite first: int() raises OverflowError for inf, a bare ValueError for nan
        n = self.vertex_count
        if not (math.isfinite(n) and int(n) == n and n >= 1):
            raise ValueError(f"vertex count must be a positive integer, got {n!r}")
        for idx, (src, dst) in enumerate(self.arrows):
            for name, v in (("source", src), ("target", dst)):
                if not (math.isfinite(v) and int(v) == v and 0 <= v < n):
                    raise ValueError(f"arrow {idx}: {name} {v!r} outside 0..{n - 1}")
        # integral floats pass the checks above; store them as ints
        object.__setattr__(self, "vertex_count", int(n))
        object.__setattr__(self, "arrows", tuple((int(s), int(t)) for s, t in self.arrows))


@dataclass(frozen=True, eq=False)
class SampledPath:
    """At least two uniform samples of a path in R^d, rows are points."""

    points: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.points, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"path points must be a 2-D array, got shape {arr.shape}")
        if arr.shape[0] < 2:
            raise ValueError(f"path needs at least 2 samples, got {arr.shape[0]}")
        if arr.shape[1] < 1:
            raise ValueError("path points need at least 1 coordinate")
        if not np.all(np.isfinite(arr)):
            raise ValueError("path points must be finite")
        object.__setattr__(self, "points", arr)

    @property
    def sample_count(self) -> int:
        return self.points.shape[0]

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]


def _close(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.all(np.abs(a - b) <= ENDPOINT_TOLERANCE))


@dataclass(frozen=True, eq=False)
class Band:
    """Fixed-endpoint homotopy sample: rows interpolate between boundaries."""

    rows: tuple[SampledPath, ...]

    def __post_init__(self) -> None:
        if len(self.rows) < 2:
            raise ValueError(f"band needs at least 2 rows, got {len(self.rows)}")
        first = self.rows[0]
        for i, row in enumerate(self.rows):
            if row.sample_count != first.sample_count or row.dimension != first.dimension:
                raise ValueError(f"band row {i} has shape {row.points.shape}, expected {first.points.shape}")
            if not _close(row.start, first.start) or not _close(row.end, first.end):
                raise EndpointError(f"band row {i} does not share the boundary endpoints")


@dataclass(frozen=True, eq=False)
class Gesture:
    """Digraph with a point per vertex and a path per arrow.

    Construction checks the endpoint law: one finite point per vertex,
    one path per arrow a = (s, t) in the vertex dimension, starting
    within ENDPOINT_TOLERANCE of point s and ending within it of point t.
    """

    digraph: Digraph
    vertex_points: np.ndarray
    arrow_paths: tuple[SampledPath, ...]

    def __post_init__(self) -> None:
        arrows = self.digraph.arrows
        points = np.asarray(self.vertex_points, dtype=np.float64)
        if points.ndim != 2 or points.shape[0] != self.digraph.vertex_count:
            raise ValueError(f"vertex points must be ({self.digraph.vertex_count}, d), got {points.shape}")
        if not np.all(np.isfinite(points)):
            raise ValueError("vertex points must be finite")
        paths = tuple(self.arrow_paths)
        if len(paths) != len(arrows):
            raise ValueError(f"expected {len(arrows)} arrow paths, got {len(paths)}")
        for idx, ((src, dst), path) in enumerate(zip(arrows, paths)):
            if path.dimension != points.shape[1]:
                raise ValueError(f"arrow {idx}: path dimension {path.dimension} differs from "
                                 f"vertex dimension {points.shape[1]}")
            for moves, k, role, v in (("starts", 0, "source", src), ("ends", -1, "target", dst)):
                if not _close(path.points[k], points[v]):
                    raise EndpointError(
                        f"arrow {idx}: path {moves} at {path.points[k].tolist()}, "
                        f"{role} vertex {v} sits at {points[v].tolist()}"
                    )
        object.__setattr__(self, "vertex_points", points)
        object.__setattr__(self, "arrow_paths", paths)

    @property
    def dimension(self) -> int:
        return self.vertex_points.shape[1]


def make_gesture(
    digraph: Digraph,
    vertex_points: np.ndarray | Sequence[Sequence[float]],
    arrow_paths: Sequence[SampledPath],
) -> Gesture:
    """Assemble a gesture; Gesture itself checks the endpoint law."""
    return Gesture(digraph, vertex_points, tuple(arrow_paths))


def constant_path(point: Sequence[float] | np.ndarray, sample_count: int = 2) -> SampledPath:
    """The path sitting still at one point."""
    if sample_count < 2:
        raise ValueError(f"need at least 2 samples, got {sample_count}")
    p = np.asarray(point, dtype=np.float64).reshape(1, -1)
    return SampledPath(points=np.repeat(p, sample_count, axis=0))


def reverse(path: SampledPath) -> SampledPath:
    """Traverse backwards; an involution at the sample level."""
    return SampledPath(points=path.points[::-1].copy())


def concatenate(first: SampledPath, second: SampledPath) -> SampledPath:
    """Join end to start, keeping the junction sample once.

    Sample counts add as n + m - 1, which makes concatenation strictly
    associative on the underlying arrays.
    """
    if first.dimension != second.dimension:
        raise ValueError(f"cannot concatenate paths in R^{first.dimension} and R^{second.dimension}")
    if not _close(first.end, second.start):
        raise EndpointError(f"paths do not meet: first ends at {first.end.tolist()}, "
                            f"second starts at {second.start.tolist()}")
    return SampledPath(points=np.vstack([first.points, second.points[1:]]))


def linear_band(from_path: SampledPath, to_path: SampledPath, row_count: int) -> Band:
    """Straight-line homotopy between two paths sharing both endpoints; Band checks that.

    Row j is the affine mix ((K-1-j)*from + j*to) / (K-1); the boundary
    rows are returned as the inputs themselves so they match exactly.
    """
    if row_count < 2:
        raise ValueError(f"band needs at least 2 rows, got {row_count}")
    if from_path.points.shape != to_path.points.shape:
        raise ValueError(f"paths must share shape, got {from_path.points.shape} and {to_path.points.shape}")
    k = row_count - 1
    inner = [SampledPath(points=((k - j) * from_path.points + j * to_path.points) / k)
             for j in range(1, k)]
    return Band(rows=(from_path, *inner, to_path))


PointMap = Callable[[np.ndarray], np.ndarray]


def _map_points(f: PointMap, points: np.ndarray, label: str) -> np.ndarray:
    """Stack f(row) over the rows, one call each; errors name '{label} {i}'."""
    images = []
    width = None
    for i, point in enumerate(points):
        try:
            image = np.asarray(f(point), dtype=np.float64).reshape(-1)
        except Exception as exc:
            raise ValueError(f"point map failed at {label} {i}: {exc}") from exc
        if width is None:
            width = image.shape[0]
        elif image.shape[0] != width:
            raise ValueError(f"point map changed output dimension at {label} {i}: "
                             f"{image.shape[0]} != {width}")
        images.append(image)
    return np.array(images)


def map_path(f: PointMap, path: SampledPath) -> SampledPath:
    """Apply f to every sample point; f maps a 1-D point to a 1-D point."""
    return SampledPath(points=_map_points(f, path.points, "sample"))


def _map_rows(f_rows: Callable[[np.ndarray, str], np.ndarray], gesture: Gesture) -> Gesture:
    """The functor on whole arrays: f_rows(points, label) maps (n, d) rows to
    (n, e); vertices first, then each arrow, errors prefixed 'arrow {idx}: '."""
    vertices = f_rows(gesture.vertex_points, "vertex")
    paths = []
    for idx, path in enumerate(gesture.arrow_paths):
        try:
            paths.append(SampledPath(points=f_rows(path.points, "sample")))
        except ValueError as exc:
            raise ValueError(f"arrow {idx}: {exc}") from exc
    return Gesture(gesture.digraph, vertices, tuple(paths))


def map_gesture(f: PointMap, gesture: Gesture) -> Gesture:
    """Apply f to all vertex points and path samples; same digraph.

    The point form of the functor on whole arrays, _map_rows: f is called
    once per row.  Endpoints survive: a path endpoint and its vertex point
    are the same input to the same deterministic f.
    """
    return _map_rows(lambda points, label: _map_points(f, points, label), gesture)


def adsr_gesture(
    attack_level: float,
    sustain_level: float,
    durations: Sequence[float],
    samples_per_segment: int = 16,
) -> Gesture:
    """Attack-decay-sustain-release envelope on the 5-vertex line digraph.

    durations are the four positive stage lengths; vertices in (time,
    amplitude) space are (0,0), (t1,attack), (t2,sustain), (t3,sustain),
    (t4,0) with cumulative times, and each arrow carries the straight
    line between its endpoints.
    """
    for name, level in (("attack", attack_level), ("sustain", sustain_level)):
        if not (0.0 <= level <= 1.0):
            raise ValueError(f"{name} level must lie in [0, 1], got {level!r}")
    stages = [float(d) for d in durations]
    if len(stages) != 4:
        raise ValueError(f"need 4 stage durations, got {len(stages)}")
    for i, d in enumerate(stages):
        if not (math.isfinite(d) and d > 0.0):
            raise ValueError(f"stage {i} duration must be positive, got {d!r} (times must strictly increase)")
    if samples_per_segment < 2:
        raise ValueError(f"need at least 2 samples per segment, got {samples_per_segment}")
    total = len(stages) * samples_per_segment
    if total > MAX_PATH_POINTS:
        raise ValueError(f"size guard: {total} path points exceeds cap {MAX_PATH_POINTS}")
    times = np.cumsum([0.0, *stages])  # t1 = 0.0 + d0, t2 = t1 + d1, ...
    vertices = np.column_stack((times, [0.0, attack_level, sustain_level, sustain_level, 0.0]))
    digraph = Digraph(vertex_count=5, arrows=((0, 1), (1, 2), (2, 3), (3, 4)))
    paths = []
    for src, dst in digraph.arrows:
        pts = np.linspace(vertices[src], vertices[dst], samples_per_segment)
        paths.append(SampledPath(points=pts))
    return make_gesture(digraph, vertices, paths)


@functools.cache
def _tables() -> tuple:
    """_float_text's tables, built at its first call.  By exponent field E, clipped to the
    range it formats: k with 10**(16-k) <= 2**(E-1023) < 10**(17-k), p = 10**k with its
    Veltkamp halves, and h = p * 2**(E-1076), half a float spacing times p.  By 4-digit
    group: its ASCII code and trailing zeros.  By start * 28 + end: a row mask, true between."""
    exponents = np.clip(np.arange(2048), 1009, 1072)
    k = 16 - ((exponents - 1023) * 78913 >> 18)  # 78913 / 2**18: log10(2)
    p = np.cumprod([1.0] + [10.0] * 21)[k]
    ph, z = p * 134217729.0 - (p * 134217729.0 - p), np.arange(10) == 0
    quads = (np.indices((10,) * 4, np.uint8).reshape(4, -1).T + 48).copy().view(np.uint32).ravel()
    zeros = (z * (1 + z[:, None] * (1 + z[:, None, None] * (1 + z[:, None, None, None])))).ravel()
    run = (np.tri(28, k=-1, dtype=bool)[:, None] < np.tri(28, dtype=bool)).reshape(-1, 28)
    return k, p, ph, p - ph, np.ldexp(p, (exponents - 1076).astype(np.intc)), quads, zeros, run


def _float_text(values: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """repr(v) + sep for each value and separator byte, in order, as uint8 bytes.

    0 and 1e-4 <= |v| < 1e15 take array passes: |v| * 10**k is hi + lo exactly
    (Dekker's product), in [1e16, 2e17), and its digits c are the coarsest
    multiple of 10**j in the rounding interval, nearest hi + lo.  The interval is
    narrower than 45 and its edges are never integers; at a power of two, whose
    lower gap is half, hi + lo is itself its one multiple of 100.  c's digits fill
    a 28-byte row by 4-digit table codes, those past the units digit one byte on
    for the point, and one mask keeps each value's bytes.  Other values take repr.
    """
    ks, ps, phs, pls, hs, quads, tz4, runs = _tables()
    x = values.ravel()
    fast = (np.abs(x) >= 1e-4) & (np.abs(x) < 1e15)
    a = np.where(fast, np.abs(x), 1.0)
    bits = a.view(np.int64)
    e = bits >> 52
    hi, ph, pl = a * np.take(ps, e), np.take(phs, e), np.take(pls, e)
    ah = (bits & -(1 << 26)).view(np.float64)
    lo = ah * ph - hi + ah * pl + (a - ah) * ph + (a - ah) * pl
    h, whole = np.take(hs, e), hi.astype(np.int64)
    top = whole + np.floor(lo + h).astype(np.int64)
    width = top - whole - np.ceil(lo - h).astype(np.int64) + 1  # integers in the interval
    step = 1 + 9 * (top - top // 10 * 10 < width)
    r = whole - whole // 20 * 20
    c = whole - r + step * np.rint((r + lo) / step).astype(np.int64)
    r = top - top // 100 * 100
    c += (top - r - c) * (r < width)  # the one multiple of 100 in the interval, if any
    c[x == 0] = 0
    del hi, ph, pl, ah, lo, h, whole, top, width, step, r
    digits = np.empty((len(x), 7), np.uint32)
    digits[:, 0], tz, rest = quads[0], 0, c
    for i, unit in enumerate((10**16, 10**12, 10**8, 10**4, 1), 1):
        group = rest // unit
        rest = rest - group * unit
        digits[:, i], zeros = np.take(quads, group), np.take(tz4, group)
        tz = zeros + (zeros == 4) * tz  # trailing zeros of c
    units, neg, digits = 23 - np.take(ks, e), np.signbit(x), digits.view(np.uint8).ravel()
    row = np.roll(digits, 1)  # each digit one byte on, then those up to the units digit back
    row += (digits - row) * np.take(runs, units, axis=0).ravel()
    at, last = np.arange(0, len(row), 28), np.maximum(23 - tz, units + 1)
    first = np.minimum(units, 7 - (c >= 10**17)) - neg
    row[at + units + 1], row[(at + first)[neg]] = ord("."), ord("-")
    row[at + last + 2] = sep = np.broadcast_to(seps, values.shape).ravel()
    keep, slow = np.take(runs, first * 28 + last + 2, axis=0), np.flatnonzero(~fast & (x != 0))
    texts = [repr(v) for v in x[slow].tolist()]
    size = np.array([len(text) for text in texts], dtype=np.int64)
    spots = np.repeat(slow * 28 - np.cumsum(size) + size, size) + np.arange(size.sum())  # their bytes
    row[spots], row[slow * 28 + size] = np.frombuffer("".join(texts).encode(), np.uint8), sep[slow]
    keep[slow] = np.take(runs, size, axis=0)
    return row.reshape(-1, 28)[keep]


def _gesture_text(gesture: Gesture) -> Iterator[bytes]:
    """serialize_gesture's text as ASCII bytes, a block of up to _TEXT_ROWS
    lines at a time through _float_text; a constant run, such as a sustain,
    is formatted once and repeated."""
    digraph, seps = gesture.digraph, np.array([32] * (gesture.dimension - 1) + [10], np.uint8)  # " ", "\n"
    arrows = "".join(f"a {src} {dst}\n" for src, dst in digraph.arrows)
    yield f"digraph {digraph.vertex_count} {len(digraph.arrows)}\n{arrows}".encode("ascii")
    yield b"v " + _float_text(gesture.vertex_points, seps).tobytes().replace(b"\n", b"\nv ")[:-2]
    for idx, path in enumerate(gesture.arrow_paths):
        yield f"p {idx} {path.sample_count}\n".encode("ascii")
        for block in np.split(path.points, range(_TEXT_ROWS, path.sample_count, _TEXT_ROWS)):
            run = (block.view(np.int64) == block[:1].view(np.int64)).all()  # bitwise: -0.0 is not 0.0
            yield _float_text(block[0], seps).tobytes() * len(block) if run else _float_text(block, seps)


def serialize_gesture(gesture: Gesture) -> str:
    """Line-oriented text form; see parse_gesture for the grammar.

    Coordinates are written as repr(float), so parsing is exact.
    """
    return b"".join(_gesture_text(gesture)).decode("ascii")


def parse_gesture(text: str) -> Gesture:
    """Parse the gesture text format and validate the endpoint law.

    Grammar, one record per line, '#' comments and blank lines ignored:

        digraph V A          header: vertex count, arrow count
        a SRC DST            A arrow lines, in arrow order
        v X0 X1 ... Xd-1     V vertex-point lines, in vertex order
        p INDEX COUNT        per-arrow path block, in arrow order,
        X0 X1 ... Xd-1       followed by COUNT sample-point lines

    All coordinates are decimal floats; the shared dimension d is set by
    the first vertex line.
    """
    lines = (raw.split("#", 1)[0].split() for raw in text.splitlines())
    records = ((lineno, fields) for lineno, fields in enumerate(lines, 1) if fields)

    def take(tag: str) -> tuple[int, list]:
        """The next record's line number and its fields after the tag, converted."""
        expect, form, width, kind, what = _RECORDS[tag]
        lineno, fields = next(records, (0, []))
        if not fields:
            raise GestureFormatError(f"unexpected end of text, expected {expect}")
        if tag and (fields[0] != tag or len(fields) < 2 or width and len(fields) != width):
            raise GestureFormatError(f"line {lineno}: expected {form}")
        try:
            return lineno, [kind(field) for field in (fields[1:] if tag else fields)]
        except ValueError:
            raise GestureFormatError(f"line {lineno}: {what}") from None

    def take_rows(tag: str, count: int, what: str) -> list:
        """count records' coordinates, all of the first one's dimension."""
        rows = []
        for _ in range(count):
            lineno, row = take(tag)
            if rows and len(row) != len(rows[0]):
                raise GestureFormatError(
                    f"line {lineno}: {what} dimension {len(row)} differs from {len(rows[0])}")
            rows.append(row)
        return rows

    vertex_count, arrow_count = take("digraph")[1]
    arrows = [tuple(take("a")[1]) for _ in range(arrow_count)]
    vertex_rows = take_rows("v", vertex_count, "vertex")

    paths = []
    for expected_idx in range(arrow_count):
        lineno, (idx, count) = take("p")
        if idx != expected_idx:
            raise GestureFormatError(f"line {lineno}: path blocks must appear in arrow order, "
                                     f"expected index {expected_idx}, got {idx}")
        samples = take_rows("", count, "path sample")
        try:
            paths.append(SampledPath(points=np.array(samples, dtype=np.float64)))
        except ValueError as exc:
            raise GestureFormatError(f"path {idx}: {exc}") from exc

    extra = next(records, None)
    if extra is not None:
        raise GestureFormatError(f"line {extra[0]}: trailing content")

    try:
        digraph = Digraph(vertex_count=vertex_count, arrows=tuple(arrows))
        return make_gesture(digraph, np.array(vertex_rows, dtype=np.float64), paths)
    except ValueError as exc:
        raise GestureFormatError(str(exc)) from exc
