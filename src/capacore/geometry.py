"""Integer-grid points, ell_r cost powers and randomly shifted grid hierarchies.

Points live on [1, Delta]^d.  Cell arithmetic internally uses 0-based
coordinate offsets so that the single level -1 root cell provably covers the
whole domain for every dyadic shift in [0, Delta); the root lattice is
anchored half a root-cell to the left of the finer grids, which pairs the two
possible level-0 indices {-1, 0} per axis into one parent.

Every mode reads coordinates and tags by operator.index (a numpy integer
is its Python int, a float is rejected), outside_domain is the one range
rule over their columns, and check_domain names the first point failing
either (PointEncoder.encode keeps a scalar test for stream updates).

Every cost is a weighted sum of dist^r entries, and every (n, k) table of
them is made here, for the assignment stage and the oracle alike:
coord_array reads points into int64 columns (Python ints past int64),
dist_table makes the table, each entry equal to dist_pow, scaled_table
rounds it to a flow scale, and nearest_centers is the one nearest-center
rule.  The one int64 gate is dist_table's: exact squared distances stay
int64 while the largest one the per-axis gaps allow lies below 2^63.
"""

from __future__ import annotations

import math
import random
from itertools import chain
from operator import index, itemgetter
from typing import NamedTuple

import numpy as np

from .common import UsageError

SHIFT_FRAC_BITS = 32
# the largest supported Delta: coordinates and lattices then fit int64
MAX_DELTA = 1 << 62
_INT64_LIMIT = 1 << 63

NO_TAG = -1
TAG_SPACE = 1 << 32  # tag codes 0 .. 2**32-1, i.e. tags -1 .. 2**32-2


class Point(NamedTuple):
    coords: tuple
    tag: int = NO_TAG

    def sort_key(self):
        return (self.coords, self.tag)


def alph_less(p: Point, q: Point) -> bool:
    """Alphabetic (lexicographic) order on coordinates, tag as tiebreak."""
    return p.sort_key() < q.sort_key()


def dist_pow(p: Point, q: Point, r: float):
    """(Euclidean distance)**r.  Exact integer for r == 2."""
    if len(p.coords) != len(q.coords):
        raise UsageError("dimension mismatch between points")
    sq = 0
    for a, b in zip(p.coords, q.coords):
        delta = a - b
        sq += delta * delta
    if r == 2:
        return sq
    if r == 1:
        return math.sqrt(sq)
    return sq ** (r / 2.0)


# --- dist^r tables -----------------------------------------------------------

def coord_array(points, d: int) -> np.ndarray:
    """The (n, d) coordinates of Points or coordinate rows, read by
    operator.index (a non-integer raises TypeError): int64, or object (the
    Python ints) when one passes int64.  A row not of d is a usage error."""
    rows = list(map(itemgetter(0), points)) \
        if points and isinstance(points[0], Point) else points
    n = len(rows)
    if n and set(map(len, rows)) != {d}:
        raise UsageError("dimension mismatch between points")
    try:
        return np.fromiter(map(index, chain.from_iterable(rows)), np.int64,
                           n * d).reshape(n, d)
    except OverflowError:
        coords = np.empty((n, d), dtype=object)
        coords[:] = [list(map(index, row)) for row in rows]
        return coords


def point_rows(points, d: int) -> np.ndarray:
    """The (n, d + 1) rows of Points: each point's coordinates
    (coord_array), then its tag, read by operator.index into int64."""
    return np.column_stack((coord_array(points, d), np.fromiter(
        map(index, map(itemgetter(1), points)), np.int64, len(points))))


def outside_domain(rows, Delta: int) -> np.ndarray:
    """The range rule of every mode, per value of rows ((n, d + 1)
    integers, each row a point's coordinates and then its tag): whether it
    lies outside [1, Delta] (a coordinate) or [-1, TAG_SPACE - 2] (a tag)."""
    d = rows.shape[1] - 1
    return (rows < np.array([1] * d + [NO_TAG])) | \
        (rows > np.array([Delta] * d + [TAG_SPACE - 2]))


def dist_table(points, centers, r) -> np.ndarray:
    """The (n, k) dist^r table of points (Points, coordinate rows or a
    coord_array) to the Points centers, each entry equal to dist_pow.

    Squared distances are exact: int64 while the largest one the per-axis
    point-center gaps allow lies below 2^63 (the one int64 gate), Python
    ints otherwise.  r = 2 keeps them, r = 1 takes np.sqrt of their float64
    values, any other r Python's float ** (r / 2) per entry, as dist_pow
    does (np.power may differ in the last bit)."""
    n, k = len(points), len(centers)
    if not n or not k:
        return np.zeros((n, k), dtype=np.int64 if r == 2 else np.float64)
    z = coord_array(centers, len(centers[0].coords))
    x = points if isinstance(points, np.ndarray) else \
        coord_array(points, z.shape[1])
    if x.shape[1] != z.shape[1]:
        raise UsageError("dimension mismatch between points")
    if x.dtype != np.int64 or z.dtype != np.int64 or sum(
            max(xh - zl, zh - xl) ** 2 for xl, xh, zl, zh in zip(
                x.min(axis=0).tolist(), x.max(axis=0).tolist(),
                z.min(axis=0).tolist(), z.max(axis=0).tolist())) \
            >= _INT64_LIMIT:
        x, z = x.astype(object), z.astype(object)
    sq = np.empty((n, k), dtype=x.dtype)
    for j in range(k):
        diff = x - z[j]
        col = diff[:, 0] * diff[:, 0]
        for a in range(1, x.shape[1]):
            col = col + diff[:, a] * diff[:, a]
        sq[:, j] = col
    if r == 2:
        return sq
    flat = sq.astype(np.float64)  # rounded to nearest, as float() rounds
    if r == 1:
        return np.sqrt(flat)
    e = r / 2.0
    return np.array([v ** e for v in flat.ravel().tolist()],
                    dtype=np.float64).reshape(n, k)


def nearest_centers(points, centers) -> np.ndarray:
    """Each point's nearest center: the first argmin of its exact squared
    distances, so a tie goes to the lower index."""
    return dist_table(points, centers, 2).argmin(axis=1)


def scaled_table(table, scale: int) -> np.ndarray:
    """round(entry * scale) over a dist_table, half to even as Python's
    round (np.rint): int64 while every value fits, Python ints past it."""
    if table.dtype == np.float64:
        with np.errstate(over="ignore"):  # inf: round() below raises
            scaled = np.rint(table * scale)
        if np.all(np.abs(scaled) < _INT64_LIMIT):
            return scaled.astype(np.int64)
    elif table.dtype == np.int64 and isinstance(scale, int) and \
            (not table.size or int(table.max()) * scale < _INT64_LIMIT):
        return table * scale
    return np.array([round(v * scale) for v in table.ravel().tolist()],
                    dtype=object).reshape(table.shape)


def next_pow2(n: int) -> int:
    if n < 1:
        raise UsageError("Delta must be >= 1")
    return 1 << max(0, (n - 1).bit_length())


def sample_shift(seed: int, Delta: int, d: int) -> tuple:
    """d dyadic shift numerators, uniform on [0, Delta) at 32 fractional bits."""
    rng = random.Random(seed)
    span = Delta << SHIFT_FRAC_BITS
    return tuple(rng.randrange(span) for _ in range(d))


class GridHierarchy:
    """Randomly shifted nested grids G_{-1}, G_0, ..., G_L with g_i = Delta/2**i.

    Points have integer coordinates and level-L cells have side 1, so a
    shift numerator v (at SHIFT_FRAC_BITS fractional bits) acts on lattices
    only through off = ceil(v / 2**SHIFT_FRAC_BITS): the level-L lattice of
    coordinate c is c - 1 - off.  Floor division by a power of two nests,
    so level i is that shifted right by L - i, and the root (anchored half a
    root cell to the left) is (level-0 lattice + 1) >> 1, the parent rule of
    level 0.  Lattices of coordinates in [1, Delta] lie in [-Delta, Delta)."""

    def __init__(self, Delta: int, d: int, shift_numerators: tuple):
        if Delta < 1 or Delta & (Delta - 1):
            raise UsageError(f"Delta must be a power of two, got {Delta}")
        if len(shift_numerators) != d:
            raise UsageError("shift dimension mismatch")
        span = Delta << SHIFT_FRAC_BITS
        if not all(0 <= v < span for v in shift_numerators):
            raise UsageError("shift numerators out of [0, Delta) range")
        self.Delta = Delta
        self.L = Delta.bit_length() - 1
        self.d = d
        self.shift_num = tuple(shift_numerators)
        # per-axis integer offset of the level-L lattice: ceil(v / 2**32)
        self.off = tuple(-(-v >> SHIFT_FRAC_BITS) for v in self.shift_num)

    @classmethod
    def from_seed(cls, seed: int, Delta: int, d: int) -> "GridHierarchy":
        return cls(Delta, d, sample_shift(seed, Delta, d))

    def lattice_of(self, coords, level: int) -> tuple:
        if not -1 <= level <= self.L:
            raise UsageError(f"level {level} outside [-1, {self.L}]")
        # numpy integers are read as Python ints, whose arithmetic is exact
        lat = [index(c) - 1 - o for c, o in zip(coords, self.off)]
        if level == -1:
            return tuple([((t >> self.L) + 1) >> 1 for t in lat])
        return tuple([t >> (self.L - level) for t in lat])

    def lattices(self, coords, level: int) -> np.ndarray:
        """lattice_of over the rows of an (n, d) int64 array of coordinates
        in [1, Delta], as an (n, d) int64 array: the level-L lattices
        coords - 1 - off, coarsened."""
        return self.coarsen(coords - 1 - np.array(self.off, dtype=np.int64),
                            level)

    def coarsen(self, finest, level: int) -> np.ndarray:
        """The lattices at level of level-L lattices ((n, d) int64): shifted
        right by L - level, the root by the parent rule of level 0."""
        if not -1 <= level <= self.L:
            raise UsageError(f"level {level} outside [-1, {self.L}]")
        if level == -1:
            return ((finest >> self.L) + 1) >> 1
        return finest >> (self.L - level)

    def path_of(self, coords) -> tuple:
        """The lattices of levels 0..L, from one lattice_of at level L: each
        coarser level is the finer one shifted right by one."""
        lat = self.lattice_of(coords, self.L)
        path = [lat]
        for _ in range(self.L):
            lat = tuple([t >> 1 for t in lat])
            path.append(lat)
        path.reverse()
        return tuple(path)


# --- point file format ---------------------------------------------------
# One point per line: d whitespace-separated integers, optional trailing
# "#tag".  Lines starting with '%' are comments.

def parse_point_line(line: str) -> Point | None:
    body = line.strip()
    if not body or body.startswith("%"):
        return None
    tag = NO_TAG
    try:
        if "#" in body:
            body, tag_part = body.split("#", 1)
            tag = int(tag_part.strip())
        coords = tuple(int(tok) for tok in body.split())
    except ValueError:
        raise UsageError(
            f"point line must hold integers: {line.strip()!r}") from None
    return Point(coords, tag)


def check_domain(points, Delta: int, d: int) -> np.ndarray:
    """The point check of every mode: the int64 point_rows of Points that
    are d-dimensional, with integer coordinates in [1, Delta] and integer
    tags in [-1, TAG_SPACE-2] (outside_domain, the range rule).  Else a
    usage error names the first point in input order that is not."""
    points = list(points)
    try:
        rows = point_rows(points, d)
        if not outside_domain(rows, Delta).any():
            return rows
    except (UsageError, TypeError, OverflowError):  # named one by one below
        pass
    for p in points:
        if len(p.coords) != d:
            raise UsageError(f"point {format_point(p)!r} has {len(p.coords)} "
                             f"coordinates, expected d={d}")
        try:
            outside = outside_domain(np.array(
                [[*map(index, p.coords), index(p.tag)]], dtype=object),
                Delta)[0]
        except TypeError:
            raise UsageError(f"point {format_point(p)!r} has a coordinate "
                             f"or tag that is not an integer") from None
        if outside[:d].any():
            raise UsageError(f"point {format_point(p)!r} lies outside "
                             f"[1, {Delta}]^{d}")
        if outside[d]:
            raise UsageError(f"point {format_point(p)!r} has a tag outside "
                             f"[-1, {TAG_SPACE - 2}]")


def check_distinct(points):
    """Reject a point listed twice (equal coordinates and tag).  Every mode
    counts copies alike, but the files name a point by its coordinates and
    tag (an assignment maps each to its center), so copies in a file need
    distinct tags to be told apart."""
    seen = set()
    for p in points:
        if p in seen:
            raise UsageError(f"point {format_point(p)!r} is repeated; give "
                             f"its copies distinct #tags to keep them")
        seen.add(p)


def format_point(p: Point) -> str:
    base = " ".join(str(c) for c in p.coords)
    if p.tag != NO_TAG:
        base += f" #{p.tag}"
    return base


def read_points(path) -> list:
    pts = []
    with open(path) as fh:
        for line in fh:
            p = parse_point_line(line)
            if p is not None:
                pts.append(p)
    return pts


def write_points(path, points, header_lines=()):
    with open(path, "w") as fh:
        for h in header_lines:
            fh.write(f"% {h}\n")
        for p in points:
            fh.write(format_point(p) + "\n")
