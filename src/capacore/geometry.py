"""Integer-grid points, ell_r cost powers and randomly shifted grid hierarchies.

Points live on [1, Delta]^d.  Cell arithmetic internally uses 0-based
coordinate offsets so that the single level -1 root cell provably covers the
whole domain for every dyadic shift in [0, Delta); the root lattice is
anchored half a root-cell to the left of the finer grids, which pairs the two
possible level-0 indices {-1, 0} per axis into one parent.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .common import UsageError

SHIFT_FRAC_BITS = 32
# the largest supported Delta: coordinates and lattices then fit int64
MAX_DELTA = 1 << 62

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
        lat = [c - 1 - o for c, o in zip(coords, self.off)]
        if level == -1:
            return tuple([((t >> self.L) + 1) >> 1 for t in lat])
        return tuple([t >> (self.L - level) for t in lat])

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


def check_domain(points, Delta: int, d: int):
    """Reject a point that is not d-dimensional, lies outside [1, Delta]^d or
    has a tag outside [-1, TAG_SPACE-2]: the point check of every mode."""
    for p in points:
        if len(p.coords) != d:
            raise UsageError(f"point {format_point(p)!r} has {len(p.coords)} "
                             f"coordinates, expected d={d}")
        if not all(1 <= c <= Delta for c in p.coords):
            raise UsageError(f"point {format_point(p)!r} lies outside "
                             f"[1, {Delta}]^{d}")
        if not NO_TAG <= p.tag <= TAG_SPACE - 2:
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
