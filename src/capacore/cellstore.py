"""Mergeable, deletion-tolerant cell stores (the Storing contract).

Both backings expose update / merge_in / finalize / serialize with identical
observable semantics; finalize() FAILs above alpha nonempty cells (a
common.Fail at the "store cell cap") and recovers the points of the cells
of count at most beta, under the store's own caps, as a CellData: columns
of lattices and counts and a point table.  A store that serves several
guesses is sized by their largest caps; each guess's own caps apply to the
read-out in the decision path (coreset.finalize_cells).

* ExactCellStore's content is one signed point multiset: a dict of nonzero
  signed cell counts and one of nonzero signed point multiplicities (none
  below beta 1).  It never FAILs below the cell cap and always FAILs above
  it (delta = 0), at the price of non-sublinear space.
* SketchCellStore is a genuine linear sketch: cells hash into rows of
  buckets holding (signed count, signed keysum, signed checksum) for
  1-sparse recovery, and from beta 1 each bucket nests a second-level
  decoder that recovers the points of cells claiming at most beta
  members.  Any inconsistent recovery FAILs at "sketch decoding".  Its
  hash pairs are drawn once per (seed, level, rows, point rows).

Serialized blobs are the distributed protocol's wire unit; their byte length
is the communication cost.  An exact shard sends one message
(encode_exact) for all its stores, each point and each count at most once:
a header (magic, version, kind, d, and its numbers of point rows, residual
rows and stores), then two sections.  The point section holds the points
that some store's light cells (count at most beta) list; the residual
section holds, per store position and cell, the summed multiplicity of the
store's points in it that the point section does not hold, where that is
nonzero.  The store's level, caps and seed are the reader's: the
coordinator's layout, from the broadcast.  The reader derives the rest:
the point rows that a store keeps count toward their cells at its level,
and its residual rows are added (distributed states why that is exact
over the machines' shards).  ExactCellStore.serialize writes its own
content by the same rule, as a message of one store.  Every section is at
the width its values need (_narrow writes one, _wide reads one).
parse_exact is the one reader of the message, and merge_exact the one
read-out: it merges listed points and count rows in columns into a
CellData, be they the machines' messages at the coordinator or a store's
own content.  A malformed message is a usage error.  Sketch blobs
(encode_sketch gives a machine's) carry their records alone, one blob per
store.
"""

from __future__ import annotations

import math
import random
import struct
from functools import lru_cache
from itertools import compress
from typing import NamedTuple

import numpy as np

from .common import Fail, UsageError, derive_seed, is_fail
from .geometry import TAG_SPACE, GridHierarchy, Point, coord_array, point_rows
from .hashing import PointEncoder
from .partition import point_table, sorted_runs

_MAGIC = b"CSTO"
_SKETCH_VERSION = 1
# version 2: columnar sections; 3: a point message; 4: narrow sections;
# 5: residual rows; 6: one message per machine
_EXACT_VERSION = 6
# the kind byte after the version: the backing
_EXACT, _SKETCH = 0, 1
# blob layouts, little-endian: an exact message's header (magic, version,
# kind, d, numbers of point rows, residual rows and stores); a sketch
# blob's header (magic, version, kind, level, d, alpha, beta, delta, seed);
# a sketch's record counts and the slots of its cell and point records
_EXACT_HEAD = struct.Struct("<4sBBHIII")
_SKETCH_HEAD = struct.Struct("<4sBBhHdddq")
_COUNT = struct.Struct("<I")
_CELL_SLOT = struct.Struct("<Iq")
_POINT_SLOT = struct.Struct("<IqIq")
_WIDTHS = (1, 2, 4, 8)

_PRIME = (1 << 61) - 1


class CellData:
    """Finalize output in columns: a level's nonempty cells, their counts
    and the points of its light cells.

    lattices (m x d, int64) are the cells in lexicographic order, with their
    int64 counts.  The light cells' points are rows of a table of distinct
    Points in sort_key order: cell c lists the points points[ids[e]] for e
    in offsets[c]:offsets[c + 1], ids increasing, each with mults[e] > 0
    copies; a cell whose points are not recovered (count above beta) has an
    empty range.  Every table is built by partition.point_table, the one
    table builder (by _table or coreset.PointColumns), so row order is
    point order across cells too."""

    def __init__(self, level: int, lattices, counts, points, ids, mults,
                 offsets):
        self.level = level
        self.lattices = lattices
        self.counts = counts
        self.points = points
        self.ids = ids
        self.mults = mults
        self.offsets = offsets

    def canonical(self):
        """(level, (lattice, count) per cell, (lattice, points) per cell
        that lists points, each point once per copy), in tuples."""
        cells = list(map(tuple, self.lattices.tolist()))
        ids, mults = self.ids.tolist(), self.mults.tolist()
        ends = self.offsets.tolist()
        light = tuple(
            (lat, tuple(self.points[i] for e in range(a, b)
                        for i in [ids[e]] * mults[e]))
            for lat, a, b in zip(cells, ends, ends[1:]) if b > a)
        return (self.level, tuple(zip(cells, self.counts.tolist())), light)

    def __eq__(self, other):
        return isinstance(other, CellData) and self.canonical() == other.canonical()


def _check_compatible(a, b):
    if type(a) is not type(b) or a.level != b.level or a.alpha != b.alpha \
            or a.beta != b.beta or a.seed != b.seed:
        raise UsageError("cannot merge stores with different level/caps/seeds")


class ExactCellStore:
    def __init__(self, grid: GridHierarchy, level: int, alpha: float, beta: float,
                 seed: int = 0):
        self.grid = grid
        self.level = level
        self.alpha = alpha
        self.beta = beta
        self.seed = seed
        self.counts: dict = {}  # lattice -> nonzero signed count
        self.points: dict = {}  # Point -> nonzero signed multiplicity

    def update(self, p: Point, sign: int, lat: tuple | None = None,
               code: int | None = None):
        """Add sign (a nonzero integer) copies of p; lat is p's lattice at
        this level, computed when not given; code, p's PointEncoder code,
        serves the sketch store's update and is not read here."""
        if lat is None:
            lat = self.grid.lattice_of(p.coords, self.level)
        counts = self.counts
        c = counts.get(lat, 0) + sign
        if c:
            counts[lat] = c
        else:
            del counts[lat]
        if self.beta < 1:  # no cell lists its points
            return
        points = self.points
        m = points.get(p, 0) + sign
        if m:
            points[p] = m
        else:
            del points[p]

    def merge_in(self, other: "ExactCellStore"):
        _check_compatible(self, other)
        # add counts and multiplicities: dict.update would overwrite them
        for mine, theirs in ((self.counts, other.counts),
                             (self.points, other.points)):
            for key, v in theirs.items():
                nv = mine.get(key, 0) + v
                if nv:
                    mine[key] = nv
                else:
                    del mine[key]

    def finalize(self):
        """CellData: FAIL above alpha nonempty cells, points recovered for the
        cells of count at most beta (merge_exact of the store's content)."""
        return _merge_dicts(self, self.counts, self.points)

    def serialize(self) -> bytes:
        """The message of one store (encode_exact) that holds its content:
        the points of its light cells (count at most beta, 0 for a cell
        whose points cancel), and residual rows at store position 0: per
        cell, its count less the multiplicities of the points listed there
        (nonzero for a cell over beta, and for every nonzero cell of a store
        of beta below 1, which holds no point)."""
        d = self.grid.d
        rows = _table(self.points, d)[0]
        cells = list(map(tuple, self.grid.lattices(rows[:, :d],
                                                   self.level).tolist()))
        listed = np.array([self.counts.get(lat, 0) <= self.beta
                           for lat in cells], dtype=bool)
        residual = dict(self.counts)
        for lat, m in zip(compress(cells, listed),
                          rows[listed, d + 1].tolist()):
            residual[lat] = residual.get(lat, 0) - m
        return encode_exact(rows[listed], np.array(
            sorted((0, *lat, r) for lat, r in residual.items() if r),
            dtype=np.int64).reshape(-1, d + 2), 1)

    def space_bytes(self):
        """The bytes of the entries the store holds, not the capacity its
        dicts have allocated, which does not shrink after deletions."""
        d = self.grid.d
        return 24 + len(self.counts) * (8 * d + 8) \
            + len(self.points) * (8 * d + 16)


class ExactBlob(NamedTuple):
    """An exact message's sections and store count (parse_exact)."""
    points: np.ndarray  # (m, d + 2): coordinates, tag, multiplicity
    cells: np.ndarray  # (c, d + 2): store position, lattice, residual count
    stores: int


def _width(top: int) -> int:
    """The fewest bytes of _WIDTHS whose signed integers hold -top - 1 to top."""
    return next(w for w in _WIDTHS if top < 1 << 8 * w - 1)


def _narrow(values) -> bytes:
    """The section of an int64 array: a width byte, then the values in C
    order as little-endian signed integers of the narrowest width of
    _WIDTHS that holds them all (1 for none)."""
    width = _width(max(int(values.max()), -1 - int(values.min()))
                   if values.size else 0)
    return bytes((width,)) + values.astype(f"<i{width}").tobytes()


def _wide(blob, off: int, count: int):
    """The count values of the section (_narrow's) at offset off of blob,
    as int64, and the offset after them; a blob too short to hold them or a
    width byte other than 1, 2, 4 or 8 is a usage error."""
    # with no width byte left, the end falls past the blob's
    width = blob[off] if off < len(blob) else 1
    if width not in _WIDTHS:
        raise UsageError(f"width byte {width} in an exact cell-store message")
    end = off + 1 + count * width
    if end > len(blob):
        raise UsageError("truncated cell-store blob")
    return np.frombuffer(blob, f"<i{width}", count, off + 1) \
        .astype(np.int64, copy=False), end


def _check_d(d: int, grid: GridHierarchy):
    if d != grid.d:
        raise UsageError(f"cell-store blob is {d}-d, the grid {grid.d}-d")


def parse_exact(blob: bytes, grid: GridHierarchy) -> ExactBlob:
    """The point rows, residual rows and store count of an encode_exact
    message of grid's dimension.  A blob of another kind or dimension, a
    truncated message, one with bytes after its last section, or residual
    rows out of store order or at a position outside [0, stores) is a
    usage error."""
    if len(blob) < _EXACT_HEAD.size:
        raise UsageError("truncated cell-store blob")
    magic, ver, kind, d, m, c, stores = _EXACT_HEAD.unpack_from(blob)
    if magic != _MAGIC or ver != _EXACT_VERSION or kind != _EXACT:
        raise UsageError("not an exact cell-store message")
    _check_d(d, grid)
    points, off = _wide(blob, _EXACT_HEAD.size, m * (d + 2))
    cells, off = _wide(blob, off, c * (d + 2))
    if off != len(blob):
        raise UsageError(f"{len(blob) - off} bytes after the last section "
                         f"of an exact message")
    positions = cells[::d + 2]
    if (np.diff(positions) < 0).any():
        raise UsageError("residual rows out of store order")
    if c and not 0 <= positions[0] <= positions[-1] < stores:
        raise UsageError(f"a residual row's store position outside "
                         f"[0, {stores})")
    return ExactBlob(points.reshape(m, d + 2), cells.reshape(c, d + 2),
                     stores)


def merge_exact(store, cells, points, ids, mults, lattices, *,
                counted: bool = True):
    """The one read-out of store content: the CellData of the count rows
    cells ((c, d + 1) int64: lattice, count) and of the listed points, under
    store's level and caps.  The listed points are the rows ids
    (increasing) of the table points (in sort_key order), with their
    multiplicities mults and their cells' lattices at the store's level.
    Counts are summed per lattice, the listed points' multiplicities among
    them when counted (cells then holds residual rows), zeros dropped;
    above store.alpha nonzero cells it FAILs, and each cell of count at
    most store.beta lists its points of a positive multiplicity.  One
    sorted_runs groups the points and the count rows by lattice; being
    stable, it keeps each cell's points in table order."""
    d, n = store.grid.d, len(ids)
    rows = np.concatenate((lattices, cells[:, :d]))
    values = np.concatenate((mults if counted else np.zeros(n, np.int64),
                             cells[:, d]))
    order, new = sorted_runs(rows)
    starts = np.flatnonzero(new)
    counts = np.add.reduceat(values[order], starts) if len(order) \
        else values
    nonzero = counts != 0
    if np.count_nonzero(nonzero) > store.alpha:
        return Fail("store cell cap")
    light = nonzero & (counts <= store.beta)
    # the listed points in cell order, each with its cell's group
    point = order < n
    at, group = order[point], (np.cumsum(new) - 1)[point]
    keep = light[group] & (mults[at] > 0)
    at, group = at[keep], group[keep]
    offsets = np.append(0, np.cumsum(np.bincount(
        group, minlength=len(starts))[nonzero]))
    return CellData(store.level, rows[order[starts[nonzero]]],
                    counts[nonzero], points, ids[at], mults[at], offsets)


def _table(points: dict, d: int):
    """The point table (partition.point_table) of {Point: multiplicity}:
    its int64 rows and the dict's own Points, in sort_key order."""
    pts = list(points)
    rows = np.column_stack((point_rows(pts, d), np.fromiter(
        points.values(), np.int64, len(pts))))
    first = point_table(rows)[0]
    return rows[first], list(map(pts.__getitem__, first.tolist()))


def _merge_dicts(store, counts: dict, points: dict) -> CellData:
    """merge_exact of store content in dicts, {lattice: count} and {Point:
    multiplicity}, each point in its cell at the store's level
    (GridHierarchy.lattices) and not counted there: the counts are the
    count rows, and the table (_table) holds the dicts' own Points."""
    d = store.grid.d
    rows, pts = _table(points, d)
    cells = np.column_stack((coord_array(list(counts), d), np.fromiter(
        counts.values(), np.int64, len(counts))))
    return merge_exact(store, cells, pts, np.arange(len(pts)), rows[:, d + 1],
                       store.grid.lattices(rows[:, :d], store.level),
                       counted=False)


def encode_exact(points, cells, stores: int) -> bytes:
    """The message of an exact machine of stores stores, or of a store
    (stores 1): its point rows points ((m, d + 2) int64: coordinates, tag,
    signed multiplicity; one row per distinct point, in sort_key order)
    and its residual rows cells ((c, d + 2) int64: store position, lattice,
    nonzero count; by position, then lattice).  Layout, little-endian: the
    header (magic, version, kind, d, m, c, stores), then the point rows and
    the residual rows, each as one section (_narrow)."""
    return _EXACT_HEAD.pack(_MAGIC, _EXACT_VERSION, _EXACT,
                            points.shape[1] - 2, len(points), len(cells),
                            stores) + _narrow(points) + _narrow(cells)


def machine_blob_bound(d: int, Delta: int, n: int, cells) -> int:
    """The most bytes encode_exact writes for a machine of at most n points
    of [1, Delta]^d, copies counted, whose stores have at most cells[i]
    cells each: the header and two width bytes; one (coordinates, tag,
    multiplicity) row per point, at the width that Delta, the largest tag
    (TAG_SPACE - 2) and n need; and per store at most min(n, cells[i])
    residual rows (a residual counts at least one point), each a position,
    a lattice and a count, at the width that the number of stores, Delta
    (lattices lie in [-Delta, Delta]) and n need."""
    return _EXACT_HEAD.size + 2 \
        + n * (d + 2) * _width(max(Delta, TAG_SPACE - 2, n)) \
        + sum(min(n, c) for c in cells) * (d + 2) \
        * _width(max(len(cells), Delta, n))


@lru_cache(maxsize=1024)
def _hash_draws(seed: int, level: int, rows: int, prows: int):
    """A sketch's hash pairs (a, b), drawn once per (seed, level, rows,
    prows), in this order: one per cell row (h1), the cell checksum's (h2),
    one per point row (p1) and the point checksum's (p2)."""
    rng = random.Random(derive_seed(seed, f"sketch:{level}"))
    pairs = [(rng.randrange(1, _PRIME), rng.randrange(_PRIME))
             for _ in range(rows + prows + 2)]
    return tuple(pairs[:rows]), pairs[rows], tuple(pairs[rows + 1:-1]), \
        pairs[-1]


class SketchCellStore:
    def __init__(self, grid: GridHierarchy, level: int, alpha: float, beta: float,
                 seed: int, delta: float = 0.01):
        if not 0 < delta < 0.5:
            raise UsageError(f"delta must lie in (0, 0.5), got {delta}")
        self.grid = grid
        self.level = level
        self.alpha = alpha
        self.beta = beta
        self.seed = seed
        self.delta = delta
        # buckets are addressed lazily, so formula-sized caps stay cheap;
        # rows sized so that every cell sees a private bucket w.p. >= 1-delta/3
        self.buckets = max(8, 4 * math.ceil(alpha))
        self.rows = max(4, math.ceil(math.log(3 * max(alpha, 1) / delta, 4)) + 1)
        self.prows = 4
        self.pbuckets = max(8, 4 * math.ceil(beta))
        self._enc = PointEncoder(grid.Delta, grid.d)
        self._h1, self._h2, self._p1, self._p2 = _hash_draws(
            seed, level, self.rows, self.prows)
        self._off = 1 << (grid.L + 1)
        self._base = 1 << (grid.L + 2)
        self.cell_state: dict = {}   # (row, bucket) -> [count, keysum, checksum]
        self.point_state: dict = {}  # (row, bucket, prow, pbucket) -> [cnt, ks, cs]

    # --- encodings ------------------------------------------------------
    def _cell_code(self, lat) -> int:
        acc = 0
        for t in reversed(lat):
            acc = acc * self._base + (t + self._off)
        return acc + 1  # keep codes nonzero

    def _cell_decode(self, code: int):
        acc = code - 1
        lat = []
        for _ in range(self.grid.d):
            lat.append(acc % self._base - self._off)
            acc //= self._base
        return tuple(lat)

    @staticmethod
    def _pair_hash(ab, x, mod):
        return (ab[0] * x + ab[1]) % _PRIME % mod

    # checksums must be non-linear in the key, otherwise a bucket holding
    # several keys whose keysum divides evenly would pass the purity test
    @staticmethod
    def _check(ab, code):
        return (code * code + ab[0] * code + ab[1]) % _PRIME

    # --- updates ---------------------------------------------------------
    def update(self, p: Point, sign: int, lat: tuple | None = None,
               code: int | None = None):
        """Add sign copies of p; lat is p's lattice at this level and code
        its PointEncoder code (whose encode checks the domain), each
        computed when not given."""
        if lat is None:
            lat = self.grid.lattice_of(p.coords, self.level)
        ccode = self._cell_code(lat)
        # the signed keysum and checksum terms every bucket of p adds
        ckey, ccheck = sign * ccode, sign * self._check(self._h2, ccode)
        pslots = []  # no cell lists its points below beta 1
        if self.beta >= 1:
            pcode = (self._enc.encode(p) if code is None else code) + 1
            pkey, pcheck = sign * pcode, sign * self._check(self._p2, pcode)
            # a point's buckets do not depend on its cell's row
            pslots = [(prow, self._pair_hash(ab, pcode, self.pbuckets))
                      for prow, ab in enumerate(self._p1)]
        cell_state, point_state = self.cell_state, self.point_state
        for row, ab in enumerate(self._h1):
            b = self._pair_hash(ab, ccode, self.buckets)
            _add(cell_state, (row, b), sign, ckey, ccheck)
            for prow, pb in pslots:
                _add(point_state, (row, b, prow, pb), sign, pkey, pcheck)

    def merge_in(self, other: "SketchCellStore"):
        _check_compatible(self, other)
        for mine, theirs in ((self.cell_state, other.cell_state),
                             (self.point_state, other.point_state)):
            for key, (cnt, ksum, csum) in theirs.items():
                _add(mine, key, cnt, ksum, csum)

    # --- recovery --------------------------------------------------------
    def _peel(self, state, hashes, width, check_ab, limit):
        """Peel a table whose slots are (row, bucket), consuming state:
        {code: count}, or None when some bucket stays impure."""
        recovered: dict = {}
        progress = True
        while progress:
            progress = False
            for key in list(state):
                rec = state.get(key)
                if rec is None:
                    continue
                cnt, ksum, csum = rec
                if cnt <= 0 or ksum % cnt:
                    continue
                code = ksum // cnt
                check = self._check(check_ab, code)
                if not 0 < code <= limit or csum != cnt * check:
                    continue
                recovered[code] = recovered.get(code, 0) + cnt
                # the pure record (cnt, cnt * code, cnt * check) leaves every
                # row of the key
                for row, ab in enumerate(hashes):
                    slot = (row, self._pair_hash(ab, code, width))
                    if slot not in state:
                        return None  # inconsistent: peeled key missing a row
                    _add(state, slot, -cnt, -ksum, -csum)
                progress = True
        return None if state else recovered

    def _decode_cells(self):
        state = {key: list(rec) for key, rec in self.cell_state.items()}
        return self._peel(state, self._h1, self.buckets, self._h2, math.inf)

    def _cell_points(self, code: int, cnt: int, tables: dict):
        """{point: copies} of the cnt points of a cell, decoded from its
        first pure bucket; tables maps each (row, bucket) to
        {(prow, pbucket): record}."""
        check = self._check(self._h2, code)
        for row, ab in enumerate(self._h1):
            b = self._pair_hash(ab, code, self.buckets)
            if self.cell_state.get((row, b)) == [cnt, cnt * code, cnt * check]:
                break
        else:
            return None
        state = {slot: list(rec)
                 for slot, rec in tables.get((row, b), {}).items()}
        pts = self._peel(state, self._p1, self.pbuckets, self._p2,
                         self._enc.range)
        if pts is None or sum(pts.values()) != cnt:
            return None
        return {self._enc.decode(pcode - 1): mult
                for pcode, mult in pts.items()}

    def finalize(self):
        """CellData: FAIL when decoding fails or above alpha decoded cells,
        points recovered for the cells of count at most beta."""
        recovered = self._decode_cells()
        if recovered is None:
            return Fail("sketch decoding")
        if len(recovered) > self.alpha:
            return Fail("store cell cap")
        tables: dict = {}
        for (row, b, prow, pb), rec in self.point_state.items():
            tables.setdefault((row, b), {})[(prow, pb)] = rec
        cells, points = {}, {}
        for code, cnt in recovered.items():
            cells[self._cell_decode(code)] = cnt
            if cnt <= self.beta:
                pts = self._cell_points(code, cnt, tables)
                if pts is None:
                    return Fail("sketch decoding")
                points.update(pts)
        return _merge_dicts(self, cells, points)

    @staticmethod
    def _pack_rec(rec) -> bytes:
        out = []
        for v in rec:
            body = v.to_bytes((v.bit_length() + 8) // 8, "big", signed=True)
            out.append(struct.pack("<B", len(body)) + body)
        return b"".join(out)

    @staticmethod
    def _unpack_rec(view, off):
        rec = []
        for _ in range(3):
            (ln,) = struct.unpack_from("<B", view, off)
            off += 1
            rec.append(int.from_bytes(view[off:off + ln], "big", signed=True))
            off += ln
        return rec, off

    def serialize(self) -> bytes:
        out = [_SKETCH_HEAD.pack(_MAGIC, _SKETCH_VERSION, _SKETCH, self.level,
                                 self.grid.d, self.alpha, self.beta,
                                 self.delta, self.seed),
               _COUNT.pack(len(self.cell_state))]
        for slot, rec in sorted(self.cell_state.items()):
            out.append(_CELL_SLOT.pack(*slot) + self._pack_rec(rec))
        out.append(_COUNT.pack(len(self.point_state)))
        for slot, rec in sorted(self.point_state.items()):
            out.append(_POINT_SLOT.pack(*slot) + self._pack_rec(rec))
        return b"".join(out)

    @classmethod
    def deserialize(cls, blob: bytes, grid: GridHierarchy) -> "SketchCellStore":
        """The store a sketch blob describes; a blob of another kind or
        dimension, a truncated blob or one with bytes after its last record
        is a usage error."""
        view = memoryview(blob)
        try:
            magic, ver, backing, level, d, alpha, beta, delta, seed = \
                _SKETCH_HEAD.unpack_from(view)
            if magic != _MAGIC or ver != _SKETCH_VERSION or backing != _SKETCH:
                raise UsageError("not a sketch cell-store blob")
            _check_d(d, grid)
            store = cls(grid, level, alpha, beta, seed, delta)
            off = _SKETCH_HEAD.size
            for layout, state in ((_CELL_SLOT, store.cell_state),
                                  (_POINT_SLOT, store.point_state)):
                (nrec,) = _COUNT.unpack_from(view, off)
                off += _COUNT.size
                for _ in range(nrec):
                    slot = layout.unpack_from(view, off)
                    rec, off = cls._unpack_rec(view, off + layout.size)
                    state[slot] = rec
        except struct.error:  # a fixed-size field runs past the end
            off = None
        # a record cut by the end of the blob reads short and ends past it
        if off is None or off > len(blob):
            raise UsageError("truncated cell-store blob")
        if off < len(blob):
            raise UsageError(f"{len(blob) - off} bytes after the last record "
                             f"of a sketch cell-store blob")
        return store

    def space_bytes(self):
        return 40 + (len(self.cell_state) + len(self.point_state)) * 40


def _add(state, slot, cnt, ksum, csum):
    """Add (count, keysum, checksum) to the record at state[slot], making a
    record only for a new slot; a record back at zero is dropped, so state
    holds nonzero records only."""
    rec = state.get(slot)
    if rec is None:
        if cnt or ksum or csum:
            state[slot] = [cnt, ksum, csum]
        return
    rec[0] += cnt
    rec[1] += ksum
    rec[2] += csum
    if not (rec[0] or rec[1] or rec[2]):
        del state[slot]


def make_store(backing: str, grid: GridHierarchy, level: int, alpha: float,
               beta: float, seed: int, delta: float = 0.01):
    if backing == "exact":
        return ExactCellStore(grid, level, alpha, beta, seed)
    if backing == "sketch":
        return SketchCellStore(grid, level, alpha, beta, seed, delta)
    raise UsageError(f"unknown store backing {backing!r}")


def encode_sketch(store, columns, rows, lattices, starts, counts) -> bytes:
    """The blob of a sketch store of store's level, caps and seed holding
    the rows of columns (coreset.PointColumns), distinct points with their
    multiplicities, grouped into cells with counts by PointColumns.cells.
    A fresh sketch is fed each row once, with its multiplicity as the
    sign: its content is linear in the updates and serialize sorts its
    records, so the blob is the one streaming the points one by one
    gives."""
    sizes = np.diff(np.append(starts, len(rows)))
    fresh = SketchCellStore(store.grid, store.level, store.alpha, store.beta,
                            store.seed, store.delta)
    cells = [tuple(cell) for cell in lattices.tolist()]
    for i, m, c in zip(rows.tolist(), columns.mults[rows].tolist(),
                       np.repeat(np.arange(len(cells)), sizes).tolist()):
        fresh.update(columns.points[i], m, cells[c])
    return fresh.serialize()


def deserialize(blob: bytes, grid: GridHierarchy) -> SketchCellStore:
    """The sketch store a blob describes (parse_exact reads an exact
    message, which holds no store's level, caps or seed)."""
    return SketchCellStore.deserialize(blob, grid)


__all__ = [
    "CellData", "ExactCellStore", "SketchCellStore", "make_store",
    "encode_exact", "machine_blob_bound", "encode_sketch", "deserialize",
    "ExactBlob", "parse_exact", "merge_exact", "Fail", "is_fail",
]
