"""Per-part sampled coresets with FAIL gates and guess enumeration.

finalize_cells is the decision path of every mode.  It reads the cell data
of each (family, level) of a guess through a read function, marks cells
from (estimated) counts, applies the caps, keeps parts whose estimated size
reaches gamma*T_i(o), and retains the hhat-sampled points of each kept
level-i part at weight exactly 1/phi_i per copy.  It runs in numpy on the
columns of cellstore.CellData (lattices, counts, a point table): the gates
and the part filter are masks, and Python objects are made only for the
entries of a guess that passes its gates.  The offline builder, the
stream engine and the distributed coordinator only differ in the read
function.
A FAIL is a value, common.Fail, naming its gate.  search_o is the guess
loop of every mode: for n points it tries o_grid(n), smallest first, and
returns the first guess that does not FAIL, the empty coreset when there is
no guess (an empty input), or raises the one all-FAIL error.

Sampling owns the sampling decision of every mode.  Hash polynomials are
seeded per (family, level) only, so every guess, mode and machine sees
identical sampling decisions, and each mode keys its cell data by the
Sampling key (family, level, threshold), whose family is dropped at rate 0
or 1.  SampleBank.build turns the h and h' cell data of a guess into its
estimates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from itertools import repeat
from operator import itemgetter

import numpy as np

from .cellstore import CellData
from .common import Fail, UsageError, derive_seed, is_fail
from .estimator import SampleBank
from .geometry import (NO_TAG, TAG_SPACE, GridHierarchy, Point,
                       check_domain, coord_array, format_point,
                       parse_point_line)
from .hashing import KWiseHash, PointEncoder
from .params import FAMILIES, Params, parse_serialized
from .partition import (PartitionStructure, lattice_array, mark_cells,
                        sorted_runs)

__all__ = [
    "CoresetMeta", "WeightedCoreset", "OfflineBuilder", "build_for_o",
    "build_auto", "o_grid", "dedup_points",
    "PointColumns", "Sampling", "finalize_cells", "search_o",
    "write_coreset", "read_coreset",
]


class CoresetMeta:
    def __init__(self, params: Params, seed: int, shift_num: tuple, o: float,
                 o_attempts: tuple, structure: PartitionStructure,
                 part_tau: dict, phi: dict, exact_counts: bool):
        self.params = params
        self.seed = seed
        self.shift_num = shift_num
        self.o = o
        self.o_attempts = tuple(o_attempts)
        self.structure = structure
        self.part_tau = dict(part_tau)  # qualifying (i, j) -> estimated size
        self.phi = dict(phi)            # level -> sampling rate used
        self.exact_counts = exact_counts


class WeightedCoreset:
    """Sampled points with weights plus the metadata needed for assignment.

    entries, (point, weight, level, part_j), are kept in the order given,
    unsorted.  Every build gives them in canonical (level, part_j, point)
    order (a Point compares as its sort_key), because finalize_cells emits
    them so; read_coreset, whose file may list them in any order, is the
    one place that sorts them."""

    def __init__(self, entries, meta: CoresetMeta):
        self.entries = list(entries)
        self.meta = meta

    def points(self):
        return [e[0] for e in self.entries]

    def weights(self):
        return {e[0]: e[1] for e in self.entries}

    def total_weight(self) -> float:
        """The weights summed left to right in entry order (np.cumsum, as
        part sums are), the same float on every Python version."""
        weights = np.fromiter(map(itemgetter(1), self.entries), float,
                              len(self.entries))
        return float(np.cumsum(weights)[-1]) if len(weights) else 0.0

    def canonical(self):
        return (
            tuple((p.coords, p.tag, w, lvl, j) for p, w, lvl, j in self.entries),
            self.meta.o,
            self.meta.shift_num,
        )

    def __eq__(self, other):
        return isinstance(other, WeightedCoreset) and self.canonical() == other.canonical()

    def __len__(self):
        return len(self.entries)


def dedup_points(points) -> list:
    return sorted(set(points), key=lambda p: p.sort_key())


def o_grid(n: int, params: Params) -> list:
    limit = params.o_grid_limit(n)
    out = []
    o = 1
    while o <= limit:
        out.append(o)
        o *= 2
    return out


# --- the shared decision path ------------------------------------------------

def exact_threshold(rate: float, modulus: int) -> int:
    """floor(rate * modulus) computed exactly from the float's rational
    value, clamped to [0, modulus]."""
    if rate <= 0:
        return 0
    if rate >= 1:
        return modulus
    return int(Fraction(rate) * modulus)


class Sampling:
    """The sampling decision every mode shares, and its one keep rule.

    Each (family, level) has one lambda-wise independent hash, and a rate
    becomes the threshold t = floor(rate * modulus) here and nowhere else.
    The key (family, level, t) keeps a point p iff hash(family, level) gives
    p a field value below t: t = modulus keeps every point and t = 0 keeps
    none, whatever the family, so the key drops the family there.  Two
    (family, level, guess) triples with equal keys keep equal points.

    Thresholds of one (family, level) nest: all of them compare the same
    field values, so lowering the rate only shrinks the kept prefix of
    field values.  That coupling is what lets every guess o reuse one
    polynomial per level, and what lets a stream find the stores that keep
    a point by bisection over their thresholds.  Sampling holds no
    per-point state: each mode applies the rule to the field values it
    computes."""

    def __init__(self, params: Params, grid: GridHierarchy, seed: int,
                 exact_counts: bool):
        self.params = params
        self.grid = grid
        self.seed = seed
        self.exact_counts = exact_counts
        # the one encoder of every hash: a point encoded once has its field
        # value under each of them (KWiseHash.code_value)
        self.encoder = PointEncoder(grid.Delta, grid.d)
        self.modulus = self.encoder.modulus
        self._hashes = {
            (fam, lvl): KWiseHash(
                derive_seed(seed, f"{fam}:{lvl}"),
                params.hash_lambda() if fam == "hhat"
                else params.hash_lambda_prime(), self.encoder)
            for fam in FAMILIES for lvl in range(0, grid.L + 1)}

    def rate(self, family: str, level: int, o: float) -> float:
        """Params.rate, but 1 for h and h' with exact counts."""
        if self.exact_counts and family != "hhat":
            return 1.0
        return self.params.rate(family, level, o)

    def key(self, family: str, level: int, o: float) -> tuple:
        t = exact_threshold(self.rate(family, level, o), self.modulus)
        return (None if t in (0, self.modulus) else family, level, t)

    def served(self, o_values) -> dict:
        """Key -> the (family, guess) pairs it serves, over every level of
        the guesses o_values, in first-use order."""
        served: dict = {}
        for o in o_values:
            for lvl in range(0, self.grid.L + 1):
                for fam in FAMILIES:
                    served.setdefault(self.key(fam, lvl, o), []).append((fam, o))
        return served

    def hash(self, family: str, level: int) -> KWiseHash:
        """The hash whose field values the keys of (family, level) compare
        against their thresholds."""
        return self._hashes[(family, level)]


def finalize_cells(sampling: Sampling, o: float, read, n: int):
    """The coreset of guess o, or a Fail naming the gate that fired.

    read(key) gives a Sampling key's CellData, or its store's Fail; each
    (family, level) is read once, and the first Fail read is returned.  The
    guess's own store caps (Params.caps) apply here, alike in every mode:
    alpha at the "store cell cap" and, on kept hhat cells, beta at the
    "light-point recovery cap".  n is the size of the input; a nonempty
    input never gets an empty coreset (the "empty-coreset gate").  The
    entries come in canonical (level, part, point) order, which
    WeightedCoreset keeps: each level's by part rank and then by row of
    the hhat cell data's point table, which is in sort_key order."""
    params, grid = sampling.params, sampling.grid
    levels = range(0, grid.L + 1)
    data = {}
    for fam in FAMILIES:
        for lvl in levels:
            cells = read(sampling.key(fam, lvl, o))
            if is_fail(cells):
                return cells
            data[(fam, lvl)] = cells
    if any(len(data[(fam, lvl)].counts) > params.caps(fam, lvl, o)[0]
           for fam in FAMILIES for lvl in levels):
        return Fail("store cell cap")
    bank = SampleBank.build(sampling, o, data)
    structure = mark_cells(bank.counts_for_marking(), params, o, grid)
    if structure.heavy_count() > params.heavy_cell_cap():
        return Fail("heavy-cell cap")
    tau_union, tau_part = bank.part_estimates(structure)
    if any(tau_union[lvl] > params.part_sum_cap(lvl, o) for lvl in levels):
        return Fail("part-sum cap")
    phi = {lvl: params.phi(lvl, o) for lvl in levels}
    qualifying = {}  # qualifying (i, j) -> estimated size
    entries = []
    for lvl in levels:
        js, taus = tau_part[lvl]
        good = taus >= params.gamma * params.T(lvl, o)
        if not good.any():
            continue  # no part of the level qualifies, so none keeps points
        js = js[good]
        qualifying.update(zip(zip(repeat(lvl), js.tolist()),
                              taus[good].tolist()))
        # per part rank j, whether (lvl, j) qualifies; rank -1 reads the
        # last slot, False
        qualifies = np.zeros(len(structure.lattices[lvl - 1]) + 1, dtype=bool)
        qualifies[js] = True
        hhat = data[("hhat", lvl)]
        ranks = structure.crucial_ranks(lvl, hhat.lattices)
        kept = qualifies[ranks]
        if (hhat.counts[kept] > params.caps("hhat", lvl, o)[1]).any():
            return Fail("light-point recovery cap")
        # one entry per point of a kept cell, of weight 1/phi per copy, by
        # part rank and point row: every producer's point table is in
        # sort_key order, so this is canonical (level, part, point) order
        cell = np.repeat(np.arange(len(kept)), np.diff(hhat.offsets))
        rows = np.flatnonzero(kept[cell])
        ids, js = hhat.ids[rows], ranks[cell[rows]]
        by = np.lexsort((ids, js))
        rows, ids, js = rows[by], ids[by], js[by]
        points = map(hhat.points.__getitem__, ids.tolist())
        entries.extend(zip(points, (hhat.mults[rows] / phi[lvl]).tolist(),
                           repeat(lvl), js.tolist()))
    if n > 0 and not entries:
        why = ("the h' estimator sample is empty"
               if not any(len(data[("hp", lvl)].counts) for lvl in levels)
               else "no sampled point lies in a kept part")
        return Fail(f"empty-coreset gate: {why}")
    meta = CoresetMeta(params, sampling.seed, grid.shift_num, o, (o,),
                       structure, qualifying, phi, sampling.exact_counts)
    return WeightedCoreset(entries, meta)


def search_o(sampling: Sampling, n: int, build):
    """The first guess of o_grid(n) (smallest first) whose build(o) does not
    FAIL, with the guesses tried recorded in its meta.

    No guess (an empty input) gives the empty coreset.  When every guess
    FAILs it raises RuntimeError naming the gate of the last one."""
    guesses = o_grid(n, sampling.params)
    if not guesses:
        meta = CoresetMeta(sampling.params, sampling.seed,
                           sampling.grid.shift_num, 0.0, (),
                           PartitionStructure(sampling.grid, {}), {}, {},
                           sampling.exact_counts)
        return WeightedCoreset([], meta)
    for tried, o in enumerate(guesses, 1):
        result = build(o)
        if not is_fail(result):
            result.meta.o_attempts = tuple(guesses[:tried])
            return result
    raise RuntimeError(
        f"all {len(guesses)} o-guesses returned FAIL (n={n}, last "
        f"o={guesses[-1]}); the last guess failed at the {result.gate}")


class PointColumns:
    """A point set held in columns, for the builders that read a whole
    point set at once (the offline builder, the dist machines and the dist
    coordinator's union of their point rows).

    Its n input points, copies counted, are held as the distinct points in
    sort_key order (one sort of the lattice_keys of their coordinates and
    tags), each with its tag and multiplicity (2 for a point listed twice),
    beside an int64 array of their coordinates (int64 fits every
    Delta <= 2**62).  The coordinates are read by
    geometry.coord_array and checked in numpy: a point outside the
    domain, ragged input or a value beyond int64 raises
    geometry.check_domain's usage error.  from_rows holds rows that carry
    their multiplicities instead.  Each hashed (family, level) computes the
    points' field values once, when a key first needs them, from the
    points' codes (PointEncoder.encode_columns, made once), and rows(key)
    are the rows whose values lie below the key's threshold.  group(rows,
    level) groups rows into cells by one stable sort of the lattice_keys of
    their lattices at level (GridHierarchy.lattices of their coordinates):
    equal lattices become runs, in lexicographic order, each in sort_key
    order; cells(key) groups the rows key keeps."""

    def __init__(self, points, sampling: Sampling):
        points = list(points)
        grid = sampling.grid
        n, d = len(points), grid.d
        try:  # ragged, other-dimensional or int64-overflowing input raises
            coords = coord_array(points, d)
            tags = np.fromiter(map(itemgetter(1), points), np.int64, n)
            inside = coords.dtype == np.int64 and \
                ((coords >= 1) & (coords <= grid.Delta)).all() and \
                ((tags >= NO_TAG) & (tags <= TAG_SPACE - 2)).all()
        except (ValueError, OverflowError):
            inside = False
        if not inside:
            check_domain(points, grid.Delta, d)  # raises its message
        order, new = sorted_runs(np.column_stack((coords, tags)))
        starts = np.flatnonzero(new)
        first = order[starts]
        self._hold(sampling, n, [points[i] for i in first.tolist()],
                   coords[first], tags[first], np.diff(np.append(starts, n)))

    @classmethod
    def from_rows(cls, rows, sampling: Sampling) -> "PointColumns":
        """The columns of (coordinates, tag, multiplicity) int64 rows of
        points in the domain: a point in several rows is held once, with
        their multiplicities summed."""
        d = sampling.grid.d
        order, new = sorted_runs(rows[:, :d + 1])
        starts = np.flatnonzero(new)
        first = rows[order[starts]]
        mults = np.add.reduceat(rows[order, d + 1], starts) if len(rows) \
            else rows[:, d + 1]
        columns = cls.__new__(cls)
        columns._hold(sampling, int(mults.sum()),
                      list(map(Point, map(tuple, first[:, :d].tolist()),
                               first[:, d].tolist())),
                      first[:, :d], first[:, d], mults)
        return columns

    def _hold(self, sampling, n, points, coords, tags, mults):
        """Hold n points, copies counted, as the distinct Points points in
        sort_key order with their coordinates, tags and multiplicities."""
        self.n = n
        self.points = points
        self.tags = tags
        self.mults = mults
        self.sampling = sampling
        # one row per distinct point
        self.coords = coords
        self._codes = None  # the points' codes, made when a key first hashes
        self._values: dict = {}  # (family, level) -> field values of points

    def rows(self, key: tuple):
        """The rows a Sampling key keeps, in row order: those whose field
        value under the key's (family, level) hash lies below its
        threshold, every row or none for a key without a family."""
        family, level, t = key
        if family is None:
            return np.arange(len(self.points) if t else 0)
        if (family, level) not in self._values:
            if self._codes is None:
                self._codes = self.sampling.encoder.encode_columns(
                    self.coords, self.tags)
            self._values[(family, level)] = \
                self.sampling.hash(family, level).field_values(self._codes)
        values = self._values[(family, level)]
        # t in the values' own type: uint64 never meets an int64 operand
        return np.flatnonzero(values < values.dtype.type(t))

    def group(self, rows, level: int):
        """(rows, cells, starts, counts) of the given rows: the rows in cell
        order, each cell's lattice at level, the row where its run starts,
        and its count (its rows' multiplicities summed).  The rows are
        grouped by one stable sort of the lattice_keys of their lattices
        (partition.sorted_runs)."""
        lat = self.sampling.grid.lattices(self.coords[rows], level)
        # the first row of each run of equal lattices starts a cell
        order, new = sorted_runs(lat)
        rows = rows[order]
        starts = np.flatnonzero(new)
        mults = self.mults[rows]
        counts = np.add.reduceat(mults, starts) if len(rows) else mults
        return rows, lat[order[starts]], starts, counts

    def cells(self, key: tuple):
        """group of the rows key keeps, at the key's level."""
        return self.group(self.rows(key), key[1])


class OfflineBuilder:
    """Shared per-instance state reused across o guesses.

    The input's columns (PointColumns) give each Sampling key's cell data,
    with copies counted as a stream or the dist machines count them: a
    cell's count is its points' summed multiplicity, every cell lists its
    points with their multiplicities, and n is the input's length.  The
    cell data is cached under the key, so guesses sharing a key share it."""

    def __init__(self, points, grid: GridHierarchy, params: Params, seed: int,
                 exact_counts: bool = False):
        self.grid = grid
        self.params = params
        self.sampling = Sampling(params, grid, seed, exact_counts)
        self.columns = PointColumns(points, self.sampling)
        self.points = self.columns.points
        self._data: dict = {}  # Sampling key -> CellData

    def _cell_data(self, key: tuple) -> CellData:
        if key not in self._data:
            rows, cells, starts, counts = self.columns.cells(key)
            # every cell lists its kept points: rows of columns.points
            self._data[key] = CellData(
                key[1], cells, counts, self.points, rows,
                self.columns.mults[rows], np.append(starts, len(rows)))
        return self._data[key]

    def build_for_o(self, o: float):
        return finalize_cells(self.sampling, o, self._cell_data,
                              self.columns.n)

    def build_auto(self):
        return search_o(self.sampling, self.columns.n, self.build_for_o)


def build_for_o(points, grid: GridHierarchy, params: Params, o: float, seed: int,
                exact_counts: bool = False):
    return OfflineBuilder(points, grid, params, seed, exact_counts).build_for_o(o)


def build_auto(points, grid: GridHierarchy, params: Params, seed: int,
               exact_counts: bool = False) -> WeightedCoreset:
    return OfflineBuilder(points, grid, params, seed, exact_counts).build_auto()


# --- coreset file format ---------------------------------------------------
# Header lines "% key=value" carrying the full provenance, then one line per
# point: "w x1 ... xd #tag".  Decimal renderings are repr() and round-trip.

def write_coreset(path, coreset: WeightedCoreset):
    meta = coreset.meta
    lines = [
        "format=capacore-coreset-v1",
        f"params: {meta.params.serialize()}",
        f"seed={meta.seed}",
        "shift=" + ",".join(map(str, meta.shift_num)),
        f"o={meta.o!r}",
        "o_attempts=" + ",".join(repr(o) for o in meta.o_attempts),
        f"exact_counts={int(meta.exact_counts)}",
        f"gamma={meta.params.gamma!r}",
        f"xi={meta.params.xi!r}",
    ]
    for lvl in sorted(meta.phi):
        lines.append(f"phi.{lvl}={meta.phi[lvl]!r}")
    for (i, j), tau in sorted(meta.part_tau.items()):
        lines.append(f"part.{i}.{j}={tau!r}")
    for lvl in sorted(meta.structure.heavy):
        cells = meta.structure.heavy[lvl]
        if cells:
            body = ";".join(",".join(map(str, lat)) for lat in sorted(cells))
            lines.append(f"heavy.{lvl}={body}")
    with open(path, "w") as fh:
        for line in lines:
            fh.write(f"% {line}\n")
        for p, w, lvl, j in coreset.entries:
            fh.write(f"% entrymeta={lvl},{j}\n")
            fh.write(f"{w!r} {format_point(p)}\n")


def read_coreset(path) -> WeightedCoreset:
    """The coreset a write_coreset file describes, its entries sorted into
    canonical (level, part, point) order whatever order the file lists
    them in."""
    header: dict = {}
    entries = []
    listed = set()
    pending_meta = None
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("%"):
                body = line[1:].strip()
                if body.startswith("params:"):
                    key, val = "params", body.partition(":")[2].strip()
                elif "=" in body:
                    key, _, val = body.partition("=")
                else:
                    continue
                if key == "entrymeta":
                    if pending_meta is not None:
                        raise _dangling_entrymeta(path)
                    pending_meta = _parse_entrymeta(path, val)
                elif key in header:
                    raise UsageError(
                        f"{path}: repeated coreset header {key!r}")
                else:
                    header[key] = val
                continue
            if pending_meta is None:
                raise UsageError(f"{path}: coreset entry {line!r} has no "
                                 f"'% entrymeta=' line before it")
            w_str, _, rest = line.partition(" ")
            point = parse_point_line(rest)
            if point is None:
                raise UsageError(f"{path}: coreset entry {line!r} has no point")
            if point in listed:
                raise UsageError(f"{path}: coreset lists point "
                                 f"{format_point(point)!r} twice")
            listed.add(point)
            lvl, j = pending_meta
            pending_meta = None
            entries.append((point, _parse_weight(path, w_str), lvl, j))
    if pending_meta is not None:
        raise _dangling_entrymeta(path)

    params = _parsed(path, header, "params", parse_serialized)
    check_domain((e[0] for e in entries), params.Delta, params.d)
    shift = _parsed(path, header, "shift", _int_tuple)
    grid = GridHierarchy(params.Delta, params.d, shift)
    tables = {"phi": {}, "part": {}, "heavy": {}}
    for key in header:
        name, dot, index = key.partition(".")
        if dot and name in tables:
            entry, val = _parsed(path, header, key,
                                 partial(_TABLE_LINES[name], index))
            tables[name][entry] = val
    heavy = tables["heavy"]
    for lvl, cells in heavy.items():
        if any(len(lat) != params.d for lat in cells):
            raise UsageError(f"{path}: malformed coreset header "
                             f"'heavy.{lvl}': a cell is not {params.d}-d")
        try:
            heavy[lvl] = lattice_array(cells, params.d)
        except OverflowError:
            raise UsageError(f"{path}: malformed coreset header 'heavy."
                             f"{lvl}': a cell lies beyond int64") from None
    meta = CoresetMeta(
        params, _parsed(path, header, "seed", int), shift,
        _parsed(path, header, "o", float),
        _parsed(path, header, "o_attempts",
                lambda v: tuple(float(x) for x in v.split(",")) if v else ()),
        PartitionStructure(grid, heavy), tables["part"], tables["phi"],
        _parsed(path, header, "exact_counts", lambda v: bool(int(v))),
    )
    return WeightedCoreset(sorted(entries, key=itemgetter(2, 3, 0)), meta)


def _parsed(path, header: dict, key: str, parse):
    """parse(header[key]); a missing or malformed header is a usage error."""
    if key not in header:
        raise UsageError(f"{path}: coreset has no {key!r} header")
    try:
        return parse(header[key])
    except (ValueError, KeyError) as exc:
        raise UsageError(f"{path}: malformed coreset header {key!r} "
                         f"({header[key]!r}): {exc}") from None


def _int_tuple(text: str) -> tuple:
    return tuple(int(x) for x in text.split(","))


def _part_line(index: str, val: str):
    i, j = index.split(".")
    return (int(i), int(j)), float(val)


# header tables, "% <name>.<index>=<value>": index, value -> entry, value
_TABLE_LINES = {
    "phi": lambda index, val: (int(index), float(val)),
    "part": _part_line,
    "heavy": lambda index, val: (
        int(index), {_int_tuple(cell) for cell in val.split(";")}),
}


def _dangling_entrymeta(path) -> UsageError:
    return UsageError(f"{path}: coreset header 'entrymeta' is not followed "
                      f"by its entry line")


def _parse_entrymeta(path, val: str):
    try:
        lvl, j = (int(x) for x in val.split(","))
    except ValueError:
        raise UsageError(f"{path}: malformed entrymeta {val!r}, "
                         f"expected 'level,part'") from None
    return lvl, j


def _parse_weight(path, text: str) -> float:
    try:
        w = float(text)
        if 0 < w < math.inf:
            return w
    except ValueError:
        pass
    raise UsageError(f"{path}: coreset weight {text!r} is not a positive "
                     f"finite number")
