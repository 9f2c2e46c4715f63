"""One-pass dynamic-stream coreset construction.

The engine lays out the guesses a stream of at most n_max live points can
try, o_grid(n_max), and routes every update to one cell store per distinct
Sampling key (family, level, threshold) over those guesses, levels and hash
families; the key drops the family at rate 0 or 1, where every family keeps
the same points, so those families share one store.  Pooled content is a
linear function of the updates the key keeps and therefore equal to running
one store per (family, guess), for either backing.  A pooled store is sized
by the largest caps among the (family, guess) pairs it serves, and
finalize() reads it at most once, under those caps; a larger sketch only
lowers its failure rate.  finalize() runs the guess loop every mode shares
(coreset.search_o) over o_grid(net), a prefix of the layout, and each guess
reads the stores through the shared decision path (coreset.finalize_cells),
which applies the guess's own caps.

Routing.  A key keeps a point when the point's field value under the key's
(family, level) hash lies below the key's threshold, so one field value per
(family, level) decides every key at that level: the stores of a hashed
(family, level), in increasing threshold order, that keep the point are a
suffix found by bisection.  Keys without a family keep every point
(threshold = modulus) or none (threshold 0, never written).  Each update
therefore computes its lattice path once (GridHierarchy.path_of), encodes
the point once (every hash shares Sampling.encoder), evaluates each hashed
(family, level) polynomial on that code and caches no field value, and hands
every store it writes the lattice of the store's level and that code through
the one store write, store.update(p, sign, lat, code).

Stream file format: one update per line, "+ x1 ... xd #tag" or
"- x1 ... xd #tag" (U+2212 minus accepted).
"""

from __future__ import annotations

from bisect import bisect_right

from .common import UsageError, derive_seed
from .coreset import Sampling, finalize_cells, o_grid, search_o
from .geometry import GridHierarchy, Point, format_point, parse_point_line
from .params import Params
# unused here: the benchmark's tracer wraps streaming.mark_cells by name
from .partition import mark_cells  # noqa: F401
from . import cellstore


class StreamEngine:
    """n_max, required, bounds the live points: Delta**d rejects more copies
    than the domain has points and lays out guesses no short stream tries."""

    def __init__(self, params: Params, grid: GridHierarchy, seed: int,
                 backing: str = "exact", exact_counts: bool = False, *,
                 n_max: int):
        self.params = params
        self.grid = grid
        self.n_max = n_max
        self.o_values = o_grid(self.n_max, params)
        self.net = 0
        self.backing = backing
        self.sampling = Sampling(params, grid, seed, exact_counts)
        # Sampling key -> (family, guess) pairs it serves
        served = self.sampling.served(self.o_values)
        self._stores = {}  # Sampling key -> store
        self._data = {}  # Sampling key -> its store's finalize(), until a write
        for (fam, lvl, t), pairs in served.items():
            caps = [params.caps(f, lvl, o) for f, o in pairs]
            self._stores[(fam, lvl, t)] = cellstore.make_store(
                backing, grid, lvl, max(a for a, _ in caps),
                max(b for _, b in caps),
                derive_seed(seed, f"store:{fam or 'any'}:{lvl}"),
                delta=0.001 / (3 * (grid.L + 1)))
        # routing table: the store of each level that keeps every point, and
        # per hashed (family, level) its hash, thresholds and stores by
        # threshold; _stores keeps its order (the wire sends stores in it)
        self._keep_all = []
        hashed: dict = {}
        for (fam, lvl, t), store in self._stores.items():
            if fam is not None:
                hashed.setdefault((fam, lvl), []).append((t, store))
            elif t:
                self._keep_all.append((lvl, store))
        self._hashed = []
        for (fam, lvl), routes in hashed.items():
            thresholds, stores = zip(*sorted(routes, key=lambda r: r[0]))
            self._hashed.append((lvl, self.sampling.hash(fam, lvl),
                                 thresholds, stores))

    # --- stream consumption ---------------------------------------------
    def process(self, p: Point, sign: int):
        if sign not in (1, -1):
            raise UsageError("sign must be +1 or -1")
        # one encoding serves every hash and rejects a point off the domain
        code = self.sampling.encoder.encode(p)
        self.net += sign
        self._data.clear()
        path = self.grid.path_of(p.coords)
        for lvl, store in self._keep_all:
            store.update(p, sign, path[lvl], code)
        for lvl, hash_, thresholds, stores in self._hashed:
            # the stores with threshold above p's field value keep p
            first = bisect_right(thresholds, hash_.code_value(code))
            lat = path[lvl]
            for store in stores[first:]:
                store.update(p, sign, lat, code)

    def process_stream(self, updates):
        for p, sign in updates:
            self.process(p, sign)

    # --- finalize ----------------------------------------------------------
    def _cell_data(self, key: tuple):
        """The read-out (_read) of a Sampling key, read once until the stores
        next change."""
        if key not in self._data:
            self._data[key] = self._read(key)
        return self._data[key]

    def _read(self, key: tuple):
        """The finalize() of the store of a Sampling key."""
        return self._stores[key].finalize()

    def finalize_for_o(self, o: float):
        return finalize_cells(self.sampling, o, self._cell_data, self.net)

    def finalize(self):
        """Smallest non-FAIL guess of o_grid(net) (coreset.search_o), which
        the stores lay out while 0 <= net <= n_max; an empty stream yields
        the empty coreset.  A stream may delete a point before inserting
        it, so net is checked here, not per update."""
        if not 0 <= self.net <= self.n_max:
            raise UsageError(f"net point count {self.net} lies outside "
                             f"[0, n_max = {self.n_max}]")
        return search_o(self.sampling, self.net, self.finalize_for_o)

    def space_bytes(self):
        return sum(store.space_bytes() for store in self._stores.values())


# --- stream file format -----------------------------------------------------

def parse_update_line(line: str):
    body = line.strip()
    if not body or body.startswith("%"):
        return None
    sign_ch, rest = body[0], body[1:]
    if sign_ch == "+":
        sign = 1
    elif sign_ch in ("-", "−"):
        sign = -1
    else:
        raise UsageError(f"stream line must start with + or -: {line!r}")
    point = parse_point_line(rest)
    if point is None:
        raise UsageError(f"stream line has no point: {line!r}")
    return point, sign


def check_live(updates):
    """Reject a deletion of a point that has no live copy at that point of
    the stream, and an insertion of one that has: a live point has exactly
    one copy, as in a points file (geometry.check_distinct)."""
    live = set()
    for p, sign in updates:
        if sign > 0 and p in live:
            raise UsageError(f"stream inserts {format_point(p)!r}, which "
                             f"already has a live copy; give its copies "
                             f"distinct #tags to keep them")
        if sign < 0 and p not in live:
            raise UsageError(f"stream deletes {format_point(p)!r}, "
                             f"which has no live copy")
        if sign > 0:
            live.add(p)
        else:
            live.remove(p)


def read_stream(path):
    out = []
    with open(path) as fh:
        for line in fh:
            upd = parse_update_line(line)
            if upd is not None:
                out.append(upd)
    return out


def write_stream(path, updates):
    with open(path, "w") as fh:
        for p, sign in updates:
            fh.write(("+" if sign > 0 else "-") + " " + format_point(p) + "\n")
