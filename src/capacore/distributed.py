"""Coordinator/machines protocol simulation with exact byte accounting.

Each machine runs the streaming engine's store layer over its shard, then
ships one message per store, i.e. per distinct Sampling key (family, level,
threshold), whose family is dropped at rate 0 or 1: the store's index, the
guesses whose cell cap (for any family the store serves them for) its local
nonempty-cell count exceeds, and the serialized store state (left out when
every guess the store serves is over).

The coordinator is a stream engine fed by merges instead of updates: it
merges each state once into its own store of that key (store merging is
linear) and counts the machines' points as its net count.  It then
finalizes like any engine, except that a guess some machine reported over
FAILs at the store cell cap; the decision path applies each guess's caps to
the merged content, as it does in every mode.
Transport is an in-process byte channel; the byte counters are the
communication cost.
"""

from __future__ import annotations

import struct

from .common import UsageError, derive_seed
from .coreset import Sampling, fail_at
from .geometry import GridHierarchy
from .params import Params
from .streaming import StreamEngine
from . import cellstore


class ByteChannel:
    """Duplex in-process transport; counts every byte that crosses it."""

    def __init__(self):
        self.to_coordinator = 0
        self.to_machine = 0

    def send_to_machine(self, blob: bytes) -> bytes:
        self.to_machine += len(blob)
        return blob

    def send_to_coordinator(self, blob: bytes) -> bytes:
        self.to_coordinator += len(blob)
        return blob

    def total(self) -> int:
        return self.to_coordinator + self.to_machine


_HEADER = struct.Struct("<IH")  # store index, number of guesses over cap


class Machine:
    def __init__(self, shard, params: Params, grid: GridHierarchy, seed: int,
                 backing: str, exact_counts: bool, n_max: int):
        self.engine = StreamEngine(params, grid, seed, backing=backing,
                                   exact_counts=exact_counts, n_max=n_max)
        for p in shard:
            self.engine.process(p, +1)
        self.local_n = len(shard)

    def wire_messages(self):
        """Yield one message per distinct store, in the engine's store order.

        A guess is over when its cell cap, for any family the store serves
        it for, is below the store's local nonempty-cell count."""
        eng = self.engine
        for index, (key, store) in enumerate(eng._stores.items()):
            cells = store.cell_count()
            served = eng._served[key]
            over = {o for fam, o in served
                    if cells > eng.params.caps(fam, key[1], o)[0]}
            blob = b"" if over == {o for _, o in served} else store.serialize()
            over = sorted(eng.o_values.index(o) for o in over)
            yield _HEADER.pack(index, len(over)) \
                + struct.pack(f"<{len(over)}H", *over) + blob


class Coordinator(StreamEngine):
    """A stream engine whose stores start empty and absorb machine state."""

    def __init__(self, params: Params, grid: GridHierarchy, seed: int,
                 backing: str, exact_counts: bool, n_max: int):
        super().__init__(params, grid, seed, backing, exact_counts, n_max)
        self._over: set = set()  # guesses a machine reported over a cell cap

    def absorb(self, machine: "Machine", channel: ByteChannel):
        self.net += machine.local_n
        self._data.clear()
        channel.send_to_coordinator(struct.pack("<q", machine.local_n))
        stores = list(self._stores.values())
        for message in machine.wire_messages():
            message = channel.send_to_coordinator(message)
            index, n_over = _HEADER.unpack_from(message)
            over = struct.unpack_from(f"<{n_over}H", message, _HEADER.size)
            self._over.update(self.o_values[i] for i in over)
            blob = message[_HEADER.size + 2 * n_over:]
            if blob:
                stores[index].merge_in(cellstore.deserialize(blob, self.grid))

    def finalize_for_o(self, o: float, gates: list | None = None):
        if o in self._over:
            return fail_at(gates, "store cell cap")
        return super().finalize_for_o(o, gates)


def broadcast_blob(params: Params, grid: GridHierarchy, seed: int) -> bytes:
    """The configuration and the shift's integer lattice offsets
    (GridHierarchy.off), all a machine needs to place integer points in
    cells; they fit int64 for every Delta <= 2**62."""
    cfg = params.serialize() + f" seed={seed}"
    shift = struct.pack(f"<{grid.d}q", *grid.off)
    body = cfg.encode()
    return struct.pack("<I", len(body)) + body + shift


def run_protocol(shards, params: Params, seed: int, backing: str = "exact",
                 exact_counts: bool = False, n_max: int | None = None):
    """Simulate the s-machine protocol; returns (coreset, comm_bytes), or
    raises RuntimeError when every guess FAILs (coreset.search_o)."""
    if not shards:
        raise UsageError("need at least one shard")
    grid = GridHierarchy.from_seed(derive_seed(seed, "shift"), params.Delta, params.d)
    if n_max is None:
        n_max = max(grid.Delta ** grid.d, sum(len(s) for s in shards))
    channel = ByteChannel()
    bcast = broadcast_blob(params, grid, seed)
    coord = Coordinator(params, grid, seed, backing, exact_counts, n_max)
    for shard in shards:
        channel.send_to_machine(bcast)
        machine = Machine(shard, params, grid, seed, backing, exact_counts, n_max)
        coord.absorb(machine, channel)
    return coord.finalize(), channel.total()


def per_machine_byte_cap(params: Params, grid: GridHierarchy, o_values,
                         n: int) -> int:
    """Wire budget of one machine holding at most n points, exact backing.

    The broadcast and the shard size, then one message per distinct Sampling
    key (sampled counts): its header, 2 bytes per guess the key serves, and
    an exact blob of at most min(n, (2**level + 1)**d) cells and n points."""
    d = grid.d
    served = Sampling(params, grid, 0, exact_counts=False).served(o_values)
    total = len(broadcast_blob(params, grid, 0)) + 8
    for (_, lvl, _), pairs in served.items():
        cells = min(n, (2 ** lvl + 1) ** d)
        total += _HEADER.size + 2 * len({o for _, o in pairs}) \
            + 42 + cells * (16 * d + 12) + n * (8 * d + 16)
    return total
