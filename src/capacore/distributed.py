"""Coordinator/machines protocol simulation with exact byte accounting.

Each machine runs the streaming engine's store layer over its shard, then
ships one message per distinct (family, level, threshold) store: the store's
index, the guesses whose cell cap its local nonempty-cell count exceeds, and
the serialized store state (left out when every guess the store serves is
over its cap).  The coordinator merges each state once (store merging is
linear), marks a guess failed as soon as any machine reported it over the
cap of one of its stores, and finalizes without re-checking the cell cap on
merged content, exactly as the protocol prescribes.  Transport is an
in-process byte channel; the byte counters are the communication cost.
"""

from __future__ import annotations

import struct

from .common import FAIL, UsageError, derive_seed
from .coreset import search_o
from .geometry import GridHierarchy
from .params import FAMILIES, Params
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
        """Yield one message per distinct store, in the engine's store order."""
        eng = self.engine
        for index, (key, store) in enumerate(eng._stores.items()):
            fam, lvl, _ = key
            cells = store.cell_count()
            guesses = eng._served[key]
            over = [eng.o_values.index(o) for o in guesses
                    if cells > eng.params.caps(fam, lvl, o)[0]]
            blob = b"" if len(over) == len(guesses) else store.serialize()
            yield _HEADER.pack(index, len(over)) \
                + struct.pack(f"<{len(over)}H", *over) + blob


class Coordinator:
    def __init__(self, params: Params, grid: GridHierarchy, seed: int,
                 backing: str, exact_counts: bool, n_max: int):
        # coordinator stores start empty and accumulate machine state; the
        # protocol does not re-check the cell cap on merged content
        self.engine = StreamEngine(params, grid, seed, backing=backing,
                                   exact_counts=exact_counts, n_max=n_max,
                                   check_store_alpha=False)
        self._stores = list(self.engine._stores.values())
        self.failed_os: set = set()
        self.total_n = 0

    def absorb(self, machine: "Machine", channel: ByteChannel):
        self.total_n += machine.local_n
        channel.send_to_coordinator(struct.pack("<q", machine.local_n))
        o_values = self.engine.o_values
        for message in machine.wire_messages():
            message = channel.send_to_coordinator(message)
            index, n_over = _HEADER.unpack_from(message)
            over = struct.unpack_from(f"<{n_over}H", message, _HEADER.size)
            self.failed_os.update(o_values[i] for i in over)
            blob = message[_HEADER.size + 2 * n_over:]
            if blob:
                self._stores[index].merge_in(
                    cellstore.deserialize(blob, self.engine.grid))

    def finalize(self):
        eng = self.engine
        eng.net = self.total_n
        guesses = eng.candidates()
        if not guesses:
            return eng._empty_coreset()
        return search_o(guesses, lambda o: FAIL if o in self.failed_os
                        else eng.finalize_for_o(o))


def broadcast_blob(params: Params, grid: GridHierarchy, seed: int) -> bytes:
    cfg = params.serialize() + f" seed={seed}"
    shift = struct.pack(f"<{grid.d}q", *grid.shift_num)
    body = cfg.encode()
    return struct.pack("<I", len(body)) + body + shift


def run_protocol(shards, params: Params, seed: int, backing: str = "exact",
                 exact_counts: bool = False, n_max: int | None = None):
    """Simulate the s-machine protocol; returns (coreset | FAIL, comm_bytes)."""
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
    result = coord.finalize()
    return result, channel.total()


def per_machine_byte_cap(params: Params, grid: GridHierarchy, o_values) -> int:
    """Wire budget per machine: sum over stores of the cap-sized blob."""
    d = grid.d
    total = len(broadcast_blob(params, grid, 0)) + 8
    for o in o_values:
        for lvl in range(0, grid.L + 1):
            for fam in FAMILIES:
                alpha, beta = params.caps(fam, lvl, o)
                cells = int(min(alpha, (2 * grid.Delta) ** d))
                pts = int(min(alpha * beta, 10**12))
                total += 40 + cells * (8 * d + 8) + pts * (8 * d + 16)
    return total
