"""Coordinator/machines protocol simulation with exact byte accounting.

Each machine runs the streaming engine's store layer over its shard, then
ships one message per store, i.e. per distinct Sampling key (family, level,
threshold), whose family is dropped at rate 0 or 1: the store's index, the
guesses whose cell cap (for any family the store serves them for) its local
nonempty-cell count exceeds, and the serialized store state (left out when
every guess the store serves is over).  The coordinator merges each state
once (store merging is linear), marks a guess failed as soon as any machine
reported it over, and finalizes without re-checking the cell cap on merged
content, exactly as the protocol prescribes.  Transport is an
in-process byte channel; the byte counters are the communication cost.
"""

from __future__ import annotations

import struct

from .common import FAIL, UsageError, derive_seed
from .coreset import Sampling, search_o
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


def per_machine_byte_cap(params: Params, grid: GridHierarchy, o_values,
                         n: int) -> int:
    """Wire budget of one machine holding at most n points, exact backing.

    The broadcast and the shard size, then one message per distinct Sampling
    key (sampled counts): its header, 2 bytes per guess the key serves, and
    an exact blob of at most min(n, (2**level + 1)**d) cells and n points."""
    d = grid.d
    sampling = Sampling(params, grid, 0, exact_counts=False)
    served: dict = {}  # Sampling key -> guesses it serves
    for o in o_values:
        for lvl in range(0, grid.L + 1):
            for fam in FAMILIES:
                served.setdefault(sampling.key(fam, lvl, o), set()).add(o)
    total = len(broadcast_blob(params, grid, 0)) + 8
    for (_, lvl, _), guesses in served.items():
        cells = min(n, (2 ** lvl + 1) ** d)
        total += _HEADER.size + 2 * len(guesses) \
            + 42 + cells * (16 * d + 12) + n * (8 * d + 16)
    return total
