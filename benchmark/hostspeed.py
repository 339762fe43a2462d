"""Host-speed probe: how fast the shared host runs the interpreter right now.

The benchmark's host is a few cores of a shared machine, and the same
CPU-bound loop runs up to 1.7x slower for seconds or minutes at a time when
the machine is busy. A stage therefore runs a fixed probe before each of its
units of work (a UDP slice, a ledger block, a simulation, a set-up) and after
the last, and scales each unit's figures by the host's slowdown around it:

    slowdown     = median(probe seconds just before and after) / REFERENCE_S
    scaled rate  = measured rate * slowdown
    scaled time  = measured time / slowdown

so a figure reads as it would on a host where the probe takes REFERENCE_S.
A change to the program moves the measured figure and not the probe, so it
moves the scaled figure by the same share. The probe does the kinds of work
the program does in pure Python: big-integer modular arithmetic (signatures),
dict and object traffic (state and caches), bytes building and hashing (wire
and serialization). Measured figures are kept in the report beside the
scaled ones.
"""

from __future__ import annotations

import hashlib
import statistics
import time

# Probe time on the reference host: the median on an idle 2-vCPU Intel Xeon
# (2.1 GHz) VM with Python 3.11.
REFERENCE_S = 0.0032
_MODULUS = 2 ** 255 - 19
_ROUNDS = 5
_STEPS = 400


class _Entry:
    __slots__ = ("key", "value", "seen")

    def __init__(self, key, value):
        self.key, self.value, self.seen = key, value, 0


def _probe_work() -> int:
    acc = 0x1234567
    table = {}
    for _ in range(_ROUNDS):
        out = bytearray()
        for i in range(_STEPS):
            acc = (acc * acc + i) % _MODULUS
            key = (acc & 0x3FF, i & 7)
            entry = table.get(key)
            if entry is None:
                entry = table[key] = _Entry(key, acc & 0xFFFF)
            entry.seen += 1
            out += entry.value.to_bytes(2, "big")
        acc ^= int.from_bytes(hashlib.sha256(bytes(out)).digest(), "big")
    entries = sorted(table.values(), key=lambda e: (e.seen, e.value))
    return acc + entries[0].value


class HostSpeed:
    """Probe samples taken between the units of work of one stage.

    Call `probe()` before each unit and once after the last; unit k is then
    bracketed by the k-th and (k+1)-th groups of `per_gap` samples.
    """

    def __init__(self, per_gap: int):
        self.per_gap = per_gap
        self.samples = []

    def probe(self):
        for _ in range(self.per_gap):
            t0 = time.perf_counter()
            _probe_work()
            self.samples.append(time.perf_counter() - t0)

    def slowdown(self, unit: int | None = None) -> float:
        """Median probe time over REFERENCE_S, around one unit or over the stage."""
        if unit is None:
            samples = self.samples
        else:
            samples = self.samples[unit * self.per_gap:(unit + 2) * self.per_gap]
        return statistics.median(samples) / REFERENCE_S

    def rate(self, measured: float, unit: int) -> float:
        return measured * self.slowdown(unit)

    def duration(self, measured: float, unit: int) -> float:
        return measured / self.slowdown(unit)

