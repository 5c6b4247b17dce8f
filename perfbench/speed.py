"""The host's speed, measured alongside the queries.

The benchmark runs on shared virtual machines whose speed moves by 20-40 %
between runs and within seconds, alike for any Python code in the process.
A fixed kernel of the kind of work the package does (a breadth-first search
over tuple configurations with sorted multisets, set membership, and some
string building and splitting) is timed in slices between the queries, for
a fixed share of the query time.  Its slices sample the host's speed at
nearly the same moments as the queries do.  The runner scales each timed
call by

    REFERENCE_SLICE_S / (mean time of the slices next to the call)

so a time reads as it would on a host where one slice takes
REFERENCE_SLICE_S.  The kernel shares no code with the package, so a change
to the package moves the scaled times as it moves the raw ones.
"""

from __future__ import annotations

import time

# About one slice's time on a shared 2-vCPU Intel Xeon VM under Python
# 3.11.7; it sets only the scale of the reported times.
REFERENCE_SLICE_S = 0.0025
SHARE = 0.25  # seconds of slices per second timed
WARM_UP_SLICES = 20


def kernel() -> int:
    """One slice of fixed work; returns a checksum so nothing is skipped."""
    start = (0, (), "")
    seen = {start}
    frontier = [start]
    while frontier:
        following = []
        for clock, psi, label in frontier:
            successors = [(clock + 1, psi, "tick")]
            if len(psi) < 4:
                successors.append((clock, tuple(sorted(psi + (clock % 4,))), f"ev:{clock}"))
            if psi:
                successors.append((clock, psi[1:], f"call:{psi[0]}"))
            for config in successors:
                if config[0] <= 6 and config not in seen:
                    seen.add(config)
                    following.append(config)
        frontier = following
    text = "\n".join(f"  @{label} {clock} {psi}" for clock, psi, label in seen)
    return len(seen) + sum(len(line.split()) for line in text.splitlines())


class SpeedProbe:
    """Runs kernel slices between the timed calls of a round: at least one
    between any two calls, and more where needed for the slices to keep up
    with SHARE of the time timed.  A call's scale factor comes from the
    slices in the two gaps next to it, because the host's speed moves within
    a second as much as between runs.  A long call is followed by many
    slices, so its factor averages over a longer stretch."""

    def __init__(self):
        self.slices = 0
        self.seconds = 0.0
        self.timed_seconds = 0.0
        self._round: list[float] = []
        self._marks: list[int] = []
        for _ in range(WARM_UP_SLICES):
            kernel()

    def _slice(self):
        start = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - start
        self._round.append(elapsed)
        self.seconds += elapsed
        self.slices += 1

    def begin(self):
        """Start a round with one slice."""
        self._round, self._marks = [], []
        self._slice()

    def follow(self, seconds: float):
        """Record a timed call that just returned after `seconds`, then run
        one slice, and more until the slices total SHARE of all the time
        recorded."""
        self._marks.append(len(self._round))
        self.timed_seconds += seconds
        self._slice()
        while self.seconds < SHARE * self.timed_seconds:
            self._slice()

    def factors(self) -> list[float]:
        """For each call of the round, in order: multiply its time by this to
        scale it to the reference speed."""
        bounds = [0, *self._marks, len(self._round)]
        return [
            REFERENCE_SLICE_S * len(near) / sum(near)
            for near in (self._round[bounds[i]:bounds[i + 2]] for i in range(len(self._marks)))
        ]

    def slice_s(self) -> float:
        return self.seconds / self.slices
