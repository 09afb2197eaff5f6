"""Pieces every workload shares: statistics, the tracer, the host probe.

Timing policy.  The reference host has episodic slow stretches of 3-7 s,
so no end-to-end figure is a plain total over the run.  A workload runs
*rounds* of identical units (training steps, served frames, domain builds);
each unit keeps its position inside the round.  The robust round time is
the sum over positions of the median duration at that position across
rounds, so a slow stretch that covers a minority of rounds drops out, and
throughput is the round's work divided by that time.
"""

from __future__ import annotations

import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


class CheckFailed(Exception):
    """The benchmark cannot go on: a measurement it relies on is missing."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Context:
    """What a workload is given: its seed, run length, pass and scratch dir."""

    seed: int
    seconds: float
    trace: bool
    run_dir: str


@dataclass
class Outcome:
    """What a workload reports: operation counts, failed checks, metrics."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    probes_ms: list[float] = field(default_factory=list)

    def check(self, condition: bool, message: str) -> None:
        """Record ``message`` as a failed output check unless ``condition``."""
        if not condition and len(self.errors) < 20:
            self.errors.append(message)

    def probe(self) -> None:
        self.probes_ms.append(host_probe_ms())


def median(values) -> float:
    """Median of ``values``; 0.0 for a layer the workload never called."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def robust_round_seconds(rounds: list[list[float]]) -> float:
    """Sum over unit positions of the per-position median across rounds."""
    lengths = {len(durations) for durations in rounds}
    check(len(lengths) == 1, f"rounds differ in length: {sorted(lengths)}")
    return float(sum(statistics.median(column) for column in zip(*rounds)))


def tail_percentile(values) -> tuple[float, float]:
    """``(p, value)`` for the highest percentile with >= 10 samples beyond it.

    Falls back to the median (p = 50) when there are fewer than 40 samples,
    where a higher percentile would be no tail at all.
    """
    values = np.asarray(list(values), dtype=np.float64)
    if values.size >= 40:
        for p in (99.9, 99.0, 95.0, 90.0):
            if values.size * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
                return p, float(np.percentile(values, p))
    return 50.0, median(values)


def peak_rss_mb(pid: int | None = None) -> float:
    """Peak resident set size in MB of this process, or of child ``pid``."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise CheckFailed(f"no VmHWM line for process {pid}")


def host_probe_ms() -> float:
    """A fixed pure-numpy elementwise loop (no BLAS, no program code).

    No change to the program can move it, so a slow value tells a slow host
    from a slow program when runs are compared.
    """
    values = np.linspace(-1.0, 1.0, 512)
    start = time.perf_counter()
    for _ in range(400):
        values = np.tanh(values * 1.0001 + 0.01)
        values = np.sqrt(values * values + 1.0) - 1.0
    elapsed = time.perf_counter() - start
    check(bool(np.isfinite(values).all()), "host probe produced non-finite values")
    return elapsed * 1e3


class Tracer:
    """Durations and counts recorded around calls into the program's layers.

    Wrapping happens from outside: :meth:`patch` replaces an attribute of a
    module, class or instance with a timed wrapper and :meth:`restore` puts
    every original back.  Durations stay in memory until the run reports.
    """

    def __init__(self) -> None:
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, int] = defaultdict(int)
        self._patched: list[tuple[object, str, object, bool]] = []

    def wrap(self, name: str, fn):
        durations = self.durations[name]

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                durations.append(time.perf_counter() - start)

        return timed

    def patch(self, owner, attr: str, name: str) -> None:
        self.replace(owner, attr, self.wrap(name, getattr(owner, attr)))

    def count_calls(self, owner, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self.replace(owner, attr, counted)

    def replace(self, owner, attr: str, value) -> None:
        had_own = attr in getattr(owner, "__dict__", {})
        self._patched.append((owner, attr, getattr(owner, attr), had_own))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original, had_own = self._patched.pop()
            if had_own:
                setattr(owner, attr, original)
            else:  # the attribute was inherited: drop the shadowing wrapper
                delattr(owner, attr)

    def median_ms(self, name: str) -> float:
        return median(self.durations.get(name, ())) * 1e3
