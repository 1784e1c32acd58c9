"""Scaling measured times to a nominal machine speed.

The benchmark runs on shared virtual machines whose CPU speed swings by
half within a second, and differently on each CPU, so raw seconds from
two runs are not comparable. A Sampler therefore runs a tiny fixed probe
every SAMPLE_EVERY_S seconds in the measured thread itself, from a timer
signal, while the stages run. Each stage's time, less the time the probes
took, is multiplied by NOMINAL_PROBE_S over the mean probe time during
the stage. A scaled time reads as seconds on a machine where the probe
takes NOMINAL_PROBE_S. A change to the package moves the stages but not
the probe, so scaling cancels the machine and keeps the change. Raw
seconds stay in the REPORT record.

Probes only before and after each stage could not follow a swing inside
a stage of several seconds, and a probe in another process runs on the
other CPU, whose speed does not follow this one's.

The probe is a tight interpreter loop. A probe that also ran small numpy
products followed interpreter work less closely: scaled 1.2 s blocks of
it varied by 9-10% (standard deviation over mean) against 5.5-7% with the
loop alone. Probing every 10 ms rather than every 30 ms narrowed the
scatter of a 0.2 s stage between iterations from about 7% to 5%.
"""

from __future__ import annotations

import signal
import statistics
import time

NOMINAL_PROBE_S = 0.00025
SAMPLE_EVERY_S = 0.01


def _probe_work() -> int:
    total = 0
    for i in range(1500):
        total += len(f"k{i % 97}") * (i % 7)
    return total


def probe_s() -> float:
    """Seconds the fixed probe work takes right now."""
    start = time.perf_counter()
    _probe_work()
    return time.perf_counter() - start


class Sampler:
    """Probes the machine every SAMPLE_EVERY_S seconds until exit.

    `samples` holds each probe's duration and `spent` their sum, which the
    caller subtracts from what it timed meanwhile.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        took = probe_s()
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def factor(samples: list[float]) -> float:
    """Multiply a raw time by this to get a scaled one."""
    return NOMINAL_PROBE_S / statistics.fmean(samples)


def scaled(values: dict[str, float], units: dict[str, str], factor: float) -> dict:
    """Scale times (unit s or us) up and rates (unit .../s) down by factor."""
    out = {}
    for name, value in values.items():
        unit = units.get(name, "")
        if unit in ("s", "us"):
            value = value * factor
        elif unit.endswith("/s"):
            value = value / factor
        out[name] = value
    return out
