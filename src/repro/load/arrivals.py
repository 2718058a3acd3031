"""Open arrival processes on the virtual clock.

Each generator yields successive **inter-arrival gaps** in virtual ticks
(non-negative ints).  They are deterministic functions of ``(rate, seed)``
— seeded Mersenne-Twister draws, stable across Python versions and worker
processes — so every load run is replayable, the property the whole
runtime is built on.

Rates are in *clients per tick*; gaps accumulate fractional residue so the
long-run realized rate matches the requested one even though individual
gaps are integers (a gap of 0 means two clients arrive on the same tick).

* :func:`poisson` — memoryless exponential gaps, the M/·/· open-arrival
  baseline.
* :func:`bursty` — an on/off (interrupted Poisson) process: bursts at
  ``burst_factor``× the base rate, then silent gaps; same mean rate, much
  nastier queue-depth tails.
* :func:`diurnal` — sinusoidal rate modulation with period ``period``
  ticks: a day-curve in miniature, peak at mid-period, trough at the
  edges.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator


def _gaps(raw: Iterator[float]) -> Iterator[int]:
    """Quantize float gaps to integer ticks, carrying the residue."""
    residue = 0.0
    for gap in raw:
        total = gap + residue
        ticks = int(total)
        residue = total - ticks
        yield ticks


def poisson(rate: float, seed: int = 0) -> Iterator[int]:
    """Exponential inter-arrival gaps with mean ``1/rate`` ticks."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = random.Random(seed)

    def raw() -> Iterator[float]:
        while True:
            yield rng.expovariate(rate)

    return _gaps(raw())


def bursty(
    rate: float,
    seed: int = 0,
    burst_factor: float = 8.0,
) -> Iterator[int]:
    """On/off arrivals: bursts of 16 clients at ``burst_factor * rate``,
    then one compensating silent gap, keeping the mean rate at ``rate``."""
    if rate <= 0 or burst_factor <= 1.0:
        raise ValueError("rate must be positive and burst_factor > 1")
    rng = random.Random(seed)
    # Mean gap inside a burst and the silence that restores the average.
    burst_gap = 1.0 / (rate * burst_factor)
    silence = 16 * (1.0 / rate - burst_gap)

    def raw() -> Iterator[float]:
        while True:
            for __ in range(16):
                yield rng.expovariate(1.0 / burst_gap)
            yield silence * (0.5 + rng.random())

    return _gaps(raw())


def diurnal(
    rate: float,
    seed: int = 0,
    period: int = 256,
    depth: float = 0.9,
) -> Iterator[int]:
    """Sinusoidally modulated Poisson arrivals: instantaneous rate
    ``rate * (1 + depth·sin)``, peaking once per ``period`` ticks."""
    if rate <= 0 or not 0.0 < depth <= 1.0:
        raise ValueError("rate must be positive and depth in (0, 1]")
    rng = random.Random(seed)

    def raw() -> Iterator[float]:
        now = 0.0
        while True:
            phase = 2.0 * math.pi * (now % period) / period
            local = rate * (1.0 + depth * math.sin(phase))
            gap = rng.expovariate(max(local, rate * (1.0 - depth) * 0.5
                                      or 1e-9))
            now += gap
            yield gap

    return _gaps(raw())


#: name -> factory(rate, seed) — what ``repro load --arrival`` selects.
ARRIVALS: Dict[str, object] = {
    "poisson": poisson,
    "bursty": bursty,
    "diurnal": diurnal,
}


def make_arrivals(name: str, rate: float, seed: int = 0) -> Iterator[int]:
    try:
        factory = ARRIVALS[name]
    except KeyError:
        raise KeyError("unknown arrival process {!r}; choose one of {}"
                       .format(name, ", ".join(sorted(ARRIVALS))))
    return factory(rate, seed)
