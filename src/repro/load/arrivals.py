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
  :data:`BURST_FACTOR`× the base rate, then silent gaps; same mean rate,
  much nastier queue-depth tails.
* :func:`diurnal` — sinusoidal rate modulation with period
  :data:`DIURNAL_PERIOD` ticks: a day-curve in miniature, peak a quarter
  of the way into each period, trough three quarters in.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator

#: Arrival rate inside a :func:`bursty` burst, as a multiple of the mean.
BURST_FACTOR = 8.0
#: Ticks per :func:`diurnal` rate cycle.
DIURNAL_PERIOD = 256
#: Relative swing of the :func:`diurnal` rate around its mean.
DIURNAL_DEPTH = 0.9


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


def bursty(rate: float, seed: int = 0) -> Iterator[int]:
    """On/off arrivals: bursts of 16 clients at ``BURST_FACTOR * rate``,
    then one compensating silent gap, keeping the mean rate at ``rate``."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = random.Random(seed)
    # Mean gap inside a burst and the silence that restores the average.
    burst_gap = 1.0 / (rate * BURST_FACTOR)
    silence = 16 * (1.0 / rate - burst_gap)

    def raw() -> Iterator[float]:
        while True:
            for __ in range(16):
                yield rng.expovariate(1.0 / burst_gap)
            yield silence * (0.5 + rng.random())

    return _gaps(raw())


def diurnal(rate: float, seed: int = 0) -> Iterator[int]:
    """Sinusoidally modulated Poisson arrivals: instantaneous rate
    ``rate * (1 + DIURNAL_DEPTH·sin)``, peaking once per
    ``DIURNAL_PERIOD`` ticks."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    rng = random.Random(seed)

    def raw() -> Iterator[float]:
        now = 0.0
        while True:
            phase = 2.0 * math.pi * (now % DIURNAL_PERIOD) / DIURNAL_PERIOD
            local = rate * (1.0 + DIURNAL_DEPTH * math.sin(phase))
            gap = rng.expovariate(max(local,
                                      rate * (1.0 - DIURNAL_DEPTH) * 0.5
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
