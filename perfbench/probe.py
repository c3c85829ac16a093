"""Host-speed probe: a fixed numpy kernel timed between workload calls.

The benchmark runs on a shared virtual machine whose speed drifts by tens of
percent over minutes, so the median wall time of one run says as much about
the neighbours as about the program. The probe measures that drift. It uses
numpy alone, never the library, so no change to the program can speed it up
or slow it down; it mixes the kinds of work the workloads do (complex FFTs
of 4096 points, elementwise maths that allocates 512 KiB temporaries, and
many small-array calls whose cost is interpreter overhead).

``gap(seconds)`` runs whole slices of fixed work for about ``seconds`` and
returns the median slice time. The loop in ``worker.py`` runs a gap before
every call and after the last, and scales each call's wall time by
``PROBE_REF_S`` over the mean of the two gaps around it: the result is what
the call would take on a host where one slice takes ``PROBE_REF_S``.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

# Median slice time on the host the baseline was measured on (see README.md).
# It only fixes the scale of wall_ref_s; comparisons are made on one host.
PROBE_REF_S = 0.0115

_rng = np.random.default_rng(20240501)
_X = _rng.standard_normal(4096) + 0j
_K = np.exp(1j * _rng.uniform(0.0, 2.0 * np.pi, 4096))
_Y = _rng.standard_normal(65536)
_S = _rng.standard_normal(16)
SLICE_REPS = 10


def slice_seconds() -> float:
    """Time one slice of fixed work."""
    start = time.perf_counter()
    x = _X
    for _ in range(SLICE_REPS):
        for _ in range(4):
            x = np.fft.ifft(np.fft.fft(x) * _K)
        z = np.exp(-_Y * _Y) * np.abs(_Y)
        float(np.sqrt(np.sum(z * z)))
        for _ in range(40):
            float(np.sum(np.floor(_S + 0.5) * _S))
    return time.perf_counter() - start


def gap(seconds: float) -> tuple[float, float]:
    """Run slices for about ``seconds`` (at least three).

    Returns (median slice time, seconds spent).
    """
    start = time.perf_counter()
    times = [slice_seconds() for _ in range(3)]
    while time.perf_counter() - start < seconds:
        times.append(slice_seconds())
    return statistics.median(times), time.perf_counter() - start
