"""Host-speed sampling: scales measured times to a reference host speed.

This benchmark runs on a share of a shared server. The speed at which that
share runs Python drifts by up to 1.8x within seconds and over minutes, with
no steal time showing: identical passes of the same code then differ by as
much. So while a timed section runs, an interval timer interrupts it every
``EVERY_S`` and times ``kernel``, a fixed pure-Python arithmetic loop that
touches no fluxt1 code. The section's own time (its wall time minus the
samples) is scaled by ``REF_S`` over the mean sample: what the section would
take on a host where the kernel takes ``REF_S``.

A slower fluxt1 moves the section's time and not the samples, so it shows in
full; a slow spell of the host moves both and cancels. Of the kernels tried
(bytecode arithmetic, dict and list building, a 140x140 symmetric eigensolve,
small numpy calls, scattered reads of an 8 MB array), bytecode arithmetic
tracked the passes of ``epsilon_two_level`` best: pass-to-pass spread (IQR
over median) fell from 0.11 raw to 0.03 scaled, on two vCPUs of a shared
Xeon host.

Standard library only, so a fresh interpreter can sample its own imports.
"""

from __future__ import annotations

import math
import signal
import time

KERNEL_STEPS = 10_000
# the kernel's time on an idle 2-vCPU share of the Xeon host it was tuned on
REF_S = 0.0008
EVERY_S = 0.025


def kernel() -> float:
    acc = 0.0
    for i in range(KERNEL_STEPS):
        acc += math.sqrt(i)
    return acc


class Sampler:
    """Context manager: samples ``kernel`` every ``EVERY_S`` while the block runs.

    One more sample is taken right after the block, so that even a block
    shorter than ``EVERY_S`` has one. ``in_block_s`` is the sample time spent
    inside the block, which the block's wall time includes.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.in_block_s = 0.0
        kernel()  # untimed first run

    def _tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> Sampler:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.in_block_s = math.fsum(self.samples)
        self._tick()

    def scaled(self, wall_s: float) -> float:
        """``wall_s`` of the block, less the samples in it, in reference-host seconds."""
        mean = math.fsum(self.samples) / len(self.samples)
        return (wall_s - self.in_block_s) * REF_S / mean
