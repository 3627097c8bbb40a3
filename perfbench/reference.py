"""A fixed reference kernel that the benchmark times next to the program.

On a shared host other tenants slow every process on the same cores,
often by half and for minutes at a time, so two runs of the same code
can differ by more than any bound a regression test could use. The
benchmark therefore times this kernel before and after every operation
and divides the operation's time by the mean of the two. The kernel
uses no nlmagic code, so no change to the program moves it; it mixes
the kinds of work the program does (interpreter-bound Python, small
numpy calls, copies through the cache) so that the neighbours slow it
about as much as they slow the program.
"""

from __future__ import annotations

import time

import numpy as np

# ``Reference.scaled`` gives seconds on a host where one run of the kernel
# takes this long, which is about its time on the 2-core Xeon VM the
# benchmark was written on.
REFERENCE_S = 0.03


class Reference:
    """The kernel and its buffers, which add a fixed 8 MB to the process;
    a run allocates nothing."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._factors = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)) for _ in range(8)]
        self._vector = rng.standard_normal(8) + 0j
        self._source = rng.standard_normal(1 << 19)  # 4 MB
        self._target = np.empty_like(self._source)
        self.seconds()  # the first run pays its own page faults

    def _kernel(self) -> float:
        total = 0
        for i in range(50_000):
            total += i * i % 7
        factors, vector, acc = self._factors, self._vector, 0.0
        for i in range(600):
            u = np.kron(np.kron(factors[i % 8], factors[(i + 1) % 8]), factors[(i + 3) % 8])
            p = np.abs(u @ vector) ** 2
            acc += float(p.sum() / p.max())
        for _ in range(12):
            np.copyto(self._target, self._source)
            np.multiply(self._target, 1.0001, out=self._target)
        return acc + total

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    @staticmethod
    def scaled(seconds: float, reference: float) -> float:
        """``seconds`` measured while the kernel took ``reference`` seconds,
        expressed on a host where it takes ``REFERENCE_S``."""
        return seconds * REFERENCE_S / reference
