"""How fast the host runs right now, from a fixed reference kernel.

The benchmark shares a few cores of a host with other tenants.  Two things
move its timings that the program does not cause.  The hypervisor takes the
vCPU away for spells (steal time): that adds to wall time but not to CPU
time, so the benchmark times every child by its CPU time (user + system,
from its own rusage).  And the speed at which a vCPU runs a fixed piece of
code changes from second to second, by 10-30%, and drifts by as much again
over minutes, in CPU time too.  So the benchmark runs itself and its
children on one CPU, times this kernel by its own CPU time between every two
children, and scales each child's CPU time by nominal over the kernel's
times just before and after it.  A change in host speed moves both and
cancels.  The kernel is the benchmark's own code and imports nothing from the
program, so a change to the program cannot move it.

Its work is shaped like the program's: 110 rounds of a depth-4 tree grown by
exact greedy split search (stable argsort, gather, cumsum, gain argmax) on a
240 x 20 matrix, as in boosting, and then dict and string work as in corpus
loading.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's CPU time on a quiet 2-vCPU Xeon host, about.  Times scaled by
# it read as seconds at that speed; the value only sets the scale.
NOMINAL_S = 0.15


class HostSpeed:
    """Times the reference kernel; inputs are built once, outside the timer."""

    def __init__(self):
        rng = np.random.default_rng(20230115)
        self.X = rng.integers(0, 6, size=(240, 20)).astype(float)
        self.y = (rng.random(240) < 0.5).astype(float)
        self.words = ["".join(chr(97 + int(c))
                              for c in rng.integers(0, 26, 6))
                      for _ in range(2000)]
        self.samples: list[float] = []
        self.kernel()               # first calls into numpy, not timed

    def _split(self, X, g, h):
        order = np.argsort(X, axis=0, kind="stable")
        xs = np.take_along_axis(X, order, axis=0)
        GL = np.cumsum(g[order], axis=0)[:-1]
        HL = np.cumsum(h[order], axis=0)[:-1]
        G, H = g.sum(), h.sum()
        gains = GL * GL / (HL + 1.0) + (G - GL) ** 2 / (H - HL + 1.0)
        ok = (xs[:-1] < xs[1:]) & (HL >= 1.0) & (H - HL >= 1.0)
        flat = np.where(ok, gains, -np.inf).ravel(order="F")
        best = int(np.argmax(flat))
        if not np.isfinite(flat[best]):
            return None
        col, row = divmod(best, gains.shape[0])
        return col, (xs[row, col] + xs[row + 1, col]) / 2

    def _tree(self, idx, g, h, depth):
        found = None
        if depth < 4 and len(idx) >= 2:
            found = self._split(self.X[idx], g[idx], h[idx])
        if found is None:
            return float(-g[idx].sum() / (h[idx].sum() + 1.0))
        col, threshold = found
        left = self.X[idx, col] < threshold
        return (col, threshold, self._tree(idx[left], g, h, depth + 1),
                self._tree(idx[~left], g, h, depth + 1))

    def kernel(self):
        margin = np.zeros(len(self.y))
        trees = []
        for _ in range(110):
            p = 1.0 / (1.0 + np.exp(-margin))
            g, h = p - self.y, p * (1.0 - p)
            trees.append(self._tree(np.arange(len(self.y)), g, h, 0))
            margin += 0.1 * g
        counts: dict[str, int] = {}
        for word in self.words * 40:
            for ch in word:
                counts[ch] = counts.get(ch, 0) + 1
        return trees, counts

    def sample(self) -> float:
        """Run the kernel once; return and keep the CPU seconds it took."""
        start = time.process_time()
        self.kernel()
        self.samples.append(time.process_time() - start)
        return self.samples[-1]

    def scale(self) -> float:
        """NOMINAL_S over the mean of the last two samples.

        Called after the sample that follows a child, this is the host's
        speed around that child relative to nominal; multiply the child's
        CPU time by it.
        """
        return NOMINAL_S / (sum(self.samples[-2:]) / 2)
