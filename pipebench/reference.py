"""A fixed reference loop that measures how fast the host runs right now.

The benchmark shares a few cores of a busy host, whose speed drifts by
15-20% over tens of seconds: CPU time follows wall time, so the program is
not waiting, the cores just run slower. Every workload cycle is followed by
slices of this loop, sized to about ``SHARE`` of the cycle's time, so the
loop samples the same drift as the cycles around it. Times divided by the
loop's mean speed over the whole run are in "ref": one ref is the time the
loop takes for ``ITERATIONS`` iterations on the host as it ran during that
run. The loop does fixed work that mixes what ffusion does: small matmuls
and activations, elementwise work on a point-cloud-sized array, and number
formatting and parsing in Python. Given a directory, each slice also
creates ``FILES`` small text files in a new folder there, reads them back
and removes the folder, for workloads that spend a share of their time
creating files. It uses only numpy and the standard library, so no change
to ffusion changes it.
"""

from __future__ import annotations

import shutil
import time

ITERATIONS = 1000  # iterations in one ref
SLICE = 20  # iterations between clock reads
SHARE = 0.1  # reference time after a cycle, as a share of the cycle's time
FILES = 6  # files each slice creates, reads and removes, given a directory


class Reference:
    def __init__(self, numpy, directory=None):
        self.np = numpy
        self.directory = directory
        rng = numpy.random.default_rng(0)
        self.x = rng.standard_normal((32, 64))
        self.w1 = rng.standard_normal((64, 64)) / 8.0
        self.w2 = rng.standard_normal((64, 64)) / 8.0
        self.cloud = rng.standard_normal((16384, 3))
        self.row = [float(v) for v in rng.standard_normal(192)]
        self.seconds = 0.0
        self.iterations = 0
        self.checksum = None
        self.samples = []  # seconds per ref, one value per after()

    def _iteration(self) -> float:
        np = self.np
        hidden = self.x
        for _ in range(4):
            hidden = np.tanh(hidden @ self.w1) @ self.w2
        total = float(np.maximum(hidden, 0.0).sum())
        radius = np.sqrt((self.cloud * self.cloud).sum(axis=1))
        total += float(radius[radius < 2.0].sum())
        text = " ".join(f"{value:.5f}" for value in self.row)
        total += sum(float(token) for token in text.split())
        return total

    def _files(self) -> int:
        folder = self.directory / "reference"
        folder.mkdir()
        text = "\n".join(f"{value:.5f}" for value in self.row)
        paths = [folder / f"{index}.txt" for index in range(FILES)]
        for path in paths:
            path.write_text(text, encoding="ascii")
        size = sum(len(path.read_text(encoding="ascii")) for path in paths)
        shutil.rmtree(folder)
        return size

    def _slice(self) -> float:
        started = time.perf_counter()
        total = 0.0
        for _ in range(SLICE):
            total += self._iteration()
        if self.directory is not None:
            total += self._files()
        elapsed = time.perf_counter() - started
        if self.checksum is None:
            self.checksum = total
        elif total != self.checksum:
            raise RuntimeError(f"reference loop gave {total}, not {self.checksum}")
        self.seconds += elapsed
        self.iterations += SLICE
        return elapsed

    def after(self, cycle_s: float) -> None:
        """Run slices for about SHARE of a cycle that took cycle_s seconds."""
        spent, slices = self._slice(), 1
        while spent < SHARE * cycle_s:
            spent += self._slice()
            slices += 1
        self.samples.append(spent / (slices * SLICE) * ITERATIONS)

    @property
    def ref_s(self) -> float:
        """Seconds per ref, averaged over every slice run so far."""
        return self.seconds / self.iterations * ITERATIONS
