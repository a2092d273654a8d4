"""Wall-clock timing scaled to the speed of a shared machine.

The 2-core VM this benchmark was defined on switches between speed states
up to 2x apart within seconds, because other tenants share its cores. Raw
medians of 30-second runs spread by 25% from run to run. So every timed
step sits between two calibrations, and its time is also reported scaled
by CALIBRATION_REF_S[kernel] / (mean of the two calibration times).

A calibration is fixed benchmark-owned code that uses none of qifaux. How
much a step slows in a busy state depends on its mix of work: interpreter
work, small-array numpy calls, large-array numpy. A calibration with a
different mix than the operation corrects it badly. So each workload names
the kernel that resembles its operation:

- "small_fit": a GMM-like loop on n=300 arrays. It resembles Monte Carlo
  replications.
- "csv_parse": `csv.DictReader` parsing with float conversion, plus n=30000
  array work. It resembles the CSV study.
- "logit_fit": a logit-link loop on n=3000 arrays. It resembles the logit
  study.

Measured on that VM over 20-second windows, with kernels that did not
match the operation, the scaled medians spread by 12-17%. With the
matching kernel they spread by 4%.
"""

from __future__ import annotations

import csv
import gc
import io
import time

import numpy as np
from scipy.special import expit

# Scaled times are those of a machine on which one calibration takes this
# long: each kernel's median between operations on the VM the benchmark
# was defined on, so scaled times read as that VM's typical times.
CALIBRATION_REF_S = {"small_fit": 0.009, "csv_parse": 0.010, "logit_fit": 0.010}
CALIBRATION_SHARE = 0.05


class _Kernels:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.x300 = rng.standard_normal((300, 3, 2))
        self.y300 = rng.standard_normal((300, 3))
        self.x3000 = rng.standard_normal((3000, 3, 2))
        self.y3000 = (rng.random((3000, 3)) < 0.5).astype(float)
        self.x30000 = rng.standard_normal((30000, 3, 2))
        self.square = rng.standard_normal((4, 4))
        self.beta = np.array([0.5, -0.5])
        self.text = "id,time,y,x1,x2\n" + "".join(
            f"{i},{t},{0.1 * i + t!r},{0.37 * i!r},{i % 2}\n"
            for i in range(200)
            for t in (1, 2, 3)
        )

    def _moments(self, x, y, mu):
        m = np.einsum("nqa,nq->na", x, y - mu)
        sigma = m.T @ m / x.shape[0]
        np.linalg.svd(sigma, hermitian=True)
        np.linalg.solve(self.square, self.square[0])
        return np.abs(m.mean(axis=0)).max()

    def small_fit(self):
        for _ in range(80):
            self._moments(self.x300, self.y300, self.x300 @ self.beta)

    def csv_parse(self):
        for _ in range(4):
            rows = {}
            for row in csv.DictReader(io.StringIO(self.text)):
                cells = rows.setdefault(row["id"], {})
                cells[int(row["time"])] = (float(row["y"]), float(row["x1"]), float(row["x2"]))
        np.einsum("nqa,nqb->ab", self.x30000, self.x30000)

    def logit_fit(self):
        for _ in range(15):
            mu = expit(self.x3000 @ self.beta)
            self._moments(self.x3000 * (mu * (1 - mu))[:, :, None], self.y3000, mu)


class ScaledClock:
    """Times steps; each step also gets a time scaled to machine speed."""

    def __init__(self, kernel: str):
        self._kernel = getattr(_Kernels(), kernel)
        self._ref = CALIBRATION_REF_S[kernel]
        self._calibrate()  # first calls pay one-off library set-up
        self.last = self._calibrate()

    def _calibrate(self, budget: float = 0.0) -> float:
        """Mean time of calibrations run back to back for at least budget
        seconds, and at least once.

        The garbage collector is off meanwhile: a collection of the garbage
        the last operation left would otherwise land in the calibration,
        and scale that operation down by up to 2x.
        """
        times = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            while not times or sum(times) < budget:
                t0 = time.perf_counter()
                self._kernel()
                times.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return sum(times) / len(times)

    def time(self, step):
        """Run step(); returns (its result, raw seconds, scaled seconds).

        Consecutive steps share the calibration between them. After a step,
        calibrations run for CALIBRATION_SHARE of its time, so a long step
        is scaled by many samples of the machine's state, not one.
        """
        t0 = time.perf_counter()
        out = step()
        raw = time.perf_counter() - t0
        after = self._calibrate(CALIBRATION_SHARE * raw)
        scaled = raw * 2.0 * self._ref / (self.last + after)
        self.last = after
        return out, raw, scaled
