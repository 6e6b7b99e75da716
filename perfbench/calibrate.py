"""Machine-speed calibration for the end-to-end timings.

On a shared virtual machine the same code can run 30% slower for minutes
at a time because of load from other tenants, and both wall and CPU time
stretch with it.  The benchmark therefore times this fixed numpy kernel,
made of the operations a decoder iteration is built from (a Gaussian draw,
a gather and a segmented sum over a 1008-symbol frame) and independent of
the code under test, next to the workload, and scales each end-to-end
timing by ``REFERENCE_S / kernel time``.  The reported figures read as if
measured on a machine where the kernel takes ``REFERENCE_S``, about a
2.1 GHz Xeon vCPU running alone; the raw figures are printed beside them.

A workload that decodes on several pool workers is calibrated with as many
processes running the kernel at once, because a machine's speed with all
its cores busy can move apart from its speed with one.
"""

import multiprocessing
import time

import numpy as np

REFERENCE_S = 0.010

_N = 1008
_GATHER = np.random.default_rng(0).integers(0, _N, 3 * _N)
_STARTS = np.arange(0, 3 * _N, 6)


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    rng = np.random.default_rng(1)
    started = time.perf_counter()
    for _ in range(400):
        sums = np.add.reduceat(rng.standard_normal(_N)[_GATHER], _STARTS)
        (sums < 0).any()
    return time.perf_counter() - started


def _spin(started, stop) -> None:
    started.set()
    while not stop.is_set():
        kernel_seconds()


def calibrate(runs: int, processes: int = 1) -> list:
    """Time ``runs`` kernel runs while ``processes - 1`` helpers run it too."""
    ctx = multiprocessing.get_context("fork")
    stop = ctx.Event()
    helpers = []
    for _ in range(processes - 1):
        started = ctx.Event()
        helper = ctx.Process(target=_spin, args=(started, stop), daemon=True)
        helper.start()
        started.wait(10)
        helpers.append(helper)
    try:
        return [kernel_seconds() for _ in range(runs)]
    finally:
        stop.set()
        for helper in helpers:
            helper.join(10)
