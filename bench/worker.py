"""One workload in one fresh process; prints its raw measurements as JSON.

    python3 bench/worker.py --workload NAME --seed N --scratch DIR --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --scratch DIR --setup-only

The clock starts before mfsde (numpy, scipy) is imported, so set-up time
covers the import, building the workload's inputs and a small warm-up call
that pays lazy first-call costs.  Passes then repeat, each on fresh inputs,
while the next one is expected to end within `--seconds` (at least one
runs).  A `SpeedProbe` samples the core's speed during set-up and, with
`--trace 0`, during every pass.  With `--trace 1` the first half of the time
runs untraced passes and the rest reruns the same pass indices under the
tracer, so the two digests of each index must agree.

`bench/run.py` is the entry point; it starts this script and turns its
output into metrics.
"""

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

CHECKOUT = Path(__file__).resolve().parents[1]
SOURCE = CHECKOUT / "src"
PROBE_PERIOD_S = 0.05        # one speed sample per 50 ms of wall time
REF_KERNEL_S = 2e-3          # the reference speed: one kernel call in 2 ms


def _import_mfsde():
    """Import mfsde from this checkout's src/, never from elsewhere."""
    if not (SOURCE / "mfsde" / "__init__.py").is_file():
        raise SystemExit(f"worker: no mfsde sources under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import mfsde
    if not Path(mfsde.__file__).resolve().is_relative_to(SOURCE.resolve()):
        raise SystemExit(f"worker: imported mfsde from {mfsde.__file__}, not {SOURCE}")
    return mfsde


def _versions():
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


class SpeedProbe:
    """Times a fixed reference kernel every PROBE_PERIOD_S, inside this process.

    The host's speed drifts by up to 2x over seconds to minutes, as other
    tenants come and go on the shared physical cores, and CPU time drifts
    with it.  The kernel runs from a SIGALRM handler, so it samples the
    speed of the core the measured code runs on while that code runs.
    `rescale` turns a wall time, less the probe's own time, into seconds at
    the reference speed, at which one kernel call takes REF_KERNEL_S.
    """

    def __init__(self):
        import numpy as np
        t0 = time.perf_counter()
        self._np = np
        self._x0 = np.linspace(0.0, 1.0, 8)
        self._f = np.linspace(0.0, 1.0, 2048)
        self._g = np.cos(np.linspace(0.0, 3.0, 2048))
        for _ in range(20):
            self._kernel()
        self.samples, self.spent = [], time.perf_counter() - t0

    def _kernel(self):
        # Two halves of about equal time.  Small ufunc calls in a Python
        # loop, the shape of the per-step solver and norm loops; then FFT
        # convolutions of 2048-point arrays, the shape of the fractional
        # integral.  Neighbours slow the two by different amounts.
        np, x, acc = self._np, self._x0.copy(), 0.0
        for i in range(60):
            x = x + 0.001 * np.sin(x) + 0.01 * np.cos(i * 0.1)
            if np.any(~np.isfinite(x) | (np.abs(x) > 1e6)):
                break
            acc += float(x[0]) * 0.5 + i % 3
        for _ in range(5):
            conv = np.fft.irfft(np.fft.rfft(self._f, 4096) * np.fft.rfft(self._g, 4096), 4096)
            acc += float(conv[100])
        return acc

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)
        self.spent += time.perf_counter() - t0

    def reset(self):
        self.samples, self.spent = [], 0.0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, wall: float) -> dict:
        """Figures for the wall time `wall` measured since the last `reset`."""
        if not self.samples:
            raise SystemExit("worker: the measured code ended before the speed probe ran")
        kernel = statistics.fmean(self.samples)
        return {"wall_s": wall, "ref_wall_s": (wall - self.spent) * REF_KERNEL_S / kernel,
                "probe_s": self.spent, "kernel_s": kernel, "probe_samples": len(self.samples)}


def _passes(workload, seconds, indices=None, tracer=None, probe=None):
    records = []
    start = time.perf_counter()
    index = 0
    while True:
        if tracer is not None:
            tracer.begin_pass(index)
        if probe is not None:
            probe.reset()
        t0 = time.perf_counter()
        result = workload.run(index)
        wall = time.perf_counter() - t0
        record = {"index": index, "wall_s": wall, "ok": result.ok,
                  "digest": result.digest, "operations": result.operations,
                  "excluded": result.excluded, "detail": result.detail,
                  "counts": result.counts}
        if tracer is not None:
            record["trace"] = tracer.pass_counters()
        if probe is not None:
            record.update(probe.rescale(wall))
        records.append(record)
        index += 1
        if indices is not None and index >= indices:
            break
        # start no pass that would end after the deadline
        if time.perf_counter() - start + wall > seconds:
            break
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scratch", required=True,
                        help="directory for temporary files, inside the checkout")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", help="write the traced run's spans to this CSV")
    args = parser.parse_args(argv)

    probe = SpeedProbe()
    with probe:
        mfsde = _import_mfsde()
        import workloads
        if args.workload not in workloads.WORKLOADS:
            raise SystemExit(f"worker: unknown workload {args.workload!r}")
        workload = workloads.WORKLOADS[args.workload](args.seed, Path(args.scratch))
        workload.warm()
        out = {"setup": probe.rescale(time.perf_counter() - SETUP_START),
               "versions": _versions()}
        if args.setup_only:
            print(json.dumps(out))
            return 0
        if not args.trace:
            out["passes"] = _passes(workload, args.seconds, probe=probe)
    if args.trace:
        # no probe here: its ticks would land in the layers' self times
        out["passes"] = _passes(workload, args.seconds / 2)
    # taken before any traced pass, whose spans are kept in memory
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        from tracer import Tracer
        tracer = Tracer(mfsde)
        with tracer.installed():
            out["traced"] = _passes(workload, args.seconds / 2,
                                    indices=len(out["passes"]), tracer=tracer)
        if args.spans:
            Path(args.spans).parent.mkdir(exist_ok=True)
            tracer.write_spans(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
