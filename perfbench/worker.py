"""One benchmark pass in a fresh process.

Started by ``run.py`` with the BLAS thread count pinned in its environment.
Set-up time runs from the parent's spawn timestamp (CLOCK_MONOTONIC, shared
by all processes) until ``import sectorcalc`` and the workload config's
``load_config``/``resolve_config`` have finished.  Each stage is then one
``sectorcalc.cli.main([...])`` call timed from outside.  With ``--trace 1``
the public functions of each module are wrapped first (see ``spans.py``).
The result, a JSON file, is read by the parent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback


def _environment(np):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "os_cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def _calibration(np, inv):
    """A fixed mix of LAPACK, FFT and interpreter work; returns a timer.

    The host's speed drifts by tens of percent over seconds to minutes, for
    all kinds of work together; timing this kernel next to every stage call
    lets the parent express stage times at a fixed reference speed.  The
    timer keeps the best of three runs, so one preemption does not count.
    """
    rng = np.random.default_rng(0)
    mats = rng.standard_normal((8, 127, 127)) + 1j * rng.standard_normal((8, 127, 127))
    mats += 127.0 * np.eye(127)
    signal = rng.standard_normal((128, 256))
    fft = np.fft.fft

    def kernel():
        inv(mats)
        fft(signal, axis=0)
        acc = 0
        for i in range(5000):
            acc += i
        return acc

    def timer():
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - t0)
        return best
    return timer


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/sectorcalc")
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True, help="directory for the CSV reports")
    parser.add_argument("--result", required=True, help="JSON result file")
    parser.add_argument("--spawned", type=float, required=True,
                        help="parent's CLOCK_MONOTONIC just before spawning")
    parser.add_argument("--stages", default="", help="comma-separated CLI stage calls")
    parser.add_argument("--op-dim", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    import numpy as np
    import sectorcalc
    from sectorcalc import cli, config

    untraced_inv = np.linalg.inv
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer(args.op_dim)
        tracer.install()
    config.resolve_config(config.load_config(args.config))
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned

    calibrate = _calibration(np, untraced_inv)
    calibrations = [calibrate()]
    calls = []
    stages = [s for s in args.stages.split(",") if s]
    for stage in stages:
        argv_stage = [stage, "--config", args.config, "--out", args.out]
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.begin("stage." + stage)
        try:
            code = cli.main(argv_stage)
        except Exception:  # a crash is a failed stage, not a lost pass
            traceback.print_exc()
            code = -1
        finally:
            if tracer is not None:
                tracer.end()
        seconds = time.perf_counter() - t0
        calibrations.append(calibrate())
        calls.append({"stage": stage, "code": code, "seconds": seconds})

    result = {
        "setup_seconds": setup_s,
        "calls": calls,
        "calibrations": calibrations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": _environment(np),
        "sectorcalc_version": getattr(sectorcalc, "__version__", "unknown"),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
