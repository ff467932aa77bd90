"""sectorcalc benchmark: CLI stage times on three scenes, checked outputs.

    python3 perfbench/run.py --workload ref1d --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --report

Run from the root of a checkout.  Each pass starts a fresh worker process
(``worker.py``) with OPENBLAS_NUM_THREADS pinned; the worker imports
sectorcalc from ``src/`` and calls ``sectorcalc.cli.main`` once per stage.
One worker runs at a time (closed loop, one client).

``--trace 0`` runs passes until ``--seconds`` would be exceeded (at least
two, so reruns can be compared byte for byte) and reports the end-to-end
metrics as medians.  ``--trace 1`` runs one untraced and one traced pass
and reports the per-layer metrics of the traced pass plus the tracing
overhead.  ``--report`` runs every workload both ways, then ``ref1d``
traced at one BLAS thread, and prints a table.  The last line of standard
output is always the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

# The parent only checks outputs between passes; one BLAS thread keeps it from
# spinning on a core a worker needs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from checks import check_stage, digest_stage, make_oracle
from workloads import DEFAULT_SEED, WHY, make_workload

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(HERE, "out")

SETUP_PROBES_PER_PASS = 2
# Calibration kernel time (worker._calibration) on the reference host, a
# 2-vCPU x86-64 VM with OpenBLAS 0.3.31 at 2 threads.
CAL_REF_S = 0.0065
MIN_PASSES = 2
RUN_DEADLINE_S = 170.0

END_TO_END = [("setup_s", "s"), ("check_s", "s"), ("parametrix_s", "s"),
              ("total_s", "s"), ("peak_rss_mb", "MB")]

# (metric, unit, source): source is ("span", name, "inclusive_s" | "calls")
# or ("count", name) or a derived value computed in per_layer_metrics.
PER_LAYER = [
    ("config.resolve_s", "s", ("span", "config.resolve", "inclusive_s")),
    ("dsl.parse_s", "s", ("span", "dsl.parse", "inclusive_s")),
    ("dsl.diff_calls", "count", ("span", "dsl.diff", "calls")),
    ("grid.sample_s", "s", ("span", "grid.sample", "inclusive_s")),
    ("grid.sample_calls", "count", ("span", "grid.sample", "calls")),
    ("grid.spectral_norms_s", "s", ("span", "grid.spectral_norms", "inclusive_s")),
    ("grid.spectral_norms_calls", "count", ("span", "grid.spectral_norms", "calls")),
    ("hypo.eigenvalues_s", "s", ("span", "hypo.eigenvalues", "inclusive_s")),
    ("hypo.constants_s", "s", ("span", "hypo.constants", "inclusive_s")),
    ("quantop.quantize_s", "s", ("span", "quantop.quantize", "inclusive_s")),
    ("quantop.quantize_calls", "count", ("span", "quantop.quantize", "calls")),
    ("quantop.extract_s", "s", ("span", "quantop.extract", "inclusive_s")),
    ("quantop.extract_calls", "count", ("span", "quantop.extract", "calls")),
    ("parametrix.init_s", "s", ("span", "parametrix.init", "inclusive_s")),
    ("parametrix.assemble_bN_s", "s", ("span", "parametrix.assemble_bN", "inclusive_s")),
    ("parametrix.assemble_bN_calls", "count", ("span", "parametrix.assemble_bN", "calls")),
    ("parametrix.remainder_s", "s", ("span", "parametrix.remainder", "inclusive_s")),
    ("parametrix.remainder_calls", "count", ("span", "parametrix.remainder", "calls")),
    ("parametrix.resolvent_s", "s", ("span", "parametrix.resolvent", "inclusive_s")),
    ("parametrix.find_R_s", "s", ("span", "parametrix.find_R", "inclusive_s")),
    ("parametrix.sweep_s", "s", ("span", "parametrix.sweep", "inclusive_s")),
    ("parametrix.neumann_nodes", "count", ("count", "parametrix.neumann_nodes")),
    ("parametrix.dense_nodes", "count", ("count", "parametrix.dense_nodes")),
    ("parametrix.rescues", "count", ("count", "parametrix.rescues")),
    ("parametrix.neumann_terms", "count", ("count", "parametrix.neumann_terms")),
    ("funcalc.contour_s", "s", ("span", "funcalc.contour", "inclusive_s")),
    ("funcalc.contours", "count", ("span", "funcalc.contour", "calls")),
    ("funcalc.contour_nodes", "count", ("count", "funcalc.contour_nodes")),
    ("funcalc.oracle_s", "s", ("span", "funcalc.oracle", "inclusive_s")),
    ("funcalc.symbol_s", "s", ("span", "funcalc.symbol", "inclusive_s")),
    ("funcalc.ms_per_node", "ms", "ms_per_node"),
    ("funcalc.distinct_node_ratio", "ratio", "distinct_node_ratio"),
    ("densela.norm_s", "s", ("span", "densela.norm", "inclusive_s")),
    ("densela.norm_calls", "count", ("span", "densela.norm", "calls")),
    ("densela.norm_iters", "count", ("count", "densela.norm_iters")),
    ("linalg.lu_count", "count", ("count", "linalg.lu_count")),
    ("linalg.lu_s", "s", ("span", "linalg.lu", "inclusive_s")),
    ("linalg.lu_gflop", "Gflop", "lu_gflop"),
    ("linalg.svd_s", "s", ("span", "linalg.svd", "inclusive_s")),
    ("stage.check_s", "s", ("span", "stage.check", "inclusive_s")),
    ("stage.parametrix_s", "s", ("span", "stage.parametrix", "inclusive_s")),
    ("stage.calc_s", "s", ("span", "stage.calc", "inclusive_s")),
    ("stage.bip_s", "s", ("span", "stage.bip", "inclusive_s")),
    ("trace.overhead_s", "s", "overhead_s"),
]


def _usable_cpus():
    """CPUs this process may run on (os.cpu_count() can exceed them)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# BLAS threads of the measured workers: every CPU the run may use.
THREADS = _usable_cpus()


class Run:
    """One benchmark invocation: passes of fresh workers on one workload.

    Every worker result gains reference-speed times next to the wall times:
    a call's ``ref_s`` is its wall time scaled by CAL_REF_S over the mean of
    the calibrations taken just before and just after it.
    """

    def __init__(self, wl, threads):
        self.wl = wl
        self.threads = threads
        self.started = time.monotonic()
        self.dir = os.path.join(OUT_ROOT, f"{wl.name}-seed{wl.seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.config = os.path.join(self.dir, "run.cfg")
        with open(self.config, "w") as fh:
            fh.write(self.wl.config_text())
        self.oracle = make_oracle(self.wl)
        self.passes = []      # worker results of measured passes
        self.workers = []     # every worker result, set-up probes included
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self._reference = None

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def elapsed(self):
        return time.monotonic() - self.started

    def _spawn(self, tag, stages, trace):
        out = os.path.join(self.dir, tag)
        os.makedirs(out)
        result = os.path.join(out, "result.json")
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(self.threads)
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
               "--config", self.config, "--out", out, "--result", result,
               "--stages", ",".join(stages),
               "--op-dim", str(self.wl.op_dim), "--trace", str(int(trace))]
        timeout = max(5.0, RUN_DEADLINE_S - self.elapsed())
        with open(os.path.join(out, "worker.log"), "w") as log:
            spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
            try:
                code = subprocess.run(cmd + ["--spawned", repr(spawned)], env=env,
                                      stdout=log, stderr=subprocess.STDOUT,
                                      timeout=timeout, cwd=ROOT).returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        if code != 0 or not os.path.exists(result):
            with open(os.path.join(out, "worker.log")) as fh:
                tail = fh.read()[-2000:]
            raise RuntimeError(f"worker {tag} exited with {code}:\n{tail}")
        with open(result) as fh:
            res = json.load(fh)
        res["out"] = out
        cals = res["calibrations"]
        res["setup_ref_s"] = res["setup_seconds"] * CAL_REF_S / cals[0]
        for i, call in enumerate(res["calls"]):
            call["ref_s"] = call["seconds"] * CAL_REF_S / (0.5 * (cals[i] + cals[i + 1]))
        self.workers.append(res)
        return res

    def probe_setup(self, tag):
        for i in range(SETUP_PROBES_PER_PASS):
            self._spawn(f"{tag}-setup{i}", [], trace=False)

    def run_pass(self, tag, trace=False, repeat=False):
        stages = self.wl.schedule() if repeat else self.wl.stages
        res = self._spawn(tag, stages, trace)
        self._verify(res)
        self.passes.append(res)
        return res

    def _verify(self, res):
        """Exit codes, output checks and byte identity with the first pass."""
        digests = {}
        by_stage = {}
        for call in res["calls"]:
            by_stage.setdefault(call["stage"], []).append(call)
        for stage, calls in by_stage.items():
            self.attempted += len(calls)
            bad = [c for c in calls if c["code"] != 0]
            problems = [f"{stage}: exit code {c['code']}" for c in bad]
            if not bad:
                problems = check_stage(stage, res["out"], self.wl, self.oracle)
                digests[stage] = digest_stage(stage, res["out"])
                if self._reference is not None and \
                        digests[stage] != self._reference.get(stage):
                    problems.append(f"{stage}: reports differ from the first pass")
            if problems:
                self.failed += len(bad) if bad else 1
                self.problems.extend(problems)
        if self._reference is None:
            self._reference = digests

    @staticmethod
    def total_s(res, key="ref_s"):
        """Set-up plus the first call of every stage: what one CLI user waits."""
        firsts = {}
        for call in res["calls"]:
            firsts.setdefault(call["stage"], call[key])
        return res["setup_" + key] + sum(firsts.values())

    def summary(self, key):
        """Medians of one pass-level timing (``ref_s`` or wall ``seconds``)."""
        calls = {}
        for res in self.passes:
            for call in res["calls"]:
                calls.setdefault(call["stage"], []).append(call[key])
        setups = [res["setup_" + key] for res in self.workers]
        totals = [self.total_s(res, key) for res in self.passes]
        values = {"setup_s": statistics.median(setups), "total_s": statistics.median(totals)}
        samples = {"setup_s": len(setups), "total_s": len(totals)}
        for stage, times in calls.items():
            values[f"{stage}_s"] = statistics.median(times)
            samples[f"{stage}_s"] = len(times)
        return values, samples


def measure(workload, seed, seconds, threads):
    """Untraced passes until the time budget is used; end-to-end metrics."""
    run = Run(make_workload(workload, seed), threads)
    try:
        longest = 0.0
        while True:
            n = len(run.passes)
            if n >= MIN_PASSES and run.elapsed() + longest > seconds:
                break
            if run.elapsed() + longest > RUN_DEADLINE_S - 10.0:
                break
            t0 = time.monotonic()
            run.probe_setup(f"pass{n}")
            run.run_pass(f"pass{n}", repeat=True)
            longest = max(longest, time.monotonic() - t0)
        values, samples = run.summary("ref_s")
        values["peak_rss_mb"] = statistics.median(res["peak_rss_mb"] for res in run.passes)
        samples["peak_rss_mb"] = len(run.passes)
        wall, _ = run.summary("seconds")
        return run, values, samples, wall
    finally:
        run.close()


def trace(workload, seed, threads):
    """One untraced and one traced pass; per-layer metrics of the traced one."""
    run = Run(make_workload(workload, seed), threads)
    try:
        plain = run.run_pass("untraced")
        traced = run.run_pass("traced", trace=True)
        for res in (plain, traced):
            print(f"{os.path.basename(res['out'])} pass: total_s {run.total_s(res)!r} s at "
                  f"reference speed, wall {run.total_s(res, 'seconds')!r} s")
        overhead = run.total_s(traced) - run.total_s(plain)
        return run, per_layer_metrics(traced["trace"], overhead)
    finally:
        run.close()


def per_layer_metrics(summary, overhead_s):
    spans, counts = summary["spans"], summary["counts"]

    def span(name, field):
        return spans.get(name, {}).get(field, 0)

    integrated = counts.get("funcalc.integrated_nodes", 0)
    derived = {
        "ms_per_node": 1000.0 * (span("funcalc.oracle", "inclusive_s")
                                 + span("funcalc.symbol", "inclusive_s")) / integrated
        if integrated else 0.0,
        "distinct_node_ratio": counts["funcalc.distinct_pairs"] / integrated
        if integrated else 0.0,
        "lu_gflop": counts.get("linalg.lu_flop", 0) / 1e9,
        "overhead_s": overhead_s,
    }
    out = {}
    for name, unit, source in PER_LAYER:
        if isinstance(source, str):
            val = derived[source]
        elif source[0] == "span":
            val = span(source[1], source[2])
        else:
            val = counts.get(source[1], 0)
        out[name] = {"value": val, "unit": unit}
    return out, spans


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def _env_line(run):
    env = dict(run.workers[-1]["env"])
    env["pinned_threads"] = run.threads
    env["calibration_ms_median"] = 1000.0 * statistics.median(
        c for res in run.workers for c in res["calibrations"])
    env["calibration_ref_ms"] = 1000.0 * CAL_REF_S
    return "env " + json.dumps(env, sort_keys=True)


def _correct(run):
    return not run.problems and run.failed == 0


def _print_problems(run):
    for msg in run.problems:
        print(f"CHECK FAILED: {msg}", file=sys.stderr)


def _print_span_table(spans):
    print(f"{'span':28s} {'calls':>7s} {'inclusive_s':>12s} {'self_s':>10s}")
    for name in sorted(spans, key=lambda k: -spans[k]["self_s"]):
        rec = spans[name]
        print(f"{name:28s} {rec['calls']:7d} {rec['inclusive_s']:12.4f} {rec['self_s']:10.4f}")


def _print_end_to_end(values, samples, wall, run):
    """Every stage time, at reference speed and as wall time, with counts."""
    units = dict(END_TO_END)
    for name in list(units) + sorted(set(values) - set(units)):
        extra = f", wall {wall[name]!r} s" if name in wall else ""
        print(f"{name} = {values[name]!r} {units.get(name, 's')} "
              f"(median of {samples[name]}{extra})")
    print(f"failed_frac = {run.failed / max(1, run.attempted)!r} "
          f"({run.failed} of {run.attempted} stage calls)")


def cmd_single(args):
    if args.trace:
        run, (metrics, spans) = trace(args.workload, args.seed, THREADS)
        print(f"workload {args.workload} seed {args.seed}: one untraced and one traced "
              f"pass (why: {WHY[args.workload]})")
        print(_env_line(run))
        _print_span_table(spans)
        for name, rec in metrics.items():
            print(f"{name} = {rec['value']!r} {rec['unit']}")
    else:
        run, values, samples, wall = measure(args.workload, args.seed, args.seconds, THREADS)
        print(f"workload {args.workload} seed {args.seed}: {len(run.passes)} passes "
              f"(why: {WHY[args.workload]})")
        print(_env_line(run))
        _print_end_to_end(values, samples, wall, run)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    _print_problems(run)
    print(json.dumps({"correct": _correct(run), "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def cmd_report(args):
    """Every workload untraced and traced, then ref1d traced at one thread."""
    runs, layers = [], {}
    for name in WHY:
        run, values, samples, wall = measure(name, args.seed, args.seconds, THREADS)
        print(f"\n== {name}: {WHY[name]}")
        print(_env_line(run))
        _print_end_to_end(values, samples, wall, run)
        trun, (layers[name], _) = trace(name, args.seed, THREADS)
        for metric, rec in layers[name].items():
            print(f"  {metric:30s} {rec['value']:14.6g} {rec['unit']}")
        runs += [run, trun]
    single, (one_thread, _) = trace("ref1d", args.seed, 1)
    runs.append(single)
    print(f"\n== ref1d traced: {THREADS} BLAS threads vs 1 thread")
    for metric, rec in layers["ref1d"].items():
        if metric.startswith(("linalg.", "stage.")):
            print(f"  {metric:30s} {rec['value']:14.6g} {one_thread[metric]['value']:14.6g}"
                  f" {rec['unit']}")
    for run in runs:
        _print_problems(run)
    correct = all(_correct(run) for run in runs)
    print(json.dumps({"correct": correct, "attempted": sum(r.attempted for r in runs),
                      "failed": sum(r.failed for r in runs), "metrics": {}}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload, traced and untraced, plus a "
                             "one-thread traced ref1d")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sectorcalc", "__init__.py")):
        print(f"error: no sectorcalc sources under {ROOT}/src; run from a checkout",
              file=sys.stderr)
        return 2
    if args.report:
        return cmd_report(args)
    if args.workload is None:
        parser.error("--workload is required unless --report is given")
    try:
        return cmd_single(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
