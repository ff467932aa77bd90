"""Fast self-test of the benchmark on a P=16 reference scene (dimension 15).

    python3 perfbench/selftest.py

Shows three things, and exits non-zero if any fails:

1. a traced pass writes reports byte-identical to an untraced pass;
2. the tracer's counts equal counts made independently of it: contour nodes
   against ``len(contour)`` of contours rebuilt here, LU solves against
   contour sizes plus the dense sweep rows, resolvent methods against the
   sweep report;
3. the output checks fail on deliberately corrupted reports;

and that ``BENCHMARK.json`` names the metrics and workloads ``run.py`` reports.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys

import numpy as np

from checks import check_stage, digest_stage
from run import END_TO_END, PER_LAYER, ROOT, Run
from workloads import WHY, make_workload

sys.path.insert(0, os.path.join(ROOT, "src"))


def small_workload():
    wl = make_workload("ref1d")
    wl.name = "selftest"
    wl.values["grid.points"] = "16"
    wl.values["bip.steps"] = "3"
    wl.bip_ts = [float(t) for t in np.linspace(-5.0, 5.0, 3)]
    return wl


def independent_counts(wl, sweep_csv):
    """Counts rebuilt from the library and the reports, not from the tracer."""
    from sectorcalc import Sector, build_contour, imaginary_power_regularized, power_quotient
    sector = Sector(theta=float(wl.values["sector.theta"]))
    calc_nodes = []
    for s in wl.functions:
        f = power_quotient(s)
        f.validate(sector)
        calc_nodes.append(len(build_contour(sector, d=f.d, tol=float(wl.values["calc.quad_tol"]),
                                            c_f=f.c_f)))
    bip_nodes = []
    for t in wl.bip_ts:
        f = imaginary_power_regularized(t, int(wl.values["bip.n_reg"]))
        f.ensure_cf(sector)
        bip_nodes.append(len(build_contour(sector, d=1.0, tol=float(wl.values["bip.quad_tol"]),
                                           c_f=f.c_f)))
    with open(sweep_csv, newline="") as fh:
        methods = [row[9] for row in csv.reader(fh) if row and row[0] not in ("lambda_re", "slope")]
    dense = methods.count("dense")
    rescues = methods.count("neumann->dense")
    return {
        "funcalc.contour_nodes": sum(calc_nodes) + sum(bip_nodes),
        # calc integrates every node twice (symbol path and oracle), bip once;
        # a dense sweep resolvent is one refined inverse, i.e. two LU solves.
        "linalg.lu_count": 2 * sum(calc_nodes) + sum(bip_nodes) + 2 * (dense + rescues),
        "parametrix.neumann_nodes": methods.count("neumann"),
        "parametrix.dense_nodes": dense,
        "parametrix.rescues": rescues,
    }


def corrupt(src_dir, dst_dir, name, edit):
    """Copy a pass's reports and apply ``edit(rows)`` to one CSV."""
    shutil.copytree(src_dir, dst_dir)
    path = os.path.join(dst_dir, name)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def scale_cells(row, cols, factor):
    def edit(rows):
        for col in cols:
            rows[row][col] = repr(float(rows[row][col]) * factor)
    return edit


def set_residual(rows):
    for row in rows[1:]:
        if row[9]:
            row[8] = repr(1e-9)
            return


def no_edit(rows):
    pass


# (stage, report, edit, label, should the checks reject it)
CORRUPTIONS = [
    ("calc", "fcalc_report.csv", no_edit, "unedited copy", False),
    # sup_norm scaled too, so the ratio column stays consistent and only the
    # eigen-oracle comparison can catch it
    ("calc", "fcalc_report.csv", scale_cells(1, (1, 2), 1.01), "op_norm_oracle off by 1%",
     True),
    ("bip", "imaginary_powers.csv", scale_cells(2, (1,), 1.01), "bip op_norm off by 1%", True),
    ("parametrix", "parametrix_sweep.csv", set_residual, "sweep residual 1e-9", True),
    ("check", "hypo_report.csv", lambda rows: rows[0].pop(), "hypo_report column dropped",
     True),
]


def manifest_matches():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        doc = json.load(fh)
    return ([(m["name"], m["unit"]) for m in doc["end_to_end"]] == END_TO_END
            and [(m["name"], m["unit"]) for m in doc["per_layer"]]
            == [(name, unit) for name, unit, _ in PER_LAYER]
            and [w["name"] for w in doc["workloads"]] == list(WHY))


def main():
    failures = []

    def verdict(ok, text):
        print(("PASS " if ok else "FAIL ") + text)
        if not ok:
            failures.append(text)

    verdict(manifest_matches(), "BENCHMARK.json lists the workloads and metrics run.py reports")

    wl = small_workload()
    run = Run(wl, threads=1)
    try:
        plain = run.run_pass("untraced")
        traced = run.run_pass("traced", trace=True)
        verdict(not run.problems,
                "untraced and traced reports pass the checks and are byte-identical"
                + "".join(f"\n    {p}" for p in run.problems))

        counts = traced["trace"]["counts"]
        expected = independent_counts(wl, os.path.join(plain["out"], "parametrix_sweep.csv"))
        for name, want in expected.items():
            got = counts.get(name, 0)
            verdict(got == want, f"{name}: tracer {got} == independent {want}")

        for i, (stage, name, edit, label, reject) in enumerate(CORRUPTIONS):
            dst = os.path.join(run.dir, f"corrupt{i}")
            corrupt(plain["out"], dst, name, edit)
            problems = check_stage(stage, dst, wl, run.oracle)
            verdict(bool(problems) == reject,
                    f"{label}: {'rejected' if problems else 'accepted'}"
                    + (f" ({problems[0]})" if problems else ""))
        dst = os.path.join(run.dir, "corrupt_digits")
        corrupt(plain["out"], dst, "fcalc_report.csv",
                scale_cells(1, (1,), 1.0 + 1e-12))
        verdict(digest_stage("calc", dst) != digest_stage("calc", plain["out"]),
                "a last-digit change breaks byte identity")
    finally:
        run.close()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
