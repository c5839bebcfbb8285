#!/usr/bin/env python3
"""Pinned benchmark of the online learner.

    python3 perfbench/run.py --workload ring-k4 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload seed draws the inputs (the
synthetic spec or the MNIST-shaped stand-in IDX files); each measured run is
a fresh child process that calls `otcl.harness.run_experiment` with a
throwaway output directory, one child at a time, with the BLAS thread count
pinned. A run repeats the same seed and settings at least twice and checks
that the accuracy matrices agree bit for bit.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json; `--trace 1`
traces the first child at every module boundary, repeats it untraced, and
reports the per-layer metrics. Every metric is printed as `name value unit`;
the last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Machine details and the
per-child results go to `.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # at most nproc anywhere; the thread count changes results
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")  # per-run records and traced spans

SETUP_REPEATS = 2  # extra children stopped at the first batch, for setup_s
MIN_RUNS = 2  # a run and its repeat, for the determinism check
DEADLINE_S = 170.0  # no child may still be running after this
# End-to-end timings are reported at the host speed where probes.Reference
# takes this long; LOCAL is the half-width, in batches, of the window whose
# median reference time scales each batch.
REFERENCE_MS = 1.0
LOCAL = 10
EXTRA_UNITS = {"batch_samples": "count", "reference_ms": "ms"}  # printed only


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Names and units of the end-to-end and per-layer metrics, as
    BENCHMARK.json at the checkout root lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[k]} for k in ("end_to_end", "per_layer"))


class Run:
    """The children of one benchmark run and what they reported."""

    def __init__(self, workload, seed: int, tag: str, work: str):
        self.workload = workload
        self.seed = seed
        self.tag = tag
        self.work = work
        self.data_dir = os.path.join(work, "data")
        self.t0 = time.perf_counter()
        self.children: list[dict] = []  # job plus result, in launch order
        self.failures: list[str] = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def launch(
        self, kind: str, stop_at: int | None, trace: bool = False, reference: bool = True
    ) -> None:
        n = len(self.children)
        job = {
            "src": SRC,
            "workload": self.workload.name,
            "seed": self.seed,
            "data_dir": self.data_dir,
            "out_dir": os.path.join(self.work, f"out{n}"),
            "stop_at_batch": stop_at,
            "trace": trace,
            "reference": reference,
            "result": os.path.join(self.work, f"result{n}.json"),
            "spans": os.path.join(OUT_DIR, f"{self.tag}.spans{n}.jsonl"),
        }
        job_path = os.path.join(self.work, f"job{n}.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        child = {"kind": kind, "trace": trace, "job": job, "result": None}
        self.children.append(child)
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), job_path],
                cwd=ROOT, capture_output=True, text=True,
                timeout=max(1.0, DEADLINE_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            self.fail(child, "timed out")
            return
        if proc.returncode == 0 and os.path.exists(job["result"]):
            with open(job["result"]) as fh:
                child["result"] = json.load(fh)
        if child["result"] is None:
            sys.stderr.write(proc.stderr[-4000:])
            self.fail(child, f"exit code {proc.returncode}")

    def results(self, *kinds: str) -> list[dict]:
        """Results of the children of these kinds that ran to the end."""
        return [c["result"] for c in self.children if c["result"] and c["kind"] in kinds]

    def fail(self, child: dict, why: str) -> None:
        child["failed"] = why
        self.failures.append(f"child {self.children.index(child)} ({child['kind']}): {why}")


# ------------------------------------------------------------- checking


def check_matrix(rows) -> str | None:
    """Complete lower triangle, finite, inside [0, 1]; None if it passes."""
    m = np.array([[np.nan if v is None else v for v in r] for r in rows])
    lower = m[np.tril_indices_from(m)]
    if not np.isfinite(lower).all():
        return "accuracy matrix incomplete or not finite"
    if ((lower < 0) | (lower > 1)).any():
        return "accuracy outside [0, 1]"
    if not np.isnan(m[np.triu_indices_from(m, k=1)]).all():
        return "accuracy recorded above the diagonal"
    return None


def check_outputs(run: Run) -> None:
    """Per-child output checks, then agreement with the first child."""
    from probes import SPAN_METRICS

    ref_batch = ref_matrix = ref_acc = None
    for child in run.children:
        res = child["result"]
        if res is None:
            continue
        problem = None
        if ref_batch is None:
            ref_batch = res["first_batch"]
        elif res["first_batch"] != ref_batch:
            problem = "first stream batch differs from the first child's"
        if child["kind"] == "full" and problem is None:
            problem = check_matrix(res["matrix"])
            if problem is None:
                if ref_matrix is None:
                    ref_matrix = res["matrix"]
                elif res["matrix"] != ref_matrix:
                    problem = "accuracy matrix differs from the first run of this seed"
        if child["kind"] == "partial" and problem is None:
            acc = res["task1_accuracy"]
            if not 0.0 <= acc <= 1.0:
                problem = "task-1 accuracy outside [0, 1]"
            elif ref_acc is None:
                ref_acc = acc
            elif acc != ref_acc:
                problem = "task-1 accuracy differs from the first run of this seed"
        if child["trace"] and problem is None:
            spans, wall = sum(res["trace"][k] for k in SPAN_METRICS), res["trace_root_s"]
            if abs(spans - wall) > 1e-6 * max(1.0, wall):
                problem = f"self times sum to {spans:.6f} s, traced wall {wall:.6f} s"
        if problem is not None:
            run.fail(child, problem)


# ------------------------------------------------------------- metrics


def accuracy_of(res: dict) -> tuple[float, float]:
    """Final average accuracy A_T and forgetting F_T of one child."""
    from otcl.harness import AccMatrix, avg_accuracy, avg_forgetting

    if "task1_accuracy" in res:  # stopped inside task 1: nothing to forget
        return res["task1_accuracy"], 0.0
    rows = res["matrix"]
    acc = AccMatrix(len(rows))
    acc.values[...] = [[np.nan if v is None else v for v in r] for r in rows]
    T = acc.num_tasks
    return avg_accuracy(acc, T), avg_forgetting(acc, T) if T >= 2 else 0.0


def timings(res: dict) -> dict:
    """Batch intervals, set-up and wall time of one child, as measured
    (`*_raw`) and scaled to the reference speed: each span is multiplied by
    REFERENCE_MS over the median reference time around it. Reference calls
    themselves are left out of both."""
    pre, post = np.array(res["pre_s"]), np.array(res["post_s"])
    ref = np.array(res["reference_s"])
    local = np.array([np.median(ref[max(0, i - LOCAL): i + LOCAL + 1]) for i in range(ref.size)])
    scale = REFERENCE_MS * 1e-3 / local
    setup_scale = REFERENCE_MS * 1e-3 / np.median(np.r_[res["reference_before_s"], ref[:1]])
    batch_s = pre[1:] - post[:-1]
    setup = pre[0]
    tail = 0.0 if res["stopped"] else res["wall_s"] - post[-1]
    return {
        "batch_ms": batch_s * scale[:-1] * 1e3,
        "batch_ms_raw": batch_s * 1e3,
        "setup_s": setup * setup_scale,
        "setup_s_raw": setup,
        "wall_s": setup * setup_scale + (batch_s * scale[:-1]).sum() + tail * scale[-1],
        "wall_s_raw": setup + batch_s.sum() + tail,
    }


def end_to_end(run: Run) -> dict[str, float]:
    """The end-to-end metrics, then their unscaled values and the extras."""
    trained = run.results("full", "partial")
    per_child = [timings(r) for r in trained]
    setups = [timings(r) for r in run.results("setup")] + per_child
    out: dict[str, float] = {}
    for suffix in ("", "_raw"):
        batch_ms = np.concatenate([t["batch_ms" + suffix] for t in per_child])
        p50, p90 = np.percentile(batch_ms, [50, 90])
        out["batch_ms_p50" + suffix] = float(p50)
        out["batch_ms_p90" + suffix] = float(p90)
        out["seed_wall_s" + suffix] = float(np.median([t["wall_s" + suffix] for t in per_child]))
        out["setup_s" + suffix] = float(np.median([t["setup_s" + suffix] for t in setups]))
        if not suffix:
            out["peak_rss_mb"] = float(np.median([r["peak_rss_mb"] for r in trained]))
    out["batch_samples"] = int(batch_ms.size)
    references = np.concatenate([r["reference_s"] for r in trained])
    out["reference_ms"] = float(np.median(references)) * 1e3
    out["avg_accuracy"], out["avg_forgetting"] = accuracy_of(trained[0])
    return out


def per_layer(run: Run) -> dict[str, float]:
    traced, repeat = run.results("full", "partial")
    out = dict(traced["trace"])
    out["trace.overhead_s"] = traced["wall_s"] - repeat["wall_s"]
    out["avg_accuracy"], out["avg_forgetting"] = accuracy_of(traced)
    return out


# ------------------------------------------------------------- machine


def machine() -> dict:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "otcl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "platform": platform.platform(),
    }


# ------------------------------------------------------------- main


def measure(run: Run, seconds: float, trace: bool) -> None:
    w = run.workload
    kind = "full" if w.stop_at_batch is None else "partial"
    if trace:
        run.launch(kind, w.stop_at_batch, trace=True, reference=False)
        run.launch(kind, w.stop_at_batch, reference=False)
        return
    start = run.elapsed()
    for _ in range(SETUP_REPEATS):
        run.launch("setup", 1)
    walls: list[float] = []
    while True:
        t = run.elapsed()
        run.launch(kind, w.stop_at_batch)
        walls.append(run.elapsed() - t)
        if len(walls) >= MIN_RUNS and (
            run.elapsed() - start + np.mean(walls) > seconds
            or run.elapsed() + max(walls) > DEADLINE_S
        ):
            break


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "otcl", "harness.py")):
        print(f"no program source at {SRC}/otcl: run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]

    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".perfbench_work", f"{tag}-{os.getpid()}")
    os.makedirs(work)
    os.makedirs(OUT_DIR, exist_ok=True)
    run = Run(w, args.seed, tag, work)
    try:
        workloads.write_inputs(w, args.seed, run.data_dir)
        measure(run, args.seconds, bool(args.trace))
        check_outputs(run)
        complete = run.results("full", "partial")
        if not complete or (args.trace and len(complete) < 2):
            print("too few children ran to the end:\n  " + "\n  ".join(run.failures),
                  file=sys.stderr)
            return 1
        end_units, layer_units = metric_units()
        if args.trace:
            values = per_layer(run)
            units = layer_units
        else:
            values = end_to_end(run)
            units = end_units
        values["failed_share"] = len(run.failures) / len(run.children)
        record = {
            "workload": w.name, "seed": args.seed, "trace": args.trace,
            "machine": machine(), "metrics": values, "failures": run.failures,
            "children": [
                {k: c[k] for k in ("kind", "trace", "result") if k in c}
                | {"failed": c.get("failed")} for c in run.children
            ],
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {w.name} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in record["machine"].items()))
    for problem in run.failures:
        print(f"# FAILED {problem}")
    for name, value in values.items():
        base = name.removesuffix("_raw")
        print(f"{name} {value} {(end_units | layer_units | EXTRA_UNITS)[base]}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": len(run.children),
        "failed": len(run.failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
