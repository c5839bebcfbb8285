#!/usr/bin/env python3
"""Bytewise parity of two source trees on the benchmark's workloads.

    python3 tools/compare_trees.py PARENT_TREE CHANGE_TREE ring-k4:1-20,37 paper-m1500:1-3

Each workload argument is a `perfbench/workloads.py` workload name and its
input seeds (`a-b` ranges and single seeds, comma-separated). For every
(workload, seed), the inputs are written once, with this checkout's
`workloads.write_inputs`; then each tree's `src` runs them in a fresh
process, with the BLAS thread variables at 1 before numpy loads, through
`workloads.run_config` and `harness.run_experiment`, to the end of the
stream (a workload's `stop_at_batch` is the benchmark's and is not used).

Compared, byte for byte: `metrics.csv`, every `curve_seed*.csv`, every
checkpoint file, and `summary.json` less `wall_clock_seconds` and the
config's `out_dir` and `data_dir`; for a run that stops on a
`NumericsError`, its (task, batch, class_id, phase, param). A tree whose
run ends on any other error counts as a difference.

Prints one line per (workload, seed), `EQUAL` or what differed, and exits 1
on any difference. Neither tree is written to; the inputs and outputs go
to a temporary directory (`--work` keeps them).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import zipfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ERROR_FIELDS = ("task", "batch", "class_id", "phase", "param")
RESULT = "result.json"  # the child's record, beside (not in) the run's outputs


def parse_seeds(text: str) -> list[int]:
    """`1-3,7` -> [1, 2, 3, 7]."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_child(src: str, workload: str, seed: int, data_dir: str, run_dir: str) -> None:
    """In a fresh process: run `workload` on the inputs in `data_dir` with
    the `otcl` of `src`, writing its outputs to `run_dir/out` and the
    NumericsError fields, if it stopped on one, to `run_dir/result.json`."""
    src = os.path.abspath(src)
    sys.path[:0] = [src, PERFBENCH]
    import otcl
    from otcl import harness
    from otcl.autodiff import NumericsError

    import workloads

    if not os.path.abspath(otcl.__file__).startswith(src + os.sep):
        raise ImportError(f"otcl imported from {otcl.__file__}, not from {src}")
    w = workloads.WORKLOADS[workload]
    cfg = workloads.run_config(w, seed, data_dir, os.path.join(run_dir, "out"))
    error = None
    try:
        harness.run_experiment(cfg)
    except NumericsError as err:
        error = {f: getattr(err, f) for f in ERROR_FIELDS}
    with open(os.path.join(run_dir, RESULT), "w") as fh:
        json.dump({"error": error}, fh)


def _summary(path: str) -> dict:
    with open(path) as fh:
        summary = json.load(fh)
    summary.pop("wall_clock_seconds", None)
    for key in ("out_dir", "data_dir"):
        summary.get("config", {}).pop(key, None)
    return summary


def _npz_members(a: str, b: str) -> list[str]:
    """The members of two zip files whose bytes differ, or that only one has."""
    with zipfile.ZipFile(a) as za, zipfile.ZipFile(b) as zb:
        names = sorted(set(za.namelist()) | set(zb.namelist()))
        return [
            n for n in names
            if n not in za.namelist() or n not in zb.namelist() or za.read(n) != zb.read(n)
        ]


def compare_runs(run_a: str, run_b: str) -> list[str]:
    """What differs between two run directories written by `run_child`:
    empty if everything compared is byte for byte equal."""
    diffs = []
    with open(os.path.join(run_a, RESULT)) as fa, open(os.path.join(run_b, RESULT)) as fb:
        err_a, err_b = json.load(fa)["error"], json.load(fb)["error"]
    if err_a != err_b:
        diffs.append(f"error {err_a} != {err_b}")
    out_a, out_b = os.path.join(run_a, "out"), os.path.join(run_b, "out")
    names_a, names_b = set(os.listdir(out_a)), set(os.listdir(out_b))
    diffs += [f"only in A: {n}" for n in sorted(names_a - names_b)]
    diffs += [f"only in B: {n}" for n in sorted(names_b - names_a)]
    for name in sorted(names_a & names_b):
        a, b = os.path.join(out_a, name), os.path.join(out_b, name)
        if name == "summary.json":
            if _summary(a) != _summary(b):
                diffs.append(name)
            continue
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() == fb.read():
                continue
        members = _npz_members(a, b) if name.endswith(".npz") else []
        if members:
            more = f" and {len(members) - 3} more" if len(members) > 3 else ""
            diffs.append(f"{name}: {', '.join(members[:3])}{more}")
        else:
            diffs.append(name)
    return diffs


def compare(tree_a: str, tree_b: str, workload: str, seed: int, work: str) -> str:
    """Write the inputs of (workload, seed) under `work`, run both trees on
    them, and return the report line's verdict: what differed, or `EQUAL`
    and where both runs stopped, if they did."""
    if PERFBENCH not in sys.path:
        sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]
    import workloads

    base = os.path.join(work, f"{workload}_{seed}")
    data_dir = os.path.join(base, "data")
    os.makedirs(data_dir)
    workloads.write_inputs(workloads.WORKLOADS[workload], seed, data_dir)
    env = os.environ | dict.fromkeys(BLAS_VARS, "1")
    diffs = []
    for tag, tree in (("A", tree_a), ("B", tree_b)):
        run_dir = os.path.join(base, tag)
        os.makedirs(run_dir)
        cmd = [sys.executable, os.path.abspath(__file__), "--child",
               os.path.join(tree, "src"), workload, str(seed), data_dir, run_dir]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if done.returncode:
            last = (done.stderr.strip().splitlines() or ["no output"])[-1]
            diffs.append(f"{tag} failed: {last}")
    diffs = diffs or compare_runs(os.path.join(base, "A"), os.path.join(base, "B"))
    if diffs:
        return "; ".join(diffs)
    with open(os.path.join(base, "A", RESULT)) as fh:
        error = json.load(fh)["error"]
    if error is None:
        return "EQUAL"
    return "EQUAL, both stopped: task {task} batch {batch} class {class_id} {phase} {param}".format(**error)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["--child"]:
        src, workload, seed, data_dir, run_dir = argv[1:]
        run_child(src, workload, int(seed), data_dir, run_dir)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", help="the first source tree (a checkout root)")
    parser.add_argument("tree_b", help="the second source tree")
    parser.add_argument("workloads", nargs="+", metavar="WORKLOAD:SEEDS",
                        help="a perfbench workload and its input seeds, e.g. ring-k4:1-20,37")
    parser.add_argument("--work", help="keep inputs and outputs in this new directory")
    args = parser.parse_args(argv)
    work = args.work or tempfile.mkdtemp(prefix="compare_trees_")
    os.makedirs(work, exist_ok=True)
    failed = False
    try:
        for spec in args.workloads:
            workload, _, seeds = spec.partition(":")
            for seed in parse_seeds(seeds):
                verdict = compare(args.tree_a, args.tree_b, workload, seed, work)
                failed = failed or not verdict.startswith("EQUAL")
                print(f"{workload} {seed}: {verdict}", flush=True)
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
