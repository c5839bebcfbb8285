"""One measured run of the program, in a fresh process.

    python3 perfbench/child.py JOB.json

The job names the workload, its seed, the generated inputs, a throwaway
output directory and where to write the result. The child imports the
program from the checkout's `src`, installs the probes, calls the normal
entry point `otcl.harness.run_experiment` once and writes timings, peak
memory and the accuracy matrix as JSON. `run.py` starts it; it is not meant
to be run by hand.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback

REFERENCE_BEFORE = 21  # reference timings before the run, to scale setup_s


def _matrix_rows(values) -> list[list[float | None]]:
    return [[None if v != v else float(v) for v in row] for row in values.tolist()]


def main(job_path: str) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    src = os.path.abspath(job["src"])
    sys.path.insert(0, src)

    import numpy as np

    import otcl
    from otcl import harness
    from otcl.data import Batch

    if not os.path.abspath(otcl.__file__).startswith(src + os.sep):
        raise ImportError(f"otcl imported from {otcl.__file__}, not from {src}")

    import probes
    import workloads

    w = workloads.WORKLOADS[job["workload"]]
    cfg = workloads.run_config(w, job["seed"], job["data_dir"], job["out_dir"])
    stop_at = job["stop_at_batch"]

    tracer = None
    if job["trace"]:
        tracer = probes.Tracer()
        tracer.install()

    # a run stopped mid-task is scored on task 1 with the state it reached
    seen: dict = {}
    if stop_at is not None and stop_at > 1:
        load, step = harness.load_mnist_dir, harness.otmm_step

        def keep_test(*args):
            out = load(*args)
            seen["test"] = out[1]
            return out

        def keep_state(by_class, state, *args):
            seen["state"] = state
            return step(by_class, state, *args)

        harness.load_mnist_dir, harness.otmm_step = keep_test, keep_state

    # traced children skip the reference kernel, so that its time does not
    # land in the harness span and the untraced repeat does the same work
    reference = probes.Reference() if job["reference"] else None
    clock = probes.BatchClock(harness, stop_at, reference)
    result: dict = {"ok": False, "stopped": False}
    try:
        result["reference_before_s"] = (
            [reference() for _ in range(REFERENCE_BEFORE)] if reference else []
        )
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                matrices, _ = tracer.call("harness.self_s", harness.run_experiment, cfg)
            else:
                matrices, _ = harness.run_experiment(cfg)
            result["matrix"] = _matrix_rows(matrices[cfg.seeds[0]].values)
        except probes.StopRun:
            result["stopped"] = True
        t1 = time.perf_counter()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["wall_s"] = t1 - t0
        result["pre_s"] = [t - t0 for t in clock.pre]
        result["post_s"] = [t - t0 for t in clock.post]
        result["reference_s"] = clock.reference_s
        result["first_batch"] = clock.first_batch
        if tracer is not None:
            result["trace"] = tracer.report()
            root = tracer.spans[0]
            result["trace_root_s"] = root[2] - root[1]
            tracer.write_spans(job["spans"])
        if seen:
            task1 = [s for s in seen.pop("test") if s.label < cfg.classes_per_task]
            test = Batch(
                np.stack([s.features for s in task1]),
                np.asarray([s.label for s in task1], dtype=np.int64),
            )
            result["task1_accuracy"] = harness.evaluate_task(
                test, clock.extractor, seen["state"].mixtures
            )
        result["ok"] = True
    except Exception as err:  # reported to the parent, which counts the failure
        traceback.print_exc()
        result["error"] = repr(err)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
