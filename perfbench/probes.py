"""Measurement hooks installed from outside the program.

Both probes replace public functions of the `otcl` modules with timing
wrappers at run time; no program file is changed.

- `BatchClock` timestamps each entry into the call the harness makes once
  per stream batch (`dynamic_preservation_step`), times the `Reference`
  kernel there, and can stop the run at a given batch. This is the only hook
  of an untraced run.
- `Tracer` records one span per call into each module's public functions,
  plus work counters, keeps them in memory and reports per-layer self times
  at the end.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
import time
from collections import defaultdict

import numpy as np


class StopRun(Exception):
    """Raised by the batch clock to end a run at a chosen stream batch."""


def _otcl_modules():
    return [m for n, m in sys.modules.items() if n == "otcl" or n.startswith("otcl.")]


def patch_everywhere(func, wrapper) -> None:
    """Point every otcl module name bound to `func` at `wrapper`, so calls
    through `from .x import func` copies are caught as well."""
    for mod in _otcl_modules():
        for name, val in list(vars(mod).items()):
            if val is func:
                setattr(mod, name, wrapper)


class Reference:
    """A fixed piece of work owned by the benchmark, timed between batches.

    A shared host can change speed by tens of percent over minutes, which
    no amount of extra work per run averages out. Each untraced child times
    this kernel at every stream batch; run.py divides each batch interval by
    the local median of these times. The kernel mixes
    what the program does: interpreter-bound object churn, numpy calls on
    small arrays and one paper-shape matrix product. It never calls the
    program, so a change to the program does not change it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((20, 784))
        self.w = rng.standard_normal((784, 400)) * 0.05
        self.s = rng.standard_normal((10, 8))

    def __call__(self) -> float:
        start = time.perf_counter()
        np.maximum(self.x @ self.w, 0.0)
        for _ in range(40):
            y = np.maximum(self.s @ self.s.T, 0.0)
            y = np.exp(-y) + y.sum(axis=1, keepdims=True)
        table = {i: (i, [i, i + 1]) for i in range(400)}
        sum(v[1][0] for v in table.values())
        return time.perf_counter() - start


class BatchClock:
    """Entry timestamps of the once-per-batch harness call.

    At each entry the clock records `pre`, times the reference kernel (if
    any), records `post`, then lets the batch run; a batch interval is the
    next entry's `pre` minus this entry's `post`.
    """

    def __init__(self, harness, stop_at_batch: int | None = None, reference=None):
        self.pre: list[float] = []
        self.post: list[float] = []
        self.reference_s: list[float] = []
        self.first_batch: str | None = None
        self.extractor = None  # the run's FeatureExtractor, for a stopped run
        inner = harness.dynamic_preservation_step

        @functools.wraps(inner)
        def clocked(new_batch, replay_batch, fe, *args, **kwargs):
            self.pre.append(time.perf_counter())
            if len(self.pre) == 1:
                digest = hashlib.sha256(new_batch.features.tobytes())
                digest.update(new_batch.labels.tobytes())
                self.first_batch = digest.hexdigest()
            self.extractor = fe
            if reference is not None:
                self.reference_s.append(reference())
            self.post.append(time.perf_counter())
            if len(self.pre) == stop_at_batch:
                raise StopRun
            return inner(new_batch, replay_batch, fe, *args, **kwargs)

        harness.dynamic_preservation_step = clocked


# Self-time metrics, one per traced layer boundary. The harness root span
# (the call into run_experiment) reports as harness.self_s.
SPAN_METRICS = (
    "data.load_s",
    "data.stream_s",
    "model.infer_s",
    "model.checkpoint_s",
    "losses.preserve_s",
    "mixture.otmm_s",
    "mixture.phi_ascent_s",
    "mixture.mix_descent_s",
    "autodiff.backward_s",
    "replay.sample_s",
    "replay.insert_s",
    "replay.rebalance_s",
    "harness.eval_s",
    "harness.self_s",
)


def _nonzero_grads(params) -> int:
    return sum(int(np.count_nonzero(t.grad)) for t in params.tensors())


class Tracer:
    """Spans at module boundaries, self times and work counters."""

    def __init__(self):
        self.spans: list[list] = []  # [metric, start, end, parent index]
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.memory = None  # the run's ReplayMemory, seen at insertion
        self._in_step = False

    # ---------------------------------------------------------- recording

    def call(self, metric: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([metric, 0.0, 0.0, self._open[-1] if self._open else -1])
        self._open.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    def wrap(self, metric: str | None, fn, count=None):
        """`fn` timed as a `metric` span (none if `metric` is None);
        `count(args, result)` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if metric is None:
                out = fn(*args, **kwargs)
            else:
                out = self.call(metric, fn, *args, **kwargs)
            if count is not None:
                count(args, out)
            return out

        return traced

    # ---------------------------------------------------------- installing

    def install(self) -> None:
        from otcl import autodiff, data, harness, losses, mixture, model, replay

        c = self.counts

        def rows_loaded(args, out):
            pairs = out if isinstance(out, tuple) else (out,)
            c["data.rows_loaded"] += sum(len(p) for p in pairs)

        def infer_rows(args, out):
            c["model.infer_rows"] += out.shape[0]

        def preserve(args, out):
            c["losses.preserve_calls"] += 1

        def joint(args, out):
            c["losses.joint_rows"] += len(out)

        def otmm(args, out):
            by_class = args[0]
            c["mixture.class_updates"] += len(out)
            c["mixture.rows"] += sum(len(v) for v in by_class.values())

        def backward(args, out):
            c["autodiff.backward_calls"] += 1

        def insert(args, out):
            self.memory = args[0]

        def evaluated(args, out):
            c["harness.eval_rows"] += len(args[0])

        for fn, metric, count in (
            (data.load_idx, "data.load_s", rows_loaded),
            (data.gen_synthetic, "data.load_s", rows_loaded),
            (data.make_split_stream, "data.stream_s", None),
            (model.save_checkpoint, "model.checkpoint_s", None),
            (losses.dynamic_preservation_step, "losses.preserve_s", preserve),
            (mixture.otmm_step, "mixture.otmm_s", otmm),
            (mixture.update_phi, "mixture.phi_ascent_s", None),
            (mixture.update_mixture, "mixture.mix_descent_s", None),
            (autodiff.backward, "autodiff.backward_s", backward),
            (replay.sample_replay_batch, "replay.sample_s", None),
            (replay.merge_class_batches, "replay.sample_s", None),
            (replay.insert_with_centroids, "replay.insert_s", insert),
            (replay.insert_random, "replay.insert_s", insert),
            (replay.rebalance_quotas, "replay.rebalance_s", None),
            (harness.evaluate_task, "harness.eval_s", evaluated),
            (losses.join_batches, None, joint),
        ):
            patch_everywhere(fn, self.wrap(metric, fn, count))

        model.FeatureExtractor.features_np = self.wrap(
            "model.infer_s", model.FeatureExtractor.features_np, infer_rows
        )

        tensor_init = autodiff.Tensor.__init__

        def counted_init(t, *args, **kwargs):
            c["autodiff.tensors"] += 1
            tensor_init(t, *args, **kwargs)

        autodiff.Tensor.__init__ = counted_init

        step, zero_grad = autodiff.ParamSet.step, autodiff.ParamSet.zero_grad

        def counted_step(ps, lr):
            c["autodiff.grad_applied"] += _nonzero_grads(ps)
            self._in_step = True
            try:
                step(ps, lr)
            finally:
                self._in_step = False

        def counted_zero_grad(ps):
            if not self._in_step:
                c["autodiff.grad_discarded"] += _nonzero_grads(ps)
            zero_grad(ps)

        autodiff.ParamSet.step = counted_step
        autodiff.ParamSet.zero_grad = counted_zero_grad

    # ---------------------------------------------------------- reporting

    def self_times(self) -> dict[str, float]:
        """Per-metric self time: span duration minus its children's."""
        covered = [0.0] * len(self.spans)
        for metric, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out = {m: 0.0 for m in SPAN_METRICS}
        for (metric, start, end, _), cov in zip(self.spans, covered):
            out[metric] += end - start - cov
        return out

    def report(self) -> dict[str, float]:
        c = self.counts
        applied, discarded = c["autodiff.grad_applied"], c["autodiff.grad_discarded"]
        out = self.self_times()
        for key in (
            "data.rows_loaded", "model.infer_rows", "losses.preserve_calls",
            "losses.joint_rows", "mixture.class_updates", "mixture.rows",
            "autodiff.backward_calls", "autodiff.tensors", "harness.eval_rows",
        ):
            out[key] = int(c[key])
        out["autodiff.grad_applied_share"] = (
            applied / (applied + discarded) if applied + discarded else 0.0
        )
        mem = self.memory
        out["replay.occupancy"] = mem.total() / mem.capacity if mem is not None else 0.0
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for metric, start, end, parent in self.spans:
                fh.write(json.dumps([metric, start, end, parent]) + "\n")
