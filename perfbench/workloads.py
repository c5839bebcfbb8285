"""The pinned workloads: inputs drawn from the workload seed, and the run
configuration handed to `otcl.harness.run_experiment`.

Every workload streams with run seed 0; the workload seed only draws the
inputs (the synthetic spec's sample seed, or the stand-in images). The
program sees nothing but the generated IDX files or the synthetic spec.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

A05_SAMPLES_PER_CLASS = 400  # 320 stream batches of 10
# The paper-shape workloads pin lr_theta=0.01, as the ROADMAP baseline did:
# on the stand-in the default 0.05 raises NumericsError('alpha') partway
# through the stream (ROADMAP open item 1).
PAPER_LR_THETA = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    standin_rows: tuple[int, int] | None  # (train, test) rows; None for synthetic
    memory_size: int = 1500
    eval_every_batch: bool = False
    # Stop the run at the entry of this stream batch (1-based); None runs the
    # whole stream. Used where a full pass does not fit in one run.
    stop_at_batch: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ring-k4", None, memory_size=100),
        Workload("paper-m1500", (2000, 1000)),
        Workload("paper-curve-m500", (1100, 2000), memory_size=500, eval_every_batch=True),
        Workload("paper-setup-60k", (60000, 10000), stop_at_batch=101),
    )
}


def write_inputs(w: Workload, seed: int, data_dir: str) -> None:
    """Generate the workload's input files for `seed` (synthetic: none)."""
    if w.standin_rows is not None:
        from standin import write_standin

        write_standin(data_dir, seed, *w.standin_rows)


def run_config(w: Workload, seed: int, data_dir: str, out_dir: str):
    """The RunConfig the program runs for this workload and seed."""
    from otcl.data import SynthSpec, ring_centers
    from otcl.harness import RunConfig
    from otcl.losses import PreservationConfig
    from otcl.mixture import OtmmConfig

    if w.standin_rows is None:
        # the a05 stream and mixture settings of tests/test_acceptance.py
        spec = SynthSpec(
            num_classes=10,
            modes_per_class=4,
            mode_centers=ring_centers(10, 4, radius=1.0),
            mode_scale=0.03,
            samples_per_class=A05_SAMPLES_PER_CLASS,
            seed=seed,
        )
        otmm = OtmmConfig(
            epsilon=1.0, tau=0.05, n_phi_steps=5, n_mix_steps=2,
            n_mix_samples=64, lr_phi=0.03, lr_mix=0.02,
        )
        return RunConfig(
            dataset="synth", synth=spec, num_tasks=5, classes_per_task=2,
            memory_size=w.memory_size, batch_size=10, n_centroids=4,
            feat_dim=8, hidden_dim=32, otmm=otmm, seeds=(0,), out_dir=out_dir,
        )
    return RunConfig(
        dataset="mnist", data_dir=os.path.abspath(data_dir), num_tasks=5,
        classes_per_task=2, memory_size=w.memory_size, batch_size=10,
        n_centroids=1, feat_dim=128, hidden_dim=400,
        preservation=PreservationConfig(lr_theta=PAPER_LR_THETA),
        seeds=(0,), out_dir=out_dir, eval_every_batch=w.eval_every_batch,
    )
