"""Experiment orchestration for the online class-incremental engine.

One pass over a task stream. Per batch: draw a replay batch, run the
representation-preservation updates, refit the per-class mixtures on the
detached features of the joint batch, then refresh the replay memory with
the batch samples closest to each mixture centroid. At every task boundary
the memory quotas are rebalanced and every task seen so far is evaluated by
nearest-centroid classification, filling one row of the accuracy matrix.

Everything is deterministic given the run seed: the model init, the stream
shuffle, the replay draws/evictions, and the mixture noise all derive from
it through named seed sequences.
"""

from __future__ import annotations

import csv
import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .autodiff import NumericsError
from .data import (
    Batch,
    LabeledSample,
    SynthSpec,
    gen_synthetic,
    load_idx,
    make_split_stream,
    split_tasks,
)
from .losses import PreservationConfig, dynamic_preservation_step
from .mixture import (
    ClassMixture,
    DualPotential,
    OtmmConfig,
    OtmmState,
    otmm_step,
    split_by_class,
)
from .model import (
    ClassPrototypes,
    FeatureExtractor,
    load_checkpoint,
    restore_params,
    save_checkpoint,
)
from .replay import (
    ReplayMemory,
    insert_random,
    insert_with_centroids,
    insertion_budget,
    merge_class_batches,
    rebalance_quotas,
    sample_replay_batch,
)

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


@dataclass(frozen=True)
class RunConfig:
    dataset: str = "synth"  # "mnist" | "synth"
    data_dir: str | None = None  # directory with the four IDX files (mnist)
    synth: SynthSpec | None = None  # generator spec (synth)
    num_tasks: int = 5
    classes_per_task: int = 2
    memory_size: int = 500
    batch_size: int = 10
    n_centroids: int = 1  # mixture components per class
    feat_dim: int = 128
    hidden_dim: int = 400
    preservation: PreservationConfig = field(default_factory=PreservationConfig)
    otmm: OtmmConfig = field(default_factory=OtmmConfig)
    seeds: tuple[int, ...] = (0,)
    out_dir: str | None = None
    random_insertion: bool = False  # ablation: uniform-random memory writes
    eval_every_batch: bool = False  # also record an accuracy curve per batch

    def __post_init__(self):
        if self.dataset not in ("mnist", "synth"):
            raise ValueError("dataset must be 'mnist' or 'synth'")
        if self.dataset == "mnist" and not self.data_dir:
            raise ValueError("mnist dataset needs data_dir")
        if self.dataset == "synth" and self.synth is None:
            raise ValueError("synth dataset needs a generator spec")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.memory_size < 1:
            raise ValueError("memory_size must be at least 1")
        if self.n_centroids < 1:
            raise ValueError("need at least one centroid per class")
        if self.num_tasks < 1 or self.classes_per_task < 1:
            raise ValueError("task layout must be positive")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("run seeds must be distinct")


class AccMatrix:
    """Lower-triangular accuracy record: entry (i, j) is the accuracy on
    task j's held-out set right after finishing training task i (1-based in
    the formulas below, 0-based in storage)."""

    def __init__(self, num_tasks: int):
        if num_tasks < 1:
            raise ValueError("need at least one task")
        self.num_tasks = num_tasks
        self.values = np.full((num_tasks, num_tasks), np.nan)

    def set_row(self, task_idx: int, accuracies) -> None:
        accuracies = list(accuracies)
        if len(accuracies) != task_idx + 1:
            raise ValueError("row i needs exactly i+1 entries")
        for a in accuracies:
            if not (0.0 <= a <= 1.0):
                raise ValueError("accuracy outside [0, 1]")
        self.values[task_idx, : task_idx + 1] = accuracies


def avg_accuracy(acc: AccMatrix, T: int) -> float:
    """Mean accuracy over all T tasks after training the T-th (1-based)."""
    if not 1 <= T <= acc.num_tasks:
        raise ValueError("T outside the recorded range")
    row = acc.values[T - 1, :T]
    if np.isnan(row).any():
        raise ValueError(f"row {T} incomplete")
    return float(row.mean())


def avg_forgetting(acc: AccMatrix, T: int) -> float:
    """Mean drop from each earlier task's best recorded accuracy to its
    accuracy after task T: (1/(T-1)) * sum_j [max_{l in {j..T-1}} a_{l,j} -
    a_{T,j}] (1-based)."""
    if T < 2:
        raise ValueError("forgetting needs at least two tasks")
    if not T <= acc.num_tasks:
        raise ValueError("T outside the recorded range")
    drops = []
    for j in range(T - 1):  # 0-based column, tasks 1..T-1
        past = acc.values[j : T - 1, j]  # rows l = j .. T-2 (0-based)
        final = acc.values[T - 1, j]
        if np.isnan(past).any() or np.isnan(final):
            raise ValueError("matrix incomplete for forgetting")
        drops.append(past.max() - final)
    return float(np.mean(drops))


# ------------------------------------------------------------- inference


def _centroid_table(mixtures: dict[int, ClassMixture]) -> tuple[np.ndarray, np.ndarray]:
    """All centroids stacked in ascending class order, plus their labels."""
    if not mixtures:
        raise ValueError("no class mixtures to classify against")
    rows, labels = [], []
    for c in sorted(mixtures):
        mu = mixtures[c].centroids()
        rows.append(mu)
        labels.extend([c] * mu.shape[0])
    return np.concatenate(rows, axis=0), np.asarray(labels, dtype=np.int64)


def _predict_rows(
    x: np.ndarray, fe: FeatureExtractor, mixtures: dict[int, ClassMixture]
) -> np.ndarray:
    """Nearest-centroid labels for the rows of `x`: the one evaluation path.

    The forward runs in float32 (`features_np`), from the float64 weights
    that training keeps. The squared distance |z - mu|^2 is ranked as
    |mu|^2 - 2 z.mu in float64, leaving out |z|^2, which is the same for
    every centroid of a row. Ties go to the smallest class id: the table is
    stacked in ascending class order and argmin keeps the first minimum.
    """
    table, labels = _centroid_table(mixtures)
    feats = fe.features_np(x, dtype=np.float32).astype(np.float64)
    scores = (table * table).sum(axis=1) - 2.0 * (feats @ table.T)
    return labels[np.argmin(scores, axis=1)]


def predict(x: np.ndarray, fe: FeatureExtractor, mixtures: dict[int, ClassMixture]) -> int:
    """Class of the centroid closest to f(x); sees no task identity."""
    x = np.asarray(x)
    if x.ndim == 1:
        x = x[None, :]
    return int(_predict_rows(x, fe, mixtures)[0])


def evaluate_task(test: Batch, fe: FeatureExtractor, mixtures: dict[int, ClassMixture]) -> float:
    """Fraction of nearest-centroid predictions matching the labels."""
    if len(test) == 0:
        raise ValueError("empty test set")
    return float((_predict_rows(test.features, fe, mixtures) == test.labels).mean())


# ------------------------------------------------------------- data prep


def load_mnist_dir(data_dir: str) -> tuple[list[LabeledSample], list[LabeledSample]]:
    paths = {k: os.path.join(data_dir, v) for k, v in MNIST_FILES.items()}
    missing = [p for p in paths.values() if not os.path.exists(p)]
    if missing:
        raise FileNotFoundError(f"missing IDX files: {missing}")
    train = load_idx(paths["train_images"], paths["train_labels"])
    test = load_idx(paths["test_images"], paths["test_labels"])
    return train, test


def _load_dataset(cfg: RunConfig) -> tuple[list[LabeledSample], list[LabeledSample]]:
    if cfg.dataset == "mnist":
        return load_mnist_dir(cfg.data_dir)
    return gen_synthetic(cfg.synth)


# ---------------------------------------------------------- training loop


def _run_single_seed(
    cfg: RunConfig,
    seed: int,
    train: list[LabeledSample],
    test_batches: list[Batch],
    on_row=None,
) -> tuple[AccMatrix, FeatureExtractor, OtmmState, ClassPrototypes]:
    """One seed's pass over the stream of `train`, evaluated on the held-out
    `test_batches` (one per task); neither is written to."""
    stream = make_split_stream(
        train, cfg.num_tasks, cfg.classes_per_task, cfg.batch_size, seed=seed
    )
    input_dim = train[0].features.shape[0]

    fe = FeatureExtractor(input_dim, cfg.feat_dim, seed=seed, hidden=cfg.hidden_dim)
    protos = ClassPrototypes(cfg.feat_dim)
    state = OtmmState(cfg.n_centroids, cfg.feat_dim, seed=seed)
    mem = ReplayMemory(cfg.memory_size, seed=seed)
    replay_rng = np.random.default_rng((seed, 1))
    otmm_rng = np.random.default_rng((seed, 2))
    proto_rng = np.random.default_rng((seed, 3))

    acc = AccMatrix(cfg.num_tasks)
    curve: list[tuple[int, int, float]] = []

    for t_idx, task in enumerate(stream.tasks):
        for b_idx, batch in enumerate(task.batches):
            try:
                new_ids = sorted(set(batch.labels.tolist()) - set(protos.known()))
                if new_ids:
                    protos.init_new_classes(new_ids, seed=int(proto_rng.integers(2**31)))

                replay = merge_class_batches(
                    sample_replay_batch(mem, cfg.batch_size, replay_rng)
                )
                dynamic_preservation_step(batch, replay, fe, protos, cfg.preservation)

                if replay is None:
                    union = batch
                else:
                    union = Batch(
                        features=np.concatenate([batch.features, replay.features]),
                        labels=np.concatenate([batch.labels, replay.labels]),
                    )
                feats = fe.features_np(union.features)
                otmm_step(split_by_class(feats, union.labels), state, cfg.otmm, otmm_rng)

                new_feats = feats[: len(batch)]
                for c in np.unique(batch.labels).tolist():
                    mask = batch.labels == c
                    class_batch = Batch(features=batch.features[mask], labels=batch.labels[mask])
                    if cfg.random_insertion:
                        k = cfg.n_centroids
                        insert_random(mem, class_batch, insertion_budget(mem, c, k) * k)
                    else:
                        insert_with_centroids(
                            mem, class_batch, new_feats[mask], state.mixtures[c].centroids()
                        )

                if cfg.eval_every_batch:
                    seen = test_batches[: t_idx + 1]
                    avg = float(
                        np.mean([evaluate_task(tb, fe, state.mixtures) for tb in seen])
                    )
                    curve.append((t_idx + 1, b_idx + 1, avg))
            except NumericsError as err:
                raise NumericsError(
                    f"seed {seed} task {t_idx + 1} batch {b_idx + 1}: {err}",
                    class_id=err.class_id, phase=err.phase, param=err.param,
                    seed=seed, task=t_idx + 1, batch=b_idx + 1,
                ) from err

        rebalance_quotas(mem, (t_idx + 1) * cfg.classes_per_task)
        row = [
            evaluate_task(test_batches[j], fe, state.mixtures) for j in range(t_idx + 1)
        ]
        acc.set_row(t_idx, row)
        if on_row is not None:
            on_row(seed, t_idx, row)

    if cfg.eval_every_batch and cfg.out_dir:
        _write_curve(cfg.out_dir, seed, curve)
    return acc, fe, state, protos


def _write_curve(out_dir: str, seed: int, curve: list[tuple[int, int, float]]) -> None:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"curve_seed{seed}.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["task_index", "batch_index", "avg_accuracy_seen"])
        w.writerows(curve)


def _config_echo(cfg: RunConfig) -> dict:
    echo = asdict(cfg)
    if cfg.synth is not None:
        echo["synth"]["mode_centers"] = np.asarray(cfg.synth.mode_centers).tolist()
    echo["seeds"] = list(cfg.seeds)
    return echo


def _write_outputs(
    out_dir: str,
    cfg: RunConfig,
    rows: list[tuple[int, int, int, float]],
    summary: dict,
) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["seed", "task_index", "eval_task", "accuracy"])
        w.writerows(rows)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)


def _save_model(out_dir: str, seed: int, cfg: RunConfig, fe, state, protos) -> None:
    os.makedirs(out_dir, exist_ok=True)
    groups = {"extractor": fe.params, "prototypes": protos.params}
    for c in state.known():
        groups[f"mixture_{c}"] = state.mixtures[c].params
        groups[f"potential_{c}"] = state.potentials[c].params
    meta = {
        "input_dim": fe.input_dim,
        "feat_dim": cfg.feat_dim,
        "hidden_dim": cfg.hidden_dim,
        "n_centroids": cfg.n_centroids,
        "classes": state.known(),
        "prototype_classes": protos.known(),
        "num_tasks": cfg.num_tasks,
        "classes_per_task": cfg.classes_per_task,
        "seed": seed,
    }
    save_checkpoint(os.path.join(out_dir, f"checkpoint_seed{seed}.npz"), groups, meta)


def run_experiment(cfg: RunConfig) -> tuple[dict[int, AccMatrix], dict]:
    """Full multi-seed run. Returns the per-seed accuracy matrices and the
    summary dict; writes metrics.csv / summary.json / checkpoints when an
    output directory is configured. On failure the rows recorded so far are
    still flushed before the error propagates."""
    t0 = time.time()
    rows: list[tuple[int, int, int, float]] = []
    matrices: dict[int, AccMatrix] = {}
    per_seed: dict[str, dict] = {}

    def on_row(seed, task_idx, accs):
        for j, a in enumerate(accs):
            rows.append((seed, task_idx + 1, j + 1, a))

    try:
        # every seed streams the same data and is scored on the same split
        train, test = _load_dataset(cfg)
        test_batches = split_tasks(Batch.of(test), cfg.num_tasks, cfg.classes_per_task)
        for seed in cfg.seeds:
            acc, fe, state, protos = _run_single_seed(
                cfg, seed, train, test_batches, on_row=on_row
            )
            matrices[seed] = acc
            T = cfg.num_tasks
            per_seed[str(seed)] = {
                "avg_accuracy": avg_accuracy(acc, T),
                "avg_forgetting": avg_forgetting(acc, T) if T >= 2 else None,
            }
            if cfg.out_dir:
                _save_model(cfg.out_dir, seed, cfg, fe, state, protos)
    except Exception as err:
        if cfg.out_dir:
            failure = {
                "config": _config_echo(cfg),
                "per_seed": per_seed,
                "error": repr(err),
                "wall_clock_seconds": time.time() - t0,
            }
            _write_outputs(cfg.out_dir, cfg, rows, failure)
        raise

    a_vals = [v["avg_accuracy"] for v in per_seed.values()]
    f_vals = [v["avg_forgetting"] for v in per_seed.values() if v["avg_forgetting"] is not None]
    summary = {
        "config": _config_echo(cfg),
        "per_seed": per_seed,
        "mean_avg_accuracy": float(np.mean(a_vals)),
        "std_avg_accuracy": float(np.std(a_vals)),
        "mean_avg_forgetting": float(np.mean(f_vals)) if f_vals else None,
        "std_avg_forgetting": float(np.std(f_vals)) if f_vals else None,
        "wall_clock_seconds": time.time() - t0,
    }
    if cfg.out_dir:
        _write_outputs(cfg.out_dir, cfg, rows, summary)
    return matrices, summary


# ---------------------------------------------------------- checkpoints


def load_model(path: str) -> tuple[FeatureExtractor, OtmmState, ClassPrototypes, dict]:
    """Rebuild extractor, mixtures, and prototypes from a run checkpoint."""
    groups, meta = load_checkpoint(path)
    fe = FeatureExtractor(meta["input_dim"], meta["feat_dim"], hidden=meta["hidden_dim"])
    restore_params(fe.params, groups["extractor"])
    state = OtmmState(meta["n_centroids"], meta["feat_dim"])
    for c in meta["classes"]:
        mix = ClassMixture(meta["n_centroids"], meta["feat_dim"])
        restore_params(mix.params, groups[f"mixture_{c}"])
        state.mixtures[c] = mix
        phi = DualPotential(meta["feat_dim"])
        restore_params(phi.params, groups[f"potential_{c}"])
        state.potentials[c] = phi
    protos = ClassPrototypes(meta["feat_dim"])
    protos.init_new_classes(meta["prototype_classes"], seed=0)
    restore_params(protos.params, groups["prototypes"])
    return fe, state, protos, meta
