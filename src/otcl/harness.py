"""Experiment orchestration for the online class-incremental engine.

One `Learner` per seed makes one pass over the task stream. Per batch
(`observe`): draw a replay batch, run the representation-preservation
updates, refit the per-class mixtures on the detached features of the joint
batch, then refresh the replay memory with the batch samples closest to each
mixture centroid. At every task boundary the memory quotas are rebalanced
(`end_task`) and every task seen so far is evaluated by nearest-centroid
classification (`evaluate`), filling one row of the accuracy matrix.

Everything is deterministic given the run seed, for a given numpy build:
model init, stream shuffle, replay draws/evictions and mixture noise all
derive from it through named seed sequences, and `run_experiment` holds
numpy's OpenBLAS at one thread, since results depend on the thread count.

The data is loaded once per experiment as a (train, test) pair of `Batch`es.
IDX pixels stay uint8 until a row enters the model: each seed's stream keeps
index arrays into the same train rows and gathers each batch as float64, and
the test rows are split per task once, as uint8, and scaled chunk by chunk in
the evaluation forward. The loaded test set is not kept past that split.
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
    SynthSpec,
    gen_synthetic,
    load_idx,
    make_split_stream,
    present_classes,
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
    one_blas_thread,
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
        if self.feat_dim < 1 or self.hidden_dim < 1:
            raise ValueError("feat_dim and hidden_dim must be at least 1")
        if self.num_tasks < 1 or self.classes_per_task < 1:
            raise ValueError("task layout must be positive")
        if not self.seeds:
            raise ValueError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError("run seeds must be distinct")
        if min(self.seeds) < 0:
            raise ValueError("run seeds must be non-negative")
        if self.synth is not None and self.dataset == "synth":
            layout = self.num_tasks * self.classes_per_task
            if self.synth.num_classes != layout:
                raise ValueError(
                    f"{self.num_tasks} tasks x {self.classes_per_task} classes != "
                    f"synth.num_classes {self.synth.num_classes}"
                )


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
    that training keeps; uint8 pixel rows are scaled there, chunk by chunk.
    The squared distance |z - mu|^2 is ranked as |mu|^2 - 2 z.mu in
    float64, leaving out |z|^2, which is the same for every centroid of a
    row. Ties go to the smallest class id: the table is stacked in
    ascending class order and argmin keeps the first minimum.
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


def evaluate_tasks(
    batches: list[Batch], fe: FeatureExtractor, mixtures: dict[int, ClassMixture]
) -> list[float]:
    """`evaluate_task` on each held-out batch, in one evaluation pass: the
    parameters do not change between the calls, so the float32 weights are
    copied once for all of them (`FeatureExtractor.evaluation_pass`).
    `evaluate_task` is looked up in this module at call time."""
    with fe.evaluation_pass():
        return [evaluate_task(batch, fe, mixtures) for batch in batches]


# ------------------------------------------------------------- data prep


def load_mnist_dir(data_dir: str) -> tuple[Batch, Batch]:
    paths = {k: os.path.join(data_dir, v) for k, v in MNIST_FILES.items()}
    missing = [p for p in paths.values() if not os.path.exists(p)]
    if missing:
        raise FileNotFoundError(f"missing IDX files: {missing}")
    train = load_idx(paths["train_images"], paths["train_labels"])
    test = load_idx(paths["test_images"], paths["test_labels"])
    return train, test


def _load_dataset(cfg: RunConfig) -> tuple[Batch, Batch]:
    if cfg.dataset == "mnist":
        return load_mnist_dir(cfg.data_dir)
    return gen_synthetic(cfg.synth)


# ---------------------------------------------------------- training loop


class Learner:
    """One seed's learner: extractor, prototypes, transport state, replay
    memory, and the replay/transport/prototype generators, seeded (seed, 1..3).

    `dynamic_preservation_step`, `otmm_step` and `evaluate_task` (through
    `evaluate_tasks`) are called through this module's globals, looked up at
    call time, with positional arguments, so that a probe which rebinds
    those names sees every call."""

    def __init__(self, cfg: RunConfig, seed: int, input_dim: int):
        self.cfg, self.seed = cfg, seed
        self.fe = FeatureExtractor(input_dim, cfg.feat_dim, seed=seed, hidden=cfg.hidden_dim)
        self.protos = ClassPrototypes(cfg.feat_dim)
        self.state = OtmmState(cfg.n_centroids, cfg.feat_dim, seed=seed)
        self.mem = ReplayMemory(cfg.memory_size, seed=seed)
        self.replay_rng = np.random.default_rng((seed, 1))
        self.otmm_rng = np.random.default_rng((seed, 2))
        self.proto_rng = np.random.default_rng((seed, 3))

    def observe(self, batch: Batch) -> None:
        """One stream batch: preservation on the batch and a replay draw, the
        mixture refit on the features of their union, then replay insertion."""
        cfg, fe, state, mem = self.cfg, self.fe, self.state, self.mem
        new_ids = sorted(set(batch.labels.tolist()) - set(self.protos.known()))
        if new_ids:
            self.protos.init_new_classes(new_ids, seed=int(self.proto_rng.integers(2**31)))

        replay = merge_class_batches(sample_replay_batch(mem, cfg.batch_size, self.replay_rng))
        dynamic_preservation_step(batch, replay, fe, self.protos, cfg.preservation)

        x, y = batch.features, batch.labels
        if replay is not None:
            x, y = np.concatenate([x, replay.features]), np.concatenate([y, replay.labels])
        feats = fe.features_np(x)
        otmm_step(split_by_class(feats, y), state, cfg.otmm, self.otmm_rng)

        new_feats = feats[: len(batch)]
        for c in present_classes(batch.labels).tolist():
            mask = batch.labels == c
            class_batch = Batch(features=batch.features[mask], labels=batch.labels[mask])
            if cfg.random_insertion:
                k = cfg.n_centroids
                insert_random(mem, class_batch, insertion_budget(mem, c, k) * k)
            else:
                insert_with_centroids(
                    mem, class_batch, new_feats[mask], state.mixtures[c].centroids()
                )

    def end_task(self, t_idx: int) -> None:
        """Rebalance the memory quotas over every class of tasks 0..t_idx."""
        rebalance_quotas(self.mem, (t_idx + 1) * self.cfg.classes_per_task)

    def evaluate(self, test_batches: list[Batch]) -> list[float]:
        """Nearest-centroid accuracy on each held-out batch."""
        return evaluate_tasks(test_batches, self.fe, self.state.mixtures)

    def save(self, out_dir: str) -> None:
        """Write `checkpoint_seed<seed>.npz` for `load_model`."""
        meta = {
            "input_dim": self.fe.input_dim,
            "feat_dim": self.cfg.feat_dim,
            "hidden_dim": self.cfg.hidden_dim,
            "n_centroids": self.cfg.n_centroids,
            "classes": self.state.known(),
            "prototype_classes": self.protos.known(),
            "num_tasks": self.cfg.num_tasks,
            "classes_per_task": self.cfg.classes_per_task,
            "seed": self.seed,
        }
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"checkpoint_seed{self.seed}.npz")
        save_checkpoint(path, _param_groups(self.fe, self.state, self.protos), meta)


def _run_single_seed(
    cfg: RunConfig,
    seed: int,
    train: Batch,
    test_batches: list[Batch],
    on_row=None,
) -> tuple[AccMatrix, Learner]:
    """One seed's pass over the stream of `train`, evaluated on the held-out
    `test_batches` (one per task); neither is written to."""
    stream = make_split_stream(
        train, cfg.num_tasks, cfg.classes_per_task, cfg.batch_size, seed=seed
    )
    learner = Learner(cfg, seed, train.features.shape[1])
    acc = AccMatrix(cfg.num_tasks)
    curve: list[tuple[int, int, float]] = []

    for t_idx, task in enumerate(stream.tasks):
        seen = test_batches[: t_idx + 1]
        for b_idx, batch in enumerate(task.batches):
            try:
                learner.observe(batch)
                if cfg.eval_every_batch:
                    curve.append((t_idx + 1, b_idx + 1, float(np.mean(learner.evaluate(seen)))))
            except NumericsError as err:
                raise NumericsError(
                    f"seed {seed} task {t_idx + 1} batch {b_idx + 1}: {err}",
                    class_id=err.class_id, phase=err.phase, param=err.param,
                    seed=seed, task=t_idx + 1, batch=b_idx + 1,
                ) from err

        learner.end_task(t_idx)
        row = learner.evaluate(seen)
        acc.set_row(t_idx, row)
        if on_row is not None:
            on_row(seed, t_idx, row)

    if cfg.eval_every_batch and cfg.out_dir:
        header = ["task_index", "batch_index", "avg_accuracy_seen"]
        _write_csv(os.path.join(cfg.out_dir, f"curve_seed{seed}.csv"), header, curve)
    return acc, learner


def _write_csv(path: str, header: list[str], rows) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _config_echo(cfg: RunConfig) -> dict:
    echo = asdict(cfg)
    if cfg.synth is not None:
        echo["synth"]["mode_centers"] = np.asarray(cfg.synth.mode_centers).tolist()
    echo["seeds"] = list(cfg.seeds)
    return echo


def _environment() -> dict:
    """What a seed's numbers reproduce under: the numpy build, its BLAS
    (None where numpy cannot report it as a dict) and the BLAS thread
    variables, each unset one as None."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas["name"], "version": blas["version"]}
    except TypeError:  # numpy < 1.26 takes no mode
        blas = None
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    threads = {v: os.environ.get(v) for v in names}
    return {"numpy": np.__version__, "blas": blas, "threads": threads}


def _write_outputs(out_dir: str, rows: list[tuple[int, int, int, float]], summary: dict) -> None:
    header = ["seed", "task_index", "eval_task", "accuracy"]
    _write_csv(os.path.join(out_dir, "metrics.csv"), header, rows)
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)


def run_experiment(cfg: RunConfig) -> tuple[dict[int, AccMatrix], dict]:
    """Full multi-seed run. Returns the per-seed accuracy matrices and the
    summary dict; writes metrics.csv / summary.json / checkpoints when an
    output directory is configured. On failure the rows recorded so far are
    still flushed before the error propagates.

    A seed that raises `NumericsError` is recorded, and the next seed runs:
    its per-seed entry carries the error and where it arose (seed, task,
    batch, class, phase, param). After the last seed the outputs are written,
    with the means over the completed seeds, the failed seeds and their
    count, and the first failure is raised. Any other exception ends the run
    at once.

    The run holds numpy's OpenBLAS at one thread, whatever the environment
    sets, and restores the count when it ends (`model.one_blas_thread`):
    results depend on the thread count. The summary's environment records
    `blas_threads_pinned`, 1 or None where the count could not be set."""
    with one_blas_thread() as pinned:
        t0 = time.time()
        rows: list[tuple[int, int, int, float]] = []
        matrices: dict[int, AccMatrix] = {}
        per_seed: dict[str, dict] = {}
        failures: dict[int, NumericsError] = {}  # seed -> its error, in seed order

        def record(**outcome) -> dict:
            """The summary every outcome writes, built when the run ends: an
            error that ended the run adds itself; a run that reached its last
            seed adds the means and stds over the completed seeds and, if
            any seed failed, the failed count, the failed seeds and the
            first error."""
            environment = _environment() | {"blas_threads_pinned": pinned}
            shared = {"config": _config_echo(cfg), "environment": environment, "per_seed": per_seed}
            return shared | outcome | {"wall_clock_seconds": time.time() - t0}

        def on_row(seed, task_idx, accs):
            for j, a in enumerate(accs):
                rows.append((seed, task_idx + 1, j + 1, a))

        try:
            # every seed streams the same data and is scored on the same split
            train, test = _load_dataset(cfg)
            test_batches = split_tasks(test, cfg.num_tasks, cfg.classes_per_task)
            del test  # split_tasks copied its rows; the seeds need only the split
            for seed in cfg.seeds:
                try:
                    acc, learner = _run_single_seed(cfg, seed, train, test_batches, on_row=on_row)
                except NumericsError as err:  # this seed's numerics: the next seed runs
                    failures[seed] = err
                    per_seed[str(seed)] = {
                        "error": str(err), "seed": seed, "task": err.task, "batch": err.batch,
                        "class_id": err.class_id, "phase": err.phase, "param": err.param,
                    }
                    continue
                matrices[seed] = acc
                T = cfg.num_tasks
                per_seed[str(seed)] = {
                    "avg_accuracy": avg_accuracy(acc, T),
                    "avg_forgetting": avg_forgetting(acc, T) if T >= 2 else None,
                }
                if cfg.out_dir:
                    learner.save(cfg.out_dir)
                del learner  # its replay rows are not kept through the next seed's run
        except Exception as err:
            if cfg.out_dir:
                _write_outputs(cfg.out_dir, rows, record(error=repr(err)))
            raise

        completed = [per_seed[str(seed)] for seed in matrices]
        a_vals = [v["avg_accuracy"] for v in completed]
        f_vals = [v["avg_forgetting"] for v in completed if v["avg_forgetting"] is not None]
        means = {
            "mean_avg_accuracy": float(np.mean(a_vals)) if a_vals else None,
            "std_avg_accuracy": float(np.std(a_vals)) if a_vals else None,
            "mean_avg_forgetting": float(np.mean(f_vals)) if f_vals else None,
            "std_avg_forgetting": float(np.std(f_vals)) if f_vals else None,
        }
        first = next(iter(failures.values()), None)
        if first is None:
            summary = record(**means)
        else:
            summary = record(
                **means, failed=len(failures), failed_seeds=list(failures), error=repr(first)
            )
        if cfg.out_dir:
            _write_outputs(cfg.out_dir, rows, summary)
        if first is not None:
            raise first
        return matrices, summary


# ---------------------------------------------------------- checkpoints


def _param_groups(fe: FeatureExtractor, state: OtmmState, protos: ClassPrototypes) -> dict:
    """The checkpoint's parameter groups by name, in file order: the one
    layout that `Learner.save` writes and `load_model` restores."""
    groups = {"extractor": fe.params, "prototypes": protos.params}
    for c in state.known():
        groups[f"mixture_{c}"] = state.mixtures[c].params
        groups[f"potential_{c}"] = state.potentials[c].params
    return groups


def load_model(path: str) -> tuple[FeatureExtractor, OtmmState, ClassPrototypes, dict]:
    """Rebuild extractor, mixtures, and prototypes from a run checkpoint."""
    groups, meta = load_checkpoint(path)
    k, d = meta["n_centroids"], meta["feat_dim"]
    fe = FeatureExtractor(meta["input_dim"], d, hidden=meta["hidden_dim"])
    state = OtmmState(k, d)
    for c in meta["classes"]:
        state.mixtures[c], state.potentials[c] = ClassMixture(k, d), DualPotential(d)
    protos = ClassPrototypes(d)
    protos.init_new_classes(meta["prototype_classes"], seed=0)
    for name, params in _param_groups(fe, state, protos).items():
        restore_params(params, groups[name])
    return fe, state, protos, meta
