"""Command-line entry points for running and inspecting experiments.

Subcommands:
  run                full multi-seed experiment from a config file and/or flags
  eval               re-evaluate a saved checkpoint on the held-out task sets
  gen-synth          write a synthetic multimodal dataset to an .npz file
  export-embeddings  dump current feature embeddings of a test set to CSV

Configuration is a JSON file whose keys mirror the run-config field names
(nested "preservation", "otmm", and "synth" blocks); any flag given on the
command line overrides the file value. Exit codes: 0 success, 1 config
error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import fields

import numpy as np

from .autodiff import NumericsError
from .data import Batch, IdxError, SynthSpec, gen_synthetic, ring_centers, split_tasks
from .harness import RunConfig, evaluate_task, load_mnist_dir, load_model, run_experiment
from .losses import PreservationConfig
from .mixture import OtmmConfig


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ------------------------------------------------------------ config I/O


def _seed_list(text: str) -> tuple[int, ...]:
    return tuple(int(s) for s in text.split(",") if s != "")


# The `otcl run` flags: (config block, field, type, help). The flag is the
# field name with dashes, the block is a nested RunConfig field (None for
# RunConfig itself), and "{default}" in the help shows the field's default.
# bool flags switch on; a tuple type lists the choices.
RUN_FLAGS = (
    (None, "dataset", ("mnist", "synth"), "data source (default: {default})"),
    (None, "data_dir", str, "directory holding the four IDX files (mnist)"),
    (None, "out_dir", str, "where to write metrics.csv / summary.json / checkpoints"),
    (None, "num_tasks", int, "tasks in the stream (default: {default})"),
    (None, "classes_per_task", int, "classes per task (default: {default})"),
    (None, "memory_size", int, "replay capacity in samples (default: {default})"),
    (None, "batch_size", int, "stream batch size (default: {default})"),
    (None, "n_centroids", int, "mixture components per class (default: {default})"),
    (None, "feat_dim", int, "embedding width (default: {default})"),
    (None, "hidden_dim", int, "extractor hidden width (default: {default})"),
    (None, "seeds", _seed_list, "comma-separated run seeds (default: {default})"),
    (None, "random_insertion", bool,
     "ablation: uniform-random memory writes (default: centroid-aware)"),
    (None, "eval_every_batch", bool, "record an accuracy curve after every batch (default: off)"),
    ("preservation", "lr_theta", float, "extractor rate (default: {default})"),
    ("preservation", "lr_proto", float, "prototype rate (default: {default})"),
    ("preservation", "clip_alpha", float,
     "old-prototype gradient damping in [0,1] (default: {default})"),
    ("preservation", "steps_l1", int, "separation updates per batch (default: {default})"),
    ("preservation", "steps_l2", int, "compression updates per batch (default: {default})"),
    ("otmm", "epsilon", float, "entropic rate of the transport objective (default: {default})"),
    ("otmm", "tau", float, "Gumbel-softmax temperature (default: {default})"),
    ("otmm", "n_phi_steps", int, "potential ascent steps per batch (default: {default})"),
    ("otmm", "n_mix_steps", int, "mixture descent steps per batch (default: {default})"),
    ("otmm", "n_mix_samples", int, "mixture draws per objective estimate (default: batch size)"),
    ("otmm", "lr_phi", float, "potential rate (default: {default})"),
    ("otmm", "lr_mix", float, "mixture rate (default: {default})"),
)
_BLOCKS = {None: RunConfig, "preservation": PreservationConfig, "otmm": OtmmConfig}

# gen-synth flags and the defaults of a config's "synth" block: (key, type, default, help)
SYNTH_KEYS = (
    ("num_classes", int, 2, "classes"),
    ("modes_per_class", int, 1, "modes per class"),
    ("mode_scale", float, 0.5, "mode std"),
    ("samples_per_class", int, 500, "samples per class"),
    ("seed", int, 0, "generator seed"),
    ("ring_radius", float, 5.0, "radius of the interleaved mode ring"),
    ("dim", int, 2, "feature dimension"),
)


def _build_synth_spec(block: dict) -> SynthSpec:
    block = dict(block)
    centers = block.pop("mode_centers", None)
    unknown = set(block) - {key for key, *_ in SYNTH_KEYS}
    if unknown:
        raise ValueError(f"unknown synth keys: {sorted(unknown)}")
    v = {key: kind(block.get(key, default)) for key, kind, default, _ in SYNTH_KEYS}
    radius, dim = v.pop("ring_radius"), v.pop("dim")
    if centers is None:
        centers = ring_centers(v["num_classes"], v["modes_per_class"], radius=radius, dim=dim)
    return SynthSpec(mode_centers=centers, **v)


def _config_from_sources(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then explicit flags."""
    merged: dict = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("config file must hold a JSON object")
        known = {f.name for f in fields(RunConfig)}
        unknown = set(file_cfg) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        merged.update(file_cfg)

    blocks = {b: merged if b is None else dict(merged.get(b, {})) for b in _BLOCKS}
    for block, name, _, _ in RUN_FLAGS:
        if getattr(args, name) is not None:
            blocks[block][name] = getattr(args, name)
    for block, cls in _BLOCKS.items():
        if block is not None:
            merged[block] = cls(**blocks[block])

    synth = merged.get("synth")
    if synth is not None:
        merged["synth"] = _build_synth_spec(synth)
    if merged.get("seeds") is not None:
        merged["seeds"] = tuple(merged["seeds"])
    return RunConfig(**merged)


# ------------------------------------------------------------ subcommands


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = _config_from_sources(args)
    except (ValueError, TypeError, KeyError, OSError) as err:
        raise CliError(1, f"config error: {err}") from err
    try:
        _, summary = run_experiment(cfg)
    except NumericsError as err:
        raise CliError(3, f"numerical failure: {err}") from err
    except (IdxError, FileNotFoundError, OSError, ValueError) as err:
        raise CliError(2, f"data error: {err}") from err
    print(json.dumps(
        {
            "mean_avg_accuracy": summary["mean_avg_accuracy"],
            "std_avg_accuracy": summary["std_avg_accuracy"],
            "mean_avg_forgetting": summary["mean_avg_forgetting"],
            "wall_clock_seconds": summary["wall_clock_seconds"],
        },
        indent=2,
    ))
    return 0


def _load_model_and_test(args: argparse.Namespace):
    """The checkpoint's model and meta, plus the test rows as one Batch."""
    try:
        fe, state, _, meta = load_model(args.checkpoint)
    except FileNotFoundError as err:
        raise CliError(2, f"data error: {err}") from err
    except (ValueError, KeyError, OSError) as err:
        raise CliError(2, f"bad checkpoint: {err}") from err
    if not (args.data_dir or args.synth_npz):
        raise CliError(1, "config error: provide --data-dir (IDX files) or --synth-npz")
    try:
        if args.data_dir:
            return fe, state, meta, Batch.of(load_mnist_dir(args.data_dir)[1])
        with np.load(args.synth_npz) as z:
            return fe, state, meta, Batch(z["test_features"], z["test_labels"].astype(np.int64))
    except (ValueError, OSError, KeyError) as err:  # IdxError is a ValueError
        raise CliError(2, f"data error: {err}") from err


def _cmd_eval(args: argparse.Namespace) -> int:
    fe, state, meta, test = _load_model_and_test(args)
    try:
        per_task = split_tasks(test, meta["num_tasks"], meta["classes_per_task"])
    except ValueError as err:
        raise CliError(2, f"data error: {err}") from err
    accs = [evaluate_task(batch, fe, state.mixtures) for batch in per_task]
    for t, a in enumerate(accs):
        print(f"task {t + 1}: {a:.4f}")
    print(f"average: {float(np.mean(accs)):.4f}")
    return 0


def _cmd_gen_synth(args: argparse.Namespace) -> int:
    try:
        spec = _build_synth_spec({key: getattr(args, key) for key, *_ in SYNTH_KEYS})
    except (ValueError, TypeError) as err:
        raise CliError(1, f"config error: {err}") from err
    train, test = (Batch.of(part) for part in gen_synthetic(spec))
    try:
        np.savez(
            args.out,
            train_features=train.features,
            train_labels=train.labels,
            test_features=test.features,
            test_labels=test.labels,
        )
    except OSError as err:
        raise CliError(2, f"data error: {err}") from err
    print(f"wrote {len(train)} train / {len(test)} test samples to {args.out}")
    return 0


def _cmd_export_embeddings(args: argparse.Namespace) -> int:
    fe, _, _, test = _load_model_and_test(args)
    emb = fe.features_np(test.features)
    try:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"feat_{i}" for i in range(emb.shape[1])] + ["label"])
            for row, lab in zip(emb, test.labels):
                w.writerow([f"{v:.8g}" for v in row] + [int(lab)])
    except OSError as err:
        raise CliError(2, f"data error: {err}") from err
    print(f"wrote {emb.shape[0]} embeddings of width {emb.shape[1]} to {args.out}")
    return 0


# ---------------------------------------------------------------- parser


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file mirroring the run-config fields")
    defaults = {b: {f.name: f.default for f in fields(cls)} for b, cls in _BLOCKS.items()}
    for block, name, kind, text in RUN_FLAGS:
        default = defaults[block][name]
        if isinstance(default, tuple):
            default = ",".join(map(str, default))
        if kind is bool:
            kwargs = {"action": "store_true", "default": None}
        elif isinstance(kind, tuple):
            kwargs = {"choices": kind}
        else:
            kwargs = {"type": kind}
        p.add_argument("--" + name.replace("_", "-"), help=text.format(default=default), **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otcl",
        description="Online class-incremental learning with transport-fitted class mixtures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a full experiment")
    _add_run_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on held-out task sets")
    p_eval.add_argument("--checkpoint", required=True, help="checkpoint .npz from a run")
    p_eval.add_argument("--data-dir", help="IDX directory for the mnist test set")
    p_eval.add_argument("--synth-npz", help="dataset .npz written by gen-synth")
    p_eval.set_defaults(func=_cmd_eval)

    p_gen = sub.add_parser("gen-synth", help="write a synthetic dataset to .npz")
    p_gen.add_argument("--out", required=True, help="output .npz path")
    for key, kind, default, text in SYNTH_KEYS:
        p_gen.add_argument("--" + key.replace("_", "-"), type=kind, default=default,
                           help=f"{text} (default: {default})")
    p_gen.set_defaults(func=_cmd_gen_synth)

    p_exp = sub.add_parser("export-embeddings", help="dump test-set embeddings to CSV")
    p_exp.add_argument("--checkpoint", required=True, help="checkpoint .npz from a run")
    p_exp.add_argument("--data-dir", help="IDX directory for the mnist test set")
    p_exp.add_argument("--synth-npz", help="dataset .npz written by gen-synth")
    p_exp.add_argument("--out", required=True, help="output CSV path")
    p_exp.set_defaults(func=_cmd_export_embeddings)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad usage; that's a config error
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except CliError as err:
        print(str(err), file=sys.stderr)
        return err.code


if __name__ == "__main__":
    sys.exit(main())
