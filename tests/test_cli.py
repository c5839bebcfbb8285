"""End-to-end tests for the command-line interface (run in-process)."""

import argparse
import csv
import json
import shutil
import warnings

import numpy as np
import pytest

from otcl.cli import RUN_FLAGS, build_parser, main
from otcl.data import load_idx, write_idx
from otcl.harness import MNIST_FILES, load_model


@pytest.fixture
def toy_config(tmp_path):
    cfg = {
        "dataset": "synth",
        "synth": {
            "num_classes": 2,
            "modes_per_class": 1,
            "mode_scale": 0.3,
            "samples_per_class": 300,
            "ring_radius": 3.0,
            "seed": 0,
        },
        "num_tasks": 1,
        "classes_per_task": 2,
        "memory_size": 100,
        "batch_size": 10,
        "n_centroids": 1,
        "feat_dim": 8,
        "hidden_dim": 32,
        "seeds": [0],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def run_to_checkpoint(toy_config, tmp_path):
    out = tmp_path / "out"
    code = main(["run", "--config", str(toy_config), "--out-dir", str(out)])
    assert code == 0
    return out / "checkpoint_seed0.npz"


# ---------------------------------------------------------------- run


def test_run_from_config_file(toy_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(toy_config), "--out-dir", str(out)])
    assert code == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["mean_avg_accuracy"] >= 0.95
    assert (out / "metrics.csv").exists()
    assert (out / "summary.json").exists()


def test_flags_override_config_file(toy_config, tmp_path):
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(toy_config), "--out-dir", str(out),
         "--memory-size", "64", "--seeds", "3"]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["memory_size"] == 64
    assert summary["config"]["seeds"] == [3]
    assert set(summary["per_seed"]) == {"3"}


# The `otcl run` option strings; a flag is added or removed on purpose only.
RUN_OPTIONS = {
    "-h", "--help", "--config", "--dataset", "--data-dir", "--out-dir", "--num-tasks",
    "--classes-per-task", "--memory-size", "--batch-size", "--n-centroids", "--feat-dim",
    "--hidden-dim", "--seeds", "--random-insertion", "--eval-every-batch", "--lr-theta",
    "--lr-proto", "--clip-alpha", "--steps-l1", "--steps-l2", "--epsilon", "--tau",
    "--n-phi-steps", "--n-mix-steps", "--n-mix-samples", "--lr-phi", "--lr-mix",
}

# A small run whose file values each flag case overrides.
FLAG_BASE = {
    "dataset": "synth",
    "synth": {"num_classes": 4, "mode_scale": 0.3, "samples_per_class": 20, "ring_radius": 3.0},
    "num_tasks": 2, "classes_per_task": 2, "memory_size": 20, "batch_size": 10,
    "feat_dim": 4, "hidden_dim": 8, "seeds": [0],
}
# field -> (config-file value, flag argument, value echoed in summary.json).
# Where it can, the file value alone makes a config that cannot run, so a
# flag that fails to override it fails the run.
FLAG_CASES = {
    "dataset": ("mnist", "synth", "synth"),
    "data_dir": ("from-file", "from-flag", "from-flag"),
    "out_dir": None,  # the paths depend on tmp_path
    "num_tasks": (4, "2", 2),
    "classes_per_task": (1, "2", 2),
    "memory_size": (20, "12", 12),
    "batch_size": (10, "8", 8),
    "n_centroids": (1, "2", 2),
    "feat_dim": (4, "3", 3),
    "hidden_dim": (8, "6", 6),
    "seeds": ([0], "3,5", [3, 5]),
    "random_insertion": (False, None, True),
    "eval_every_batch": (False, None, True),
    "lr_theta": (-1.0, "0.02", 0.02),
    "lr_proto": (-1.0, "0.03", 0.03),
    "clip_alpha": (2.0, "0.3", 0.3),
    "steps_l1": (-1, "2", 2),
    "steps_l2": (-1, "0", 0),
    "epsilon": (-1.0, "0.2", 0.2),
    "tau": (-1.0, "0.7", 0.7),
    "n_phi_steps": (-1, "2", 2),
    "n_mix_steps": (-1, "2", 2),
    "n_mix_samples": (0, "6", 6),
    "lr_phi": (-1.0, "0.02", 0.02),
    "lr_mix": (-1.0, "0.03", 0.03),
}


def test_run_option_strings_are_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert {o for a in sub.choices["run"]._actions for o in a.option_strings} == RUN_OPTIONS


@pytest.mark.parametrize("block, name", [(block, name) for block, name, *_ in RUN_FLAGS])
def test_each_run_flag_overrides_the_config_file(block, name, tmp_path):
    out = tmp_path / "out"
    if name == "out_dir":
        file_value, flag_arg, echo = str(tmp_path / "from-file"), str(out), str(out)
    else:
        file_value, flag_arg, echo = FLAG_CASES[name]
    cfg = json.loads(json.dumps(FLAG_BASE))
    (cfg if block is None else cfg.setdefault(block, {}))[name] = file_value
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    flag = "--" + name.replace("_", "-")
    args = ["run", "--config", str(path), flag] + ([] if flag_arg is None else [flag_arg])
    if name != "out_dir":
        args += ["--out-dir", str(out)]
    assert main(args) == 0
    echoed = json.loads((out / "summary.json").read_text())["config"]
    assert (echoed if block is None else echoed[block])[name] == echo


def test_run_without_config_file_uses_flag_values(tmp_path):
    # everything needed arrives via flags; synth block comes from defaults
    cfg = {"dataset": "synth", "synth": {"num_classes": 2, "mode_scale": 0.3,
                                         "samples_per_class": 200, "ring_radius": 3.0}}
    path = tmp_path / "minimal.json"
    path.write_text(json.dumps(cfg))
    code = main(
        ["run", "--config", str(path), "--num-tasks", "1", "--classes-per-task", "2",
         "--memory-size", "50", "--batch-size", "10", "--feat-dim", "8",
         "--hidden-dim", "32", "--out-dir", str(tmp_path / "o")]
    )
    assert code == 0


# ---------------------------------------------------------- exit codes


def test_missing_config_file_is_config_error(capsys):
    assert main(["run", "--config", "/nonexistent/cfg.json"]) == 1
    assert "config error" in capsys.readouterr().err


def test_malformed_json_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["run", "--config", str(path)]) == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_config_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dataset": "synth", "synth": {}, "banana": 1}))
    assert main(["run", "--config", str(path)]) == 1
    assert "banana" in capsys.readouterr().err


def test_unknown_otmm_key_is_config_error(toy_config, capsys):
    # OtmmConfig has no seed: the mixture noise comes from the run seed
    cfg = json.loads(toy_config.read_text())
    cfg["otmm"] = {"seed": 0}
    toy_config.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(toy_config)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "seed" in err


def test_bad_flag_usage_maps_to_config_error(capsys):
    assert main(["run", "--no-such-flag"]) == 1
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "run" in capsys.readouterr().out


def test_missing_mnist_dir_is_data_error(tmp_path, capsys):
    assert main(
        ["run", "--dataset", "mnist", "--data-dir", str(tmp_path / "nope"),
         "--num-tasks", "1", "--classes-per-task", "2"]
    ) == 2
    assert "data error" in capsys.readouterr().err


def test_numerical_blowup_is_numerics_error(toy_config, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # overflow is the point
        code = main(
            ["run", "--config", str(toy_config), "--out-dir", str(tmp_path / "o"),
             "--lr-theta", "1e30"]
        )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_missing_checkpoint_is_data_error(capsys):
    assert main(["eval", "--checkpoint", "/nonexistent.npz", "--synth-npz", "x.npz"]) == 2
    capsys.readouterr()


def test_duplicate_seeds_are_config_error(toy_config, tmp_path, capsys):
    # seed 0 twice would write its metrics.csv rows twice
    out = tmp_path / "o"
    assert main(["run", "--config", str(toy_config), "--seeds", "0,0", "--out-dir", str(out)]) == 1
    assert "distinct" in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize(
    "flag", ["--feat-dim=0", "--hidden-dim=0", "--seeds=-1"], ids=["feat-dim", "hidden-dim", "seeds"]
)
def test_bad_config_value_is_config_error_before_any_output(flag, toy_config, tmp_path, capsys):
    # rejected with the config, not once the data is loaded: nothing is written
    out = tmp_path / "d"
    assert main(["run", "--config", str(toy_config), flag, "--out-dir", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()

@pytest.mark.parametrize(
    "synth_classes, flags", [(1, []), (2, ["--num-tasks", "3"])], ids=["one-class", "three-tasks"]
)
def test_synth_classes_off_the_task_layout_are_config_error(
    synth_classes, flags, toy_config, tmp_path, capsys
):
    # the config holds both counts: a mismatch is rejected with it, before
    # the data is drawn or any output written
    cfg = json.loads(toy_config.read_text())
    cfg["synth"]["num_classes"] = synth_classes
    toy_config.write_text(json.dumps(cfg))
    out = tmp_path / "d"
    assert main(["run", "--config", str(toy_config), *flags, "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and f"synth.num_classes {synth_classes}" in err
    assert not out.exists()


# ----------------------------------------------------------- gen-synth


def test_gen_synth_round_trip(tmp_path):
    out = tmp_path / "toy.npz"
    code = main(
        ["gen-synth", "--out", str(out), "--num-classes", "3", "--modes-per-class", "2",
         "--samples-per-class", "100", "--mode-scale", "0.4", "--seed", "7"]
    )
    assert code == 0
    with np.load(out) as z:
        assert set(z.files) == {"train_features", "train_labels",
                                "test_features", "test_labels"}
        assert z["train_features"].shape == (240, 2)  # 80% of 3*100
        assert z["test_features"].shape == (60, 2)
        assert set(z["train_labels"].tolist()) == {0, 1, 2}
        assert z["train_features"].dtype == np.float64


@pytest.mark.parametrize("flag, value", [("--num-classes", "0"), ("--samples-per-class", "1"),
                                         ("--samples-per-class", "2")])
def test_gen_synth_without_a_train_or_test_row_is_config_error(flag, value, tmp_path, capsys):
    out = tmp_path / "toy.npz"
    assert main(["gen-synth", "--out", str(out), flag, value]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------- eval / embeddings


def test_eval_prints_per_task_accuracy(toy_config, tmp_path, capsys):
    ckpt = run_to_checkpoint(toy_config, tmp_path)
    npz = tmp_path / "toy.npz"
    assert main(
        ["gen-synth", "--out", str(npz), "--num-classes", "2", "--modes-per-class", "1",
         "--mode-scale", "0.3", "--samples-per-class", "300", "--ring-radius", "3.0"]
    ) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--synth-npz", str(npz)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("task 1: ")
    assert lines[-1].startswith("average: ")
    assert float(lines[0].split(": ")[1]) >= 0.95


def test_export_embeddings_schema(toy_config, tmp_path, capsys):
    ckpt = run_to_checkpoint(toy_config, tmp_path)
    npz = tmp_path / "toy.npz"
    main(["gen-synth", "--out", str(npz), "--num-classes", "2", "--modes-per-class", "1",
          "--mode-scale", "0.3", "--samples-per-class", "100", "--ring-radius", "3.0"])
    out_csv = tmp_path / "emb.csv"
    capsys.readouterr()
    assert main(["export-embeddings", "--checkpoint", str(ckpt),
                 "--synth-npz", str(npz), "--out", str(out_csv)]) == 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [f"feat_{i}" for i in range(8)] + ["label"]
    assert len(rows) == 1 + 40  # 20% test split of 2*100
    body = np.array([[float(v) for v in r] for r in rows[1:]])
    assert np.isfinite(body).all()
    assert set(body[:, -1].astype(int).tolist()) == {0, 1}


def test_eval_requires_a_data_source(toy_config, tmp_path, capsys):
    ckpt = run_to_checkpoint(toy_config, tmp_path)
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt)]) == 1
    assert "config error" in capsys.readouterr().err


def test_eval_reproduces_the_final_metrics_row(tmp_path, capsys):
    # overlapping classes: every final accuracy is below 1 and the two tasks
    # differ, so a wrong or reordered task split shows
    synth = ["--num-classes", "4", "--mode-scale", "0.8", "--samples-per-class", "60",
             "--ring-radius", "1.0"]
    cfg = {"dataset": "synth", "num_tasks": 2, "classes_per_task": 2, "memory_size": 20,
           "feat_dim": 4, "hidden_dim": 8,
           "synth": {"num_classes": 4, "mode_scale": 0.8, "samples_per_class": 60,
                     "ring_radius": 1.0}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out, npz = tmp_path / "out", tmp_path / "toy.npz"
    assert main(["run", "--config", str(path), "--out-dir", str(out)]) == 0
    assert main(["gen-synth", "--out", str(npz)] + synth) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(out / "checkpoint_seed0.npz"),
                 "--synth-npz", str(npz)]) == 0
    printed = capsys.readouterr().out.strip().splitlines()

    with open(out / "metrics.csv") as fh:
        final = [float(r["accuracy"]) for r in csv.DictReader(fh) if r["task_index"] == "2"]
    assert max(final) < 1.0 and final[0] != final[1]
    want = [f"task {j + 1}: {a:.4f}" for j, a in enumerate(final)]
    assert printed == want + [f"average: {float(np.mean(final)):.4f}"]


@pytest.fixture
def idx_run(tmp_path):
    """An IDX directory of 4 classes of noisy 6x6 tiles and the checkpoint
    of a 2-task run on it."""
    rng = np.random.default_rng(0)
    patterns = rng.integers(0, 256, size=(4, 6, 6))
    data_dir = tmp_path / "idx"
    data_dir.mkdir()
    for part, n in (("train", 30), ("test", 10)):
        labels = np.repeat(np.arange(4), n)
        noise = rng.integers(-40, 41, size=(labels.size, 6, 6))
        images = np.clip(patterns[labels] + noise, 0, 255)
        write_idx(data_dir / MNIST_FILES[f"{part}_images"],
                  data_dir / MNIST_FILES[f"{part}_labels"], images, labels)
    out = tmp_path / "out"
    assert main(["run", "--dataset", "mnist", "--data-dir", str(data_dir), "--num-tasks", "2",
                 "--classes-per-task", "2", "--memory-size", "20", "--feat-dim", "4",
                 "--hidden-dim", "8", "--out-dir", str(out)]) == 0
    return data_dir, out / "checkpoint_seed0.npz"


def test_eval_reads_only_the_idx_test_pair(idx_run, tmp_path, capsys):
    data_dir, ckpt = idx_run
    test_only = tmp_path / "test_only"
    test_only.mkdir()
    for key in ("test_images", "test_labels"):
        shutil.copy(data_dir / MNIST_FILES[key], test_only / MNIST_FILES[key])
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data-dir", str(data_dir)]) == 0
    full = capsys.readouterr().out
    assert main(["eval", "--checkpoint", str(ckpt), "--data-dir", str(test_only)]) == 0
    assert capsys.readouterr().out == full
    assert full.splitlines()[-1].startswith("average: ")


def test_export_embeddings_of_idx_pixels_are_the_scaled_rows_features(idx_run, tmp_path):
    data_dir, ckpt = idx_run
    out_csv = tmp_path / "emb.csv"
    assert main(["export-embeddings", "--checkpoint", str(ckpt), "--data-dir", str(data_dir),
                 "--out", str(out_csv)]) == 0

    test = load_idx(data_dir / MNIST_FILES["test_images"], data_dir / MNIST_FILES["test_labels"])
    scaled = test.features.astype(np.float64)
    scaled /= 255.0
    fe = load_model(str(ckpt))[0]
    want = [[f"feat_{i}" for i in range(4)] + ["label"]] + [
        [f"{v:.8g}" for v in row] + [str(lab)]
        for row, lab in zip(fe.features_np(scaled), test.labels.tolist())
    ]
    with open(out_csv, newline="") as fh:
        assert list(csv.reader(fh)) == want


@pytest.mark.parametrize("missing", ["test_images", "test_labels"])
def test_eval_missing_idx_test_file_is_data_error(idx_run, missing, capsys):
    data_dir, ckpt = idx_run
    (data_dir / MNIST_FILES[missing]).unlink()
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--data-dir", str(data_dir)]) == 2
    assert "data error" in capsys.readouterr().err
