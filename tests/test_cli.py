"""End-to-end tests for the command-line interface (run in-process)."""

import csv
import json
import warnings

import numpy as np
import pytest

from otcl.cli import main


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
