"""Tests for tools/compare_trees.py, the bytewise parity check of two trees."""

import importlib.util
import json
import os

import numpy as np
import pytest

from otcl.autodiff import ParamSet
from otcl.model import save_checkpoint

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def compare_trees():
    spec = importlib.util.spec_from_file_location(
        "compare_trees", os.path.join(ROOT, "tools", "compare_trees.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_checkout_against_itself_reads_equal(compare_trees, tmp_path, capsys):
    # two fresh processes run ring-k4 input seed 2 to the end of its stream
    assert compare_trees.main([ROOT, ROOT, "ring-k4:2", "--work", str(tmp_path / "w")]) == 0
    assert capsys.readouterr().out == "ring-k4 2: EQUAL\n"
    out = tmp_path / "w" / "ring-k4_2" / "A" / "out"
    assert sorted(os.listdir(out)) == ["checkpoint_seed0.npz", "metrics.csv", "summary.json"]


def write_run(run_dir, *, mu=None, error=None, wall=1.0, out_dir="x", curve="1,1,0.5\n"):
    """A hand-built run directory as `run_child` leaves it."""
    out = run_dir / "out"
    out.mkdir(parents=True)
    (out / "metrics.csv").write_text("seed,task_index,eval_task,accuracy\n0,1,1,0.5\n")
    (out / "curve_seed0.csv").write_text(curve)
    summary = {"config": {"out_dir": out_dir, "data_dir": out_dir, "seeds": [0]},
               "per_seed": {"0": {"avg_accuracy": 0.5}}, "wall_clock_seconds": wall}
    (out / "summary.json").write_text(json.dumps(summary))
    params = ParamSet()
    params.add("mu", np.full((2, 3), 0.5) if mu is None else mu)
    params.add("alpha", np.zeros(2))
    save_checkpoint(str(out / "checkpoint_seed0.npz"), {"mixture_0": params}, {"classes": [0]})
    (run_dir / "result.json").write_text(json.dumps({"error": error}))
    return run_dir


def test_the_comparison_ignores_wall_time_and_paths(compare_trees, tmp_path):
    a = write_run(tmp_path / "a")
    b = write_run(tmp_path / "b", wall=9.0, out_dir="elsewhere")
    assert compare_trees.compare_runs(str(a), str(b)) == []


def test_the_comparison_flags_one_byte_of_a_checkpoint_array(compare_trees, tmp_path):
    a = write_run(tmp_path / "a")
    mu = np.full((2, 3), 0.5)
    mu.reshape(-1).view(np.uint8)[8 * 4] ^= 1  # entry 4's lowest byte: one ulp (little-endian)
    b = write_run(tmp_path / "b", mu=mu)
    assert compare_trees.compare_runs(str(a), str(b)) == ["checkpoint_seed0.npz: mixture_0::mu.npy"]


def test_the_comparison_flags_a_changed_error_field_and_curve(compare_trees, tmp_path):
    error = {"task": 5, "batch": 2, "class_id": 7, "phase": "phi", "param": "w0"}
    a = write_run(tmp_path / "a", error=error)
    b = write_run(tmp_path / "b", error=error | {"param": "b0"}, curve="1,1,0.6\n")
    diffs = compare_trees.compare_runs(str(a), str(b))
    assert len(diffs) == 2 and diffs[0].startswith("error ") and "'b0'" in diffs[0]
    assert diffs[1] == "curve_seed0.csv"


def test_seed_lists_take_ranges_and_single_seeds(compare_trees):
    assert compare_trees.parse_seeds("1-3,37,45") == [1, 2, 3, 37, 45]
