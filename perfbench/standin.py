"""Deterministic MNIST-shaped stand-in data.

Real MNIST is not shipped with the repository, so the paper-shape workloads
run on generated images with MNIST's layout: 28x28 uint8 pixels, ten classes,
the four IDX files under their usual names. Each class owns a template made
of a few soft strokes; a sample is its class template shifted by up to two
pixels, scaled in brightness and overlaid with clipped Gaussian noise. The
files are written through the program's own `otcl.data.write_idx`, so the
program reads them back with its normal IDX loader.

Everything derives from one seed; the same seed gives byte-identical files.
"""

from __future__ import annotations

import os

import numpy as np

SIDE = 28
NUM_CLASSES = 10
MAX_SHIFT = 2
STROKES_PER_CLASS = 3
STROKE_WIDTH = 1.3  # Gaussian falloff (pixels) around each stroke
NOISE_STD = 40.0  # grey levels
CHUNK_ROWS = 5000  # rows generated at a time, to bound memory
# The class templates are the stand-in's fixed "digits": every seed draws new
# images of the same ten classes, so task difficulty does not vary by seed.
TEMPLATE_SEED = 0


def class_templates(rng: np.random.Generator) -> np.ndarray:
    """(NUM_CLASSES, SIDE, SIDE) float templates in [0, 255]."""
    yy, xx = np.mgrid[0:SIDE, 0:SIDE].astype(np.float64)
    grid = np.stack([yy, xx], axis=-1)  # (SIDE, SIDE, 2)
    templates = np.zeros((NUM_CLASSES, SIDE, SIDE))
    for c in range(NUM_CLASSES):
        ends = rng.uniform(6.0, SIDE - 6.0, size=(STROKES_PER_CLASS, 2, 2))
        ink = np.zeros((SIDE, SIDE))
        for a, b in ends:
            ab = b - a
            t = np.clip(((grid - a) @ ab) / (ab @ ab), 0.0, 1.0)
            d2 = ((grid - (a + t[..., None] * ab)) ** 2).sum(axis=-1)
            ink = np.maximum(ink, np.exp(-d2 / (2.0 * STROKE_WIDTH**2)))
        templates[c] = 255.0 * ink
    return templates


def make_images(
    templates: np.ndarray, labels: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Shifted, brightness-scaled, noisy uint8 copies of the class templates."""
    pad = np.pad(templates, ((0, 0), (MAX_SHIFT, MAX_SHIFT), (MAX_SHIFT, MAX_SHIFT)))
    ar = np.arange(SIDE)
    out = np.empty((labels.size, SIDE, SIDE), dtype=np.uint8)
    for lo in range(0, labels.size, CHUNK_ROWS):
        c = labels[lo : lo + CHUNK_ROWS]
        n = c.size
        oy = rng.integers(0, 2 * MAX_SHIFT + 1, size=n)
        ox = rng.integers(0, 2 * MAX_SHIFT + 1, size=n)
        gain = rng.uniform(0.6, 1.0, size=n)
        img = pad[
            c[:, None, None],
            oy[:, None, None] + ar[None, :, None],
            ox[:, None, None] + ar[None, None, :],
        ]
        img = img * gain[:, None, None] + NOISE_STD * rng.standard_normal((n, SIDE, SIDE))
        out[lo : lo + n] = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    return out


def balanced_labels(n: int, rng: np.random.Generator) -> np.ndarray:
    """n labels, as even across the classes as n allows, in shuffled order."""
    labels = np.arange(n) % NUM_CLASSES
    return labels[rng.permutation(n)].astype(np.uint8)


def write_standin(out_dir: str, seed: int, n_train: int, n_test: int) -> None:
    """Write the four MNIST IDX files of a stand-in drawn from `seed`."""
    from otcl.data import write_idx
    from otcl.harness import MNIST_FILES

    os.makedirs(out_dir, exist_ok=True)
    templates = class_templates(np.random.default_rng(TEMPLATE_SEED))
    rng = np.random.default_rng(seed)
    for split, n in (("train", n_train), ("test", n_test)):
        labels = balanced_labels(n, rng)
        images = make_images(templates, labels, rng)
        write_idx(
            os.path.join(out_dir, MNIST_FILES[f"{split}_images"]),
            os.path.join(out_dir, MNIST_FILES[f"{split}_labels"]),
            images,
            labels,
        )
