"""Shared fixtures.

The toy training runs are the expensive part of the suite, so they are
session-scoped and their wall times are recorded for the acceptance
tests that put a clock on them.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from faceveil.embed import FaceChip
from faceveil.image import normalize_pixels, to_frame
from faceveil.models import CHIP_SIZE
from faceveil.nn import WeightStore
from faceveil.recognize import ADULT, CHILD, gallery_build
from faceveil.synth import make_face_chip, make_portrait
from faceveil.train import TrainerConfig, train_toy


def chip_batch(seed, n, size=CHIP_SIZE):
    """n labeled raw chips (CHW float 0..255), labels alternating."""
    rng = np.random.default_rng(seed)
    labels = [CHILD if i % 2 == 0 else ADULT for i in range(n)]
    return [make_face_chip(rng, lb, size) for lb in labels], labels


@pytest.fixture(scope="session")
def detector_training():
    cfg = TrainerConfig(task="detector")
    start = time.perf_counter()
    result = train_toy(cfg)
    return {"result": result, "seconds": time.perf_counter() - start, "config": cfg}


@pytest.fixture(scope="session")
def embedder_training():
    cfg = TrainerConfig(task="embedder")
    start = time.perf_counter()
    result = train_toy(cfg)
    return {"result": result, "seconds": time.perf_counter() - start, "config": cfg}


@pytest.fixture(scope="session")
def toy_weights(detector_training, embedder_training):
    return WeightStore.merge(
        detector_training["result"].weights, embedder_training["result"].weights
    )


@pytest.fixture(scope="session")
def gallery20(embedder_training):
    raw, labels = chip_batch(seed=7, n=20)
    chips = [FaceChip(normalize_pixels(c), (0.0, 0.0, CHIP_SIZE, CHIP_SIZE)) for c in raw]
    gallery, failures = gallery_build(
        chips, labels, embedder_training["result"].weights, note="test gallery"
    )
    assert not failures
    return gallery


@pytest.fixture(scope="session")
def probe_portraits():
    """200 one-face frames (HWC uint8) with ground-truth labels."""
    rng = np.random.default_rng(11)
    labels = [CHILD if i % 2 == 0 else ADULT for i in range(200)]
    frames = [to_frame(make_portrait(rng, lb, 64)[0]) for lb in labels]
    return frames, labels
