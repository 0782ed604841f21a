"""The benchmark's workloads: what each one feeds faceveil, built from a seed.

Frame workloads replay the ``faceveil run`` path on a generated PPM
stream with a generated gallery CSV; ``toy_training`` drives
``train_toy``.  Why each workload exists is recorded in BENCHMARK.json
and perfbench/README.md.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from faceveil.denature import Pixelate, RedactionPolicy, Scramble
from faceveil.detect import DetectorConfig
from faceveil.embed import FaceChip
from faceveil.image import normalize_pixels, to_frame
from faceveil.pipeline import PipelineConfig
from faceveil.recognize import ADULT, CHILD, build_gallery, gallery_build
from faceveil.synth import (
    ADULT_BASE,
    CHILD_BASE,
    box_iou,
    draw_face,
    make_face_chip,
    textured_background,
)

CHIP = 32  # the toy embedder's input size
PREFIX = 16  # frames over which digests and funnel counts are taken


@dataclass(frozen=True)
class FrameWorkload:
    name: str
    height: int
    width: int
    faces: tuple  # face count of each frame slot, cycled over the stream
    face_radius: tuple  # (low, high) of the face half-height, as in make_scene
    stream_frames: int  # distinct frames in the generated stream; runs cycle it
    gallery_size: int
    min_face: int
    scramble: bool  # keyed scramble (restorable) instead of pixelate
    protect: frozenset


# Each workload is one fixed camera: frame slot j always shows the same
# background view, generated from the workload's name, and the seed
# places and draws the people.  make_scene would draw a fresh background
# per frame; background texture sets most of the detector's proposals, so
# fixed views keep a run's timings from hanging on which backgrounds a
# seed happened to draw, while every run still sees every view.
FRAME_WORKLOADS = {
    w.name: w
    for w in (
        # Fixed street camera: 0-3 small faces, protect children only.  The
        # per-crop refinement loops dominate; embed, classify and denature
        # are a fraction of a percent, so this one bypasses those layers.
        FrameWorkload("street_qvga", 240, 320, (0, 1, 2, 3), (14.0, 52.8), 64, 20, 20, False,
                      frozenset({CHILD})),
        # Close-range camera: two large faces per frame, every face
        # scrambled, a gallery of thousands.  Denature, classify, gallery
        # loading and stream memory are heavy; refinement is a small share.
        FrameWorkload("closeup_vga", 480, 640, (2,), (90.0, 110.0), 32, 3000, 80, True,
                      frozenset({CHILD, ADULT})),
    )
}

# toy_training: per training run, the detector's three stages and the
# embedder each see n_train samples for the given number of epochs.
TRAIN_DETECTOR = {"n_train": 96, "epochs": 2}
TRAIN_EMBEDDER = {"n_train": 96, "epochs": 2}
TRAIN_SAMPLES = 3 * TRAIN_DETECTOR["n_train"] * TRAIN_DETECTOR["epochs"] + (
    TRAIN_EMBEDDER["n_train"] * TRAIN_EMBEDDER["epochs"]
)


def scramble_key(seed):
    return hashlib.sha256(b"perfbench-scramble-key|%d" % seed).digest()[:16]


def pipeline_config(workload, seed):
    method = Scramble(scramble_key(seed)) if workload.scramble else Pixelate()
    return PipelineConfig(
        detector=DetectorConfig(min_face_size=workload.min_face),
        chip_size=CHIP,
        method=method,
        policy=RedactionPolicy(labels=workload.protect),
    )


def _tint(rng, label):
    base = np.array(CHILD_BASE if label == CHILD else ADULT_BASE)
    return np.clip(base + rng.uniform(-18.0, 18.0, size=3), 0.0, 255.0)


def _place_faces(img, rng, labels, radius):
    """Draw one face per label where it overlaps no other; make_scene's rules."""
    _, h, w = img.shape
    placed = []
    for label in labels:
        for _ in range(60):
            ry = rng.uniform(*radius)
            rx = ry * rng.uniform(0.72, 0.85)
            cx = rng.uniform(ry + 2.0, w - ry - 2.0)
            cy = rng.uniform(ry + 2.0, h - ry - 2.0)
            box = (cx - ry, cy - ry, cx + ry, cy + ry)
            if all(box_iou(box, b) < 0.02 for b, _ in placed):
                draw_face(img, cx, cy, rx, ry, _tint(rng, label), rng)
                placed.append((box, label))
                break
    return placed


def make_frames(workload, seed):
    """[(uint8 frame, [(ground-truth box, label)])] for one seed.

    Labels alternate child/adult across the stream's faces.
    """
    rng = np.random.default_rng([seed, 0])
    view_seed = int.from_bytes(hashlib.sha256(workload.name.encode()).digest()[:4], "little")
    out, n_faces = [], 0
    for slot in range(workload.stream_frames):
        view = np.random.default_rng([view_seed, slot])
        img = textured_background(view, workload.height, workload.width)
        n = workload.faces[slot % len(workload.faces)]
        labels = [CHILD if (n_faces + j) % 2 == 0 else ADULT for j in range(n)]
        n_faces += n
        truth = _place_faces(img, rng, labels, workload.face_radius)
        out.append((to_frame(img), truth))
    return out


def make_gallery(workload, seed, embedder_weights):
    """Gallery of real toy embeddings, widened by jittered copies when large."""
    rng = np.random.default_rng([seed, 1])
    n_real = min(workload.gallery_size, 64)
    labels = [CHILD if i % 2 == 0 else ADULT for i in range(n_real)]
    chips = [
        FaceChip(normalize_pixels(make_face_chip(rng, label, CHIP)), (0.0, 0.0, CHIP, CHIP))
        for label in labels
    ]
    real, failures = gallery_build(chips, labels, embedder_weights)
    if failures:
        raise RuntimeError(f"gallery chips failed to embed: {failures}")
    entries = list(zip(real.labels, real.vectors.astype(np.float64)))
    for i in range(workload.gallery_size - n_real):
        label, vec = entries[i % n_real]
        v = vec + rng.normal(0.0, 0.03, size=vec.shape)
        entries.append((label, v / np.linalg.norm(v)))
    note = f"perfbench {workload.name} seed {seed}: {n_real} embedded chips plus jittered copies"
    return build_gallery(entries, note=note)
