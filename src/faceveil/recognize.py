"""Child/adult decision from face embeddings.

A gallery holds labeled unit-norm reference vectors.  The score of a
probe is the margin d_adult - d_child between its Euclidean distances to
the nearest reference of each class, so larger means more child-like;
the probe is called a child when the score exceeds the threshold and
an adult on a tie.

A gallery file is an ``.mprw`` tensor file (see ``faceveil.nn.weights``)
holding up to three tensors:

- ``gallery.vectors``: (n, 128) reference rows in gallery order;
- ``gallery.labels``: (n,) label codes, 0.0 for child and 1.0 for adult;
- ``gallery.note``: (k,) the UTF-8 bytes of the note, absent when empty.

An empty gallery has neither vectors nor labels, since ``.mprw``
dimensions must be at least 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .embed import NORM_TOL, embed_chip
from .errors import ConfigError, DataError, DegenerateInputError, InvariantError
from .models import EMBED_DIM
from .nn import load_weights, save_weights

CHILD = "child"
ADULT = "adult"
LABELS = (CHILD, ADULT)
_VECTORS = "gallery.vectors"
_LABELS = "gallery.labels"
_NOTE = "gallery.note"


@dataclass(frozen=True)
class Gallery:
    labels: tuple
    vectors: np.ndarray  # (n, 128) float32, rows unit-norm, read-only
    note: str = ""  # free-text provenance, carried through save/load

    def __post_init__(self):
        # classify caches a split of the rows, so they must not change under it
        if self.vectors.flags.writeable:
            frozen = self.vectors.copy()
            frozen.flags.writeable = False
            object.__setattr__(self, "vectors", frozen)

    def __len__(self):
        return len(self.labels)

    @cached_property
    def _rows64_by_label(self):
        # classify's operands, split and cast to float64 once per gallery, not once per call
        labels = np.array(self.labels)
        return {
            label: self.vectors[labels == label].astype(np.float64)
            for label in set(self.labels)
        }


def _check_unit_rows(rows, where=""):
    """Raise DataError naming the first row whose norm is more than NORM_TOL from 1."""
    norms = np.sqrt(np.einsum("ij,ij->i", rows, rows, dtype=np.float64))
    bad = ~(np.abs(norms - 1.0) <= NORM_TOL)  # also catches NaN
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"{where}entry {i}: reference norm {norms[i]:.6f} is not 1")


def build_gallery(entries, note=""):
    """Validate (label, vector) pairs into a Gallery.

    Labels must be "child" or "adult"; vectors must be 128-d and within
    NORM_TOL of unit norm.  Values are kept as given (cast to float32) so a
    save/load round trip is bit-exact.  Zero entries yield an empty
    gallery, which exists but cannot classify anything.
    """
    labels, rows = [], []
    for i, (label, vec) in enumerate(entries):
        if label not in LABELS:
            raise DataError(f"entry {i}: unknown label {label!r}")
        vec = np.asarray(vec, dtype=np.float64).reshape(-1)
        if vec.shape[0] != EMBED_DIM:
            raise DataError(f"entry {i}: expected {EMBED_DIM} values, got {vec.shape[0]}")
        labels.append(label)
        rows.append(vec)
    rows = np.array(rows, dtype=np.float64).reshape(-1, EMBED_DIM)
    _check_unit_rows(rows)
    return Gallery(tuple(labels), rows.astype(np.float32), note=note)


def gallery_build(chips, labels, weights, note=""):
    """Embed labeled face chips into a Gallery, tolerating bad samples.

    Returns (gallery, failures) where failures is a list of
    (index, message) for chips whose own pixels embed to a degenerate or
    non-unit vector; the gallery is built from the rest, and any other
    error propagates.  Zero usable samples still return an (empty,
    unusable) gallery so the caller can decide how loudly to complain.
    """
    chips = list(chips)
    labels = list(labels)
    if len(chips) != len(labels):
        raise ConfigError(f"{len(chips)} chips vs {len(labels)} labels")
    entries, failures = [], []
    for i, (chip, label) in enumerate(zip(chips, labels)):
        try:
            entries.append((label, embed_chip(chip, weights)))
        except (DegenerateInputError, InvariantError) as e:
            failures.append((i, str(e)))
    built = note or f"built from {len(entries)} of {len(chips)} chips"
    return build_gallery(entries, note=built), failures


@dataclass(frozen=True)
class ClassificationResult:
    label: str
    score: float  # d_adult - d_child, child iff > threshold
    d_child: float
    d_adult: float
    threshold: float = 0.0

    @property
    def margin(self):
        """Signed distance from the decision boundary (positive = child side)."""
        return self.score - self.threshold


def _min_dist(emb, rows64):
    # rows and emb are unit vectors, so |e - v|^2 == 2 - 2 <e, v>
    return math.sqrt(max(0.0, float(np.min(2.0 - 2.0 * (rows64 @ emb)))))


def check_threshold(threshold):
    """Refuse a NaN or infinite threshold: no score would exceed it, so no child is ever called."""
    if not math.isfinite(threshold):
        raise ConfigError(f"threshold must be a finite number, got {threshold!r}")


def classify(embedding, gallery, threshold=0.0):
    check_threshold(threshold)
    emb = np.asarray(embedding, dtype=np.float64).reshape(-1)
    if emb.shape[0] != EMBED_DIM:
        raise ConfigError(f"expected {EMBED_DIM}-d embedding, got {emb.shape[0]}")
    rows = gallery._rows64_by_label
    if CHILD not in rows or ADULT not in rows:
        raise ConfigError("gallery needs at least one reference of each class")
    d_child = _min_dist(emb, rows[CHILD])
    d_adult = _min_dist(emb, rows[ADULT])
    score = d_adult - d_child
    label = CHILD if score > threshold else ADULT
    return ClassificationResult(label, score, d_child, d_adult, float(threshold))


@dataclass(frozen=True)
class RocCurve:
    thresholds: np.ndarray  # descending, +inf first, -inf last
    fpr: np.ndarray
    tpr: np.ndarray
    auc: float

    @property
    def points(self):
        """(threshold, fpr, tpr) triples sorted by FPR (ascending)."""
        return list(zip(self.thresholds.tolist(), self.fpr.tolist(), self.tpr.tolist()))


def compute_roc(scores, labels):
    """Operating points over every distinct score, child as positive class.

    Each threshold t yields the point (FPR, TPR) of the rule
    "child iff score > t".  Sentinels at +/-inf pin the curve to (0, 0)
    and (1, 1); the area uses the trapezoid rule.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape[0] != labels.shape[0]:
        raise ConfigError(f"{scores.shape[0]} scores vs {labels.shape[0]} labels")
    pos = labels == CHILD
    n_pos = int(np.count_nonzero(pos))
    n_neg = int(scores.shape[0] - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs at least one probe of each class")
    if np.isnan(scores).any():
        raise DataError("ROC scores must not be NaN")
    ts = np.concatenate([[np.inf], np.unique(scores)[::-1], [-np.inf]])

    def above(class_scores):
        # scores > t for every t at once: one sort, then a bisection per threshold
        ranked = np.sort(class_scores)
        return ranked.size - np.searchsorted(ranked, ts, side="right")

    tpr = above(scores[pos]) / n_pos
    fpr = above(scores[~pos]) / n_neg
    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0))
    return RocCurve(ts, fpr, tpr, auc)


def save_roc(roc, path):
    """threshold,fpr,tpr per operating point, then a final auc,<value> line."""
    with open(path, "w", encoding="utf-8") as f:
        for t, fp, tp in zip(roc.thresholds, roc.fpr, roc.tpr):
            f.write(f"{t:.9g},{fp:.9g},{tp:.9g}\n")
        f.write(f"auc,{roc.auc:.9g}\n")


def save_gallery(gallery, path):
    """Write the gallery as an .mprw file; ``load_gallery`` reads it back bit-exact."""
    tensors = {}
    if len(gallery):
        tensors[_VECTORS] = gallery.vectors
        tensors[_LABELS] = [LABELS.index(label) for label in gallery.labels]
    if gallery.note:
        tensors[_NOTE] = np.frombuffer(gallery.note.encode("utf-8"), dtype=np.uint8)
    save_weights(tensors, path)


def load_gallery(path):
    """Read and check a gallery file; anything but a valid gallery raises DataError."""
    try:
        store = load_weights(path)
    except DataError as e:
        raise type(e)(f"{path}: {e}") from None
    unknown = sorted(set(store) - {_VECTORS, _LABELS, _NOTE})
    if unknown:
        raise DataError(f"{path}: unexpected tensor {unknown[0]!r}, not a gallery file")
    for have, need in ((_VECTORS, _LABELS), (_LABELS, _VECTORS)):
        if have in store and need not in store:
            raise DataError(f"{path}: tensor {have!r} without {need!r}")
    vectors = store.get(_VECTORS, np.zeros((0, EMBED_DIM), np.float32))
    codes = store.get(_LABELS, np.zeros(0, np.float32))
    if vectors.ndim != 2 or vectors.shape[1] != EMBED_DIM:
        raise DataError(f"{path}: {_VECTORS!r} has shape {vectors.shape}, "
                        f"expected (n, {EMBED_DIM})")
    if codes.shape != vectors.shape[:1]:
        raise DataError(f"{path}: {_LABELS!r} has shape {codes.shape}, "
                        f"expected ({vectors.shape[0]},)")
    bad = (codes != 0.0) & (codes != 1.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(f"{path}: entry {i}: label code {codes[i]} is not 0 (child) or 1 (adult)")
    _check_unit_rows(vectors, where=f"{path}: ")
    note = store.get(_NOTE, np.zeros(0, np.float32))
    if note.ndim != 1 or not np.all((note >= 0) & (note <= 255) & (note == np.floor(note))):
        raise DataError(f"{path}: {_NOTE!r} must be a row of byte values")
    try:
        text = note.astype(np.uint8).tobytes().decode("utf-8")
    except UnicodeDecodeError as e:
        raise DataError(f"{path}: note is not UTF-8: {e}") from None
    labels = tuple(np.array(LABELS)[codes.astype(np.intp)].tolist())
    return Gallery(labels, vectors, note=text)
