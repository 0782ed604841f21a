"""Child/adult decision from face embeddings.

A gallery holds labeled unit-norm reference vectors.  The score of a
probe is the margin d_adult - d_child between its Euclidean distances to
the nearest reference of each class, so larger means more child-like;
the probe is called a child when the score exceeds the threshold and
an adult on a tie.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, FaceveilError
from .imgio import text_lines
from .models import EMBED_DIM

CHILD = "child"
ADULT = "adult"
LABELS = (CHILD, ADULT)


@dataclass(frozen=True)
class Gallery:
    labels: tuple
    vectors: np.ndarray  # (n, 128) float32, rows unit-norm
    note: str = ""  # free-text provenance, carried through save/load

    def __len__(self):
        return len(self.labels)

    def vectors_for(self, label):
        mask = np.array([lb == label for lb in self.labels], dtype=bool)
        return self.vectors[mask]


def build_gallery(entries, note=""):
    """Validate (label, vector) pairs into a Gallery.

    Labels must be "child" or "adult"; vectors must be 128-d and within
    1e-3 of unit norm.  Values are kept as given (cast to float32) so a
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
        norm = float(np.linalg.norm(vec))
        if not abs(norm - 1.0) <= 1e-3:  # also rejects NaN
            raise DataError(f"entry {i}: reference norm {norm:.6f} is not 1")
        labels.append(label)
        rows.append(vec)
    vectors = (
        np.asarray(rows, dtype=np.float32) if rows else np.zeros((0, EMBED_DIM), np.float32)
    )
    return Gallery(tuple(labels), vectors, note=note)


def gallery_build(chips, labels, weights, note=""):
    """Embed labeled face chips into a Gallery, tolerating bad samples.

    Returns (gallery, failures) where failures is a list of
    (index, message) for chips that could not be embedded; the gallery is
    built from the rest.  Zero usable samples still return an (empty,
    unusable) gallery so the caller can decide how loudly to complain.
    """
    from .embed import embed_chip  # local import to avoid a cycle

    chips = list(chips)
    labels = list(labels)
    if len(chips) != len(labels):
        raise ConfigError(f"{len(chips)} chips vs {len(labels)} labels")
    entries, failures = [], []
    for i, (chip, label) in enumerate(zip(chips, labels)):
        try:
            entries.append((label, embed_chip(chip, weights)))
        except FaceveilError as e:
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


def _min_dist(emb, vecs):
    # rows and emb are unit vectors, so |e - v|^2 == 2 - 2 <e, v>
    dots = vecs.astype(np.float64) @ emb.astype(np.float64)
    return math.sqrt(max(0.0, float(np.min(2.0 - 2.0 * dots))))


def classify(embedding, gallery, threshold=0.0):
    emb = np.asarray(embedding, dtype=np.float64).reshape(-1)
    if emb.shape[0] != EMBED_DIM:
        raise ConfigError(f"expected {EMBED_DIM}-d embedding, got {emb.shape[0]}")
    child_vecs = gallery.vectors_for(CHILD)
    adult_vecs = gallery.vectors_for(ADULT)
    if child_vecs.shape[0] == 0 or adult_vecs.shape[0] == 0:
        raise ConfigError("gallery needs at least one reference of each class")
    d_child = _min_dist(emb, child_vecs)
    d_adult = _min_dist(emb, adult_vecs)
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
    ts = np.concatenate([[np.inf], np.unique(scores)[::-1], [-np.inf]])
    pred = scores[None, :] > ts[:, None]
    tpr = np.count_nonzero(pred & pos[None, :], axis=1) / n_pos
    fpr = np.count_nonzero(pred & ~pos[None, :], axis=1) / n_neg
    auc = float(np.sum((fpr[1:] - fpr[:-1]) * (tpr[1:] + tpr[:-1]) / 2.0))
    return RocCurve(ts, fpr, tpr, auc)


def save_roc(roc, path):
    """threshold,fpr,tpr per operating point, then a final auc,<value> line."""
    with open(path, "w", encoding="utf-8") as f:
        for t, fp, tp in zip(roc.thresholds, roc.fpr, roc.tpr):
            f.write(f"{t:.9g},{fp:.9g},{tp:.9g}\n")
        f.write(f"auc,{roc.auc:.9g}\n")


def save_gallery(gallery, path):
    """One reference per line: label,v0,...,v127 with round-trip-exact floats."""
    with open(path, "w", encoding="utf-8") as f:
        for note_line in gallery.note.splitlines():
            f.write(f"# {note_line}\n")
        for label, vec in zip(gallery.labels, gallery.vectors):
            f.write(label + "," + ",".join(f"{float(v):.9g}" for v in vec) + "\n")


def load_gallery(path):
    entries = []
    note_lines = []
    for ln, line in text_lines(path):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            note_lines.append(line[1:].strip())
            continue
        parts = line.split(",")
        if len(parts) != EMBED_DIM + 1:
            raise DataError(f"{path}:{ln}: expected label + {EMBED_DIM} values")
        try:
            vec = np.array([float(v) for v in parts[1:]], dtype=np.float64)
        except ValueError as e:
            raise DataError(f"{path}:{ln}: {e}") from None
        entries.append((parts[0].strip(), vec))
    return build_gallery(entries, note="\n".join(note_lines))
