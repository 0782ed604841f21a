"""Frame pipeline: detect faces, classify child/adult, obscure, report.

Stage times come from shared boundary timestamps, so the four stage
durations tile the total exactly (up to float rounding).  Reports are
one JSON object per frame with sorted keys; with timing disabled the
report stream is byte-identical across runs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .denature import Pixelate, RedactionPolicy, apply_policy
from .detect import DetectorConfig, detect_faces
from .embed import align_crop, embed_chip
from .errors import ConfigError, DataError, InvariantError
from .image import to_planar
from .imgio import check_frame
from .models import CHIP_SIZE, detector_nets, embedding_net
from .recognize import LABELS, check_threshold, classify, compute_roc

STAGES = ("detect_ms", "embed_ms", "classify_ms", "denature_ms")
TIMING_SLACK_MS = 1e-6
TIMING_HEADROOM = 0.05  # the total may exceed the stage sum by this share


@dataclass(frozen=True)
class PipelineConfig:
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    chip_size: int = CHIP_SIZE
    threshold: float = 0.0  # classify margin cut
    method: object = field(default_factory=Pixelate)
    policy: RedactionPolicy = field(default_factory=RedactionPolicy)
    emit_timing: bool = True

    def __post_init__(self):
        check_threshold(self.threshold)


class Pipeline:
    """Holds the networks and weights; processes frames one at a time."""

    def __init__(self, weights, gallery=None, config=None):
        self.config = config or PipelineConfig()
        self.weights = weights
        self.gallery = gallery
        if gallery is None and self.config.policy.labels:
            raise ConfigError("redacting by label requires a gallery to classify against")
        self.embedder = embedding_net(self.config.chip_size)
        for net in detector_nets().values():
            net.check_weights(weights)
        if gallery is not None:
            self.embedder.check_weights(weights)
            for label in LABELS:
                if label not in gallery.labels:
                    raise ConfigError(f"gallery has no {label!r} references")

    def process_frame(self, frame, index=0, source=None):
        """(H, W, 3) uint8 frame -> (processed frame, report dict); else ConfigError."""
        frame = check_frame(frame)
        cfg = self.config
        img = to_planar(frame)

        t0 = time.perf_counter()
        dets = detect_faces(img, self.weights, cfg.detector)
        t1 = time.perf_counter()
        embeddings = []
        if self.gallery is not None:
            for det in dets:
                chip = align_crop(img, det.box, cfg.chip_size)
                embeddings.append(embed_chip(chip, self.weights))
        t2 = time.perf_counter()
        results = [classify(e, self.gallery, cfg.threshold) for e in embeddings]
        t3 = time.perf_counter()
        faces = []
        policy_input = []
        for i, det in enumerate(dets):
            entry = detection_entry(det)
            entry["label"] = results[i].label if results else None
            entry["redacted"] = False
            tie = False
            if results:
                entry["d_child"] = results[i].d_child
                entry["d_adult"] = results[i].d_adult
                entry["margin"] = results[i].margin
                tie = results[i].score == cfg.threshold
            policy_input.append((tuple(entry["box"]), entry["label"], det.box.score, tie))
            faces.append(entry)
        out, log = apply_policy(frame, policy_input, cfg.policy, cfg.method)
        for item in log:
            faces[item["index"]]["redacted"] = True
        t4 = time.perf_counter()

        timing = {
            "detect_ms": (t1 - t0) * 1e3,
            "embed_ms": (t2 - t1) * 1e3,
            "classify_ms": (t3 - t2) * 1e3,
            "denature_ms": (t4 - t3) * 1e3,
            "total_ms": (t4 - t0) * 1e3,
        }
        check_timing(timing)
        report = {
            "frame": int(index),
            "source": str(index) if source is None else str(source),
            "faces": faces,
            "redactions": log,
        }
        if cfg.emit_timing:
            report["timing_ms"] = timing
        return out, report


def detection_entry(det):
    """A detection's report fields: box, score and five landmark points."""
    return {
        "box": [det.box.x1, det.box.y1, det.box.x2, det.box.y2],
        "score": det.box.score,
        "landmarks": [list(p) for p in det.landmarks],
    }


def report_line(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def check_timing(timing):
    """Stage times must be non-negative and tile the total, within TIMING_HEADROOM."""
    parts = [timing[s] for s in STAGES]
    if any(p < 0 for p in parts):
        raise InvariantError(f"negative stage time in {timing}")
    total = timing["total_ms"]
    ssum = sum(parts)
    if total + TIMING_SLACK_MS < ssum:
        raise InvariantError(f"stage sum {ssum} exceeds total {total}")
    if total > ssum * (1.0 + TIMING_HEADROOM) + TIMING_SLACK_MS:
        raise InvariantError(f"total {total} exceeds stage sum {ssum} by more than headroom")


@dataclass
class EvalSummary:
    """Probe-set verdict: a miss is any probe not given its true label."""

    total: int
    miss_count: int
    confusion: dict = field(default_factory=dict)  # (truth, predicted) -> count
    roc: object = None  # RocCurve over probes that produced a score

    @property
    def miss_rate(self):
        return self.miss_count / self.total if self.total else 0.0

    @property
    def detection_rate(self):
        return 1.0 - self.miss_rate

    @property
    def auc(self):
        return self.roc.auc if self.roc is not None else None

    @classmethod
    def from_tally(cls, miss_count, total):
        if total == 0:
            raise ConfigError("an empty probe set has no detection rate")
        if not 0 <= miss_count <= total:
            raise ConfigError(f"bad tally: {miss_count} misses of {total}")
        return cls(total=total, miss_count=miss_count)

    def summary(self):
        return {
            "total": self.total,
            "miss_count": self.miss_count,
            "miss_rate": self.miss_rate,
            "detection_rate": self.detection_rate,
            "auc": self.auc,
        }


def _finite(value):
    return type(value) in (int, float) and math.isfinite(value)


def check_report(report):
    """A report read back from a file, checked for the fields evaluate_reports reads."""
    if not isinstance(report, dict):
        raise DataError("a report must be a JSON object")
    if not isinstance(report.get("source", ""), str):
        raise DataError("a report's source must be a string")
    faces = report.get("faces") or []
    if not isinstance(faces, list):
        raise DataError("a report's faces must be a list")
    for face in faces:
        if not isinstance(face, dict) or not _finite(face.get("score")):
            raise DataError("each face needs a finite score")
        if face.get("margin") is not None and not _finite(face["margin"]):
            raise DataError("a face's margin must be a finite number or null")
        if face.get("label") is not None and not isinstance(face["label"], str):
            raise DataError("a face's label must be a string or null")
    return report


def evaluate_reports(reports, truth):
    """Score a run's frame reports against source -> label ground truth.

    Each report's highest-scoring face is its prediction; frames with no
    face are misses and contribute no ROC score.  Sources without a truth
    label (or labels naming unknown sources) are listed in the error.
    """
    reports = list(reports)
    seen = [r.get("source", str(r.get("frame", i))) for i, r in enumerate(reports)]
    missing = sorted(set(seen) - set(truth))
    if missing:
        raise DataError(f"probes without a truth label: {', '.join(missing)}")
    unknown = sorted(set(truth) - set(seen))
    if unknown:
        raise DataError(f"labels reference unknown samples: {', '.join(unknown)}")

    miss, confusion, scores, labels = 0, {}, [], []
    for src, rep in zip(seen, reports):
        predicted = score = None
        faces = rep.get("faces") or []
        if faces:
            best = max(faces, key=lambda f: f["score"])
            if best.get("label") is None:
                raise DataError(f"report {src!r} carries no classification; run with a gallery")
            predicted, score = best["label"], best.get("margin")
        want = truth[src]
        miss += int(predicted != want)
        confusion[(want, predicted)] = confusion.get((want, predicted), 0) + 1
        if score is not None:
            scores.append(score)
            labels.append(want)
    roc = compute_roc(scores, labels) if scores else None
    return EvalSummary(len(reports), miss, confusion, roc)


def timing_stats(timings):
    """Per-stage mean/median/p95 milliseconds over reports' ``timing_ms`` dicts (at least one)."""
    keys = STAGES + ("total_ms",)
    samples = np.array([[t[k] for k in keys] for t in timings])
    return {
        k: {
            "mean": float(col.mean()),
            "median": float(np.median(col)),
            "p95": float(np.percentile(col, 95)),
        }
        for k, col in zip(keys, samples.T)
    }
