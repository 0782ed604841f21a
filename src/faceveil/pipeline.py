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
from .embed import FaceChip, align_crop, embed_chip
from .errors import ConfigError, DataError, InvariantError
from .image import normalize_pixels, to_planar
from .models import detector_nets, embedding_net
from .recognize import LABELS, classify, compute_roc

STAGES = ("detect_ms", "embed_ms", "classify_ms", "denature_ms")
TIMING_SLACK_MS = 1e-6


@dataclass(frozen=True)
class PipelineConfig:
    detector: DetectorConfig = field(default_factory=DetectorConfig)
    chip_size: int = 160
    threshold: float = 0.0  # classify margin cut
    method: object = field(default_factory=Pixelate)
    policy: RedactionPolicy = field(default_factory=RedactionPolicy)
    emit_timing: bool = True


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
                if gallery.vectors_for(label).shape[0] == 0:
                    raise ConfigError(f"gallery has no {label!r} references")

    def process_frame(self, frame, index=0, source=None):
        """(H, W, 3) uint8 frame -> (processed frame, report dict)."""
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

    def process_stream(self, frames, report_file=None):
        """Yield processed frames; optionally write one JSON report line each."""
        for i, frame in enumerate(frames):
            out, report = self.process_frame(frame, i)
            if report_file is not None:
                report_file.write(report_line(report) + "\n")
            yield out


def detection_entry(det):
    """A detection's report fields: box, score and five landmark points."""
    return {
        "box": [det.box.x1, det.box.y1, det.box.x2, det.box.y2],
        "score": det.box.score,
        "landmarks": [list(p) for p in det.landmarks],
    }


def report_line(report):
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def check_timing(timing, overhead_frac=0.05):
    """Stage times must be non-negative and tile the total (5% headroom)."""
    parts = [timing[s] for s in STAGES]
    if any(p < 0 for p in parts):
        raise InvariantError(f"negative stage time in {timing}")
    total = timing["total_ms"]
    ssum = sum(parts)
    if total + TIMING_SLACK_MS < ssum:
        raise InvariantError(f"stage sum {ssum} exceeds total {total}")
    if total > ssum * (1.0 + overhead_frac) + TIMING_SLACK_MS:
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
    def accuracy(self):
        return (self.total - self.miss_count) / self.total if self.total else 0.0

    @property
    def auc(self):
        return self.roc.auc if self.roc is not None else None

    @classmethod
    def from_tally(cls, miss_count, total):
        if not 0 <= miss_count <= total:
            raise ConfigError(f"bad tally: {miss_count} misses of {total}")
        return cls(total=total, miss_count=miss_count)

    def summary(self):
        return {
            "total": self.total,
            "miss_count": self.miss_count,
            "miss_rate": self.miss_rate,
            "detection_rate": self.detection_rate,
            "accuracy": self.accuracy,
            "auc": self.auc,
        }


def _tally(pairs):
    """(truth, predicted, score) stream -> (miss_count, confusion, roc)."""
    miss, confusion, scores, labels = 0, {}, [], []
    n = 0
    for truth, predicted, score in pairs:
        n += 1
        miss += int(predicted != truth)
        confusion[(truth, predicted)] = confusion.get((truth, predicted), 0) + 1
        if score is not None:
            scores.append(score)
            labels.append(truth)
    roc = compute_roc(scores, labels) if scores else None
    return n, miss, confusion, roc


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

    def pairs():
        for src, rep in zip(seen, reports):
            faces = rep.get("faces") or []
            if not faces:
                yield truth[src], None, None
                continue
            best = max(faces, key=lambda f: f["score"])
            if best.get("label") is None:
                raise DataError(f"report {src!r} carries no classification; run with a gallery")
            yield truth[src], best["label"], best.get("margin")

    n, miss, confusion, roc = _tally(pairs())
    return EvalSummary(n, miss, confusion, roc)


def evaluate_chips(chips, labels, weights, gallery, chip_size=160, threshold=0.0):
    """Classify pre-cropped face chips; returns an EvalSummary.

    Chips carry raw 0..255 values, either planar (3, S, S) or as an
    (S, S, 3) uint8 frame.
    """
    embedding_net(chip_size).check_weights(weights)
    labels = list(labels)

    def pairs():
        for chip, truth in zip(chips, labels):
            arr = np.asarray(chip)
            planar = arr if arr.ndim == 3 and arr.shape[0] == 3 else to_planar(arr)
            pix = normalize_pixels(planar)
            emb = embed_chip(FaceChip(pix, (0, 0, pix.shape[2], pix.shape[1])), weights)
            d = classify(emb, gallery, threshold)
            yield truth, d.label, d.margin

    n, miss, confusion, roc = _tally(pairs())
    return EvalSummary(n, miss, confusion, roc)


def evaluate_stream(frames, labels, pipeline):
    """Run labeled frames through the pipeline and score its reports.

    Scoring is evaluate_reports': the highest-scoring face represents
    the frame, and frames with no face count as misses and stay out of
    the ROC.  Frames and labels must pair up one to one.
    """
    labels = list(labels)
    for truth in labels:
        if truth not in LABELS:
            raise DataError(f"unknown probe label {truth!r}")
    reports = [pipeline.process_frame(frame, i)[1] for i, frame in enumerate(frames)]
    return evaluate_reports(reports, {str(i): truth for i, truth in enumerate(labels)})


def bench(frames, pipeline, repeats=1):
    """Per-stage mean/median/p95 milliseconds over frames x repeats."""
    frames = list(frames)
    if not frames or repeats < 1:
        raise ConfigError("bench needs at least one frame and one repeat")
    samples = {k: [] for k in STAGES + ("total_ms",)}
    for _ in range(repeats):
        for i, frame in enumerate(frames):
            _, report = pipeline.process_frame(frame, i)
            timing = report.get("timing_ms")
            if timing is None:
                raise ConfigError("bench requires emit_timing=True")
            for k in samples:
                samples[k].append(timing[k])
    stats = {"frames": len(samples["total_ms"])}
    for k, vals in samples.items():
        arr = np.asarray(vals)
        stats[k] = {
            "mean": float(arr.mean()),
            "median": float(np.median(arr)),
            "p95": float(np.percentile(arr, 95)),
        }
    return stats
