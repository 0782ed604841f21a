"""Frame workloads: replay the ``faceveil run`` loop on a generated stream.

One process, one stream, closed loop: the next frame is read when the
previous one has been processed and written.  A timed frame is
``iter_frames`` read + ``Pipeline.process_frame`` + ``save_ppm`` and the
report line, exactly the work ``faceveil run`` does per frame.  Output
checks run between frames and are not timed.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import sys
import time
import traceback

import numpy as np

from faceveil.denature import descramble_regions, expand_box
from faceveil.errors import InvariantError
from faceveil.imgio import iter_frames, save_ppm
from faceveil.nn import WeightStore, load_weights
from faceveil.pipeline import Pipeline, check_timing, report_line
from faceveil.recognize import load_gallery
from faceveil.synth import box_iou

import workloads
from tracer import Tracer, calls_sum, count_sum, span_mean, span_table, work_metrics

WARMUP_FRAMES = 2
# Set-up runs in two rounds, before and after the frames, and its median
# is reported.  A round repeats it at least 5 times and for at least
# 0.5 s, since one street set-up takes a few milliseconds.
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 0.5
SETUP_MAX_REPEATS = 200
IOU_MATCH = 0.5
NETS = ("pnet", "rnet", "onet", "embed")
LAYERS = ("conv", "pool", "prelu", "fc", "softmax", "l2norm")


def set_up(inputs, config):
    """What a user pays before the first frame: weights, gallery, Pipeline."""
    t0 = time.perf_counter()
    weights = WeightStore.merge(load_weights(inputs["detector"]), load_weights(inputs["embedder"]))
    t1 = time.perf_counter()
    gallery = load_gallery(inputs["gallery"])
    t2 = time.perf_counter()
    pipe = Pipeline(weights, gallery, config)
    t3 = time.perf_counter()
    return pipe, {"setup": t3 - t0, "weights": t1 - t0, "gallery": t2 - t1}


def _set_up_repeatedly(inputs, config, setups):
    """One round of set-ups, appended to ``setups``; returns the last pipeline."""
    times = []
    while len(times) < SETUP_MIN_REPEATS or (
        sum(t["setup"] for t in times) < SETUP_MIN_SECONDS and len(times) < SETUP_MAX_REPEATS
    ):
        pipe, t = set_up(inputs, config)
        times.append(t)
    setups.extend(times)
    return pipe


class Replay:
    """The ``faceveil run`` loop over a stream that restarts when it ends."""

    def __init__(self, pipe, stream, out_dir, report_file):
        self.pipe = pipe
        self.stream = stream
        self.out_dir = out_dir
        self.reports = report_file
        self._frames = iter_frames(stream)

    def read(self):
        frame = next(self._frames, None)
        if frame is None:
            self._frames = iter_frames(self.stream)
            frame = next(self._frames)
        return frame

    def process_and_write(self, frame, index):
        """Returns (output frame, report, process seconds, write seconds)."""
        t0 = time.perf_counter()
        out, report = self.pipe.process_frame(frame, index, source=str(index))
        t1 = time.perf_counter()
        save_ppm(out, self.out_dir / f"frame_{index:05d}.ppm")
        self.reports.write(report_line(report) + "\n")
        return out, report, t1 - t0, time.perf_counter() - t1


def _untimed_line(report):
    return report_line({k: v for k, v in report.items() if k != "timing_ms"})


def _digest(data):
    return hashlib.sha256(data).hexdigest()


class Checker:
    """Checks every output; scores each distinct stream frame against truth once.

    A stream frame seen again must give byte-identical output and an
    identical report (timing aside), so the full checks made on its first
    occurrence hold for every repeat.
    """

    def __init__(self, workload, config, truth, key):
        self.workload = workload
        self.expansion = config.policy.box_expansion
        self.truth = truth
        self.key = key
        self.first = {}  # stream position -> (output digest, report digest)
        self.protected = self.leaked = self.redactions = self.unmatched = 0
        self.rounding_defects = 0

    def check(self, position, frame, out, report):
        """Returns a list of problems; empty when the frame passed."""
        timing = []
        try:
            check_timing(report["timing_ms"])
        except InvariantError as e:
            timing.append(f"timing: {e}")
        if out.shape != frame.shape or out.dtype != np.uint8:
            return timing + [f"output frame {out.dtype} {out.shape} for input {frame.shape}"]
        # a repeat differs from the first pass only in its frame index and timing
        content = {k: report[k] for k in ("faces", "redactions")}
        digests = (_digest(out.tobytes()), _digest(report_line(content).encode()))
        if position in self.first:
            first_digests, problems = self.first[position]
            if digests != first_digests:
                problems = problems + ["output or report differs from the frame's first pass"]
            return timing + problems
        problems = [f"redacted a face labelled {item['label']!r}"
                    for item in report["redactions"]
                    if item["label"] not in self.workload.protect and item["reason"] != "tie"]
        if self.workload.scramble:
            problems += self._check_restores(frame, out, report)
        else:
            problems += self._check_untouched_outside(frame, out, report)
        self.first[position] = (digests, problems)
        self._score(position, report)
        return timing + problems

    def _check_restores(self, frame, out, report):
        boxes = [item["box"] for item in report["redactions"]]
        if np.array_equal(descramble_regions(out, boxes, self.key), frame):
            return []
        exact = [expand_box(report["faces"][item["index"]]["box"], self.expansion)
                 for item in report["redactions"]]
        if np.array_equal(descramble_regions(out, exact, self.key), frame):
            # known defect: apply_policy logs boxes rounded to 3 decimals
            self.rounding_defects += 1
            return ["does not descramble with the logged boxes (logged boxes are rounded)"]
        return ["does not descramble with the key and the logged boxes"]

    def _check_untouched_outside(self, frame, out, report):
        # boxes are logged to 3 decimals, so allow one pixel around each
        h, w = frame.shape[:2]
        outside = np.ones((h, w), dtype=bool)
        for item in report["redactions"]:
            x1, y1, x2, y2 = item["box"]
            outside[max(0, math.floor(y1) - 1) : max(0, math.ceil(y2) + 1),
                    max(0, math.floor(x1) - 1) : max(0, math.ceil(x2) + 1)] = False
        if np.array_equal(out[outside], frame[outside]):
            return []
        return ["pixels outside every logged redaction box changed"]

    def _score(self, position, report):
        gt = [f["box"] for f in self.truth[position] if f["label"] in self.workload.protect]
        red = [item["box"] for item in report["redactions"]]
        self.protected += len(gt)
        self.leaked += sum(all(box_iou(g, r) < IOU_MATCH for r in red) for g in gt)
        self.redactions += len(red)
        self.unmatched += sum(all(box_iou(r, g) < IOU_MATCH for g in gt) for r in red)

    def quality(self):
        return {
            "leak_rate": self.leaked / self.protected if self.protected else 0.0,
            "over_redaction_rate": self.unmatched / self.redactions if self.redactions else 0.0,
            "protected_faces": self.protected,
            "redactions": self.redactions,
            "distinct_frames_scored": len(self.first),
            "descramble_rounding_defects": self.rounding_defects,
        }


def layer_metrics(traced, prefix):
    """Per-frame means: times over every traced frame, work counts over the prefix."""
    ms = lambda name: 1e3 * span_mean(traced, name, 1)  # noqa: E731 - span total
    self_ms = lambda name: 1e3 * span_mean(traced, name, 2)  # noqa: E731
    n = len(prefix)
    m = {
        "detect.rnet_ms": (ms("detect.rnet"), "ms"),
        "detect.onet_ms": (ms("detect.onet"), "ms"),
        "image.crop_resize_ms": (ms("image.crop_resize"), "ms"),
        "detect.pyramid_ms": (ms("detect.pyramid"), "ms"),
        "detect.pnet_scan_ms": (ms("detect.pnet_scan"), "ms"),
        "detect.nms_ms": (ms("detect.nms"), "ms"),
        "embed.align_crop_ms": (ms("embed.align_crop"), "ms"),
        "embed.embed_chip_ms": (ms("embed.embed_chip"), "ms"),
        "recognize.classify_ms": (ms("recognize.classify"), "ms"),
        "denature.apply_policy_ms": (ms("denature.apply_policy"), "ms"),
    }
    for key in ("rnet_in", "rnet_kept", "onet_in", "onet_kept", "pnet_levels", "proposals",
                "nms_in", "nms_kept", "faces"):
        m[f"detect.{key}"] = (count_sum(prefix, f"detect.{key}") / n, "count")
    crops_in = count_sum(prefix, "detect.rnet_in") + count_sum(prefix, "detect.onet_in")
    yield_ = count_sum(prefix, "detect.faces") / crops_in if crops_in else 0.0
    m["detect.crop_yield"] = (yield_, "ratio")
    m["image.crop_resize_calls"] = (calls_sum(prefix, "image.crop_resize") / n, "count")
    for net in NETS:
        m[f"nn.forward_ms.{net}"] = (ms(f"nn.forward.{net}"), "ms")
        m[f"nn.forward_calls.{net}"] = (calls_sum(prefix, f"nn.forward.{net}") / n, "count")
    for layer in LAYERS:
        m[f"nn.{layer}_ms"] = (self_ms(f"nn.{layer}"), "ms")
    m.update(work_metrics(traced, prefix))
    m["embed.chips"] = (calls_sum(prefix, "embed.embed_chip") / n, "count")
    m["recognize.classify_calls"] = (calls_sum(prefix, "recognize.classify") / n, "count")
    m["denature.redacted_mpx"] = (count_sum(prefix, "denature.redacted_px") / n / 1e6, "Mpx")
    mpx = count_sum(traced, "denature.redacted_px") / 1e6
    apply_ms = 1e3 * sum(s.get("denature.apply_policy", (0, 0.0))[1] for s, _ in traced)
    m["denature.ms_per_mpx"] = (apply_ms / mpx if mpx else 0.0, "ms/Mpx")
    return m


def funnel(prefix_reports, traced_prefix=None):
    """Deterministic counts over the prefix frames; must repeat exactly."""
    out = {
        "frames": len(prefix_reports),
        "faces": sum(len(r["faces"]) for r in prefix_reports),
        "redactions": sum(len(r["redactions"]) for r in prefix_reports),
        "child_labels": sum(f["label"] == "child" for r in prefix_reports for f in r["faces"]),
    }
    if traced_prefix is not None:
        names = sorted({k for _, counts in traced_prefix for k in counts})
        out.update({k: count_sum(traced_prefix, k) for k in names})
        calls = sorted({k for spans, _ in traced_prefix for k in spans})
        out.update({f"calls.{k}": calls_sum(traced_prefix, k) for k in calls})
    return out


def run(name, seed, seconds, trace, inputs, work_dir):
    """Set up, warm up, then replay frames for ``seconds``; returns the run's result."""
    workload = workloads.FRAME_WORKLOADS[name]
    config = workloads.pipeline_config(workload, seed)
    checker = Checker(workload, config, inputs["truth"], workloads.scramble_key(seed))

    setups = []
    pipe = _set_up_repeatedly(inputs, config, setups)

    out_dir = work_dir / "out"
    out_dir.mkdir()
    warm = iter_frames(inputs["stream"])
    for _ in range(WARMUP_FRAMES):
        out, _ = pipe.process_frame(next(warm))
        save_ppm(out, out_dir / "warmup.ppm")
    del warm

    tracer = Tracer() if trace else None
    frame_s, traced_s, reads, writes, stage_ms = [], [], [], [], {}
    traced_frames, prefix_reports = [], []
    attempted = failed = 0
    first_error = None
    with open(work_dir / "report.jsonl", "w", encoding="utf-8") as report_file:
        replay = Replay(pipe, inputs["stream"], out_dir, report_file)
        deadline = time.perf_counter() + seconds
        while attempted < workloads.PREFIX or time.perf_counter() < deadline:
            index = attempted
            attempted += 1
            try:
                t0 = time.perf_counter()
                frame = replay.read()
                read_s = time.perf_counter() - t0
                # traced runs process each frame twice, alternating which pass is traced
                passes = (False,) if tracer is None else ((False, True), (True, False))[index % 2]
                for traced in passes:
                    if traced:
                        tracer.take()  # drop what a failed traced pass left behind
                        with tracer:
                            t_out, t_report, *t_times = replay.process_and_write(frame, index)
                        traced_frames.append(tracer.take())
                        traced_s.append(read_s + sum(t_times))
                    else:
                        out, report, proc_s, write_s = replay.process_and_write(frame, index)
            except Exception:  # a frame that raised is counted and the stream goes on
                failed += 1
                first_error = first_error or f"frame {index} raised:\n{traceback.format_exc()}"
                continue
            # a frame that completed is timed even when its output fails a check
            frame_s.append(read_s + proc_s + write_s)
            reads.append(read_s)
            writes.append(write_s)
            for stage in ("detect_ms", "embed_ms", "classify_ms", "denature_ms"):
                stage_ms.setdefault(stage, []).append(report["timing_ms"][stage])
            if index < workloads.PREFIX:
                prefix_reports.append(report)
            try:
                problems = checker.check(index % workload.stream_frames, frame, out, report)
            except Exception:
                problems = ["output check raised:\n" + traceback.format_exc()]
            if tracer is not None and not (
                np.array_equal(t_out, out) and _untimed_line(t_report) == _untimed_line(report)
            ):
                problems.append("traced pass gave a different output or report")
            if problems:
                failed += 1
                first_error = first_error or f"frame {index}: {problems[0]}"
    _set_up_repeatedly(inputs, config, setups)
    if first_error:
        print(f"perfbench: {failed} of {attempted} frames failed; first: {first_error}",
              file=sys.stderr)

    frame_ms = [1e3 * s for s in frame_s]
    p90 = float(np.percentile(frame_ms, 90)) if frame_ms else 0.0
    prefix_traced = traced_frames[: workloads.PREFIX] if trace else None
    record = {
        "frame_size": f"{workload.width}x{workload.height}",
        "frames_timed": len(frame_ms),
        "frames_beyond_p90": sum(v > p90 for v in frame_ms),
        "report_digest": _digest("".join(_untimed_line(r) + "\n" for r in prefix_reports).encode()),
        "funnel": funnel(prefix_reports, prefix_traced),
        "quality": {**checker.quality(), "error_rate": failed / attempted},
    }
    if not frame_ms:
        return attempted, failed, {}, record
    if not trace:
        metrics = {
            "frame_ms_p50": (statistics.median(frame_ms), "ms"),
            "frame_ms_p90": (p90, "ms"),
            "fps": (len(frame_s) / sum(frame_s), "frames/s"),
            "setup_s": (statistics.median(s["setup"] for s in setups), "s"),
        }
        return attempted, failed, metrics, record
    metrics = layer_metrics(traced_frames, prefix_traced)
    for stage, values in stage_ms.items():
        metrics[f"pipeline.{stage}_p50"] = (statistics.median(values), "ms")
    metrics["weights.load_ms"] = (1e3 * statistics.median(s["weights"] for s in setups), "ms")
    metrics["recognize.load_gallery_ms"] = (
        1e3 * statistics.median(s["gallery"] for s in setups), "ms")
    metrics["imgio.read_ms"] = (1e3 * statistics.fmean(reads), "ms")
    metrics["imgio.write_ms"] = (1e3 * statistics.fmean(writes), "ms")
    overhead = 1e3 * statistics.median(traced_s) - statistics.median(frame_ms)
    metrics["trace.overhead_ms"] = (overhead, "ms")
    record["spans_per_frame"] = span_table(traced_frames)
    record["not_traced"] = sorted(tracer.missing)
    return attempted, failed, metrics, record
