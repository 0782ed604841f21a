"""Spans and counters around calls into faceveil's public functions.

The package carries no tracing of its own.  While a Tracer is installed
it replaces functions and methods of faceveil's modules and classes with
timing wrappers, and removing it puts the originals back, so untraced
work runs the program's own code objects.

Spans are not kept one by one (a street frame makes thousands): each
wrapper adds its call count, its total time and its self time (total
minus the time of the traced calls made inside it) to a row keyed by
span name.  Counters record work at the same boundaries.  ``take()``
returns both and starts afresh, once per frame or training run.
"""

from __future__ import annotations

import functools
import math
import time
from collections import defaultdict

import numpy as np

from faceveil import detect, embed, pipeline, train
from faceveil.nn import layers, network


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_faces(counts, args, kwargs, result):
    counts["detect.faces"] += len(result)


def _count_pnet(counts, args, kwargs, result):
    counts["detect.pnet_levels"] += 1
    counts["detect.proposals"] += result[0].shape[0]


def _count_nms(counts, args, kwargs, result):
    counts["detect.nms_in"] += len(_arg(args, kwargs, 0, "boxes"))
    counts["detect.nms_kept"] += len(result)


def _refine_label(args, kwargs):
    return "detect." + _arg(args, kwargs, 0, "stage")


def _count_refine(counts, args, kwargs, result):
    stage = _arg(args, kwargs, 0, "stage")
    boxes = np.asarray(_arg(args, kwargs, 2, "boxes")).reshape(-1, 4)
    counts[f"detect.{stage}_in"] += boxes.shape[0]
    counts[f"detect.{stage}_kept"] += result[0].shape[0]


def _count_redacted(counts, args, kwargs, result):
    # area the policy obscured, from the boxes it logged, clipped to the frame
    h, w = np.asarray(_arg(args, kwargs, 0, "frame")).shape[:2]
    for item in result[1]:
        x1, y1, x2, y2 = item["box"]
        dx = min(w, math.ceil(x2)) - max(0, math.floor(x1))
        dy = min(h, math.ceil(y2)) - max(0, math.floor(y1))
        counts["denature.redacted_px"] += max(0, dx) * max(0, dy)


# Multiply-adds and bytes are computed from tensor shapes, not measured:
# bytes count each input, parameter and output array once.
def _conv_work(counts, args, kwargs, result):
    layer, params = args[0], _arg(args, kwargs, 2, "params")
    x, w, b = _arg(args, kwargs, 1, "x"), params[layer.wname], params[layer.bname]
    counts["nn.conv_mac"] += result.size * (w.size // w.shape[0])
    counts["nn.conv_bytes"] += x.nbytes + w.nbytes + b.nbytes + result.nbytes


def _conv_backward_work(counts, args, kwargs, result):
    # input and weight gradients each repeat the forward multiply-adds
    layer, params = args[0], _arg(args, kwargs, 3, "params")
    x, dy, w = _arg(args, kwargs, 1, "ctx"), _arg(args, kwargs, 2, "dy"), params[layer.wname]
    dx, grads = result
    counts["nn.conv_mac"] += 2 * dy.size * (w.size // w.shape[0])
    counts["nn.conv_bytes"] += x.nbytes + dy.nbytes + w.nbytes + dx.nbytes + sum(
        g.nbytes for g in grads.values()
    )


def _fc_work(counts, args, kwargs, result):
    layer, params = args[0], _arg(args, kwargs, 2, "params")
    x, w, b = _arg(args, kwargs, 1, "x"), params[layer.wname], params[layer.bname]
    counts["nn.fc_mac"] += (result.size // w.shape[0]) * w.size
    counts["nn.fc_bytes"] += x.nbytes + w.nbytes + b.nbytes + result.nbytes


def _fc_backward_work(counts, args, kwargs, result):
    layer, params = args[0], _arg(args, kwargs, 3, "params")
    x, dy, w = _arg(args, kwargs, 1, "ctx"), _arg(args, kwargs, 2, "dy"), params[layer.wname]
    dx, grads = result
    counts["nn.fc_mac"] += 2 * (dy.size // w.shape[0]) * w.size
    counts["nn.fc_bytes"] += x.nbytes + dy.nbytes + w.nbytes + dx.nbytes + sum(
        g.nbytes for g in grads.values()
    )


def _net_label(args, kwargs):
    return "nn.forward." + args[0].name


# (owner, attribute, span name or label function, counter or None)
PATCHES = (
    (pipeline.Pipeline, "process_frame", "pipeline.process_frame", None),
    (pipeline, "detect_faces", "detect", _count_faces),
    (detect, "build_pyramid", "detect.pyramid", None),
    (detect, "pnet_scan", "detect.pnet_scan", _count_pnet),
    (detect, "nms", "detect.nms", _count_nms),
    (detect, "refinement_stage", _refine_label, _count_refine),
    (detect, "crop_resize", "image.crop_resize", None),
    (embed, "crop_resize", "image.crop_resize", None),
    (pipeline, "align_crop", "embed.align_crop", None),
    (pipeline, "embed_chip", "embed.embed_chip", None),
    (pipeline, "classify", "recognize.classify", None),
    (pipeline, "apply_policy", "denature.apply_policy", _count_redacted),
    (network.Network, "forward", _net_label, None),
    (network.Network, "forward_train", "nn.forward_train", None),
    (network.Network, "backward", "nn.backward", None),
    (layers.Conv2D, "forward", "nn.conv", _conv_work),
    (layers.Conv2D, "backward", "nn.conv_backward", _conv_backward_work),
    (layers.FullyConnected, "forward", "nn.fc", _fc_work),
    (layers.FullyConnected, "backward", "nn.fc_backward", _fc_backward_work),
    (layers.MaxPool2D, "forward", "nn.pool", None),
    (layers.PReLU, "forward", "nn.prelu", None),
    (layers.Softmax, "forward", "nn.softmax", None),
    (layers.L2Normalize, "forward", "nn.l2norm", None),
    (train, "make_det_batch", "train.data", None),
    (train, "make_face_chip", "train.data", None),
)


class Tracer:
    """Install with ``with tracer:``; read and reset with ``take()``."""

    def __init__(self):
        self.spans = {}  # name -> [calls, total seconds, self seconds]
        self.counts = defaultdict(int)
        self.missing = set()  # patch targets absent from the program
        self._stack = []  # per open span: seconds spent in its traced children
        self._saved = []

    def __enter__(self):
        for owner, attr, label, count in PATCHES:
            original = vars(owner).get(attr)
            if original is None:  # the program no longer has this function
                self.missing.add(f"{owner.__name__}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, label, count))
            self._saved.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def take(self):
        spans, counts = self.spans, dict(self.counts)
        self.spans, self.counts = {}, defaultdict(int)
        return spans, counts

    def _wrap(self, original, label, count):
        stack = self._stack
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                row = tracer.spans.get(name)
                if row is None:
                    row = tracer.spans[name] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - children[0]
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced


# Aggregates over a list of take() results, one per frame or training run.

def span_mean(frames, name, field):
    return sum(spans.get(name, (0, 0.0, 0.0))[field] for spans, _ in frames) / len(frames)


def count_sum(frames, name):
    return sum(counts.get(name, 0) for _, counts in frames)


def calls_sum(frames, name):
    return sum(spans.get(name, (0, 0.0, 0.0))[0] for spans, _ in frames)


def work_metrics(traced, prefix):
    """Computed conv/FC work per item (from shapes, not measured) and conv rate."""
    n = len(prefix)
    conv_s = sum(s.get(k, (0, 0.0, 0.0))[2] for s, _ in traced
                 for k in ("nn.conv", "nn.conv_backward"))
    conv_mac = count_sum(traced, "nn.conv_mac")
    return {
        "nn.conv_gmac": (count_sum(prefix, "nn.conv_mac") / n / 1e9, "GMAC"),
        "nn.conv_gbytes": (count_sum(prefix, "nn.conv_bytes") / n / 1e9, "GB"),
        "nn.conv_gmacs_per_s": (conv_mac / conv_s / 1e9 if conv_s else 0.0, "GMAC/s"),
        "nn.fc_gmac": (count_sum(prefix, "nn.fc_mac") / n / 1e9, "GMAC"),
        "nn.fc_gbytes": (count_sum(prefix, "nn.fc_bytes") / n / 1e9, "GB"),
    }


def span_table(traced):
    """Per-frame mean calls, total ms and self ms of every span name."""
    names = sorted({k for spans, _ in traced for k in spans})
    return {
        k: {
            "calls": round(span_mean(traced, k, 0), 3),
            "total_ms": round(1e3 * span_mean(traced, k, 1), 4),
            "self_ms": round(1e3 * span_mean(traced, k, 2), 4),
        }
        for k in names
    }
