"""toy_training: timed ``train_toy`` runs for the detector stages and the embedder.

Training is the only user of the backward kernels, so an ``nn`` change
that speeds inference but slows backward shows here.  Every training run
of one benchmark run uses the same seed, so each must reproduce the
first one's weights bit for bit.
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import time
import traceback

import numpy as np

from faceveil.nn import WeightStore
from faceveil.train import TrainerConfig, train_toy

import workloads
from tracer import Tracer, span_mean, span_table, work_metrics

MIN_RUNS = 2
LAYERS = ("conv", "pool", "prelu", "fc", "softmax", "l2norm", "conv_backward", "fc_backward")


def _train(seed, detector, embedder):
    det = train_toy(TrainerConfig(task="detector", seed=seed, **detector))
    emb = train_toy(TrainerConfig(task="embedder", seed=seed, **embedder))
    return det, emb


def _check(det, emb):
    """(problems, weight digest) for one training run."""
    problems = []
    weights = WeightStore.merge(det.weights, emb.weights)
    digest = hashlib.sha256()
    for name in sorted(weights):
        if not np.all(np.isfinite(weights[name])):
            problems.append(f"weight {name} is not finite")
        digest.update(name.encode() + b"\0" + weights[name].tobytes())
    epochs_det, epochs_emb = workloads.TRAIN_DETECTOR["epochs"], workloads.TRAIN_EMBEDDER["epochs"]
    if len(det.history) != 3 * epochs_det or len(emb.history) != epochs_emb:
        problems.append(f"history has {len(det.history)} + {len(emb.history)} epoch rows")
    return problems, digest.hexdigest()


def run(seed, seconds, trace):
    _train(seed, {"n_train": 8, "epochs": 1}, {"n_train": 8, "epochs": 1})  # warm-up

    tracer = Tracer() if trace else None
    plain_s, traced_s, traced_runs = [], [], []
    attempted = failed = 0
    first_digest = first_error = None
    deadline = time.perf_counter() + seconds
    while attempted < MIN_RUNS or time.perf_counter() < deadline:
        traced = tracer is not None and attempted % 2 == 1
        attempted += 1
        try:
            t0 = time.perf_counter()
            if traced:
                tracer.take()  # drop what a failed traced run left behind
                with tracer:
                    det, emb = _train(seed, workloads.TRAIN_DETECTOR, workloads.TRAIN_EMBEDDER)
            else:
                det, emb = _train(seed, workloads.TRAIN_DETECTOR, workloads.TRAIN_EMBEDDER)
            elapsed = time.perf_counter() - t0
            problems, digest = _check(det, emb)
            first_digest = first_digest or digest
            if digest != first_digest:
                problems.append("weights differ from the first training run with the same seed")
        except Exception:  # a failing training run is counted and the next one starts
            problems = ["raised:\n" + traceback.format_exc()]
        if problems:
            failed += 1
            first_error = first_error or f"training run {attempted}: {problems[0]}"
            continue
        if traced:
            traced_runs.append(tracer.take())
            traced_s.append(elapsed)
        else:
            plain_s.append(elapsed)
    if first_error:
        print(f"perfbench: {failed} of {attempted} training runs failed; first: {first_error}",
              file=sys.stderr)

    record = {
        "samples_per_training_run": workloads.TRAIN_SAMPLES,
        "training_runs_timed": len(plain_s),
        "weights_digest_trained": first_digest,
        "quality": {"error_rate": failed / attempted},
    }
    if not plain_s or (trace and not traced_runs):
        return attempted, failed, {}, record
    if not trace:
        rate = statistics.median(workloads.TRAIN_SAMPLES / s for s in plain_s)
        return attempted, failed, {"train_samples_per_s": (rate, "samples/s")}, record
    ms = lambda name, field=1: 1e3 * span_mean(traced_runs, name, field)  # noqa: E731
    metrics = {
        "nn.forward_train_ms": (ms("nn.forward_train"), "ms"),
        "nn.backward_ms": (ms("nn.backward"), "ms"),
        "train.data_ms": (ms("train.data"), "ms"),
    }
    for layer in LAYERS:
        metrics[f"nn.{layer}_ms"] = (ms(f"nn.{layer}", 2), "ms")
    metrics.update(work_metrics(traced_runs, traced_runs))
    overhead = 1e3 * (statistics.median(traced_s) - statistics.median(plain_s))
    metrics["trace.overhead_ms"] = (overhead, "ms")
    record["spans_per_training_run"] = span_table(traced_runs)
    record["not_traced"] = sorted(tracer.missing)
    return attempted, failed, metrics, record
