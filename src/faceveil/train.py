"""Toy-scale training for the cascade stages and the embedder.

Plain SGD over synthetic data, small enough to run inside the test
suite.  Stage nets train on jittered face/background patches with the
weighted multitask loss; the embedder trains on labeled chips with
semi-hard triplets.  All parameters update in float32, losses and
gradients are computed in float64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TrainingDiverged
from .image import normalize_pixels
from .losses import (
    box_loss,
    cross_entropy_loss,
    grad_check,
    landmark_loss,
    select_triplets,
    triplet_loss,
)
from .models import detector_nets, embedding_net
from .nn import WeightStore, save_weights
from .synth import make_det_batch, make_face_chip
from .recognize import ADULT, CHILD

TASKS = ("detector", "embedder")
STAGE_SIZES = {"pnet": 12, "rnet": 24, "onet": 48}


@dataclass(frozen=True)
class TrainerConfig:
    task: str = "detector"
    learning_rate: float = 0.03
    batch_size: int = 32
    epochs: int = 5
    margin: float = 0.2
    seed: int = 42
    # multitask loss weights: classification, box offsets, landmarks
    det_weight: float = 1.0
    box_weight: float = 0.5
    lmk_weight: float = 0.5
    n_train: int = 600  # patches per stage / chips for the embedder
    chip_size: int = 32
    clip_norm: float = 5.0  # global gradient-norm cap per step, 0 disables

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}, expected one of {TASKS}")
        for name in ("learning_rate", "margin"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("batch_size", "epochs", "n_train"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")


@dataclass
class TrainResult:
    weights: WeightStore
    history: list = field(default_factory=list)  # (stage, epoch, loss, accuracy)

    def stage_losses(self, stage):
        return [row[2] for row in self.history if row[0] == stage]


def write_metrics(history, path):
    """Per-epoch metrics as CSV, one commented block per stage."""
    with open(path, "w", encoding="utf-8") as f:
        last_stage = None
        for stage, epoch, loss, acc in history:
            if stage != last_stage:
                f.write(f"# stage: {stage}\n")
                f.write("epoch,loss,accuracy\n")
                last_stage = stage
            f.write(f"{epoch},{loss:.9g},{acc:.9g}\n")


def multitask_loss(heads, batch, config):
    """Weighted multitask loss of one cascade stage over a minibatch.

    heads are the (N, ...) outputs of a forward over the batch's samples.
    Returns (total, head_grads, parts), each the sum of the per-sample
    terms.  Background patches contribute only the classification term;
    landmark supervision applies only to faces that carry a landmark
    target.
    """
    n = len(batch)
    labels = np.array([s.label for s in batch], dtype=np.float64)
    prob = np.asarray(heads["prob"], dtype=np.float64)
    ce, dp = cross_entropy_loss(prob.reshape(n, 2, -1)[:, 1, 0], labels)
    g_prob = np.zeros_like(prob)
    g_prob.reshape(n, 2, -1)[:, 1, 0] = config.det_weight * n * dp
    total = config.det_weight * n * ce
    parts = {"det": n * ce}
    head_grads = {"prob": g_prob}
    face = labels == 1
    lmk = face & np.array([s.lmk_target is not None for s in batch])
    for head, part, target, mask, weight, loss_fn in (
        ("box", "box", "box_target", face, config.box_weight, box_loss),
        ("landmarks", "lmk", "lmk_target", lmk, config.lmk_weight, landmark_loss),
    ):
        k = int(np.count_nonzero(mask))
        if not k or head not in heads:
            continue
        pred = np.asarray(heads[head], dtype=np.float64).reshape(n, -1)
        targets = np.array([getattr(batch[i], target) for i in np.flatnonzero(mask)])
        loss, grad = loss_fn(pred[mask], targets)
        total += weight * k * loss
        parts[part] = k * loss
        g = np.zeros_like(pred)
        g[mask] = weight * k * grad
        head_grads[head] = g.reshape(np.shape(heads[head]))
    return total, head_grads, parts


def _sgd_step(weights, grads, scale, lr, clip_norm=0.0):
    """One SGD update from batch-summed gradients, scaled by scale and capped in norm."""
    if clip_norm:
        sq = sum(float(np.sum((scale * g) ** 2)) for g in grads.values())
        norm = np.sqrt(sq)
        if norm > clip_norm:
            scale *= clip_norm / norm
    return WeightStore({name: (w.astype(np.float64) - lr * scale * grads[name]).astype(np.float32)
                        for name, w in weights.items()})


def _train_stage(stage, net, config, rng, history):
    weights = net.init_weights(rng)
    size = STAGE_SIZES[stage]
    data = make_det_batch(rng, size, config.n_train, with_landmarks=(stage == "onet"))
    pixels = np.stack([normalize_pixels(sample.image) for sample in data])
    labels = np.array([sample.label for sample in data])
    order = np.arange(len(data))
    for epoch in range(1, config.epochs + 1):
        rng.shuffle(order)
        epoch_loss, n_correct = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            heads, cache = net.forward_train(weights, pixels[idx])
            total, head_grads, _ = multitask_loss(heads, [data[i] for i in idx], config)
            if not np.isfinite(total):
                raise TrainingDiverged(f"{stage}: loss became {total} in epoch {epoch}")
            epoch_loss += total
            p_face = np.asarray(heads["prob"]).reshape(len(idx), 2, -1)[:, 1, 0]
            n_correct += int(np.count_nonzero((p_face > 0.5) == (labels[idx] == 1)))
            weights = _sgd_step(weights, net.backward(weights, cache, head_grads),
                                1.0 / len(idx), config.learning_rate, config.clip_norm)
        history.append((stage, epoch, epoch_loss / len(data), n_correct / len(data)))
    return weights


def _train_detector(config):
    rng = np.random.default_rng(config.seed)
    history: list = []
    stage_weights = []
    for stage, net in detector_nets().items():
        stage_weights.append(_train_stage(stage, net, config, rng, history))
    return TrainResult(WeightStore.merge(*stage_weights), history)


def _train_embedder(config):
    rng = np.random.default_rng(config.seed)
    net = embedding_net(config.chip_size)
    weights = net.init_weights(rng)
    labels = np.array([CHILD if i % 2 == 0 else ADULT for i in range(config.n_train)])
    pixels = np.stack([normalize_pixels(make_face_chip(rng, lb, config.chip_size)) for lb in labels])
    order = np.arange(config.n_train)
    history: list = []
    for epoch in range(1, config.epochs + 1):
        rng.shuffle(order)
        loss_total, n_sat, n_trip = 0.0, 0, 0
        for start in range(0, config.n_train, config.batch_size):
            idx = order[start : start + config.batch_size]
            heads, cache = net.forward_train(weights, pixels[idx])
            embs = np.asarray(heads["embedding"], dtype=np.float64)
            triplets = select_triplets(embs, labels[idx])
            if not triplets:
                continue
            ta, tp, tn = (np.array(col) for col in zip(*triplets))
            loss, (da, dp, dn) = triplet_loss(embs[ta], embs[tp], embs[tn], config.margin)
            if not np.isfinite(loss):
                raise TrainingDiverged(f"embedder: loss became {loss} in epoch {epoch}")
            loss_total += loss
            d_ap = np.sum((embs[ta] - embs[tp]) ** 2, axis=1)
            d_an = np.sum((embs[ta] - embs[tn]) ** 2, axis=1)
            n_sat += int(np.count_nonzero(d_ap + config.margin <= d_an))
            n_trip += len(triplets)
            emb_grads = np.zeros_like(embs)
            np.add.at(emb_grads, ta, da)
            np.add.at(emb_grads, tp, dp)
            np.add.at(emb_grads, tn, dn)
            grads = net.backward(weights, cache, {"embedding": emb_grads})
            weights = _sgd_step(weights, grads, 1.0 / len(triplets), config.learning_rate,
                                config.clip_norm)
        sat = n_sat / n_trip if n_trip else 1.0
        history.append(("embed", epoch, loss_total / max(1, n_trip), sat))
    return TrainResult(weights, history)


def train_toy(config=None, weights_path=None, metrics_path=None):
    """Run the toy training task named by config.task.

    Returns a TrainResult; optionally writes the weight file and the
    per-epoch metrics CSV.
    """
    config = config or TrainerConfig()
    if config.task == "detector":
        result = _train_detector(config)
    else:
        result = _train_embedder(config)
    if weights_path:
        save_weights(result.weights, weights_path)
    if metrics_path:
        write_metrics(result.history, metrics_path)
    return result


def network_grad_check(net, weights, x, loss_on_heads, coords_per_tensor=4, step=1e-3, seed=0):
    """Compare analytic parameter gradients against central differences.

    x is an (N,C,H,W) batch and loss_on_heads maps the (N, ...) head
    dict to (loss, head_grads).  Checks up to coords_per_tensor randomly
    chosen coordinates in every parameter tensor and returns the worst
    relative error.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=np.float64)
    work = {name: np.array(weights[name], dtype=np.float64) for name in weights}
    heads, cache = net.forward_train(work, x)
    _, head_grads = loss_on_heads(heads)
    grads = net.backward(work, cache, head_grads)

    worst = 0.0
    for name in sorted(grads):
        flat_w = work[name].reshape(-1)
        flat_g = np.asarray(grads[name], dtype=np.float64).reshape(-1)
        n_coords = min(coords_per_tensor, flat_w.size)
        coords = rng.choice(flat_w.size, size=n_coords, replace=False)
        for ci in coords:
            orig = flat_w[ci]
            flat_w[ci] = orig + step
            hi = loss_on_heads(net.forward(work, x))[0]
            flat_w[ci] = orig - step
            lo = loss_on_heads(net.forward(work, x))[0]
            flat_w[ci] = orig
            numeric = (hi - lo) / (2.0 * step)
            analytic = flat_g[ci]
            err = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            worst = max(worst, err)
    return worst


def layer_grad_check(layer, x, seed=0, step=1e-3):
    """Check one layer's backward pass against central differences.

    Uses the projection loss <c, forward(x)> with fixed random c and
    sweeps every coordinate of the input and of every parameter tensor.
    Returns the worst relative error.  The caller picks ``x`` away from
    the layer's kinks (prelu at 0, pool ties) so the differences are
    meaningful.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=np.float64)
    params = {k: np.asarray(v, dtype=np.float64) for k, v in layer.init_params(rng).items()}
    y, ctx = layer.forward_train(x, params)
    c = rng.normal(size=np.asarray(y).shape)

    def loss():
        return float(np.sum(c * np.asarray(layer.forward(x, params), dtype=np.float64)))

    dx, dparams = layer.backward(ctx, c, params)
    worst = 0.0
    targets = [(x, np.asarray(dx, dtype=np.float64))]
    targets += [(params[name], np.asarray(g, dtype=np.float64)) for name, g in dparams.items()]
    for arr, grad in targets:
        flat, gflat = arr.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = loss()
            flat[i] = orig - step
            lo = loss()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            err = abs(gflat[i] - numeric) / max(1e-8, abs(gflat[i]) + abs(numeric))
            worst = max(worst, err)
    return worst


def _kink_free_inputs(rng):
    """Per-layer-type seeded batches of 2 that keep a 1e-3 step differentiable."""
    from .nn import Conv2D, FullyConnected, L2Normalize, MaxPool2D, PReLU, Softmax

    away = rng.uniform(0.2, 1.5, size=(4, 2, 5, 5)) * rng.choice([-1.0, 1.0], size=(4, 2, 5, 5))
    distinct = rng.permutation(4 * 2 * 6 * 6).reshape(4, 2, 6, 6) * 0.05
    return [
        ("conv2d", Conv2D("c", 3, 4, 3, padding=1), rng.normal(size=(3, 2, 6, 6))),
        ("fully_connected", FullyConnected("fc", 4 * 5 * 5, 7), rng.normal(size=(4, 2, 5, 5))),
        ("prelu", PReLU("act", 4), away),
        ("maxpool", MaxPool2D(2, 2), distinct),
        ("softmax", Softmax(axis=0), rng.normal(size=(3, 2, 2, 2))),
        ("l2_normalize", L2Normalize(), rng.normal(size=(17, 2)) + 0.1),
    ]


def run_grad_checks(seed=0):
    """Seeded finite-difference sweep over the losses and every layer type.

    Returns {check name: max relative error}; raises nothing itself so
    callers decide how strict to be.  Quadratic losses should come out
    below 1e-6, everything else below 1e-3.
    """
    rng = np.random.default_rng(seed)
    report = {}

    y = rng.integers(0, 2, size=8).astype(np.float64)
    p0 = rng.uniform(0.1, 0.9, size=8)
    report["loss_det"] = grad_check(lambda p: cross_entropy_loss(p, y), p0)

    t4 = rng.normal(size=(6, 4))
    report["loss_box"] = grad_check(lambda p: box_loss(p, t4), rng.normal(size=(6, 4)))
    t10 = rng.normal(size=(6, 10))
    report["loss_landmark"] = grad_check(
        lambda p: landmark_loss(p, t10), rng.normal(size=(6, 10))
    )

    pos = rng.normal(size=(5, 8))
    neg = rng.normal(size=(5, 8))
    report["loss_triplet"] = grad_check(
        lambda a: (triplet_loss(a, pos, neg, 0.2)[0], triplet_loss(a, pos, neg, 0.2)[1][0]),
        rng.normal(size=(5, 8)),
    )

    for name, layer, x in _kink_free_inputs(rng):
        report[f"layer_{name}"] = layer_grad_check(layer, x, seed=seed + 1)
    return report
