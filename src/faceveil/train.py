"""Toy-scale training for the cascade stages and the embedder.

Plain SGD over synthetic data, small enough to run inside the test
suite.  Stage nets train on jittered face/background patches with the
weighted multitask loss, fed row slices of ``make_det_batch``'s stacked
images and targets.  P-Net trains first; R-Net and O-Net then train on
its mistakes as well, as in MTCNN: ``mine_negatives`` runs the trained
P-Net over synthetic scenes, and the proposals that miss every face
replace half of each later stage's random background patches.  The
embedder trains on labeled chips with
semi-hard triplets; both run ``_fit``, the one epoch loop, with their
own ``batch_loss``.  An epoch that takes no SGD step raises
``ConfigError``.  All parameters update in float32, losses and
gradients are computed in float64.  The gradient checks all probe
through ``losses.probe_error``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .detect import DetectorConfig, _stage1
from .errors import ConfigError, InvariantError, TrainingDiverged
from .image import box_in_image, crop_resize_batch, normalize_pixels, to_planar
from .losses import (
    TRIPLET_MARGIN,
    box_loss,
    cross_entropy_loss,
    grad_check,
    landmark_loss,
    probe_error,
    select_triplets,
    triplet_loss,
)
from .models import CHIP_SIZE, detector_nets, embedding_net
from .nn import WeightStore, save_weights
from .synth import box_iou, make_det_batch, make_face_chip, make_scene, scene_plan
from .recognize import ADULT, CHILD

TASKS = ("detector", "embedder")
# multitask loss weights of classification, box offsets and landmarks (MTCNN's P-/R-Net)
DET_WEIGHT, BOX_WEIGHT, LMK_WEIGHT = 1.0, 0.5, 0.5
CLIP_NORM = 5.0  # global gradient-norm cap per SGD step
LEARNING_RATE = 0.03  # plain SGD step size
BATCH_SIZE = 32  # samples per minibatch
MINE_SCENES = 8  # scene budget of negative mining, so a weak P-Net cannot hang training
PLAN_CYCLE = 4  # scenes in one cycle of scene_plan: three street scenes and a close-up
MINE_PER_SCENE = 40  # most negatives kept from one scene
NEG_IOU = 0.3  # a proposal below this IoU with every face is a negative (MTCNN's cut)


@dataclass(frozen=True)
class TrainerConfig:
    task: str = "detector"
    epochs: int = 5
    seed: int = 42
    n_train: int = 600  # patches per stage / chips for the embedder

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}, expected one of {TASKS}")
        for name in ("epochs", "n_train"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        _check_seed(self.seed)


def _check_seed(seed):
    if seed < 0:  # numpy's generators take only non-negative seeds
        raise ConfigError(f"seed must be >= 0, got {seed}")


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


def multitask_loss(heads, labels, box_targets, lmk_targets):
    """Weighted multitask loss of one cascade stage over a minibatch.

    heads are the (..., N) outputs of a forward over N patches; labels
    (N,), box_targets (N, 4) and lmk_targets (N, 10) are the matching
    rows of make_det_batch.  Returns (total, head_grads, parts), each the
    sum of the per-sample terms.  Background patches contribute only the
    classification term; faces add the box term, and the landmark term
    where the net has a ``landmarks`` head.
    """
    n = len(labels)
    labels = np.asarray(labels, dtype=np.float64)
    prob = np.asarray(heads["prob"], dtype=np.float64)
    ce, dp = cross_entropy_loss(prob.reshape(2, -1, n)[1, 0], labels)
    g_prob = np.zeros_like(prob)
    g_prob.reshape(2, -1, n)[1, 0] = DET_WEIGHT * n * dp
    total = DET_WEIGHT * n * ce
    parts = {"det": n * ce}
    head_grads = {"prob": g_prob}
    face = labels == 1
    k = int(np.count_nonzero(face))
    for head, part, targets, weight, loss_fn in (
        ("box", "box", box_targets, BOX_WEIGHT, box_loss),
        ("landmarks", "lmk", lmk_targets, LMK_WEIGHT, landmark_loss),
    ):
        if not k or head not in heads:
            continue
        pred = np.asarray(heads[head], dtype=np.float64).reshape(-1, n).T
        loss, grad = loss_fn(pred[face], targets[face])
        total += weight * k * loss
        parts[part] = k * loss
        g = np.zeros_like(pred)
        g[face] = weight * k * grad
        head_grads[head] = g.T.reshape(np.shape(heads[head]))
    return total, head_grads, parts


def _sgd_step(weights, grads, scale, config):
    """SGD update from scaled, norm-capped batch gradients; raises if a tensor overflows."""
    stepped = {}
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.sqrt(sum(float(np.sum((scale * g) ** 2)) for g in grads.values()))
        if norm > CLIP_NORM:
            scale *= CLIP_NORM / norm
        step = LEARNING_RATE * scale
        for name, w in weights.items():
            stepped[name] = (w.astype(np.float64) - step * grads[name]).astype(np.float32)
            if not np.isfinite(stepped[name]).all():
                raise TrainingDiverged(f"{config.task}: trained tensor {name!r} is not finite")
    return WeightStore(stepped)


def _fit(stage, net, weights, pixels, batch_loss, config, rng, history):
    """Minibatch SGD of net over the (C,H,W,N) batch pixels; returns the trained weights.

    batch_loss(heads, idx) scores the minibatch of sample indices idx and
    returns (loss, head_grads, terms, hits), or None to skip the batch.
    Each step scales the batch-summed gradients by 1/terms.  Every epoch
    appends (stage, epoch, loss per term, hits per term) to history; an
    epoch that scores no batch raises ConfigError, since it took no step.
    """
    order = np.arange(pixels.shape[-1])
    for epoch in range(1, config.epochs + 1):
        rng.shuffle(order)
        loss_sum, n_hits, n_terms = 0.0, 0, 0
        for start in range(0, len(order), BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            # an activation past float32 shows as a non-finite loss or
            # trained tensor, which raise TrainingDiverged below
            with np.errstate(over="ignore", invalid="ignore"):
                heads, cache = net.forward_train(weights, pixels[..., idx])
                scored = batch_loss(heads, idx)
                if scored is None:
                    continue
                loss, head_grads, terms, hits = scored
                if not np.isfinite(loss):
                    raise TrainingDiverged(f"{stage}: loss became {loss} in epoch {epoch}")
                grads = net.backward(weights, cache, head_grads)
            loss_sum += loss
            n_hits += hits
            n_terms += terms
            weights = _sgd_step(weights, grads, 1 / terms, config)
        if not n_terms:
            raise ConfigError(f"{stage}: epoch {epoch} scored no minibatch, so took no SGD step")
        history.append((stage, epoch, loss_sum / n_terms, n_hits / n_terms))
    return weights


def scene_negatives(pnet_weights, img, faces, min_face, rng):
    """P-Net's false positives on the planar scene img with truth boxes faces.

    The negatives are the boxes that ``_stage1`` passes at the default
    cuts, that keep a pixel of the frame and that overlap every face at
    IoU < NEG_IOU; returns at most MINE_PER_SCENE of them, in
    ``rng.permutation`` order.  A P-Net whose scan is not finite, or
    regresses a box past ``detect.MAX_BOX_EDGE``, raises TrainingDiverged.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            boxes = _stage1(img, pnet_weights, DetectorConfig(min_face_size=min_face))
    except InvariantError as err:
        raise TrainingDiverged(f"pnet: {err}") from err
    boxes = boxes[box_in_image(boxes, *img.shape[1:])]
    miss = np.array([all(box_iou(b, f) < NEG_IOU for f in faces) for b in boxes.tolist()], bool)
    negatives = boxes[miss]
    return negatives[rng.permutation(len(negatives))[:MINE_PER_SCENE]]


def mine_negatives(pnet_weights, rng, n):
    """Up to n crops of P-Net's false positives for each refinement stage.

    Draws scenes in ``scene_plan`` order from rng and takes their
    ``scene_negatives`` until n are found, MINE_SCENES scenes are spent or
    a whole PLAN_CYCLE of scenes has yielded none, and cuts each negative
    at the R-Net and O-Net input sizes.  Returns {stage: (3, s, s, k)
    float32 0..255 crops} with the same k <= n boxes behind every stage.
    """
    sizes = {stage: detector_nets()[stage].input_shape[1] for stage in ("rnet", "onet")}
    crops = {stage: [np.zeros((3, s, s, 0), np.float32)] for stage, s in sizes.items()}
    found = cycle_start = 0
    for index in range(MINE_SCENES):
        if found >= n:
            break
        if index % PLAN_CYCLE == 0:
            if index and found == cycle_start:
                break  # a whole cycle found nothing: a P-Net this weak would spend the budget
            cycle_start = found
        layout, n_faces = scene_plan(index)
        frame, truth = make_scene(rng, layout, n_faces)
        img = to_planar(frame)
        faces = [box for box, *_ in truth]
        boxes = scene_negatives(pnet_weights, img, faces, layout.min_face, rng)[: n - found]
        found += len(boxes)
        for stage, s in sizes.items():
            crops[stage].append(crop_resize_batch(img, boxes, s, s))
    return {stage: np.concatenate(parts, axis=-1) for stage, parts in crops.items()}


def _train_stage(stage, net, config, rng, history, negatives=None):
    """Train one stage on make_det_batch patches; mined (3, s, s, k) negatives,
    if given, take the place of its first k background patches."""
    weights = net.init_weights(rng)
    images, labels, boxes, lmks = make_det_batch(rng, net.input_shape[1], config.n_train)
    images = np.ascontiguousarray(np.moveaxis(images, 0, -1))  # the nets' (C, H, W, N)
    if negatives is not None:
        images[..., np.flatnonzero(labels == 0)[: negatives.shape[-1]]] = negatives
    pixels = normalize_pixels(images)

    def batch_loss(heads, idx):
        total, head_grads, _ = multitask_loss(heads, labels[idx], boxes[idx], lmks[idx])
        p_face = np.asarray(heads["prob"]).reshape(2, -1, len(idx))[1, 0]
        hits = int(np.count_nonzero((p_face > 0.5) == (labels[idx] == 1)))
        return total, head_grads, len(idx), hits

    return _fit(stage, net, weights, pixels, batch_loss, config, rng, history)


def _train_detector(config):
    rng = np.random.default_rng(config.seed)
    history: list = []
    nets = detector_nets()
    pnet = _train_stage("pnet", nets["pnet"], config, rng, history)
    # scenes come from a generator of their own, so R-Net and O-Net draw the
    # same initial weights and patches as they would without mining; of the
    # n // 2 background rows of make_det_batch, mined crops take half
    scene_rng = np.random.default_rng([config.seed, 1])
    negatives = mine_negatives(pnet, scene_rng, config.n_train // 4)
    stage_weights = [pnet] + [
        _train_stage(stage, nets[stage], config, rng, history, negatives[stage])
        for stage in ("rnet", "onet")
    ]
    return TrainResult(WeightStore.merge(*stage_weights), history)


def _train_embedder(config):
    rng = np.random.default_rng(config.seed)
    net = embedding_net(CHIP_SIZE)
    weights = net.init_weights(rng)
    labels = np.array([CHILD if i % 2 == 0 else ADULT for i in range(config.n_train)])
    pixels = np.stack([normalize_pixels(make_face_chip(rng, lb)) for lb in labels], axis=-1)

    def batch_loss(heads, idx):
        embs = np.asarray(heads["embedding"], dtype=np.float64).T
        triplets = select_triplets(embs, labels[idx])
        if not triplets:
            return None
        ta, tp, tn = (np.array(col) for col in zip(*triplets))
        loss, (da, dp, dn) = triplet_loss(embs[ta], embs[tp], embs[tn])
        d_ap = np.sum((embs[ta] - embs[tp]) ** 2, axis=1)
        d_an = np.sum((embs[ta] - embs[tn]) ** 2, axis=1)
        n_sat = int(np.count_nonzero(d_ap + TRIPLET_MARGIN <= d_an))
        emb_grads = np.zeros_like(embs)
        np.add.at(emb_grads, ta, da)
        np.add.at(emb_grads, tp, dp)
        np.add.at(emb_grads, tn, dn)
        return loss, {"embedding": emb_grads.T}, len(triplets), n_sat

    history: list = []
    weights = _fit("embed", net, weights, pixels, batch_loss, config, rng, history)
    return TrainResult(weights, history)


def train_toy(config=None, weights_path=None, metrics_path=None):
    """Run the toy training task named by config.task.

    Returns a TrainResult; optionally writes the weight file and the
    per-epoch metrics CSV.  Raises TrainingDiverged, before writing
    anything, when a loss or a trained weight is not finite, or when the
    trained P-Net regresses a box past ``detect.MAX_BOX_EDGE``.
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

    x is a (C,H,W,N) batch and loss_on_heads maps the (..., N) head
    dict to (loss, head_grads).  Probes up to coords_per_tensor randomly
    chosen coordinates in every parameter tensor and returns the worst
    relative error.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=np.float64)
    work = {name: np.array(weights[name], dtype=np.float64) for name in weights}
    heads, cache = net.forward_train(work, x)
    _, head_grads = loss_on_heads(heads)
    grads = net.backward(work, cache, head_grads)

    def loss():
        return loss_on_heads(net.forward(work, x))[0]

    worst = 0.0
    for name in sorted(grads):
        size = work[name].size
        coords = rng.choice(size, size=min(coords_per_tensor, size), replace=False)
        worst = max(worst, probe_error(loss, work[name], grads[name], coords, step))
    return worst


def layer_grad_check(layer, x, seed=0, step=1e-3):
    """Check one layer's backward pass against central differences.

    Uses the projection loss <c, forward(x)> with fixed random c and
    probes every coordinate of the input and of every parameter tensor.
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
    targets = [(x, dx)] + [(params[name], g) for name, g in dparams.items()]
    return max(probe_error(loss, arr, grad, range(arr.size), step) for arr, grad in targets)


def _kink_free_inputs(rng):
    """Per-layer-type seeded batches of 2 that keep a 1e-3 step differentiable."""
    from .nn import Conv2D, FullyConnected, L2Normalize, MaxPool2D, PReLU, Softmax

    away = rng.uniform(0.2, 1.5, size=(4, 5, 5, 2)) * rng.choice([-1.0, 1.0], size=(4, 5, 5, 2))
    distinct = rng.permutation(4 * 6 * 6 * 2).reshape(4, 6, 6, 2) * 0.05
    return [
        ("conv2d", Conv2D("c", 3, 4, 3, padding=1), rng.normal(size=(3, 6, 6, 2))),
        ("fully_connected", FullyConnected("fc", 4 * 5 * 5, 7), rng.normal(size=(4, 5, 5, 2))),
        ("prelu", PReLU("act", 4), away),
        ("maxpool", MaxPool2D(2, 2), distinct),
        ("softmax", Softmax(axis=0), rng.normal(size=(3, 2, 2, 2))),
        ("l2_normalize", L2Normalize(), rng.normal(size=(17, 2)) + 0.1),
    ]


def run_grad_checks(seed=0):
    """Seeded finite-difference sweep over the losses and every layer type.

    Returns {check name: max relative error} and judges none of them, so
    callers decide how strict to be; a negative seed raises ConfigError.
    Quadratic losses should come out below 1e-6, everything else below
    1e-3.
    """
    _check_seed(seed)
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
        lambda a: (triplet_loss(a, pos, neg)[0], triplet_loss(a, pos, neg)[1][0]),
        rng.normal(size=(5, 8)),
    )

    for name, layer, x in _kink_free_inputs(rng):
        report[f"layer_{name}"] = layer_grad_check(layer, x, seed=seed + 1)
    return report
