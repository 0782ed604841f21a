"""Training losses and the finite-difference gradient probe.

Everything here computes in float64 regardless of input dtype so the
checker can resolve quadratic losses to ~1e-10.  Batch reduction is the
mean for the three supervised losses and the sum for the triplet loss.
``probe_error`` is the one central-difference loop: ``grad_check`` here
and the network and layer checks in ``train`` each set up a loss and
call it.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

P_CLAMP = 1e-7  # keep log() finite: p in [P_CLAMP, 1 - P_CLAMP]
TRIPLET_MARGIN = 0.2  # FaceNet's hinge margin on squared embedding distances


def cross_entropy_loss(p_face, y):
    """Two-class cross-entropy on face probabilities.

    L = mean_i -( y_i log p_i + (1 - y_i) log(1 - p_i) ), with p clamped
    away from 0 and 1.  Returns (loss, dL/dp); the gradient is zero where
    the clamp is active.
    """
    p = np.atleast_1d(np.asarray(p_face, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    if p.shape != y.shape:
        raise ConfigError(f"probabilities {p.shape} vs targets {y.shape}")
    if np.any((y != 0.0) & (y != 1.0)):
        raise ConfigError("targets must be 0 or 1")
    inside = (p > P_CLAMP) & (p < 1.0 - P_CLAMP)
    pc = np.clip(p, P_CLAMP, 1.0 - P_CLAMP)
    n = p.size
    loss = float(-np.sum(y * np.log(pc) + (1.0 - y) * np.log1p(-pc)) / n)
    grad = np.where(inside, ((1.0 - y) / (1.0 - pc) - y / pc) / n, 0.0)
    return loss, grad


def _squared_l2(pred, target):
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ConfigError(f"prediction {pred.shape} vs target {target.shape}")
    shape = pred.shape
    if pred.ndim == 1:
        pred = pred[None, :]
        target = target[None, :]
    n = pred.shape[0]
    diff = pred - target
    loss = float(np.sum(diff * diff) / n)
    return loss, (2.0 * diff / n).reshape(shape)


def box_loss(pred, target):
    """Mean squared Euclidean distance between 4-d offset vectors."""
    return _squared_l2(pred, target)


def landmark_loss(pred, target):
    """Mean squared Euclidean distance between 10-d landmark vectors."""
    return _squared_l2(pred, target)


def triplet_loss(anchors, positives, negatives, margin=TRIPLET_MARGIN):
    """Hinged triplet loss, summed over the batch.

    L = sum_i max(0, |a_i - p_i|^2 - |a_i - n_i|^2 + margin).  Returns
    (loss, (d_anchor, d_positive, d_negative)); inactive triplets get
    zero gradient.
    """
    a = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    p = np.atleast_2d(np.asarray(positives, dtype=np.float64))
    n = np.atleast_2d(np.asarray(negatives, dtype=np.float64))
    if not (a.shape == p.shape == n.shape):
        raise ConfigError(f"triplet shapes differ: {a.shape}, {p.shape}, {n.shape}")
    d_ap = np.sum((a - p) ** 2, axis=1)
    d_an = np.sum((a - n) ** 2, axis=1)
    terms = d_ap - d_an + float(margin)
    active = (terms > 0.0)[:, None]
    loss = float(np.sum(np.maximum(0.0, terms)))
    da = np.where(active, 2.0 * (n - p), 0.0)
    dp = np.where(active, -2.0 * (a - p), 0.0)
    dn = np.where(active, 2.0 * (a - n), 0.0)
    return loss, (da, dp, dn)


def select_triplets(embeddings, labels):
    """Pick (anchor, positive, negative) index triples from one batch.

    Every ordered same-label pair (a, p), a != p, becomes a triplet.  The
    negative is semi-hard: among other-label samples farther from the
    anchor than the positive, the closest one; if none qualifies, the
    closest other-label sample overall.
    """
    emb = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    if emb.ndim != 2 or emb.shape[0] != labels.shape[0]:
        raise ConfigError(f"embeddings {emb.shape} vs {labels.shape[0]} labels")
    d2 = np.sum((emb[:, None, :] - emb[None, :, :]) ** 2, axis=2)
    triplets = []
    for ai in range(emb.shape[0]):
        same = np.nonzero(labels == labels[ai])[0]
        other = np.nonzero(labels != labels[ai])[0]
        if other.size == 0:
            continue
        for pi in same:
            if pi == ai:
                continue
            d_ap = d2[ai, pi]
            d_neg = d2[ai, other]
            semi = other[d_neg > d_ap]
            if semi.size:
                ni = semi[np.argmin(d2[ai, semi])]
            else:
                ni = other[np.argmin(d_neg)]
            triplets.append((int(ai), int(pi), int(ni)))
    return triplets


def probe_error(loss, arr, grad, coords, step=1e-3):
    """Worst relative error of ``grad`` against central differences of ``loss()``.

    ``arr`` is the float64 array that ``loss()`` reads, in any memory
    layout.  Each flat (C-order) coordinate in ``coords`` moves by +-step
    in place and is then put back, so ``arr`` ends bit for bit as it
    began.  Relative error per coordinate is |a - n| / max(1e-8, |a| + |n|).
    """
    gflat = np.asarray(grad, dtype=np.float64).reshape(-1)
    worst = 0.0
    for i in coords:
        # index the array itself: reshape(-1) copies a non-contiguous one
        at = np.unravel_index(i, arr.shape)
        orig = arr[at]
        arr[at] = orig + step
        hi = loss()
        arr[at] = orig - step
        lo = loss()
        arr[at] = orig
        numeric = (hi - lo) / (2.0 * step)
        err = abs(gflat[i] - numeric) / max(1e-8, abs(gflat[i]) + abs(numeric))
        worst = max(worst, err)
    return worst


def grad_check(f, x, step=1e-3):
    """Largest relative error between analytic and central-difference grads.

    f maps a float64 array to (loss, grad); every coordinate of x is probed.
    """
    x = np.asarray(x, dtype=np.float64)
    _, grad = f(x)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != x.shape:
        raise ConfigError(f"gradient shape {grad.shape} does not match input {x.shape}")
    return probe_error(lambda: f(x)[0], x, grad, range(x.size), step)
