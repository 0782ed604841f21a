"""Dense float kernels for the fixed layer set.

Spatial tensors are channel-first (C, H, W), row-major. Kernels keep the
dtype of their inputs: inference runs in float32, while finite-difference
checking upcasts to float64 and exercises the same code path. There is no
broadcasting; shapes must match exactly.

A batch of N samples adds one axis right after the channels: conv maps
are (C, N, H, W) and feature vectors are (F, N). With that layout a
convolution is one im2col GEMM, W (C_out, C_in*kh*kw) @ cols
(C_in*kh*kw, N*oh*ow), whose result is already (C_out, N, oh, ow), and
PReLU (leading-channel slopes), softmax(axis=0) and max pooling (last two
axes) need no change. Single samples keep the per-tap arithmetic, which
training and the gradient checks rely on; the backward kernels take
single samples only.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DegenerateInputError


def conv2d(x, weight, bias, stride=1, padding=0, layer="conv2d"):
    """Cross-correlate x with weight (C_out,C_in,kh,kw), add bias.

    x is one (C_in,H,W) sample or a (C_in,N,H,W) batch; the output keeps
    the input's layout. Zero padding at the borders; each output axis has
    size floor((n + 2*padding - k) / stride) + 1.
    """
    if x.ndim not in (3, 4) or weight.ndim != 4 or bias.ndim != 1:
        raise ConfigError(
            f"{layer}: expected rank-3 or rank-4 input, rank-4 weight, rank-1 bias, got "
            f"{x.ndim}/{weight.ndim}/{bias.ndim}"
        )
    cout, cin, kh, kw = weight.shape
    if x.shape[0] != cin:
        raise ConfigError(f"{layer}: input has {x.shape[0]} channels, weight expects {cin}")
    if bias.shape[0] != cout:
        raise ConfigError(f"{layer}: bias has {bias.shape[0]} entries, expected {cout}")
    if stride < 1 or padding < 0:
        raise ConfigError(f"{layer}: stride must be >= 1 and padding >= 0")
    if padding:
        x = np.pad(x, ((0, 0),) * (x.ndim - 2) + ((padding, padding),) * 2)
    h, w = x.shape[-2:]
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ConfigError(f"{layer}: kernel {kh}x{kw} does not fit padded input {h}x{w}")
    if x.ndim == 4:
        return _conv2d_gemm(x, weight, bias, stride, oh, ow)
    out = np.zeros((cout, oh, ow), dtype=np.result_type(x, weight))
    for i in range(kh):
        for j in range(kw):
            patch = x[:, i : i + stride * oh : stride, j : j + stride * ow : stride]
            out += np.tensordot(weight[:, :, i, j], patch, axes=(1, 0))
    out += bias[:, None, None]
    return out


def _conv2d_gemm(x, weight, bias, stride, oh, ow):
    """im2col of a padded (C_in,N,H,W) batch, then one GEMM -> (C_out,N,oh,ow)."""
    cout, cin, kh, kw = weight.shape
    n = x.shape[1]
    cols = np.empty((cin, kh, kw, n, oh, ow), dtype=np.result_type(x, weight))
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    out = weight.reshape(cout, -1) @ cols.reshape(cin * kh * kw, n * oh * ow)
    out = out.reshape(cout, n, oh, ow)
    out += bias[:, None, None, None]
    return out


def conv2d_backward(x, weight, dy, stride=1, padding=0):
    """Gradients of conv2d wrt (input, weight, bias) given upstream dy."""
    cout, cin, kh, kw = weight.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding))) if padding else x
    oh, ow = dy.shape[1], dy.shape[2]
    dxp = np.zeros(xp.shape, dtype=dy.dtype)
    dw = np.zeros(weight.shape, dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            patch = xp[:, i : i + stride * oh : stride, j : j + stride * ow : stride]
            dw[:, :, i, j] = np.tensordot(dy, patch, axes=((1, 2), (1, 2)))
            dxp[:, i : i + stride * oh : stride, j : j + stride * ow : stride] += np.tensordot(
                weight[:, :, i, j].T, dy, axes=(1, 0)
            )
    db = dy.sum(axis=(1, 2))
    if padding:
        dxp = dxp[:, padding : xp.shape[1] - padding, padding : xp.shape[2] - padding]
    return dxp, dw, db


def pool_output_size(n, kernel, stride):
    """Ceil-mode window count; the last window may be truncated at the border."""
    return max(0, -(-(n - kernel) // stride)) + 1


def check_pool(kernel, stride, layer="maxpool2d"):
    # a stride past the kernel skips pixels, and ceil mode then counts
    # windows that start beyond the input and hold only -inf
    if not 1 <= stride <= kernel:
        raise ConfigError(f"{layer}: need 1 <= stride <= kernel, got kernel {kernel}, stride {stride}")


def maxpool2d(x, kernel, stride, layer="maxpool2d"):
    """Max over kernel x kernel windows of the last two axes, ceil mode.

    x is one (C,H,W) sample or a (C,N,H,W) batch.
    """
    if x.ndim not in (3, 4):
        raise ConfigError(f"{layer}: expected rank-3 or rank-4 input, got {x.ndim}")
    check_pool(kernel, stride, layer)
    lead, (h, w) = x.shape[:-2], x.shape[-2:]
    oh = pool_output_size(h, kernel, stride)
    ow = pool_output_size(w, kernel, stride)
    xp = np.full(lead + ((oh - 1) * stride + kernel, (ow - 1) * stride + kernel), -np.inf,
                 dtype=x.dtype)
    xp[..., :h, :w] = x
    out = np.full(lead + (oh, ow), -np.inf, dtype=x.dtype)
    for i in range(kernel):
        for j in range(kernel):
            np.maximum(out, xp[..., i::stride, j::stride][..., :oh, :ow], out=out)
    return out


def maxpool2d_backward(x, dy, kernel, stride):
    """Route dy to the first maximum of each window (row-major tie break)."""
    c, h, w = x.shape
    oh = pool_output_size(h, kernel, stride)
    ow = pool_output_size(w, kernel, stride)
    xp = np.full((c, (oh - 1) * stride + kernel, (ow - 1) * stride + kernel), -np.inf, dtype=x.dtype)
    xp[:, :h, :w] = x
    best = np.full((c, oh, ow), -1, dtype=np.int32)
    best_val = np.full((c, oh, ow), -np.inf, dtype=x.dtype)
    tap = 0
    for i in range(kernel):
        for j in range(kernel):
            cand = xp[:, i::stride, j::stride][:, :oh, :ow]
            better = cand > best_val
            best[better] = tap
            np.maximum(best_val, cand, out=best_val)
            tap += 1
    dxp = np.zeros(xp.shape, dtype=dy.dtype)
    tap = 0
    for i in range(kernel):
        for j in range(kernel):
            view = dxp[:, i::stride, j::stride][:, :oh, :ow]
            view += np.where(best == tap, dy, 0)
            tap += 1
    return dxp[:, :h, :w]


def prelu(x, slopes, layer="prelu"):
    """x where x >= 0, slope * x elsewhere; one slope per leading-axis channel."""
    if slopes.shape != (x.shape[0],):
        raise ConfigError(
            f"{layer}: {slopes.shape[0] if slopes.ndim == 1 else slopes.shape} slopes "
            f"for {x.shape[0]} channels"
        )
    s = slopes.reshape((-1,) + (1,) * (x.ndim - 1))
    return np.where(x >= 0, x, x * s)


def prelu_backward(x, slopes, dy):
    s = slopes.reshape((-1,) + (1,) * (x.ndim - 1))
    neg = x < 0
    dx = dy * np.where(neg, s, np.ones((), dtype=dy.dtype))
    dslopes = np.where(neg, dy * x, 0).reshape(x.shape[0], -1).sum(axis=1)
    return dx, dslopes


def softmax(x, axis=0):
    """Exponentials normalized to sum 1 along axis, max-subtracted for stability."""
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(y, dy, axis=0):
    """Backward through softmax given its output y."""
    dot = (dy * y).sum(axis=axis, keepdims=True)
    return y * (dy - dot)


def l2_normalize(x):
    """Scale x to unit Euclidean norm (over all elements).

    An (F, N) batch of feature vectors is scaled column by column.
    """
    n = np.linalg.norm(x, axis=0) if x.ndim == 2 else np.linalg.norm(x.ravel())
    if not np.all(n):
        raise DegenerateInputError("cannot l2-normalize an all-zero tensor")
    return x / n


def l2_normalize_backward(x, dy):
    n = np.linalg.norm(x.ravel())
    if n == 0.0:
        raise DegenerateInputError("cannot l2-normalize an all-zero tensor")
    y = x / n
    return (dy - y * (dy * y).sum()) / n


def fully_connected(x, weight, bias, layer="fc"):
    """weight @ flatten(x) + bias; weight is (out_features, in_features).

    A batch, (C,N,H,W) maps or (F,N) vectors, flattens each sample in its
    (C,H,W) order and returns (out_features, N).
    """
    batched = x.ndim in (2, 4)
    xf = np.moveaxis(x, 1, -1).reshape(-1, x.shape[1]) if batched else x.reshape(-1)
    if weight.ndim != 2 or weight.shape[1] != xf.shape[0]:
        raise ConfigError(
            f"{layer}: weight {weight.shape} incompatible with flattened input {xf.shape[0]}"
        )
    if bias.shape != (weight.shape[0],):
        raise ConfigError(f"{layer}: bias {bias.shape} incompatible with weight {weight.shape}")
    return weight @ xf + (bias[:, None] if batched else bias)


def fully_connected_backward(x, weight, dy):
    xf = x.reshape(-1)
    dw = np.outer(dy, xf)
    db = dy.copy()
    dx = (weight.T @ dy).reshape(x.shape)
    return dx, dw, db
