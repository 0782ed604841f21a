"""Dense float kernels for the fixed layer set.

Every kernel works on a batch of N samples in one layout: conv maps are
(C, N, H, W), channel first and row-major, and feature vectors are
(F, N). A single sample is a batch of one. Kernels keep the dtype of
their inputs: inference runs in float32, while finite-difference
checking upcasts to float64 and exercises the same code path. There is
no broadcasting; shapes must match exactly.

In this layout a convolution is an im2col GEMM, W (C_out, C_in*kh*kw) @
cols (C_in*kh*kw, N*oh*ow), whose result is already (C_out, N, oh, ow),
and PReLU (leading-channel slopes), softmax(axis=0) and max pooling (last
two axes) need no reshaping. The backward kernels take the same layout
and sum parameter gradients over the batch: the conv weight gradient is
one dy @ colsᵀ GEMM over all N samples.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DegenerateInputError

IM2COL_BYTES = 2 << 20  # im2col buffer of one conv GEMM, about an L2 cache
_LAYOUTS = {2: "(F,N) vectors", 4: "(C,N,H,W) maps"}


def _check_rank(x, ranks, layer):
    if x.ndim not in ranks:
        want = " or ".join(_LAYOUTS[r] for r in ranks)
        raise ConfigError(f"{layer}: expected a batch of {want}, got shape {x.shape}")


def _im2col(x, kh, kw, stride, oh, ow):
    """Columns (C*kh*kw, N*oh*ow) of a padded (C,N,H,W) input, one row per (c, i, j) tap."""
    c, n = x.shape[:2]
    cols = np.empty((c, kh, kw, n, oh, ow), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = x[:, :, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(c * kh * kw, n * oh * ow)


def _pad(x, padding):
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x


def conv2d(x, weight, bias, stride=1, padding=0, layer="conv2d"):
    """Cross-correlate a (C_in,N,H,W) batch with weight (C_out,C_in,kh,kw), add bias.

    Zero padding at the borders; each output axis has size
    floor((n + 2*padding - k) / stride) + 1. A batch is one GEMM, so
    callers bound it (Network.batch_block); a batch of one, such as a
    pyramid level, is computed in strips of output rows whose im2col
    columns fit IM2COL_BYTES.
    """
    _check_rank(x, (4,), layer)
    if weight.ndim != 4 or bias.ndim != 1:
        raise ConfigError(f"{layer}: expected rank-4 weight and rank-1 bias, got "
                          f"{weight.ndim}/{bias.ndim}")
    cout, cin, kh, kw = weight.shape
    if x.shape[0] != cin:
        raise ConfigError(f"{layer}: input has {x.shape[0]} channels, weight expects {cin}")
    if bias.shape[0] != cout:
        raise ConfigError(f"{layer}: bias has {bias.shape[0]} entries, expected {cout}")
    if stride < 1 or padding < 0:
        raise ConfigError(f"{layer}: stride must be >= 1 and padding >= 0")
    x = _pad(x, padding)
    n, h, w = x.shape[1:]
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ConfigError(f"{layer}: kernel {kh}x{kw} does not fit padded input {h}x{w}")
    wmat = weight.reshape(cout, -1)
    # each strip is written in place and frees its columns before the next is cut
    strip = oh if n > 1 else max(1, IM2COL_BYTES // (wmat.shape[1] * ow * x.itemsize))
    out = np.empty((cout, n * oh * ow), dtype=np.result_type(x, weight))
    for r0 in range(0, oh, strip):
        rows = min(strip, oh - r0)
        band = x[:, :, r0 * stride : (r0 + rows - 1) * stride + kh]
        np.matmul(wmat, _im2col(band, kh, kw, stride, rows, ow),
                  out=out[:, r0 * n * ow : (r0 + rows) * n * ow])
    out += bias[:, None]
    return out.reshape(cout, n, oh, ow)


def conv2d_backward(x, weight, dy, stride=1, padding=0):
    """Gradients of conv2d wrt (input, weight, bias); weight and bias sum over the batch."""
    _check_rank(x, (4,), "conv2d_backward")
    cout, cin, kh, kw = weight.shape
    xp = _pad(x, padding)
    oh, ow = dy.shape[2:]
    cols = _im2col(xp, kh, kw, stride, oh, ow)
    dy2 = dy.reshape(cout, -1)
    dw = (dy2 @ cols.T).reshape(weight.shape).astype(dy.dtype, copy=False)
    dcols = (weight.reshape(cout, -1).T @ dy2).reshape((cin, kh, kw) + dy.shape[1:])
    # col2im: every tap adds its columns back onto the input pixels it read
    dxp = np.zeros(xp.shape, dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[..., i : i + stride * oh : stride, j : j + stride * ow : stride] += dcols[:, i, j]
    h, w = x.shape[2:]
    return dxp[..., padding : padding + h, padding : padding + w], dw, dy.sum(axis=(1, 2, 3))


def pool_output_size(n, kernel, stride):
    """Ceil-mode window count; the last window may be truncated at the border."""
    return max(0, -(-(n - kernel) // stride)) + 1


def check_pool(kernel, stride, layer="maxpool2d"):
    # a stride past the kernel skips pixels, and ceil mode then counts
    # windows that start beyond the input and hold only -inf
    if not 1 <= stride <= kernel:
        raise ConfigError(f"{layer}: need 1 <= stride <= kernel, got kernel {kernel}, stride {stride}")


def _pool_windows(x, kernel, stride):
    """x padded with -inf to whole windows, and each tap's (oh, ow) index into it."""
    h, w = x.shape[2:]
    oh = pool_output_size(h, kernel, stride)
    ow = pool_output_size(w, kernel, stride)
    xp = np.full(x.shape[:2] + ((oh - 1) * stride + kernel, (ow - 1) * stride + kernel), -np.inf,
                 dtype=x.dtype)
    xp[..., :h, :w] = x
    taps = [(..., slice(i, i + stride * oh, stride), slice(j, j + stride * ow, stride))
            for i in range(kernel) for j in range(kernel)]
    return xp, taps


def _window_max(xp, taps):
    out = xp[taps[0]].copy()
    for tap in taps[1:]:
        np.maximum(out, xp[tap], out=out)
    return out


def maxpool2d(x, kernel, stride, layer="maxpool2d"):
    """Max over kernel x kernel windows of a (C,N,H,W) batch's last two axes, ceil mode."""
    _check_rank(x, (4,), layer)
    check_pool(kernel, stride, layer)
    return _window_max(*_pool_windows(x, kernel, stride))


def maxpool2d_backward(x, dy, kernel, stride):
    """Route dy to the first maximum of each window (row-major tie break)."""
    _check_rank(x, (4,), "maxpool2d_backward")
    xp, taps = _pool_windows(x, kernel, stride)
    out = _window_max(xp, taps)
    left = np.ones(dy.shape, dtype=bool)  # windows whose maximum is not routed yet
    dxp = np.zeros(xp.shape, dtype=dy.dtype)
    for tap in taps:
        hit = (xp[tap] == out) & left
        left &= ~hit
        dxp[tap] += np.where(hit, dy, 0)
    return dxp[..., : x.shape[2], : x.shape[3]]


def prelu(x, slopes, layer="prelu"):
    """x where x >= 0, slope * x elsewhere; one slope per leading-axis channel."""
    _check_rank(x, (2, 4), layer)
    if slopes.shape != (x.shape[0],):
        raise ConfigError(
            f"{layer}: {slopes.shape[0] if slopes.ndim == 1 else slopes.shape} slopes "
            f"for {x.shape[0]} channels"
        )
    s = slopes.reshape((-1,) + (1,) * (x.ndim - 1))
    return np.where(x >= 0, x, x * s)


def prelu_backward(x, slopes, dy):
    _check_rank(x, (2, 4), "prelu_backward")
    s = slopes.reshape((-1,) + (1,) * (x.ndim - 1))
    neg = x < 0
    dx = dy * np.where(neg, s, np.ones((), dtype=dy.dtype))
    dslopes = np.where(neg, dy * x, 0).reshape(x.shape[0], -1).sum(axis=1)
    return dx, dslopes


def softmax(x, axis=0, layer="softmax"):
    """Exponentials normalized to sum 1 along axis, max-subtracted for stability."""
    _check_rank(x, (2, 4), layer)
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward(y, dy, axis=0):
    """Backward through softmax given its output y."""
    _check_rank(y, (2, 4), "softmax_backward")
    dot = (dy * y).sum(axis=axis, keepdims=True)
    return y * (dy - dot)


def _column_norms(x, layer):
    _check_rank(x, (2,), layer)
    n = np.linalg.norm(x, axis=0)
    if not np.all(n):
        raise DegenerateInputError("cannot l2-normalize an all-zero tensor")
    return n


def l2_normalize(x, layer="l2norm"):
    """Scale each column of an (F, N) batch to unit Euclidean norm."""
    return x / _column_norms(x, layer)


def l2_normalize_backward(x, dy):
    n = _column_norms(x, "l2norm_backward")
    y = x / n
    return (dy - y * (dy * y).sum(axis=0)) / n


def _flatten(x):
    """(C,N,H,W) maps or (F,N) vectors -> (features, N), each sample in (C,H,W) order."""
    return np.moveaxis(x, 1, -1).reshape(-1, x.shape[1])


def fully_connected(x, weight, bias, layer="fc"):
    """weight @ flatten(x) + bias -> (out_features, N); weight is (out_features, in_features).

    x is a batch of (C,N,H,W) maps or (F,N) vectors.
    """
    _check_rank(x, (2, 4), layer)
    xf = _flatten(x)
    if weight.ndim != 2 or weight.shape[1] != xf.shape[0]:
        raise ConfigError(
            f"{layer}: weight {weight.shape} incompatible with flattened input {xf.shape[0]}"
        )
    if bias.shape != (weight.shape[0],):
        raise ConfigError(f"{layer}: bias {bias.shape} incompatible with weight {weight.shape}")
    return weight @ xf + bias[:, None]


def fully_connected_backward(x, weight, dy):
    """Gradients of fully_connected wrt (input, weight, bias); weight and bias sum over N."""
    _check_rank(x, (2, 4), "fc_backward")
    dx = (weight.T @ dy).reshape((x.shape[0],) + x.shape[2:] + (x.shape[1],))
    return np.moveaxis(dx, -1, 1), dy @ _flatten(x).T, dy.sum(axis=1)
