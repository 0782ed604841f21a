"""Dense float kernels for the fixed layer set.

Every kernel works on a batch of N samples in one layout, batch last:
conv maps are (C, H, W, N), row-major, and feature vectors are (F, N).
A single sample is a batch of one. Kernels keep the dtype of their
inputs: inference runs in float32, while finite-difference checking
upcasts to float64 and exercises the same code path. There is no
broadcasting; shapes must match exactly.

With the batch innermost, an output row of a map holds ow*N contiguous
floats, so every im2col tap, col2im add and pool row pass copies whole
rows of all samples at once. A convolution is an im2col GEMM, W (C_out,
C_in*kh*kw) @ cols (C_in*kh*kw, oh*ow*N), whose result is already
(C_out, oh, ow, N); it runs in strips of output rows whose columns fit
IM2COL_BYTES, for any batch. PReLU (leading-channel slopes), softmax
(axis=0) and max pooling (axes 1 and 2) need no reshaping, and a fully
connected layer flattens each sample in (C, H, W) order with a reshape.
The backward kernels take the same layout and sum parameter gradients
over the batch: the conv weight gradient is one dy @ colsᵀ GEMM over all
N samples.

Two kernels give up the sign of a zero for speed, and only that: PReLU
computes max(x, 0) + slope * min(x, 0), which gives +0.0 where
``x if x >= 0 else slope * x`` gives -0.0, and max pooling takes each
window's rows before its columns. NaN still propagates through both.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError, DegenerateInputError

IM2COL_BYTES = 2 << 20  # im2col buffer of one conv GEMM, about an L2 cache
_LAYOUTS = {2: "(F,N) vectors", 4: "(C,H,W,N) maps"}


def _check_rank(x, ranks, layer):
    if x.ndim not in ranks:
        want = " or ".join(_LAYOUTS[r] for r in ranks)
        raise ConfigError(f"{layer}: expected a batch of {want}, got shape {x.shape}")


def _im2col(x, kh, kw, stride, oh, ow):
    """Columns (C*kh*kw, oh*ow*N) of a padded (C,H,W,N) input, one row per (c, i, j) tap."""
    c, n = x.shape[0], x.shape[3]
    cols = np.empty((c, kh, kw, oh, ow, n), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, i, j] = x[:, i : i + stride * oh : stride, j : j + stride * ow : stride]
    return cols.reshape(c * kh * kw, oh * ow * n)


def _pad(x, padding):
    return np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0))) if padding else x


def conv2d(x, weight, bias, stride=1, padding=0, layer="conv2d"):
    """Cross-correlate a (C_in,H,W,N) batch with weight (C_out,C_in,kh,kw), add bias.

    Zero padding at the borders; each output axis has size
    floor((n + 2*padding - k) / stride) + 1. The GEMM runs in strips of
    output rows whose im2col columns fit IM2COL_BYTES, each written in
    place into the output, so the transient memory is one strip's
    columns whatever the batch. A bias of None adds nothing, for a
    caller that adds it later (Network.forward, after pooling).
    """
    _check_rank(x, (4,), layer)
    if weight.ndim != 4 or (bias is not None and bias.ndim != 1):
        raise ConfigError(f"{layer}: expected rank-4 weight and rank-1 bias, got "
                          f"{weight.ndim}/{np.ndim(bias)}")
    cout, cin, kh, kw = weight.shape
    if x.shape[0] != cin:
        raise ConfigError(f"{layer}: input has {x.shape[0]} channels, weight expects {cin}")
    if bias is not None and bias.shape[0] != cout:
        raise ConfigError(f"{layer}: bias has {bias.shape[0]} entries, expected {cout}")
    if stride < 1 or padding < 0:
        raise ConfigError(f"{layer}: stride must be >= 1 and padding >= 0")
    x = _pad(x, padding)
    h, w, n = x.shape[1:]
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    if oh < 1 or ow < 1:
        raise ConfigError(f"{layer}: kernel {kh}x{kw} does not fit padded input {h}x{w}")
    wmat = weight.reshape(cout, -1)
    row = ow * n  # output columns per output row
    strip = max(1, IM2COL_BYTES // (wmat.shape[1] * row * x.itemsize))
    out = np.empty((cout, oh * row), dtype=np.result_type(x, weight))
    for r0 in range(0, oh, strip):
        rows = min(strip, oh - r0)
        band = x[:, r0 * stride : (r0 + rows - 1) * stride + kh]
        np.matmul(wmat, _im2col(band, kh, kw, stride, rows, ow),
                  out=out[:, r0 * row : (r0 + rows) * row])
    if bias is not None:
        out += bias[:, None]
    return out.reshape(cout, oh, ow, n)


def conv2d_backward(x, weight, dy, stride=1, padding=0):
    """Gradients of conv2d wrt (input, weight, bias); weight and bias sum over the batch."""
    _check_rank(x, (4,), "conv2d_backward")
    cout, cin, kh, kw = weight.shape
    xp = _pad(x, padding)
    oh, ow = dy.shape[1:3]
    cols = _im2col(xp, kh, kw, stride, oh, ow)
    dy2 = dy.reshape(cout, -1)
    dw = (dy2 @ cols.T).reshape(weight.shape).astype(dy.dtype, copy=False)
    dcols = (weight.reshape(cout, -1).T @ dy2).reshape((cin, kh, kw) + dy.shape[1:])
    # col2im: every tap adds its columns back onto the input pixels it read
    dxp = np.zeros(xp.shape, dtype=dy.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + stride * oh : stride, j : j + stride * ow : stride] += dcols[:, i, j]
    h, w = x.shape[1:3]
    return dxp[:, padding : padding + h, padding : padding + w], dw, dy.sum(axis=(1, 2, 3))


def pool_output_size(n, kernel, stride):
    """Ceil-mode window count; the last window may be truncated at the border."""
    return max(0, -(-(n - kernel) // stride)) + 1


def check_pool(kernel, stride, layer="maxpool2d"):
    # a stride past the kernel skips pixels, and ceil mode then counts
    # windows that start beyond the input and hold only -inf
    if not 1 <= stride <= kernel:
        raise ConfigError(f"{layer}: need 1 <= stride <= kernel, got kernel {kernel}, stride {stride}")


def _pool_taps(n, kernel, stride):
    """(offset, windows) of each tap along one axis of length n, ceil mode.

    Tap i reads pixel o*stride + i of window o; it reaches only the
    windows in which that pixel exists, so a ceil-mode border window just
    has fewer taps and nothing is padded. Tap 0 reaches every window,
    since stride <= kernel.
    """
    on = pool_output_size(n, kernel, stride)
    return [(i, min(on, -(-(n - i) // stride))) for i in range(min(kernel, n))]


def maxpool2d(x, kernel, stride, layer="maxpool2d"):
    """Max over kernel x kernel windows of a (C,H,W,N) batch's axes 1 and 2, ceil mode.

    Max is exact and separable: one pass over each window's rows, then
    one over its columns, each starting from a copy of the first tap.
    That is 2*kernel strided passes instead of kernel**2; only the sign
    of a zero maximum can depend on the order.
    """
    _check_rank(x, (4,), layer)
    check_pool(kernel, stride, layer)
    (_, oh), *rows = _pool_taps(x.shape[1], kernel, stride)
    (_, ow), *cols = _pool_taps(x.shape[2], kernel, stride)
    r = x[:, : stride * oh : stride].copy()
    for i, n in rows:
        np.maximum(r[:, :n], x[:, i : i + stride * n : stride], out=r[:, :n])
    out = r[:, :, : stride * ow : stride].copy()
    for j, n in cols:
        np.maximum(out[:, :, :n], r[:, :, j : j + stride * n : stride], out=out[:, :, :n])
    return out


def maxpool2d_backward(x, dy, kernel, stride):
    """Route dy to the first maximum of each window (row-major tie break)."""
    _check_rank(x, (4,), "maxpool2d_backward")
    out = maxpool2d(x, kernel, stride, "maxpool2d_backward")
    left = np.ones(dy.shape, dtype=bool)  # windows whose maximum is not routed yet
    dx = np.zeros(x.shape, dtype=dy.dtype)
    for i, rows in _pool_taps(x.shape[1], kernel, stride):
        for j, cols in _pool_taps(x.shape[2], kernel, stride):
            win = (slice(None), slice(rows), slice(cols))
            tap = (slice(None), slice(i, i + stride * rows, stride), slice(j, j + stride * cols, stride))
            hit = x[tap] == out[win]
            hit &= left[win]
            left[win] ^= hit
            dx[tap] += np.where(hit, dy[win], 0)
    return dx


def prelu(x, slopes, layer="prelu", inplace=False):
    """max(x, 0) + slope * min(x, 0); one slope per leading-axis channel.

    That is x where x >= 0 and slope * x elsewhere, and NaN stays NaN.
    The sign of a zero output may differ from that form: -0.0 can come
    out as +0.0. With inplace, the result overwrites x when x already
    has the result's dtype, so pass it only for an array nothing else reads.
    """
    _check_rank(x, (2, 4), layer)
    if slopes.shape != (x.shape[0],):
        raise ConfigError(
            f"{layer}: {slopes.shape[0] if slopes.ndim == 1 else slopes.shape} slopes "
            f"for {x.shape[0]} channels"
        )
    dtype = np.result_type(x, slopes)
    neg = np.minimum(x, 0, dtype=dtype)
    neg *= slopes.reshape((-1,) + (1,) * (x.ndim - 1))
    out = np.maximum(x, 0, out=x if inplace and x.dtype == dtype else None, dtype=dtype)
    out += neg
    return out


def prelu_backward(x, slopes, dy):
    _check_rank(x, (2, 4), "prelu_backward")
    s = slopes.reshape((-1,) + (1,) * (x.ndim - 1))
    neg = x < 0
    # the slope map keeps the slopes' dtype, not dy's float64; numpy's
    # masked ufunc loops (where=) measured slower than putmask
    dx = dy * np.where(neg, s, np.ones((), dtype=s.dtype))
    dslope_terms = dy * x
    np.putmask(dslope_terms, ~neg, 0)
    return dx, dslope_terms.reshape(x.shape[0], -1).sum(axis=1)


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
    """(C,H,W,N) maps or (F,N) vectors -> (features, N), each sample in (C,H,W) order."""
    return x.reshape(-1, x.shape[-1])


def fully_connected(x, weight, bias, layer="fc"):
    """weight @ flatten(x) + bias -> (out_features, N); weight is (out_features, in_features).

    x is a batch of (C,H,W,N) maps or (F,N) vectors.
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
    return (weight.T @ dy).reshape(x.shape), dy @ _flatten(x).T, dy.sum(axis=1)
