"""Network: a shared trunk plus named output heads.

Forward is a pure function of (weights, input). Backward recomputes the
forward with a private activation cache, so concurrent callers never share
state.

Every method works in the kernels' one batch layout, batch last: it
takes a (C, H, W, N) batch, and a single image is a batch of one. Maps
travel as (C, H, W, N) and feature vectors as (F, N), and each head
comes back in that layout, with the batch axis last; ``backward`` takes
head gradients in that shape and returns parameter gradients summed
over the batch. A network with no FullyConnected layer is fully
convolutional and accepts any spatial size at or above the declared
input shape; all other networks require an exact match.
``batch_block`` is the batch size whose widest layer output fits
IM2COL_BYTES; callers split longer batches into blocks of that size, and
each convolution cuts its own im2col into row strips within the budget.

``forward`` is inference and may reorder work where the values stay
the same. A PReLU whose slopes are all > 0 is increasing, so it
commutes with the max pool after it, and so does adding a per-channel
constant, since rounding is monotone: for conv -> PReLU -> pool,
``forward`` runs the conv without its bias, pools, adds the bias and
runs the PReLU in place on the pooled map, which is a quarter of the
size. The slopes are read on every call, and any slope <= 0 keeps the
declared order. A PReLU after any other layer also runs in place on
that layer's output. ``forward_train`` runs every layer in its
declared order and out of place, because backward needs each layer's
input.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError
from .layers import Conv2D, FullyConnected, MaxPool2D, PReLU
from .ops import IM2COL_BYTES


class Network:
    def __init__(self, name, input_shape, trunk, heads):
        self.name = name
        self.input_shape = tuple(input_shape)
        self.trunk = list(trunk)
        self.heads = {h: list(layers) for h, layers in heads.items()}
        self.fully_convolutional = not any(
            isinstance(layer, FullyConnected) for layer in self._all_layers()
        )
        seen = set()
        for layer in self._all_layers():
            for pname in layer.param_shapes():
                if pname in seen:
                    raise ConfigError(f"{name}: duplicate parameter name {pname}")
                seen.add(pname)
        # walks every layer's out_shape: layers that do not chain raise ConfigError
        self.batch_block = self._batch_block()

    def _all_layers(self):
        yield from self.trunk
        for layers in self.heads.values():
            yield from layers

    def _batch_block(self):
        """Samples per batched forward: the widest layer output fits IM2COL_BYTES."""
        shape = self.input_shape
        widest = math.prod(shape)
        for layer in self.trunk:
            shape = layer.out_shape(shape)
            widest = max(widest, math.prod(shape))
        for layers in self.heads.values():
            hshape = shape
            for layer in layers:
                hshape = layer.out_shape(hshape)
                widest = max(widest, math.prod(hshape))
        return max(1, IM2COL_BYTES // (widest * np.dtype(np.float32).itemsize))

    def param_shapes(self):
        shapes = {}
        for layer in self._all_layers():
            shapes.update(layer.param_shapes())
        return shapes

    def check_weights(self, weights):
        """Every referenced parameter must resolve with the right shape."""
        for pname, shape in self.param_shapes().items():
            if pname not in weights:
                raise ConfigError(f"{self.name}: missing weight {pname}")
            if tuple(weights[pname].shape) != shape:
                raise ConfigError(
                    f"{self.name}: weight {pname} has shape {weights[pname].shape}, expected {shape}"
                )

    def init_weights(self, rng):
        """Fresh float32 parameters for training, keyed by layer names."""
        params = {}
        for layer in self._all_layers():
            params.update(layer.init_params(rng))
        return params

    def _check_input(self, x):
        c, h, w = self.input_shape
        if self.fully_convolutional:
            ok = x.ndim == 4 and x.shape[0] == c and x.shape[1] >= h and x.shape[2] >= w
            want = f"a ({c},H,W,N) batch with H >= {h}, W >= {w}"
        else:
            ok = x.ndim == 4 and x.shape[:3] == (c, h, w)
            want = f"a ({c},{h},{w},N) batch"
        if not ok:
            raise ConfigError(f"{self.name}: expected {want}, got {x.shape}")

    def forward(self, weights, x):
        """Run all heads on a (C,H,W,N) batch; returns {head name: (..., N) array}."""
        self._check_input(x)
        trunk_out = _infer(self.trunk, x, weights)
        return {head: _infer(layers, trunk_out, weights) for head, layers in self.heads.items()}

    def forward_train(self, weights, x):
        """Like forward, but also returns the activation cache for backward."""
        self._check_input(x)
        x, trunk_ctx = _chain(self.trunk, x, weights)
        out, head_ctx = {}, {}
        for head, layers in self.heads.items():
            out[head], head_ctx[head] = _chain(layers, x, weights)
        return out, {"trunk": trunk_ctx, "trunk_out": x, "heads": head_ctx}

    def backward(self, weights, cache, head_grads):
        """Chain upstream head gradients back to every parameter.

        head_grads hold one (..., N) array per head, shaped like the
        forward's output; heads absent from head_grads contribute zero.
        Returns a dict of d(loss)/d(parameter) arrays, summed over the
        batch, covering every parameter of the network.
        """
        grads = {name: np.zeros(shape, dtype=np.float64) for name, shape in self.param_shapes().items()}
        trunk_out = cache["trunk_out"]
        d_trunk = np.zeros(trunk_out.shape, dtype=np.result_type(trunk_out, np.float32))
        for head, dy in head_grads.items():
            if head not in self.heads:
                raise ConfigError(f"{self.name}: unknown head {head!r}")
            d_trunk = d_trunk + _chain_back(self.heads[head], cache["heads"][head], dy, weights, grads)
        _chain_back(self.trunk, cache["trunk"], d_trunk, weights, grads)
        return {name: g.astype(np.result_type(d_trunk)) for name, g in grads.items()}


def _infer(layers, x, weights):
    """Inference through layers, pooling before bias and PReLU where that gives the same values.

    Every layer returns a new array, so a PReLU may overwrite any input
    but x itself: the caller's batch or the trunk output the heads share.
    """
    owned = False
    i = 0
    while i < len(layers):
        conv = layers[i] if isinstance(layers[i], Conv2D) else None
        j = i + (conv is not None)
        act, pool = (layers[j : j + 2] + [None, None])[:2]
        # an increasing map commutes with max; a zero slope would not,
        # since it sends -inf to NaN
        if (isinstance(act, PReLU) and isinstance(pool, MaxPool2D)
                and np.all(weights[act.sname] > 0)):
            if conv is None:
                x = pool.forward(x, weights)
            else:
                x = pool.forward(conv.forward(x, weights, bias=False), weights)
                x += weights[conv.bname].reshape(-1, 1, 1, 1)
            x = act.forward(x, weights, inplace=True)
            i = j + 2
        else:
            layer = layers[i]
            x = (layer.forward(x, weights, inplace=owned) if isinstance(layer, PReLU)
                 else layer.forward(x, weights))
            i += 1
        owned = True
    return x


def _chain(layers, x, weights):
    """Run x through layers' forward_train; returns (y, contexts for backward)."""
    ctxs = []
    for layer in layers:
        x, ctx = layer.forward_train(x, weights)
        ctxs.append(ctx)
    return x, ctxs


def _chain_back(layers, ctxs, d, weights, grads):
    """Backward through layers in reverse, adding parameter gradients into grads."""
    for layer, ctx in zip(reversed(layers), reversed(ctxs)):
        d, pg = layer.backward(ctx, d, weights)
        for pname, g in pg.items():
            grads[pname] += g
    return d
