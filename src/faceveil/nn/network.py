"""Network: a shared trunk plus named output heads.

Forward is a pure function of (weights, input). Backward recomputes the
forward with a private activation cache, so concurrent callers never share
state.

Every method takes an (N, C, H, W) batch; a single image is a batch of
one. The layers run in the kernels' batch layout, (C, N, H, W) maps and
(F, N) vectors, and each head comes back with the batch axis first;
``backward`` takes head gradients in that shape and returns parameter
gradients summed over the batch. Fully-convolutional networks accept any
spatial size at or above the declared input shape; all other networks
require an exact match. ``batch_block`` is the batch size whose largest
im2col buffer fits IM2COL_BYTES, so each convolution of a block is one
GEMM; callers split longer batches into blocks of that size.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from .ops import IM2COL_BYTES


class Network:
    def __init__(self, name, input_shape, trunk, heads, fully_convolutional=False):
        self.name = name
        self.input_shape = tuple(input_shape)
        self.trunk = list(trunk)
        self.heads = {h: list(layers) for h, layers in heads.items()}
        self.fully_convolutional = fully_convolutional
        seen = set()
        for layer in self._all_layers():
            for pname in layer.param_shapes():
                if pname in seen:
                    raise ConfigError(f"{name}: duplicate parameter name {pname}")
                seen.add(pname)
        self.infer_shapes()
        self.batch_block = self._batch_block()

    def _all_layers(self):
        yield from self.trunk
        for layers in self.heads.values():
            yield from layers

    def infer_shapes(self):
        """Walk declared shapes through every layer; raises ConfigError on mismatch."""
        shape = self.input_shape
        for layer in self.trunk:
            shape = layer.out_shape(shape)
        out = {}
        for head, layers in self.heads.items():
            hshape = shape
            for layer in layers:
                hshape = layer.out_shape(hshape)
            out[head] = hshape
        return out

    def _batch_block(self):
        """Samples per batched forward: the widest conv's im2col fits IM2COL_BYTES."""
        shape, widest = self.input_shape, 1
        for layer in self.trunk:
            widest = max(widest, layer.im2col_size(shape))
            shape = layer.out_shape(shape)
        for layers in self.heads.values():
            hshape = shape
            for layer in layers:
                widest = max(widest, layer.im2col_size(hshape))
                hshape = layer.out_shape(hshape)
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
            ok = x.ndim == 4 and x.shape[1] == c and x.shape[2] >= h and x.shape[3] >= w
            want = f"an (N,{c},H,W) batch with H >= {h}, W >= {w}"
        else:
            ok = x.ndim == 4 and x.shape[1:] == (c, h, w)
            want = f"an (N,{c},{h},{w}) batch"
        if not ok:
            raise ConfigError(f"{self.name}: expected {want}, got {x.shape}")

    def forward(self, weights, x):
        """Run all heads on an (N,C,H,W) batch; returns {head name: (N, ...) array}."""
        return self._run(x, lambda layer, y: (layer.forward(y, weights), None))[0]

    def forward_train(self, weights, x):
        """Like forward, but also returns the activation cache for backward."""
        return self._run(x, lambda layer, y: layer.forward_train(y, weights))

    def _run(self, x, step):
        self._check_input(x)
        x, trunk_ctx = _chain(self.trunk, x.transpose(1, 0, 2, 3), step)
        out, head_ctx = {}, {}
        for head, layers in self.heads.items():
            y, head_ctx[head] = _chain(layers, x, step)
            out[head] = np.moveaxis(y, 1, 0)
        return out, {"trunk": trunk_ctx, "trunk_out": x, "heads": head_ctx}

    def backward(self, weights, cache, head_grads):
        """Chain upstream head gradients back to every parameter.

        head_grads hold one (N, ...) array per head, shaped like the
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
            d = np.moveaxis(dy, 0, 1)
            d_trunk = d_trunk + _chain_back(self.heads[head], cache["heads"][head], d, weights, grads)
        _chain_back(self.trunk, cache["trunk"], d_trunk, weights, grads)
        return {name: g.astype(np.result_type(d_trunk)) for name, g in grads.items()}


def _chain(layers, x, step):
    """Run x through layers with step(layer, x) -> (y, ctx); returns (y, contexts)."""
    ctxs = []
    for layer in layers:
        x, ctx = step(layer, x)
        ctxs.append(ctx)
    return x, ctxs


def _chain_back(layers, ctxs, d, weights, grads):
    """Backward through layers in reverse, adding parameter gradients into grads."""
    for layer, ctx in zip(reversed(layers), reversed(ctxs)):
        d, pg = layer.backward(ctx, d, weights)
        for pname, g in pg.items():
            grads[pname] += g
    return d
