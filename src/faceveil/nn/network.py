"""Network: a shared trunk plus named output heads.

Forward is a pure function of (weights, input). Backward recomputes the
forward with a private activation cache, so concurrent callers never share
state. Fully-convolutional networks accept any spatial size at or above the
declared input shape; all other networks require an exact match.

Fixed-size networks also take an (N, C, H, W) batch in ``forward``. The
layers then run in the kernels' batch layout, (C, N, H, W) maps and (F, N)
vectors, so every convolution is one im2col GEMM; each head comes back
with the batch axis first. ``batch_block`` is the batch size whose largest
im2col buffer fits IM2COL_BYTES; callers split longer batches into blocks
of that size. Training (``forward_train``/``backward``) takes one sample.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError

IM2COL_BYTES = 2 << 20  # float32 im2col buffer of one batched conv, about an L2 cache


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

    def _check_input(self, x, batched=False):
        c, h, w = self.input_shape
        if batched:
            if self.fully_convolutional or x.shape[1:] != (c, h, w):
                raise ConfigError(f"{self.name}: expected an (N,{c},{h},{w}) batch, got {x.shape}")
            return
        if x.ndim != 3 or x.shape[0] != c:
            raise ConfigError(f"{self.name}: expected ({c},H,W) input, got {x.shape}")
        if self.fully_convolutional:
            if x.shape[1] < h or x.shape[2] < w:
                raise ConfigError(f"{self.name}: input {x.shape} below minimum ({c},{h},{w})")
        elif x.shape != (c, h, w):
            raise ConfigError(f"{self.name}: input {x.shape} does not match ({c},{h},{w})")

    def forward(self, weights, x):
        """Run all heads; returns {head name: array}.

        x is one (C,H,W) sample or, for a fixed-size net, an (N,C,H,W)
        batch whose heads come back as (N, ...) arrays.
        """
        batched = x.ndim == 4
        self._check_input(x, batched)
        if batched:
            x = x.transpose(1, 0, 2, 3)
        for layer in self.trunk:
            x = layer.forward(x, weights)
        out = {}
        for head, layers in self.heads.items():
            y = x
            for layer in layers:
                y = layer.forward(y, weights)
            out[head] = np.moveaxis(y, 1, 0) if batched else y
        return out

    def forward_train(self, weights, x):
        """Like forward, but also returns the activation cache for backward."""
        self._check_input(x)
        trunk_ctx = []
        for layer in self.trunk:
            x, ctx = layer.forward_train(x, weights)
            trunk_ctx.append(ctx)
        out = {}
        head_ctx = {}
        for head, layers in self.heads.items():
            y = x
            ctxs = []
            for layer in layers:
                y, ctx = layer.forward_train(y, weights)
                ctxs.append(ctx)
            out[head] = y
            head_ctx[head] = ctxs
        return out, {"trunk": trunk_ctx, "trunk_out": x, "heads": head_ctx}

    def backward(self, weights, cache, head_grads):
        """Chain upstream head gradients back to every parameter.

        Heads absent from head_grads contribute zero. Returns a dict of
        d(loss)/d(parameter) arrays covering every parameter of the network.
        """
        grads = {name: np.zeros(shape, dtype=np.float64) for name, shape in self.param_shapes().items()}
        trunk_out = cache["trunk_out"]
        d_trunk = np.zeros(trunk_out.shape, dtype=np.result_type(trunk_out, np.float32))
        for head, dy in head_grads.items():
            if head not in self.heads:
                raise ConfigError(f"{self.name}: unknown head {head!r}")
            layers = self.heads[head]
            ctxs = cache["heads"][head]
            d = dy
            for layer, ctx in zip(reversed(layers), reversed(ctxs)):
                d, pg = layer.backward(ctx, d, weights)
                for pname, g in pg.items():
                    grads[pname] += g
            d_trunk = d_trunk + d
        d = d_trunk
        for layer, ctx in zip(reversed(self.trunk), reversed(cache["trunk"])):
            d, pg = layer.backward(ctx, d, weights)
            for pname, g in pg.items():
                grads[pname] += g
        return {name: g.astype(np.result_type(d_trunk)) for name, g in grads.items()}

    def backward_from_input(self, weights, x, head_grads):
        """Forward with a private cache, then backward; returns parameter grads."""
        _, cache = self.forward_train(weights, x)
        return self.backward(weights, cache, head_grads)
