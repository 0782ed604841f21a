"""Layer objects: named parameters, shape inference, forward/backward.

A layer owns no arrays. Parameters live in a weight store and are looked up
by name on every call, so layers stay stateless and networks can be shared
across workers. ``forward_train`` additionally returns a per-call context
consumed by ``backward``.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigError
from . import ops


class Layer:
    """Common interface; subclasses define params, shapes, and the math."""

    name: str

    def param_shapes(self) -> dict:
        return {}

    def out_shape(self, in_shape):
        raise NotImplementedError

    def forward(self, x, params):
        raise NotImplementedError

    def forward_train(self, x, params):
        """Return (output, context-for-backward)."""
        return self.forward(x, params), x

    def backward(self, ctx, dy, params):
        """Return (input gradient, dict of parameter gradients)."""
        raise NotImplementedError

    def init_params(self, rng) -> dict:
        return {}


class Conv2D(Layer):
    def __init__(self, name, in_channels, out_channels, kernel, stride=1, padding=0,
                 init_scale=1.0):
        self.name = name
        self.out_channels = out_channels
        self.in_channels = in_channels
        self.kernel = kernel
        self.stride = stride
        self.padding = padding
        self.init_scale = init_scale
        self.wname = f"{name}.w"
        self.bname = f"{name}.b"

    def param_shapes(self):
        k = self.kernel
        return {
            self.wname: (self.out_channels, self.in_channels, k, k),
            self.bname: (self.out_channels,),
        }

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.in_channels:
            raise ConfigError(f"{self.name}: expected ({self.in_channels},H,W) input, got {in_shape}")
        h = (in_shape[1] + 2 * self.padding - self.kernel) // self.stride + 1
        w = (in_shape[2] + 2 * self.padding - self.kernel) // self.stride + 1
        if h < 1 or w < 1:
            raise ConfigError(f"{self.name}: kernel {self.kernel} does not fit input {in_shape}")
        return (self.out_channels, h, w)

    def forward(self, x, params, bias=True):
        """Without bias, the caller adds params[self.bname] per channel itself."""
        b = params[self.bname] if bias else None
        return ops.conv2d(x, params[self.wname], b, self.stride, self.padding, layer=self.name)

    def backward(self, ctx, dy, params):
        dx, dw, db = ops.conv2d_backward(ctx, params[self.wname], dy, self.stride, self.padding)
        return dx, {self.wname: dw, self.bname: db}

    def init_params(self, rng):
        fan_in = self.in_channels * self.kernel * self.kernel
        std = self.init_scale * math.sqrt(2.0 / fan_in)
        w = rng.normal(0.0, std, size=self.param_shapes()[self.wname])
        return {
            self.wname: w.astype(np.float32),
            self.bname: np.zeros(self.out_channels, dtype=np.float32),
        }


class PReLU(Layer):
    def __init__(self, name, channels):
        self.name = name
        self.channels = channels
        self.sname = f"{name}.slope"

    def param_shapes(self):
        return {self.sname: (self.channels,)}

    def out_shape(self, in_shape):
        if in_shape[0] != self.channels:
            raise ConfigError(f"{self.name}: {self.channels} slopes for input {in_shape}")
        return in_shape

    def forward(self, x, params, inplace=False):
        return ops.prelu(x, params[self.sname], layer=self.name, inplace=inplace)

    def backward(self, ctx, dy, params):
        dx, dslope = ops.prelu_backward(ctx, params[self.sname], dy)
        return dx, {self.sname: dslope}

    def init_params(self, rng):
        return {self.sname: np.full(self.channels, 0.25, dtype=np.float32)}


class MaxPool2D(Layer):
    def __init__(self, kernel, stride, name="pool"):
        self.name = name
        self.kernel = kernel
        self.stride = stride

    def out_shape(self, in_shape):
        ops.check_pool(self.kernel, self.stride, self.name)
        return (
            in_shape[0],
            ops.pool_output_size(in_shape[1], self.kernel, self.stride),
            ops.pool_output_size(in_shape[2], self.kernel, self.stride),
        )

    def forward(self, x, params):
        return ops.maxpool2d(x, self.kernel, self.stride, layer=self.name)

    def backward(self, ctx, dy, params):
        return ops.maxpool2d_backward(ctx, dy, self.kernel, self.stride), {}


class FullyConnected(Layer):
    def __init__(self, name, in_features, out_features, init_scale=1.0):
        self.name = name
        self.in_features = in_features
        self.out_features = out_features
        self.init_scale = init_scale
        self.wname = f"{name}.w"
        self.bname = f"{name}.b"

    def param_shapes(self):
        return {
            self.wname: (self.out_features, self.in_features),
            self.bname: (self.out_features,),
        }

    def out_shape(self, in_shape):
        if math.prod(in_shape) != self.in_features:
            raise ConfigError(
                f"{self.name}: input {in_shape} flattens to {math.prod(in_shape)}, "
                f"expected {self.in_features}"
            )
        return (self.out_features,)

    def forward(self, x, params):
        return ops.fully_connected(x, params[self.wname], params[self.bname], layer=self.name)

    def backward(self, ctx, dy, params):
        dx, dw, db = ops.fully_connected_backward(ctx, params[self.wname], dy)
        return dx, {self.wname: dw, self.bname: db}

    def init_params(self, rng):
        std = self.init_scale * math.sqrt(2.0 / self.in_features)
        w = rng.normal(0.0, std, size=(self.out_features, self.in_features))
        return {
            self.wname: w.astype(np.float32),
            self.bname: np.zeros(self.out_features, dtype=np.float32),
        }


class Softmax(Layer):
    def __init__(self, axis=0, name="softmax"):
        self.name = name
        self.axis = axis

    def out_shape(self, in_shape):
        if not -len(in_shape) <= self.axis < len(in_shape):
            raise ConfigError(f"{self.name}: axis {self.axis} invalid for shape {in_shape}")
        return in_shape

    def forward(self, x, params):
        return ops.softmax(x, axis=self.axis, layer=self.name)

    def forward_train(self, x, params):
        y = ops.softmax(x, axis=self.axis, layer=self.name)
        return y, y

    def backward(self, ctx, dy, params):
        return ops.softmax_backward(ctx, dy, axis=self.axis), {}


class L2Normalize(Layer):
    def __init__(self, name="l2norm"):
        self.name = name

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x, params):
        return ops.l2_normalize(x, layer=self.name)

    def backward(self, ctx, dy, params):
        return ops.l2_normalize_backward(ctx, dy), {}
