"""Layer kinds: conv, group norm, ReLU, nearest upsample, dense, flatten, concat.

Each layer is a named node taking one or more producer outputs. forward()
returns the output plus a cache that backward() consumes to produce input
and parameter gradients. Arithmetic follows the input dtype (float32 in
production graphs; tests may run graphs in float64), except group-norm
statistics which always accumulate in float64.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch

GRAPH_INPUT = "@input"


class Layer:
    kind = "base"
    # attributes holding the learnable arrays, in the order the constructor
    # takes them after (name, inputs); load_model relies on that order
    param_names: tuple[str, ...] = ()

    def __init__(self, name: str, inputs):
        self.name = name
        self.inputs = list(inputs)

    def params(self) -> dict[str, np.ndarray]:
        return {k: getattr(self, k) for k in self.param_names}

    def set_param(self, key: str, value: np.ndarray) -> None:
        if key not in self.param_names:
            raise KeyError(f"{self.kind} has no parameter {key!r}")
        setattr(self, key, value)

    def out_shape(self, in_shapes: list[tuple]) -> tuple:
        raise NotImplementedError

    def forward(self, xs: list[np.ndarray]):
        """Return (output, cache)."""
        raise NotImplementedError

    def backward(self, gy: np.ndarray, cache):
        """Return (gradients w.r.t. each input, gradients w.r.t. params)."""
        raise NotImplementedError

    def flops(self, in_shapes: list[tuple]) -> tuple[int, int]:
        """(multiply-accumulates, elementwise ops) for one forward pass."""
        return 0, 0

    def config(self) -> dict:
        """JSON-ready structural fields (no weights)."""
        return {}

    def __repr__(self):
        return f"<{self.kind} {self.name}>"


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ShapeMismatch(msg)


def _conv_out(size: int, k: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - k) // stride + 1


class Conv2D(Layer):
    kind = "conv2d"
    param_names = ("weight", "bias")

    def __init__(self, name, inputs, weight, bias, stride=1, padding=0):
        super().__init__(name, inputs)
        self.weight = np.asarray(weight)
        self.bias = np.asarray(bias)
        _require(self.weight.ndim == 4, f"{name}: conv weight must be (out, in, k, k)")
        _require(self.weight.shape[2] == self.weight.shape[3], f"{name}: kernel must be square")
        _require(self.bias.shape == (self.weight.shape[0],), f"{name}: bias shape mismatch")
        self.stride = int(stride)
        self.padding = int(padding)

    @property
    def out_channels(self):
        return self.weight.shape[0]

    @property
    def in_channels(self):
        return self.weight.shape[1]

    @property
    def kernel(self):
        return self.weight.shape[2]

    def out_shape(self, in_shapes):
        (c, h, w), = in_shapes
        _require(c == self.in_channels, f"{self.name}: expected {self.in_channels} input channels, got {c}")
        hout = _conv_out(h, self.kernel, self.stride, self.padding)
        wout = _conv_out(w, self.kernel, self.stride, self.padding)
        _require(hout >= 1 and wout >= 1, f"{self.name}: output collapses to zero size")
        return (self.out_channels, hout, wout)

    def _cols(self, x):
        c, h, w = x.shape
        k, s, p = self.kernel, self.stride, self.padding
        if p:
            xp = np.zeros((c, h + 2 * p, w + 2 * p), dtype=x.dtype)
            xp[:, p : p + h, p : p + w] = x
        else:
            xp = x
        hout = _conv_out(h, k, s, p)
        wout = _conv_out(w, k, s, p)
        s0, s1, s2 = xp.strides
        view = np.lib.stride_tricks.as_strided(
            xp, shape=(c, k, k, hout, wout), strides=(s0, s1, s2, s1 * s, s2 * s), writeable=False
        )
        return np.ascontiguousarray(view).reshape(c * k * k, hout * wout), (hout, wout)

    def forward(self, xs):
        (x,) = xs
        _require(x.ndim == 3 and x.shape[0] == self.in_channels, f"{self.name}: bad input shape {x.shape}")
        cols, (hout, wout) = self._cols(x)
        w2d = self.weight.reshape(self.out_channels, -1)
        y = (w2d @ cols + self.bias[:, None]).reshape(self.out_channels, hout, wout)
        return y, x

    def backward(self, gy, cache):
        x = cache
        out = self.out_channels
        g2d = gy.reshape(out, -1)
        # forward keeps x, not its k*k times larger columns: rebuild them, for gw only
        gw = (g2d @ self._cols(x)[0].T).reshape(self.weight.shape)
        gb = g2d.sum(axis=1)
        gcols = self.weight.reshape(out, -1).T @ g2d  # (c*k*k, hout*wout)

        c, h, w = x.shape
        k, s, p = self.kernel, self.stride, self.padding
        hout, wout = gy.shape[1], gy.shape[2]
        gview = gcols.reshape(c, k, k, hout, wout)
        gxp = np.zeros((c, h + 2 * p, w + 2 * p), dtype=gy.dtype)
        for i in range(k):
            for j in range(k):
                gxp[:, i : i + s * hout : s, j : j + s * wout : s] += gview[:, i, j]
        gx = gxp[:, p : p + h, p : p + w] if p else gxp
        return [gx], {"weight": gw, "bias": gb}

    def flops(self, in_shapes):
        cout, hout, wout = self.out_shape(in_shapes)
        return cout * self.in_channels * self.kernel * self.kernel * hout * wout, 0

    def config(self):
        return {
            "in_channels": self.in_channels,
            "out_channels": self.out_channels,
            "kernel": self.kernel,
            "stride": self.stride,
            "padding": self.padding,
        }


class GroupNorm(Layer):
    """Per-group normalization over (group channels, H, W) with channel affine."""

    kind = "groupnorm"
    param_names = ("gamma", "beta")

    def __init__(self, name, inputs, gamma, beta, group_size, eps=1e-5):
        super().__init__(name, inputs)
        self.gamma = np.asarray(gamma)
        self.beta = np.asarray(beta)
        _require(self.gamma.ndim == 1 and self.gamma.shape == self.beta.shape, f"{name}: gamma/beta mismatch")
        self.group_size = int(group_size)
        self.eps = float(eps)
        _require(self.channels % self.group_size == 0, f"{name}: channels not divisible by group size")

    @property
    def channels(self):
        return self.gamma.shape[0]

    def out_shape(self, in_shapes):
        (shape,) = in_shapes
        _require(len(shape) == 3 and shape[0] == self.channels, f"{self.name}: expected {self.channels} channels")
        return shape

    def forward(self, xs):
        (x,) = xs
        _require(x.ndim == 3 and x.shape[0] == self.channels, f"{self.name}: bad input shape {x.shape}")
        c, h, w = x.shape
        groups = c // self.group_size
        xg = x.reshape(groups, -1).astype(np.float64)
        mu = xg.mean(axis=1, keepdims=True)
        var = xg.var(axis=1, keepdims=True)
        inv_s = 1.0 / np.sqrt(var + self.eps)
        xhat = ((xg - mu) * inv_s).astype(x.dtype).reshape(c, h, w)
        y = self.gamma[:, None, None] * xhat + self.beta[:, None, None]
        return y, (xhat, inv_s.astype(x.dtype))

    def backward(self, gy, cache):
        xhat, inv_s = cache
        c, h, w = gy.shape
        groups = c // self.group_size
        ggamma = (gy * xhat).sum(axis=(1, 2))
        gbeta = gy.sum(axis=(1, 2))
        g = (gy * self.gamma[:, None, None]).reshape(groups, -1)
        xh = xhat.reshape(groups, -1)
        mean_g = g.mean(axis=1, keepdims=True)
        mean_gx = (g * xh).mean(axis=1, keepdims=True)
        gx = (inv_s * (g - mean_g - xh * mean_gx)).reshape(c, h, w).astype(gy.dtype)
        return [gx], {"gamma": ggamma, "beta": gbeta}

    def flops(self, in_shapes):
        c, h, w = in_shapes[0]
        return 0, c * h * w

    def config(self):
        return {"channels": self.channels, "group_size": self.group_size, "eps": self.eps}


class ReLU(Layer):
    kind = "relu"

    def out_shape(self, in_shapes):
        return in_shapes[0]

    def forward(self, xs):
        (x,) = xs
        mask = x > 0
        return x * mask, mask

    def backward(self, gy, cache):
        return [gy * cache], {}

    def flops(self, in_shapes):
        return 0, int(np.prod(in_shapes[0]))


class Upsample2xNearest(Layer):
    kind = "upsample2x"

    def out_shape(self, in_shapes):
        c, h, w = in_shapes[0]
        return (c, 2 * h, 2 * w)

    def forward(self, xs):
        (x,) = xs
        _require(x.ndim == 3, f"{self.name}: needs a (c, h, w) input")
        return np.repeat(np.repeat(x, 2, axis=1), 2, axis=2), None

    def backward(self, gy, cache):
        c, h2, w2 = gy.shape
        gx = gy.reshape(c, h2 // 2, 2, w2 // 2, 2).sum(axis=(2, 4))
        return [gx], {}

    def flops(self, in_shapes):
        return 0, int(np.prod(self.out_shape(in_shapes)))


class Dense(Layer):
    kind = "dense"
    param_names = ("weight", "bias")

    def __init__(self, name, inputs, weight, bias):
        super().__init__(name, inputs)
        self.weight = np.asarray(weight)
        self.bias = np.asarray(bias)
        _require(self.weight.ndim == 2, f"{name}: dense weight must be (out, in)")
        _require(self.bias.shape == (self.weight.shape[0],), f"{name}: bias shape mismatch")

    @property
    def out_dim(self):
        return self.weight.shape[0]

    @property
    def in_dim(self):
        return self.weight.shape[1]

    def out_shape(self, in_shapes):
        (shape,) = in_shapes
        _require(shape == (self.in_dim,), f"{self.name}: expected ({self.in_dim},) input, got {shape}")
        return (self.out_dim,)

    def forward(self, xs):
        (x,) = xs
        _require(x.shape == (self.in_dim,), f"{self.name}: bad input shape {x.shape}")
        return self.weight @ x + self.bias, x

    def backward(self, gy, cache):
        x = cache
        return [self.weight.T @ gy], {"weight": np.outer(gy, x), "bias": gy.copy()}

    def flops(self, in_shapes):
        return self.out_dim * self.in_dim, 0

    def config(self):
        return {"in_dim": self.in_dim, "out_dim": self.out_dim}


class Flatten(Layer):
    """(c, h, w) -> (c*h*w,) row-major, channel index slowest."""

    kind = "flatten"

    def out_shape(self, in_shapes):
        return (int(np.prod(in_shapes[0])),)

    def forward(self, xs):
        (x,) = xs
        return x.reshape(-1), x.shape

    def backward(self, gy, cache):
        return [gy.reshape(cache)], {}


class ConcatChannels(Layer):
    """Channel concatenation of inputs, each optionally restricted to a channel range.

    `ranges[i]` is a (start, stop) half-open slice into input i's channels,
    or None for the whole input. Spatial dims of all inputs must agree.
    """

    kind = "concat"

    def __init__(self, name, inputs, ranges=None):
        super().__init__(name, inputs)
        self.ranges = list(ranges) if ranges is not None else [None] * len(self.inputs)
        _require(len(self.ranges) == len(self.inputs), f"{name}: one range per input")

    def _slices(self, in_channels: list[int]) -> list[tuple[int, int]]:
        out = []
        for c, rng in zip(in_channels, self.ranges):
            start, stop = (0, c) if rng is None else (int(rng[0]), int(rng[1]))
            _require(0 <= start < stop <= c, f"{self.name}: range ({start}, {stop}) invalid for {c} channels")
            out.append((start, stop))
        return out

    def out_shape(self, in_shapes):
        _require(all(len(s) == 3 for s in in_shapes), f"{self.name}: needs (c, h, w) inputs")
        hw = {s[1:] for s in in_shapes}
        _require(len(hw) == 1, f"{self.name}: spatial dims disagree across inputs")
        slices = self._slices([s[0] for s in in_shapes])
        return (sum(b - a for a, b in slices),) + in_shapes[0][1:]

    def forward(self, xs):
        slices = self._slices([x.shape[0] for x in xs])
        y = np.concatenate([x[a:b] for x, (a, b) in zip(xs, slices)], axis=0)
        return y, [x.shape for x in xs]

    def backward(self, gy, cache):
        in_shapes = cache
        slices = self._slices([s[0] for s in in_shapes])
        gxs = []
        offset = 0
        for shape, (a, b) in zip(in_shapes, slices):
            gx = np.zeros(shape, dtype=gy.dtype)
            gx[a:b] = gy[offset : offset + (b - a)]
            gxs.append(gx)
            offset += b - a
        return gxs, {}

    def flops(self, in_shapes):
        return 0, int(np.prod(self.out_shape(in_shapes)))

    def config(self):
        return {"ranges": [list(r) if r is not None else None for r in self.ranges]}


LAYER_KINDS = {cls.kind: cls for cls in (Conv2D, GroupNorm, ReLU, Upsample2xNearest, Dense, Flatten, ConcatChannels)}
