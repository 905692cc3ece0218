"""Layer kinds: conv, group norm, ReLU, nearest upsample, dense, flatten, concat.

Each layer is a named node taking one or more producer outputs. forward()
returns the output plus a cache that backward() consumes to produce input
and parameter gradients. Arithmetic follows the input dtype (float32 in
production graphs; tests may run graphs in float64), except group-norm
statistics, whose sums accumulate in float64; the normalise-and-affine body
runs in the activation's dtype.

Conv2D runs as a list of output phases, each a GEMM of a weight matrix with
im2col columns plus the bias; a plain conv is one phase. forward/backward
also take upsampled=True, which LayerGraph passes for a 3x3, stride-1,
padding-1 conv whose input is a nearest 2x upsample read by nothing else:
the conv then receives the upsample's low-resolution input and computes
conv(upsample(x)) as four 2x2 sub-pixel phases, without building the upsample.
"""

from __future__ import annotations

import math

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


def _pad(x: np.ndarray, p: int) -> np.ndarray:
    if not p:
        return x
    c, h, w = x.shape
    xp = np.zeros((c, h + 2 * p, w + 2 * p), dtype=x.dtype)
    xp[:, p : p + h, p : p + w] = x
    return xp


def _im2col(xp: np.ndarray, k: int, stride: int, hout: int, wout: int) -> np.ndarray:
    """(c*k*k, hout*wout) columns of the k x k windows of an already padded
    (c, h, w) array (or a view of one) whose first window starts at [0, 0]."""
    c = xp.shape[0]
    s0, s1, s2 = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, shape=(c, k, k, hout, wout), strides=(s0, s1, s2, s1 * stride, s2 * stride), writeable=False
    )
    return np.ascontiguousarray(view).reshape(c * k * k, hout * wout)


def _col2im_add(gxp: np.ndarray, gcols: np.ndarray, k: int, stride: int, hout: int, wout: int) -> None:
    """Scatter-add column gradients into the (view of the) padded input
    gradient they were read from: the transpose of _im2col."""
    gview = gcols.reshape(-1, k, k, hout, wout)
    for i in range(k):
        for j in range(k):
            gxp[:, i : i + stride * hout : stride, j : j + stride * wout : stride] += gview[:, i, j]


# Sub-pixel form of nearest 2x upsampling followed by a 3x3, padding-1 conv.
# Output row 2p + a reads upsampled rows 2p + a - 1 .. 2p + a + 1, which are
# low-resolution rows p - 1, p, p for phase a = 0 and p, p, p + 1 for a = 1.
# So along one axis phase 0 applies the 2-tap kernel [w0, w1 + w2] and phase 1
# [w0 + w1, w2], both to the low-resolution input padded by 1, from offset a.
_AXIS_TAPS = ([[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 1]])  # [phase][2-tap][3-tap]
# (9, 4) per phase (a, b), 3x3 tap (dy, dx) by 2x2 tap (ty, tx): the Kronecker
# product of the two axes' tap sums, built in plain Python so that importing
# the module runs no numpy kernel
_PHASE_TAPS = {
    (a, b): np.array(
        [[ty[dy] * tx[dx] for ty in _AXIS_TAPS[a] for tx in _AXIS_TAPS[b]] for dy in range(3) for dx in range(3)],
        dtype=np.float64,
    )
    for a in (0, 1)
    for b in (0, 1)
}


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
        _require(self.stride >= 1 and self.padding >= 0, f"{name}: stride must be >= 1 and padding >= 0")

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

    def _plan(self, x, upsampled):
        """(r, (h, w), padding, phases): phase (a, b) is the h x w output grid at
        rows r*p + a, columns r*q + b, the (out, in*k*k) GEMM weight applied to
        the k x k windows of view, the padded input from offset (a, b). A plain
        conv is phase (0, 0) of its own weight (taps None); an upsampled one,
        four 2x2 phases of the 3x3 weight times their taps, built lazily."""
        _, h, w = x.shape
        if not upsampled:
            k, s, p = self.kernel, self.stride, self.padding
            weight = self.weight.reshape(self.out_channels, -1)
            return 1, (_conv_out(h, k, s, p), _conv_out(w, k, s, p)), p, [(0, 0, weight, _pad(x, p), k, s, None)]
        xp, w9 = _pad(x, 1), self.weight.reshape(-1, 9)
        phases = (
            (a, b, (w9 @ taps.astype(w9.dtype)).reshape(self.out_channels, -1), xp[:, a:, b:], 2, 1, taps)
            for (a, b), taps in _PHASE_TAPS.items()
        )
        return 2, (h, w), 1, phases

    def forward(self, xs, upsampled=False):
        """With upsampled=True, xs holds the low-resolution input of a nearest
        2x upsample, and the output is this conv applied to its upsampling."""
        (x,) = xs
        _require(x.ndim == 3 and x.shape[0] == self.in_channels, f"{self.name}: bad input shape {x.shape}")
        out = self.out_channels
        r, (h, w), _, phases = self._plan(x, upsampled)
        y = np.empty((out, h, r, w, r), dtype=np.result_type(self.weight, x, self.bias))
        for a, b, weight, view, k, s, _ in phases:
            cols = _im2col(view, k, s, h, w)
            np.add((weight @ cols).reshape(out, h, w), self.bias[:, None, None], out=y[:, :, a, :, b])
        return y.reshape(out, r * h, r * w), x

    def backward(self, gy, cache, upsampled=False):
        """upsampled must match the forward call that made the cache; the input
        gradient is then w.r.t. the low-resolution input."""
        x = cache
        out, (c, hin, win) = self.out_channels, x.shape
        gb = gy.reshape(out, -1).sum(axis=1)
        r, (h, w), p, phases = self._plan(x, upsampled)
        gy_phases = gy.reshape(out, h, r, w, r)
        gw = np.zeros((out * c, 9), dtype=gy.dtype) if upsampled else None
        gxp = None
        for a, b, weight, view, k, s, taps in phases:
            g2d = np.ascontiguousarray(gy_phases[:, :, a, :, b]).reshape(out, h * w)
            # forward keeps x, not its k*k times larger columns: rebuild them, for the weight gradient only
            gphase = g2d @ _im2col(view, k, s, h, w).T
            if taps is None:  # its own GEMM: adding it to zeros would turn -0.0 into +0.0
                gw = gphase
            else:  # a phase weight is the 3x3 weight times the tap sums: the transpose maps its gradient back
                gw += gphase.reshape(out * c, 4) @ taps.T.astype(gw.dtype)
            gcols = weight.T @ g2d
            gxp = np.zeros((c, hin + 2 * p, win + 2 * p), dtype=gy.dtype) if gxp is None else gxp
            _col2im_add(gxp[:, a:, b:], gcols, k, s, h, w)
        return [gxp[:, p : p + hin, p : p + win]], {"weight": gw.reshape(self.weight.shape), "bias": gb}

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
        _require(self.group_size >= 1 and self.channels % self.group_size == 0,
                 f"{name}: group size must be >= 1 and divide the channels")
        _require(math.isfinite(self.eps) and self.eps > 0, f"{name}: eps must be finite and positive, got {self.eps}")

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
        xg = x.reshape(groups, -1)
        n = xg.shape[1]
        # float64 sums, no float64 copy of x: centre on the rounded mean in
        # x's dtype, then take the variance about the centred values' own mean
        mu = xg.mean(axis=1, keepdims=True, dtype=np.float64)
        xhat = xg - mu.astype(x.dtype)
        shift = xhat.mean(axis=1, dtype=np.float64)
        var = np.einsum("ij,ij->i", xhat, xhat, dtype=np.float64) / n - shift * shift
        inv_s = (1.0 / np.sqrt(var + self.eps)).astype(x.dtype)[:, None]
        xhat *= inv_s
        xhat = xhat.reshape(c, h, w)
        y = xhat * self.gamma[:, None, None]
        y += self.beta[:, None, None]
        return y, (xhat, inv_s)

    def backward(self, gy, cache):
        xhat, inv_s = cache
        c, h, w = gy.shape
        groups = c // self.group_size
        n = self.group_size * h * w
        ggamma = (gy * xhat).sum(axis=(1, 2))
        gbeta = gy.sum(axis=(1, 2))
        # per group, the means of g = gamma * gy and of g * xhat, from the
        # per-channel sums above; then gx = inv_s * (g - mean_g - xhat * mean_gx)
        mean_g = (self.gamma * gbeta).reshape(groups, -1).sum(axis=1, keepdims=True) / n
        mean_gx = (self.gamma * ggamma).reshape(groups, -1).sum(axis=1, keepdims=True) / n
        scale = (inv_s * self.gamma.reshape(groups, -1)).reshape(c, 1, 1)
        slope = np.repeat(inv_s * mean_gx, self.group_size).reshape(c, 1, 1)
        offset = np.repeat(inv_s * mean_g, self.group_size).reshape(c, 1, 1)
        gx = gy * scale
        gx -= xhat * slope
        gx -= offset
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
