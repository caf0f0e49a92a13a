"""Dense float64 tensors with reverse-mode differentiation and Adam.

Tensors are immutable values: the wrapped array is marked read-only and
every operation allocates a fresh output, so tensors are safe to share
across threads. Each operation records its parents and a gradient
closure on the output; ``backward`` replays those records once each in
reverse topological order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DegenerateInputError, DimensionError

__all__ = [
    "Tensor",
    "AdamState",
    "adam_step",
    "matmul",
    "softmax",
    "logsumexp",
    "layer_norm",
    "linear",
    "l2_normalize",
    "concat",
    "uniform_init",
]


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _ensure_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ContractError(f"{op} produced non-finite values")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """n-dimensional float64 array with an optional gradient record."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_grad_fn")

    def __init__(self, data, requires_grad: bool = False):
        try:
            arr = np.array(data, dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ContractError(
                f"Tensor needs numeric data, got {type(data).__name__}: {exc}"
            ) from exc
        _ensure_finite(arr, "Tensor")
        self.data = _freeze(arr)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._grad_fn = None

    # -- construction -------------------------------------------------

    @classmethod
    def _from_op(cls, data: np.ndarray, parents, grad_fn, op: str) -> "Tensor":
        out = cls.__new__(cls)
        arr = np.asarray(data, dtype=np.float64)
        _ensure_finite(arr, op)
        out.data = _freeze(arr)
        out.grad = None
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._grad_fn = grad_fn
        else:
            out.requires_grad = False
            out._parents = ()
            out._grad_fn = None
        return out

    # -- bookkeeping ---------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def to_numpy(self) -> np.ndarray:
        return np.array(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # -- elementwise arithmetic ----------------------------------------

    @staticmethod
    def _coerce(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    def __add__(self, other):
        other = self._coerce(other)
        out = self.data + other.data
        a_shape, b_shape = self.shape, other.shape
        return Tensor._from_op(
            out,
            (self, other),
            lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)),
            "add",
        )

    __radd__ = __add__

    def __neg__(self):
        return Tensor._from_op(-self.data, (self,), lambda g: (-g,), "neg")

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self.data, other.data
        return Tensor._from_op(
            a * b,
            (self, other),
            lambda g: (_unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)),
            "mul",
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        a, b = self.data, other.data
        out = a / b
        return Tensor._from_op(
            out,
            (self, other),
            lambda g: (
                _unbroadcast(g / b, a.shape),
                _unbroadcast(-g * a / (b * b), b.shape),
            ),
            "div",
        )

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k):
        if not isinstance(k, (int, float)):
            raise ContractError("pow exponent must be a Python scalar")
        x = self.data
        out = x**k
        return Tensor._from_op(out, (self,), lambda g: (g * k * x ** (k - 1),), "pow")

    def __matmul__(self, other):
        return matmul(self, other)

    # -- unary math ----------------------------------------------------

    def exp(self):
        y = np.exp(self.data)
        return Tensor._from_op(y, (self,), lambda g: (g * y,), "exp")

    def sqrt(self):
        if np.any(self.data < 0.0):
            raise ContractError("sqrt requires nonnegative input")
        y = np.sqrt(self.data)
        return Tensor._from_op(y, (self,), lambda g: (g * 0.5 / y,), "sqrt")

    def sigmoid(self):
        # split by sign for stability
        x = self.data
        y = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        return Tensor._from_op(y, (self,), lambda g: (g * y * (1.0 - y),), "sigmoid")

    def relu(self):
        x = self.data
        mask = x > 0
        return Tensor._from_op(np.where(mask, x, 0.0), (self,), lambda g: (g * mask,), "relu")

    def leaky_relu(self, negative_slope: float = 0.01):
        x = self.data
        slope = np.where(x > 0, 1.0, negative_slope)
        return Tensor._from_op(x * slope, (self,), lambda g: (g * slope,), "leaky_relu")

    def gelu(self):
        """tanh-form GELU, 0.5 x (1 + tanh(u)) with u = c (x + 0.044715 x^3)
        and c = sqrt(2/pi); one tape node whose gradient is
        0.5 (1 + tanh u) + 0.5 x (1 - tanh^2 u) c (1 + 3 * 0.044715 x^2)."""
        x = self.data
        c = np.sqrt(2.0 / np.pi)
        t = np.tanh(c * (x + 0.044715 * x * x * x))

        def grad_fn(g):
            return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 3.0 * 0.044715 * x * x)),)

        return Tensor._from_op(0.5 * x * (1.0 + t), (self,), grad_fn, "gelu")

    # -- reductions ----------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        x = self.data
        out = x.sum(axis=axis, keepdims=keepdims)

        def grad_fn(g):
            if axis is None:
                return (np.broadcast_to(g, x.shape).copy(),)
            gx = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(gx, x.shape).copy(),)

        return Tensor._from_op(out, (self,), grad_fn, "sum")

    def max(self, axis: int, keepdims: bool = False):
        """Max over one axis; the gradient routes to the first maximal element."""
        x = self.data
        out = x.max(axis=axis, keepdims=keepdims)
        arg = np.expand_dims(np.argmax(x, axis=axis), axis)

        def grad_fn(g):
            gx = np.zeros_like(x)
            gexp = g if keepdims else np.expand_dims(g, axis)
            np.put_along_axis(gx, arg, gexp, axis)
            return (gx,)

        return Tensor._from_op(out, (self,), grad_fn, "max")

    def maximum(self, other):
        """Elementwise max; at ties the gradient routes to ``self``."""
        other = self._coerce(other)
        a, b = self.data, other.data
        mask = a >= b
        return Tensor._from_op(
            np.where(mask, a, b),
            (self, other),
            lambda g: (_unbroadcast(g * mask, a.shape), _unbroadcast(g * ~mask, b.shape)),
            "maximum",
        )

    def minimum(self, other):
        other = self._coerce(other)
        a, b = self.data, other.data
        mask = a <= b
        return Tensor._from_op(
            np.where(mask, a, b),
            (self, other),
            lambda g: (_unbroadcast(g * mask, a.shape), _unbroadcast(g * ~mask, b.shape)),
            "minimum",
        )

    # -- shape manipulation ---------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src = self.shape
        try:
            out = self.data.reshape(shape)
        except ValueError as exc:
            raise DimensionError(f"cannot reshape {src} to {shape}") from exc
        return Tensor._from_op(out, (self,), lambda g: (g.reshape(src),), "reshape")

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        inv = tuple(np.argsort(axes))
        out = self.data.transpose(axes)
        return Tensor._from_op(out, (self,), lambda g: (g.transpose(inv),), "transpose")

    def broadcast_to(self, shape):
        src = self.shape
        out = np.broadcast_to(self.data, shape)
        return Tensor._from_op(np.array(out), (self,), lambda g: (_unbroadcast(g, src),), "broadcast_to")

    def __getitem__(self, key):
        x = self.data
        out = x[key]

        def grad_fn(g):
            # scatter-add, so an index repeated by an advanced key counts each time
            gx = np.zeros_like(x)
            np.add.at(gx, key, g)
            return (gx,)

        return Tensor._from_op(np.array(out), (self,), grad_fn, "getitem")

    def pad(self, widths):
        """Zero-pad; ``widths`` is a per-axis list of (before, after)."""
        src = self.shape
        out = np.pad(self.data, widths)
        slices = tuple(slice(b, b + n) for (b, _), n in zip(widths, src))
        return Tensor._from_op(out, (self,), lambda g: (g[slices],), "pad")

    # -- autodiff --------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(node) into ``grad`` for every node that
        requires gradients. ``self`` must be a scalar (size 1)."""
        if self.size != 1:
            raise ContractError(f"backward requires a scalar loss, got shape {self.shape}")

        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(order):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node.requires_grad:
                node.grad = g
            if node._grad_fn is None:
                continue
            for parent, pg in zip(node._parents, node._grad_fn(g)):
                if not parent.requires_grad:
                    continue
                acc = grads.get(id(parent))
                grads[id(parent)] = pg if acc is None else acc + pg


# -- free functions ------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Accepts stacked operands (leading batch axes
    broadcast); the trailing two axes must contract as m x k @ k x n."""
    a = Tensor._coerce(a)
    b = Tensor._coerce(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul inner dimensions disagree: {a.shape} @ {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd

    def grad_fn(g):
        ga = _unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape)
        gb = _unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape)
        return ga, gb

    return Tensor._from_op(out, (a, b), grad_fn, "matmul")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis`` (max-subtracted)."""
    x = Tensor._coerce(x)
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def grad_fn(g):
        dot = (g * y).sum(axis=axis, keepdims=True)
        return ((g - dot) * y,)

    return Tensor._from_op(y, (x,), grad_fn, "softmax")


def logsumexp(x: Tensor, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Stable log-sum-exp along ``axis``; gradient is the softmax."""
    x = Tensor._coerce(x)
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = e.sum(axis=axis, keepdims=True)
    out = m + np.log(s)
    soft = e / s
    if not keepdims:
        out = np.squeeze(out, axis=axis)

    def grad_fn(g):
        gexp = g if keepdims else np.expand_dims(g, axis)
        return (gexp * soft,)

    return Tensor._from_op(out, (x,), grad_fn, "logsumexp")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardize over the last axis, then apply the affine (gain, bias):
    y = xhat * gain + bias with xhat = (x - mean) / sqrt(var + eps), the
    variance being the population one (Ba et al. 2016).

    ``eps >= 0``; with eps = 0 a zero-variance row raises ContractError.
    One tape node. With dy the upstream gradient, summed over the leading
    axes for the affine: d bias = sum dy, d gain = sum dy * xhat, and
    dx = (dxh - mean(dxh) - xhat * mean(dxh * xhat)) / sqrt(var + eps)
    with dxh = dy * gain, the means over the last axis.
    """
    if eps < 0:
        raise ContractError("layer_norm eps must be >= 0")
    x = Tensor._coerce(x)
    gain = Tensor._coerce(gain)
    bias = Tensor._coerce(bias)
    n = x.shape[-1]
    centered = x.data - x.data.sum(axis=-1, keepdims=True) / n
    spread = (centered * centered).sum(axis=-1, keepdims=True) / n + eps
    if np.any(spread == 0.0):
        raise ContractError("layer_norm of a zero-variance row with eps = 0")
    root = np.sqrt(spread)
    xhat = centered / root
    g_shape, b_shape = gain.shape, bias.shape

    def grad_fn(g):
        dxh = g * gain.data
        dx = (dxh - dxh.sum(axis=-1, keepdims=True) / n
              - xhat * (dxh * xhat).sum(axis=-1, keepdims=True) / n) / root
        return dx, _unbroadcast(g * xhat, g_shape), _unbroadcast(g, b_shape)

    return Tensor._from_op(xhat * gain.data + bias.data, (x, gain, bias), grad_fn, "layer_norm")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map of the last axis, y = x @ w + b, for x (..., m, k),
    w (k, n) and b (n,). One tape node: dx = dy @ w^T, while dw sums
    x^T @ dy and db sums dy over every leading axis, as the broadcast
    matmul and add it replaces would."""
    x, w, b = Tensor._coerce(x), Tensor._coerce(w), Tensor._coerce(b)
    if x.ndim < 2 or w.ndim != 2 or b.shape != (w.shape[1],) or x.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear needs (..., m, k) @ (k, n) + (n,), got {x.shape} @ {w.shape} + {b.shape}")
    xd, wd = x.data, w.data

    def grad_fn(g):
        gx = g @ wd.T if x.requires_grad else None
        return gx, _unbroadcast(xd.swapaxes(-1, -2) @ g, wd.shape), _unbroadcast(g, b.shape)

    return Tensor._from_op(xd @ wd + b.data, (x, w, b), grad_fn, "linear")


def l2_normalize(x: Tensor) -> Tensor:
    """Scale rows (last axis) to unit Euclidean norm."""
    x = Tensor._coerce(x)
    sq = (x * x).sum(axis=-1, keepdims=True)
    if np.any(sq.data == 0.0):
        raise DegenerateInputError("cannot l2-normalize a zero vector")
    return x / sq.sqrt()


def concat(tensors, axis: int = 0) -> Tensor:
    ts = [Tensor._coerce(t) for t in tensors]
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    bounds = np.cumsum([0] + sizes)

    def grad_fn(g):
        return tuple(
            np.array(np.take(g, range(bounds[i], bounds[i + 1]), axis=axis))
            for i in range(len(ts))
        )

    return Tensor._from_op(out, tuple(ts), grad_fn, "concat")


def uniform_init(shape, fan_in: int, rng: np.random.Generator, requires_grad: bool = True) -> Tensor:
    """Seeded uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) parameter."""
    bound = 1.0 / np.sqrt(float(fan_in))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=requires_grad)


# -- Adam ------------------------------------------------------------------


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Bias-corrected Adam moments for a named parameter set; the decay
    rates and epsilon are the module constants ``ADAM_BETA1`` (0.9),
    ``ADAM_BETA2`` (0.999) and ``ADAM_EPS`` (1e-8)."""

    lr: float = 3e-4
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @classmethod
    def for_params(cls, params: dict, lr: float = 3e-4) -> "AdamState":
        state = cls(lr=lr)
        for name, p in params.items():
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        return state


def adam_step(params: dict, grads: dict, state: AdamState) -> tuple[dict, AdamState]:
    """One deterministic Adam update. Pure: returns fresh params and state."""
    t = state.step + 1
    new_params: dict = {}
    new_state = AdamState(lr=state.lr, step=t)
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p.data)
        g = np.asarray(g, dtype=np.float64)
        if g.shape != p.data.shape:
            raise DimensionError(
                f"gradient shape {g.shape} does not match parameter '{name}' shape {p.data.shape}"
            )
        m = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        v = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        mhat = m / bc1
        vhat = v / bc2
        new_data = p.data - state.lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
        new_state.m[name] = m
        new_state.v[name] = v
        new_params[name] = Tensor(new_data, requires_grad=p.requires_grad)
    return new_params, new_state

