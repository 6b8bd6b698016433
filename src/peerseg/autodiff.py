"""Minimal reverse-mode autodiff over float64 numpy arrays.

Each op builds a node holding its inputs and a closure that pushes the
output adjoint back onto them; backward() walks the recorded graph in
reverse topological order.  Plain numpy arrays entering an op are wrapped
as constants, so anything meant to be gradient-free (targets, prototypes,
detached activations) simply stays a numpy array.  The generic ops are add
and mul; the rest, like the supervised objective and the prototype contrast,
are single nodes that run a replaced op chain's numpy operations in its order.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "needs_grad", "_parents", "_push")

    def __init__(self, data, requires_grad=False, _parents=(), _push=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = _parents
        self._push = _push
        self.needs_grad = requires_grad or any(p.needs_grad for p in _parents)

    # -- graph walk ---------------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() needs a scalar loss")
        if not self.needs_grad:
            raise ValueError("loss does not depend on any differentiable parameter")
        topo, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.needs_grad and id(p) not in seen:
                    stack.append((p, False))
        _accum(self, np.ones_like(self.data))
        for node in reversed(topo):
            if node._push is not None:
                node._push(node.grad)

    def zero_grad(self):
        self.grad = None

    # -- conveniences -------------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.needs_grad else 'no'})"


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: np.ndarray):
    # The first adjoint is kept, not copied: it may be a push's own buffer, a
    # slice or broadcast view of another node's gradient, or shared between
    # two parents.  That is safe because nothing writes a gradient in place:
    # pushes, sgd_step and AdamW.step only read .grad, and a second adjoint
    # makes a new array.
    if not t.needs_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum an adjoint down to the shape numpy broadcast it up from."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


# -- primitive ops ----------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data + b.data

    def push(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(g, b.data.shape))

    return Tensor(out_data, _parents=(a, b), _push=push)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data * b.data

    def push(g):
        if a.needs_grad:
            _accum(a, _unbroadcast(g * b.data, a.data.shape))
        if b.needs_grad:
            _accum(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor(out_data, _parents=(a, b), _push=push)


def linear(x, w, b, slope=None) -> Tensor:
    """One dense layer ``x @ w + b``, leaky-ReLU activated when ``slope`` is given.

    One tape node in place of a matrix product, an add and an activation node.  It
    runs their numpy operations in their order, forward and backward, so its
    values and gradients equal that chain's bit for bit.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError("linear expects a 2-d input and weight")
    out_data = x.data @ w.data
    out_data += b.data
    factor = None
    if slope is not None:
        factor = (out_data >= 0) * (1.0 - slope) + slope  # exactly 1.0 or slope
        out_data *= factor

    def push(g):
        if factor is not None:
            g = g * factor
        if x.needs_grad:
            _accum(x, g @ w.data.T)
        if w.needs_grad:
            _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0))

    return Tensor(out_data, _parents=(x, w, b), _push=push)


def take_rows(a, idx) -> Tensor:
    """Gather distinct rows (leading-axis entries) of ``a`` by an integer index
    array, so the push assigns each gradient row once."""
    a = _wrap(a)
    idx = np.asarray(idx, dtype=np.int64)
    if np.unique(idx).size != idx.size or ((idx < 0) | (idx >= a.data.shape[0])).any():
        raise ValueError("take_rows needs distinct rows of its input")
    out_data = a.data[idx]

    def push(g):
        if not a.needs_grad:
            return
        buf = np.zeros_like(a.data)
        buf[idx] = g + 0.0  # -0.0 to the +0.0 that adding into zeros gives
        _accum(a, buf)

    return Tensor(out_data, _parents=(a,), _push=push)


def concat_rows(parts) -> Tensor:
    parts = [_wrap(p) for p in parts]
    if not parts:
        raise ValueError("concat_rows needs at least one part")
    out_data = np.concatenate([p.data for p in parts], axis=0)
    sizes = [p.data.shape[0] for p in parts]

    def push(g):
        off = 0
        for p, s in zip(parts, sizes):
            _accum(p, g[off:off + s])
            off += s

    return Tensor(out_data, _parents=tuple(parts), _push=push)


def normalize_rows(a, eps=1e-12) -> Tensor:
    """Rows scaled to unit Euclidean length: a / n with n = sqrt(|a|^2 + eps).

    One tape node; the push is the closed form (g - out * <g, out>) / n.
    """
    a = _wrap(a)
    n = np.sqrt((a.data * a.data).sum(axis=1, keepdims=True) + eps)
    out_data = a.data / n

    def push(g):
        _accum(a, (g - out_data * (g * out_data).sum(axis=1, keepdims=True)) / n)

    return Tensor(out_data, _parents=(a,), _push=push)
