"""Tape ops that the program no longer uses, kept as test references.

The fused nodes (`linear`, `normalize_rows`, the supervised objective, the
Lovasz term, the prototype contrast) each replaced a chain of tape ops and
must equal that chain, most of them bit for bit.  These are the chain ops
`autodiff` used to define, so the tests can rebuild the chains and compare.
"""

import numpy as np

from peerseg.autodiff import Tensor, _accum, _unbroadcast, _wrap, mul


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out_data = a.data - b.data

    def push(g):
        _accum(a, _unbroadcast(g, a.data.shape))
        _accum(b, _unbroadcast(-g, b.data.shape))

    return Tensor(out_data, _parents=(a, b), _push=push)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-d operands")
    out_data = a.data @ b.data

    def push(g):
        if a.needs_grad:
            _accum(a, g @ b.data.T)
        if b.needs_grad:
            _accum(b, a.data.T @ g)

    return Tensor(out_data, _parents=(a, b), _push=push)


def exp(a) -> Tensor:
    a = _wrap(a)
    out_data = np.exp(a.data)

    def push(g):
        _accum(a, g * out_data)

    return Tensor(out_data, _parents=(a,), _push=push)


def log_softmax(logits) -> Tensor:
    """Row-wise log softmax; the max shift is a forward-value constant.

    One tape node in place of the five-op chain shift - log(sum(exp(shift)))
    over rows.  It runs the chain's numpy operations in their order, forward
    and backward, so its values and gradients equal that chain's bit for bit.
    """
    logits = _wrap(logits)
    shift = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shift)
    s = e.sum(axis=1, keepdims=True)
    out_data = shift - np.log(s)

    def push(g):
        _accum(logits, g + np.broadcast_to((-g).sum(axis=1, keepdims=True) / s, e.shape) * e)

    return Tensor(out_data, _parents=(logits,), _push=push)


def log(a) -> Tensor:
    a = _wrap(a)
    out_data = np.log(a.data)

    def push(g):
        _accum(a, g / a.data)

    return Tensor(out_data, _parents=(a,), _push=push)


def tsum(a, axis=None, keepdims=False) -> Tensor:
    a = _wrap(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def push(g):
        gg = np.asarray(g)
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        _accum(a, np.broadcast_to(gg, a.data.shape))

    return Tensor(out_data, _parents=(a,), _push=push)


def sqrt(a) -> Tensor:
    out_data = np.sqrt(a.data)

    def push(g):
        _accum(a, g * 0.5 / out_data)

    return Tensor(out_data, _parents=(a,), _push=push)


def div(a, b) -> Tensor:
    out_data = a.data / b.data

    def push(g):
        _accum(a, _unbroadcast(g / b.data, a.data.shape))
        _accum(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return Tensor(out_data, _parents=(a, b), _push=push)


def take_at(a, rows, cols) -> Tensor:
    """out[k] = a[rows[k], cols[k]], its push accumulating into zeros with
    np.add.at: the gather both loss terms were built on before each became
    one node."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)

    def push(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, (rows, cols), g)
        _accum(a, buf)

    return Tensor(a.data[rows, cols], _parents=(a,), _push=push)


def detached_sign_abs(a) -> Tensor:
    """|a| with the sign taken from the forward value (constant in backward)."""
    return mul(a, np.sign(a.data))
