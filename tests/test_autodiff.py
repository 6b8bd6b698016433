"""Finite-difference checks for every differentiable operation.

Central differences with step 1e-5 in f64; relative error under 1e-4 with
the denominator floored so near-zero gradients compare absolutely.
"""

import numpy as np
import pytest

from peerseg import autodiff as ad
from peerseg.autodiff import Tensor

STEP = 1e-5
TOL = 1e-4


def mean(a: Tensor) -> Tensor:
    """The scalar reducer of the checks: the mean of all entries, built from tape ops."""
    return ad.mul(ad.tsum(a), 1.0 / a.data.size)


def fd_check(build, params):
    """build() returns a scalar Tensor over params; compare grads to FD."""
    for p in params:
        p.zero_grad()
    loss = build()
    loss.backward()
    for p in params:
        assert p.grad is not None, "parameter missed by backward"
        grad = p.grad.copy()
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + STEP
            hi = float(build().data)
            flat[i] = keep - STEP
            lo = float(build().data)
            flat[i] = keep
            num = (hi - lo) / (2.0 * STEP)
            got = grad.reshape(-1)[i]
            denom = max(abs(num), abs(got), 1e-4)
            assert abs(num - got) / denom < TOL, (i, num, got)


def rand_param(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


# ---------------------------------------------------------------------------
# elementwise and reduction ops
# ---------------------------------------------------------------------------

def test_add_sub_mul_div_grads():
    rng = np.random.default_rng(0)
    a = rand_param(rng, 3, 4)
    b = rand_param(rng, 3, 4)
    fd_check(lambda: mean(ad.add(a, b)), [a, b])
    fd_check(lambda: mean(ad.sub(a, b)), [a, b])
    fd_check(lambda: mean(ad.mul(a, b)), [a, b])
    c = Tensor(rng.uniform(1.0, 2.0, size=(3, 4)), requires_grad=True)
    fd_check(lambda: mean(ad.div(a, c)), [a, c])


def test_broadcast_grads():
    rng = np.random.default_rng(1)
    a = rand_param(rng, 4, 3)
    row = rand_param(rng, 3)
    fd_check(lambda: mean(ad.add(a, row)), [a, row])
    fd_check(lambda: mean(ad.mul(a, row)), [a, row])
    scalar = rand_param(rng)
    fd_check(lambda: mean(ad.mul(a, scalar)), [a, scalar])


def test_matmul_grads():
    rng = np.random.default_rng(2)
    a = rand_param(rng, 3, 5)
    b = rand_param(rng, 5, 2)
    fd_check(lambda: mean(ad.matmul(a, b)), [a, b])


def test_matmul_rejects_vectors():
    with pytest.raises(ValueError):
        ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_exp_log_sqrt_grads():
    rng = np.random.default_rng(3)
    a = rand_param(rng, 2, 3)
    fd_check(lambda: mean(ad.exp(a)), [a])
    pos = Tensor(rng.uniform(0.5, 3.0, size=(2, 3)), requires_grad=True)
    fd_check(lambda: mean(ad.log(pos)), [pos])
    fd_check(lambda: mean(ad.sqrt(pos)), [pos])


def test_sum_axis_and_keepdims_grads():
    rng = np.random.default_rng(4)
    a = rand_param(rng, 3, 4)
    w = rand_param(rng, 3, 1)
    fd_check(lambda: mean(ad.mul(ad.tsum(a, axis=1, keepdims=True), w)), [a, w])
    fd_check(lambda: ad.tsum(a), [a])
    fd_check(lambda: mean(ad.tsum(a, axis=0)), [a])


def leaky_relu(a, slope):
    """The reference leaky ReLU: a mul by the slope factor of the forward values."""
    return ad.mul(a, np.where(a.data >= 0, 1.0, slope))


def test_linear_grad_away_from_kink():
    rng = np.random.default_rng(5)
    x = rand_param(rng, 4, 3)
    w = rand_param(rng, 3, 2)
    b = rand_param(rng, 2)
    assert np.abs(x.data @ w.data + b.data).min() > 0.05  # probes stay clear of the kink
    assert (x.data @ w.data + b.data < 0).any()
    fd_check(lambda: mean(ad.linear(x, w, b, 0.01)), [x, w, b])
    fd_check(lambda: mean(ad.linear(x, w, b)), [x, w, b])
    # negative side uses the slope
    neg = Tensor(np.array([[-2.0]]), requires_grad=True)
    out = ad.linear(neg, np.ones((1, 1)), np.zeros(1), 0.25)
    assert out.data[0, 0] == pytest.approx(-0.5)
    ad.tsum(out).backward()
    assert neg.grad[0, 0] == pytest.approx(0.25)


@pytest.mark.parametrize("slope", [None, 0.01])
@pytest.mark.parametrize("x_needs_grad", [False, True])
def test_linear_equals_matmul_add_leaky_relu_bit_for_bit(slope, x_needs_grad):
    rng = np.random.default_rng(12)
    x_data = rng.normal(size=(7, 5))
    w, b = rand_param(rng, 5, 3), rand_param(rng, 3)
    upstream = rng.normal(size=(7, 3))
    results = []
    for fused in (True, False):
        x = Tensor(x_data.copy(), requires_grad=x_needs_grad)
        for p in (w, b):
            p.zero_grad()
        if fused:
            out = ad.linear(x, w, b, slope)
        else:
            out = ad.add(ad.matmul(x, w), b)
            if slope is not None:
                out = leaky_relu(out, slope)
        ad.tsum(ad.mul(out, upstream)).backward()
        results.append([out.data, w.grad, b.grad] + ([x.grad] if x_needs_grad else []))
        assert (x.grad is None) != x_needs_grad
    for got, want in zip(*results):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# gathers, concat, norms
# ---------------------------------------------------------------------------

def test_take_rows_accumulates_duplicates():
    rng = np.random.default_rng(6)
    a = rand_param(rng, 4, 3)
    idx = np.array([0, 2, 2, 1, 2])
    fd_check(lambda: mean(ad.take_rows(a, idx)), [a])
    a.zero_grad()
    loss = ad.tsum(ad.take_rows(a, idx))
    loss.backward()
    assert a.grad[2].tolist() == [3.0, 3.0, 3.0]
    assert a.grad[3].tolist() == [0.0, 0.0, 0.0]


def test_take_at_grads():
    rng = np.random.default_rng(7)
    a = rand_param(rng, 5, 4)
    rows = np.array([0, 0, 3, 4, 3])
    cols = np.array([1, 1, 2, 0, 2])
    fd_check(lambda: mean(ad.take_at(a, rows, cols)), [a])
    a.zero_grad()
    loss = ad.tsum(ad.take_at(a, rows, cols))
    loss.backward()
    assert a.grad[0, 1] == 2.0 and a.grad[3, 2] == 2.0 and a.grad[1, 1] == 0.0


def test_concat_rows_grads():
    rng = np.random.default_rng(9)
    a = rand_param(rng, 2, 3)
    b = rand_param(rng, 4, 3)
    fd_check(lambda: mean(ad.concat_rows([a, b])), [a, b])
    with pytest.raises(ValueError):
        ad.concat_rows([])


def test_normalize_rows_grads_and_norms():
    rng = np.random.default_rng(10)
    a = Tensor(rng.normal(size=(4, 5)) + 0.5, requires_grad=True)
    out = ad.normalize_rows(a)
    assert np.linalg.norm(out.data, axis=1) == pytest.approx(np.ones(4))
    fd_check(lambda: mean(ad.mul(ad.normalize_rows(a), np.arange(5.0))), [a])


def test_detached_sign_abs_value_and_grad():
    a = Tensor(np.array([[-2.0, 3.0]]), requires_grad=True)
    out = ad.detached_sign_abs(a)
    assert out.data.tolist() == [[2.0, 3.0]]
    ad.tsum(out).backward()
    # sign is frozen at the forward value, so the gradient is just the sign
    assert a.grad.tolist() == [[-1.0, 1.0]]


# ---------------------------------------------------------------------------
# graph mechanics
# ---------------------------------------------------------------------------

def test_backward_requires_scalar():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        ad.add(a, a).backward()


def test_backward_requires_a_parameter():
    loss = mean(ad.mul(Tensor(np.ones(3)), Tensor(np.ones(3))))
    with pytest.raises(ValueError):
        loss.backward()


def test_constants_stay_out_of_the_graph():
    const = ad.mul(Tensor(np.ones(3)), 2.0)
    assert not const.needs_grad
    a = Tensor(np.ones(3), requires_grad=True)
    assert ad.mul(a, 2.0).needs_grad


def test_grad_accumulates_until_zeroed():
    a = Tensor(np.array(2.0), requires_grad=True)
    ad.mul(a, 3.0).backward()
    ad.mul(a, 3.0).backward()
    assert a.grad == pytest.approx(6.0)
    a.zero_grad()
    ad.mul(a, 3.0).backward()
    assert a.grad == pytest.approx(3.0)


def test_shared_subexpression_grad():
    a = Tensor(np.array(3.0), requires_grad=True)
    b = ad.mul(a, a)          # a^2, used twice
    loss = ad.add(b, b)       # 2 a^2 -> d/da = 4a = 12
    loss.backward()
    assert a.grad == pytest.approx(12.0)


def test_deep_chain_does_not_recurse():
    a = Tensor(np.array(1.0), requires_grad=True)
    x = a
    for _ in range(5000):
        x = ad.add(x, 1.0)
    x.backward()
    assert a.grad == pytest.approx(1.0)


def test_mixed_constant_parent_matmul():
    # constant left operand: gradient flows only into the parameter side
    rng = np.random.default_rng(11)
    const = Tensor(rng.normal(size=(3, 4)))
    w = rand_param(rng, 4, 2)
    fd_check(lambda: mean(ad.matmul(const, w)), [w])
    loss = mean(ad.matmul(const, w))
    loss.backward()
    assert const.grad is None
