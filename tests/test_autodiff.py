"""Finite-difference checks for every differentiable operation.

Central differences with step 1e-5 in f64; relative error under 1e-4 with
the denominator floored so near-zero gradients compare absolutely.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from peerseg import autodiff as ad
from peerseg.autodiff import Tensor
from tape_ops import div, exp, matmul, sqrt, tsum

STEP = 1e-5
TOL = 1e-4


def mean(a: Tensor) -> Tensor:
    """The scalar reducer of the checks: the mean of all entries, built from tape ops."""
    return ad.mul(tsum(a), 1.0 / a.data.size)


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
    fd_check(lambda: mean(ad.mul(a, b)), [a, b])


def test_broadcast_grads():
    rng = np.random.default_rng(1)
    a = rand_param(rng, 4, 3)
    row = rand_param(rng, 3)
    fd_check(lambda: mean(ad.add(a, row)), [a, row])
    fd_check(lambda: mean(ad.mul(a, row)), [a, row])
    scalar = rand_param(rng)
    fd_check(lambda: mean(ad.mul(a, scalar)), [a, scalar])


def test_exp_log_sqrt_grads():
    rng = np.random.default_rng(3)
    a = rand_param(rng, 2, 3)
    fd_check(lambda: mean(exp(a)), [a])


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
    tsum(out).backward()
    assert neg.grad[0, 0] == pytest.approx(0.25)


@settings(max_examples=300, deadline=None, database=None)
@given(slope=st.one_of(st.just(0.01), st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
def test_leaky_factor_is_exactly_slope_or_one(slope):
    # a 1x1 unit weight and zero bias: the output is x times the factor, and
    # the gradient of the output's sum is the factor itself
    x = Tensor(np.array([[-3.0], [-1e-300], [0.0], [1e-300], [2.5]]), requires_grad=True)
    out = ad.linear(x, np.ones((1, 1)), np.zeros(1), slope)
    tsum(out).backward()
    factor = np.array([[slope], [slope], [1.0], [1.0], [1.0]])
    assert x.grad.tobytes() == factor.tobytes()
    assert out.data.tobytes() == (x.data * factor).tobytes()


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
            out = ad.add(matmul(x, w), b)
            if slope is not None:
                out = leaky_relu(out, slope)
        tsum(ad.mul(out, upstream)).backward()
        results.append([out.data, w.grad, b.grad] + ([x.grad] if x_needs_grad else []))
        assert (x.grad is None) != x_needs_grad
    for got, want in zip(*results):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# gathers, concat, norms
# ---------------------------------------------------------------------------

def test_take_rows_grads_and_rejects_duplicates():
    rng = np.random.default_rng(6)
    a = rand_param(rng, 4, 3)
    idx = np.array([2, 0, 3])
    fd_check(lambda: mean(ad.take_rows(a, idx)), [a])
    a.zero_grad()
    tsum(ad.take_rows(a, idx)).backward()
    assert a.grad[1].tolist() == [0.0, 0.0, 0.0]
    assert ad.take_rows(a, idx)._parents == (a,)
    for bad in ([0, 2, 2], [0, 4], [-1, 2]):  # a repeated row, past the end, negative
        with pytest.raises(ValueError, match="distinct"):
            ad.take_rows(a, np.array(bad))


def test_take_rows_push_equals_add_at_bit_for_bit():
    """Assigning each row once gives the bytes of np.add.at into zeros,
    +0.0 where the upstream gradient holds -0.0 included."""
    rng = np.random.default_rng(7)
    a = rand_param(rng, 6, 4)
    idx = np.array([5, 1, 2, 4])
    upstream = rng.normal(size=(4, 4))
    upstream[0, 1] = upstream[2, 3] = -0.0
    tsum(ad.mul(ad.take_rows(a, idx), upstream)).backward()
    want = np.zeros_like(a.data)
    np.add.at(want, idx, upstream * 1.0)
    assert a.grad.tobytes() == want.tobytes()
    assert np.signbit(a.grad[[5, 2], [1, 3]]).tolist() == [False, False]


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


def chain_normalize_rows(a, eps=1e-12):
    """The reference: normalize_rows as a chain of tape ops, a / sqrt(sum(a * a) + eps),
    with elementwise sqrt and div nodes whose pushes follow the chain rule."""
    sq = tsum(ad.mul(a, a), axis=1, keepdims=True)
    return div(a, sqrt(ad.add(sq, eps)))


@pytest.mark.parametrize("zero_row", [False, True])
def test_normalize_rows_equals_chain_reference(zero_row):
    rng = np.random.default_rng(13)
    data = rng.normal(size=(6, 5))
    if zero_row:
        data[2] = 0.0
    upstream = rng.normal(size=(6, 5))
    results = []
    for build in (ad.normalize_rows, chain_normalize_rows):
        a = Tensor(data.copy(), requires_grad=True)
        out = build(a)
        tsum(ad.mul(out, upstream)).backward()
        results.append((out.data, a.grad))
    (got, got_grad), (want, want_grad) = results
    assert got.tobytes() == want.tobytes()  # the forward runs the chain's numpy ops
    np.testing.assert_allclose(got_grad, want_grad, rtol=1e-12, atol=0)
    if zero_row:
        assert (got[2] == 0).all() and got_grad[2] == pytest.approx(upstream[2] * 1e6)


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


def test_mixed_constant_parent_linear():
    # constant input, as the trunk's scaled cells: gradient flows only into the parameters
    rng = np.random.default_rng(11)
    const = Tensor(rng.normal(size=(3, 4)))
    w = rand_param(rng, 4, 2)
    b = rand_param(rng, 2)
    fd_check(lambda: mean(ad.linear(const, w, b)), [w, b])
    loss = mean(ad.linear(const, w, b))
    loss.backward()
    assert const.grad is None
