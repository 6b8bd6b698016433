import math

import numpy as np
import pytest

from peerseg import autodiff as ad
from peerseg.autodiff import Tensor
from peerseg.errors import NumericError
from peerseg.gmm import (AnchorSet, ClassSamples, bank_from_tensors, bank_tensors,
                         collect_embeddings, contrastive_loss, em_update, ema_update,
                         merge_anchor_sets, mine_anchors, new_bank, pool_rows,
                         responsibilities, sample_prototypes, weighted_log_likelihood)
from tape_ops import exp, log, matmul, sub, tsum


def antithetic_two_cluster(rng, dim=2, n_pairs_per=125, sep=3.0):
    """Mirrored draws around each center: the weighted sample means equal
    the generating means exactly, so a fit is judged against the truth
    without sampling noise in the target."""
    mu = np.r_[sep, np.zeros(dim - 1)]
    half_a = rng.normal(size=(n_pairs_per, dim))
    half_b = rng.normal(size=(n_pairs_per, dim))
    z = np.concatenate([mu + half_a, mu - half_a, -mu + half_b, -mu - half_b])
    conf_half = rng.uniform(0.5, 1.0, size=2 * n_pairs_per)
    conf = np.concatenate([conf_half[:n_pairs_per], conf_half[:n_pairs_per],
                           conf_half[n_pairs_per:], conf_half[n_pairs_per:]])
    return z, conf


def class_set(z, conf):
    return ClassSamples(z=z, conf=conf)


# ---------------------------------------------------------------------------
# bank construction
# ---------------------------------------------------------------------------

def test_new_bank_defaults():
    bank = new_bank(num_classes=3, num_components=2, dim=4)
    assert bank.means.shape == (3, 2, 4)
    assert bank.covs.shape == (3, 2, 4, 4)
    assert np.allclose(bank.covs[1, 0], np.eye(4))
    assert np.allclose(bank.priors, 0.5)
    assert not bank.initialized.any()
    assert bank.ready_classes() == []


def test_new_bank_rejects_bad_dims():
    with pytest.raises(ValueError):
        new_bank(num_classes=0, num_components=2, dim=4)
    with pytest.raises(ValueError):
        new_bank(num_classes=2, num_components=2, dim=4, eps=0.0)


# ---------------------------------------------------------------------------
# densities
# ---------------------------------------------------------------------------

def test_responsibilities_closed_form():
    bank = new_bank(num_classes=1, num_components=2, dim=2)
    bank.means[0] = [[1.0, 0.0], [-1.0, 0.0]]
    bank.initialized[0] = True
    z = np.array([[0.5, 0.0]])
    # equal priors, identity covs: r0/r1 = exp(-0.5 d0^2) / exp(-0.5 d1^2)
    d0, d1 = 0.25, 2.25
    r0 = math.exp(-0.5 * d0) / (math.exp(-0.5 * d0) + math.exp(-0.5 * d1))
    r = responsibilities(bank, 0, z)
    assert r.shape == (1, 2)
    assert r[0, 0] == pytest.approx(r0, abs=1e-12)
    assert r.sum() == pytest.approx(1.0)


def test_weighted_log_likelihood_single_component():
    bank = new_bank(num_classes=1, num_components=1, dim=2)
    bank.means[0, 0] = [1.0, -1.0]
    bank.covs[0, 0] = np.diag([2.0, 0.5])
    bank.initialized[0] = True
    z = np.array([[2.0, 0.0]])
    conf = np.array([0.7])
    quad = (2.0 - 1.0) ** 2 / 2.0 + (0.0 + 1.0) ** 2 / 0.5
    want = 0.7 * (-0.5 * (2 * math.log(2 * math.pi) + math.log(1.0) + quad))
    assert weighted_log_likelihood(bank, 0, z, conf) == pytest.approx(want, abs=1e-12)


def test_degenerate_covariance_raises():
    bank = new_bank(num_classes=1, num_components=1, dim=2)
    bank.covs[0, 0] = np.zeros((2, 2))
    bank.initialized[0] = True
    with pytest.raises(NumericError):
        responsibilities(bank, 0, np.zeros((1, 2)))


# ---------------------------------------------------------------------------
# EM
# ---------------------------------------------------------------------------

def test_em_recovers_two_well_separated_means():
    for seed in (0, 6, 9):
        rng = np.random.default_rng(seed)
        z, conf = antithetic_two_cluster(rng)
        bank = new_bank(num_classes=1, num_components=2, dim=2)
        sets = {0: class_set(z, conf)}
        em_update(bank, sets, num_iters=0, rng=rng)   # seed only
        assert bank.initialized[0]
        ll = [weighted_log_likelihood(bank, 0, z, conf)]
        for _ in range(50):
            em_update(bank, sets, num_iters=1)
            ll.append(weighted_log_likelihood(bank, 0, z, conf))
        diffs = np.diff(ll)
        assert diffs.min() >= -1e-9
        got = bank.means[0][np.argsort(bank.means[0][:, 0])]
        want = np.array([[-3.0, 0], [3.0, 0]])
        assert np.abs(got - want).max() < 0.1


def test_em_skips_classes_with_too_few_samples():
    bank = new_bank(num_classes=2, num_components=3, dim=2)
    rng = np.random.default_rng(0)
    z = rng.normal(size=(2, 2))  # fewer rows than components
    em_update(bank, {0: class_set(z, np.ones(2))}, rng=rng)
    assert not bank.initialized[0]
    assert np.allclose(bank.means[0], 0.0)


def test_em_requires_rng_for_fresh_class():
    bank = new_bank(num_classes=1, num_components=2, dim=2)
    z = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(ValueError):
        em_update(bank, {0: class_set(z, np.ones(10))}, rng=None)


def test_em_covariances_keep_minimum_eigenvalue():
    rng = np.random.default_rng(4)
    # nearly collinear samples would otherwise produce a singular covariance
    base = rng.normal(size=(40, 1)) @ np.array([[1.0, 2.0, -1.0]])
    z = base + 1e-8 * rng.normal(size=(40, 3))
    bank = new_bank(num_classes=1, num_components=2, dim=3)
    sets = {0: class_set(z, np.ones(40))}
    for _ in range(5):
        em_update(bank, sets, num_iters=1, rng=rng)
    for j in range(2):
        assert np.linalg.eigvalsh(bank.covs[0, j]).min() >= bank.eps / 2


def test_ema_update_moves_shadow_toward_live():
    bank = new_bank(num_classes=2, num_components=1, dim=2)
    bank.means[0, 0] = [2.0, 0.0]
    bank.covs[0, 0] = 3.0 * np.eye(2)
    bank.initialized[0] = True
    ema_update(bank, alpha=0.9)
    assert np.allclose(bank.ema_means[0, 0], [0.2, 0.0])
    assert np.allclose(bank.ema_covs[0, 0], 0.9 * np.eye(2) + 0.1 * 3.0 * np.eye(2))
    # class 1 never initialized: untouched
    assert np.allclose(bank.ema_means[1], 0.0)
    with pytest.raises(ValueError):
        ema_update(bank, alpha=1.5)


# ---------------------------------------------------------------------------
# prototype sampling
# ---------------------------------------------------------------------------

def known_bank():
    bank = new_bank(num_classes=1, num_components=2, dim=3)
    bank.means[0] = [[1.0, 2.0, 3.0], [-1.0, 0.0, 1.0]]
    bank.covs[0, 0] = np.diag([0.5, 1.0, 2.0])
    bank.covs[0, 1] = 0.3 * np.eye(3)
    bank.priors[0] = [0.3, 0.7]
    bank.ema_means = bank.means.copy()
    bank.ema_covs = bank.covs.copy()
    bank.initialized[0] = True
    return bank


def test_prototype_first_moment_matches_mixture():
    bank = known_bank()
    pis = bank.priors[0]
    mean = pis @ bank.means[0]
    second = sum(p * (np.diag(c) + m ** 2)
                 for p, m, c in zip(pis, bank.means[0], bank.covs[0]))
    sigma = np.sqrt(second - mean ** 2)
    n = 10_000
    for seed in range(5):
        draws = sample_prototypes(bank, 0, n, np.random.default_rng(seed),
                                  normalize=False)
        assert draws.shape == (n, 3)
        assert (np.abs(draws.mean(axis=0) - mean) <= 4 * sigma / math.sqrt(n)).all()


def looped_prototypes(bank, y, count, rng, normalize=True):
    """The reference: sample_prototypes drawing one prototype at a time."""
    means, covs = bank.ema_means[y], bank.ema_covs[y]
    comps = rng.choice(bank.num_components, size=count, p=bank.priors[y])
    chols = [np.linalg.cholesky(covs[j]) for j in range(bank.num_components)]
    eps = rng.normal(size=(count, bank.dim))
    out = np.empty((count, bank.dim))
    for i in range(count):
        out[i] = means[comps[i]] + chols[comps[i]] @ eps[i]
    if normalize:
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        out = out / norms
    return out


@pytest.mark.parametrize("dim,components,count", [(3, 2, 1), (4, 5, 7), (8, 5, 8), (16, 3, 33)])
def test_stacked_prototype_draw_equals_per_sample_loop(dim, components, count):
    bank = ready_bank(3, dim=dim, components=components, seed=dim)
    for y in range(3):
        for normalize in (False, True):
            got = sample_prototypes(bank, y, count, np.random.default_rng(y), normalize)
            want = looped_prototypes(bank, y, count, np.random.default_rng(y), normalize)
            assert np.array_equal(got, want)


def test_prototype_normalized_rows_are_unit():
    bank = known_bank()
    draws = sample_prototypes(bank, 0, 64, np.random.default_rng(0))
    assert np.linalg.norm(draws, axis=1) == pytest.approx(np.ones(64))


def test_prototype_requires_initialized_class():
    bank = new_bank(num_classes=1, num_components=2, dim=3)
    with pytest.raises(RuntimeError):
        sample_prototypes(bank, 0, 4, np.random.default_rng(0))
    bank = known_bank()
    with pytest.raises(ValueError):
        sample_prototypes(bank, 0, 0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------

def test_mine_anchors_balances_easy_and_hard():
    rng = np.random.default_rng(0)
    n = 40
    embeds = Tensor(rng.normal(size=(n, 3)), requires_grad=True)
    targets = np.zeros(n, dtype=np.int64)
    preds = targets.copy()
    preds[:20] = 1  # first 20 wrong
    out = mine_anchors(embeds, preds, targets, cap=10, rng=rng)
    assert (out.num_easy, out.num_hard) == (5, 5)
    assert out.count == 10
    assert (out.labels == 0).all()


def test_mine_anchors_backfills_missing_pool():
    rng = np.random.default_rng(1)
    embeds = Tensor(rng.normal(size=(12, 2)), requires_grad=True)
    targets = np.arange(12) % 3
    preds = targets.copy()  # everything correct: hard pool empty
    out = mine_anchors(embeds, preds, targets, cap=8, rng=rng)
    assert out.num_hard == 0
    assert out.num_easy == 8


def test_mine_anchors_caps_and_validates():
    rng = np.random.default_rng(2)
    embeds = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    out = mine_anchors(embeds, [0, 1, 0, 1], [0, 0, 0, 0], cap=100, rng=rng)
    assert out.count == 4
    with pytest.raises(ValueError):
        mine_anchors(embeds, [0, 1], [0, 0, 0, 0], cap=4, rng=rng)
    with pytest.raises(ValueError):
        mine_anchors(embeds, [0, 1, 0, 1], [0, 0, 0, 0], cap=0, rng=rng)


def test_mine_anchors_keeps_gradient_path():
    rng = np.random.default_rng(3)
    embeds = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
    out = mine_anchors(embeds, [0, 0, 0, 1, 1, 1], [0, 0, 0, 1, 1, 1],
                       cap=4, rng=rng)
    tsum(ad.mul(out.z, out.z)).backward()
    assert embeds.grad is not None
    assert np.abs(embeds.grad).sum() > 0


@pytest.mark.parametrize("cap, num_correct, easy, hard", [
    (1, 5, 1, 0), (1, 0, 0, 1), (3, 5, 2, 1), (3, 10, 3, 0), (3, 1, 1, 2)])
def test_mine_anchors_fills_every_slot_of_an_odd_cap(cap, num_correct, easy, hard):
    # the spare slot goes to the easy side, and a short side still backfills
    rng = np.random.default_rng(6)
    embeds = Tensor(rng.normal(size=(10, 2)), requires_grad=True)
    targets = np.zeros(10, dtype=np.int64)
    preds = (np.arange(10) >= num_correct).astype(np.int64)
    out = mine_anchors(embeds, preds, targets, cap=cap, rng=rng)
    assert (out.num_easy, out.num_hard, out.count) == (easy, hard, cap)


def test_merge_anchor_sets_concatenates():
    rng = np.random.default_rng(4)
    e = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
    a = mine_anchors(e, [0] * 6, [0] * 6, cap=2, rng=rng)
    b = mine_anchors(e, [1] * 6, [0] * 6, cap=3, rng=rng)
    m = merge_anchor_sets(a, b)
    assert m.count == a.count + b.count
    assert m.labels.tolist() == a.labels.tolist() + b.labels.tolist()


def test_collect_embeddings_caps_per_class():
    rng = np.random.default_rng(5)
    # 30 range rows of class 0, then 20 voxel rows: 5 of class 0 and 15 of class 1;
    # two rows outside [0, num_classes) close the list and are never pooled
    z = rng.normal(size=(52, 3))
    labels = np.concatenate([np.zeros(35, dtype=np.int64), np.ones(15, dtype=np.int64), [3, -1]])
    conf = np.concatenate([np.full(30, 0.9), np.full(22, 0.8)])
    rows = pool_rows(labels, cap_per_class=20, rng=rng, num_classes=3)
    assert (np.diff(rows) > 0).all() and rows.max() < 50
    sets = collect_embeddings(z[rows], labels[rows], conf[rows])
    assert set(sets) == {0, 1}
    assert sets[0].count == 20
    assert sets[1].count == 15
    assert sets[1].conf == pytest.approx(np.full(15, 0.8))
    assert np.array_equal(sets[1].z, z[35:50])


# ---------------------------------------------------------------------------
# contrastive loss
# ---------------------------------------------------------------------------

def ready_bank(num_classes, dim, components, seed):
    rng = np.random.default_rng(seed)
    bank = new_bank(num_classes=num_classes, num_components=components, dim=dim)
    for y in range(num_classes):
        bank.means[y] = rng.normal(size=(components, dim))
        for j in range(components):
            a = rng.normal(size=(dim, dim))
            bank.covs[y, j] = a @ a.T / dim + 0.1 * np.eye(dim)
        bank.initialized[y] = True
    bank.ema_means = bank.means.copy()
    bank.ema_covs = bank.covs.copy()
    return bank


def brute_force_contrastive(anchor_z, labels, protos, ready, temperature):
    terms = []
    for i, y in enumerate(labels):
        if y not in ready:
            continue
        a = anchor_z[i]
        negs = np.concatenate([protos[c] for c in ready if c != y], axis=0)
        neg_sum = sum(math.exp(a @ nv / temperature) for nv in negs)
        for p in protos[y]:
            s = a @ p / temperature
            terms.append(math.log(math.exp(s) + neg_sum) - s)
    return float(np.mean(terms))


def test_contrastive_matches_brute_force():
    rng = np.random.default_rng(6)
    for trial in range(30):
        classes = int(rng.integers(2, 5))
        bank = ready_bank(classes, dim=3, components=2, seed=trial)
        n = int(rng.integers(1, 8))
        z = rng.normal(size=(n, 3))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        labels = rng.integers(0, classes, size=n)
        anchors = AnchorSet(z=Tensor(z.copy(), requires_grad=True),
                            labels=labels, num_easy=n, num_hard=0)
        got = contrastive_loss(anchors, bank, prototypes_per_class=4,
                               temperature=0.1, rng=np.random.default_rng(99 + trial))
        ready = bank.ready_classes()
        rng2 = np.random.default_rng(99 + trial)
        protos = {y: sample_prototypes(bank, y, 4, rng2) for y in ready}
        want = brute_force_contrastive(z, labels, protos, ready, 0.1)
        assert float(got.data) == pytest.approx(want, abs=1e-12)


def test_contrastive_gradient_matches_fd():
    bank = ready_bank(3, dim=3, components=2, seed=0)
    rng = np.random.default_rng(0)
    z = rng.normal(size=(4, 3))
    labels = np.array([0, 1, 2, 0])

    def build(zv):
        anchors = AnchorSet(z=Tensor(zv, requires_grad=True), labels=labels,
                            num_easy=4, num_hard=0)
        return anchors, contrastive_loss(anchors, bank, 3, 0.2,
                                         np.random.default_rng(11))

    anchors, loss = build(z.copy())
    loss.backward()
    grad = anchors.z.grad.copy()
    for i in range(z.size):
        bump = np.zeros_like(z).reshape(-1)
        bump[i] = 1e-5
        hi = float(build(z + bump.reshape(z.shape))[1].data)
        lo = float(build(z - bump.reshape(z.shape))[1].data)
        num = (hi - lo) / 2e-5
        g = grad.reshape(-1)[i]
        assert abs(num - g) / max(abs(num), abs(g), 1e-4) < 1e-4


def per_class_contrastive(anchors, bank, prototypes_per_class, temperature, rng):
    """The reference: the prototype contrast built class by class, each ready
    class's anchors gathered and scored against its own and the other
    classes' prototypes in two products."""
    ready = bank.ready_classes()
    if len(ready) < 2 or anchors.count == 0:
        return Tensor(0.0)
    protos = {y: sample_prototypes(bank, y, prototypes_per_class, rng) for y in ready}
    inv_t = 1.0 / temperature
    total = None
    pair_count = 0
    for y in ready:
        rows = np.nonzero(anchors.labels == y)[0]
        if rows.size == 0:
            continue
        a = ad.take_rows(anchors.z, rows)
        pos = protos[y]
        neg = np.concatenate([protos[c] for c in ready if c != y], axis=0)
        pos_logits = ad.mul(matmul(a, pos.T), inv_t)
        neg_logits = ad.mul(matmul(a, neg.T), inv_t)
        neg_sum = tsum(exp(neg_logits), axis=1, keepdims=True)
        per_pair = sub(log(ad.add(exp(pos_logits), neg_sum)), pos_logits)
        term = tsum(per_pair)
        total = term if total is None else ad.add(total, term)
        pair_count += rows.size * pos.shape[0]
    if total is None:
        return Tensor(0.0)
    return ad.mul(total, 1.0 / pair_count)


@pytest.mark.parametrize("case", ["unready_anchor_class", "two_ready", "ppc_not_multiple_of_8",
                                  "zero_row"])
def test_contrastive_equals_per_class_reference(case):
    rng = np.random.default_rng(21)
    classes = 2 if case == "two_ready" else 4
    ppc = 5 if case == "ppc_not_multiple_of_8" else 8
    n = 40
    bank = ready_bank(classes, dim=8, components=3, seed=7)
    if case == "unready_anchor_class":
        bank.initialized[1] = False
    z = rng.normal(size=(n, 8))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    if case == "zero_row":
        z[3] = 0.0
    labels = rng.integers(0, classes, size=n)
    results = []
    for build in (contrastive_loss, per_class_contrastive):
        anchors = AnchorSet(z=Tensor(z.copy(), requires_grad=True), labels=labels,
                            num_easy=n, num_hard=0)
        loss = build(anchors, bank, ppc, 0.1, np.random.default_rng(5))
        loss.backward()
        results.append((float(loss.data), anchors.z.grad))
    (got, got_grad), (want, want_grad) = results
    assert got == pytest.approx(want, rel=1e-12, abs=0)
    np.testing.assert_allclose(got_grad, want_grad, rtol=1e-12, atol=0)
    if case == "unready_anchor_class":
        assert (got_grad[labels == 1] == 0).all() and (got_grad[labels != 1] != 0).all()


def chain_contrastive(anchors, bank, prototypes_per_class, temperature, rng):
    """The reference: the prototype contrast as the twelve-op chain it was
    before it became one node, in that chain's order."""
    ready = bank.ready_classes()
    if len(ready) < 2 or anchors.count == 0:
        return Tensor(0.0)
    protos = np.concatenate([sample_prototypes(bank, y, prototypes_per_class, rng)
                             for y in ready])
    rows = np.nonzero(np.isin(anchors.labels, ready))[0]
    if rows.size == 0:
        return Tensor(0.0)
    pos = anchors.labels[rows, None] == np.repeat(ready, prototypes_per_class)[None, :]
    logits = ad.mul(matmul(ad.take_rows(anchors.z, rows), protos.T), 1.0 / temperature)
    e = exp(logits)
    neg_sum = tsum(ad.mul(e, ~pos), axis=1, keepdims=True)
    per_pair = sub(log(ad.add(e, neg_sum)), logits)
    total = tsum(ad.mul(per_pair, pos))
    return ad.mul(total, 1.0 / (rows.size * prototypes_per_class))


@pytest.mark.parametrize("upstream", [1.0, 0.7, 0.0])
@pytest.mark.parametrize("case", ["unready_anchor_class", "two_ready", "ppc_not_multiple_of_8",
                                  "zero_row", "all_ready_gathered"])
def test_contrastive_node_equals_the_op_chain_bit_for_bit(case, upstream):
    rng = np.random.default_rng(21)
    classes = 2 if case == "two_ready" else 4
    ppc = 5 if case == "ppc_not_multiple_of_8" else 8
    n = 40
    bank = ready_bank(classes, dim=8, components=3, seed=7)
    if case == "unready_anchor_class":
        bank.initialized[1] = False
    z = rng.normal(size=(n, 8))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    if case == "zero_row":
        z[3] = 0.0
    labels = rng.integers(0, classes, size=n)
    if case == "all_ready_gathered":  # every class present, anchors gathered as mine_anchors does
        labels[:classes] = np.arange(classes)
    results = []
    for build in (contrastive_loss, chain_contrastive):
        embeds = Tensor(z.copy(), requires_grad=True)
        anchor_z = ad.take_rows(embeds, np.arange(n)[::-1]) \
            if case == "all_ready_gathered" else embeds
        anchors = AnchorSet(z=anchor_z, labels=labels, num_easy=n, num_hard=0)
        loss = build(anchors, bank, ppc, 0.1, np.random.default_rng(5))
        if build is contrastive_loss:
            assert loss._parents == (anchors.z,)
        (loss if upstream == 1.0 else ad.mul(loss, upstream)).backward()
        results.append((loss.data.tobytes(), embeds.grad.tobytes()))
    assert results[0] == results[1]


def test_contrastive_node_equals_the_op_chain_on_random_shapes():
    rng = np.random.default_rng(22)
    for trial in range(100):
        classes, ppc = int(rng.integers(2, 6)), int(rng.integers(1, 10))
        n, dim = int(rng.integers(1, 30)), int(rng.integers(2, 9))
        bank = ready_bank(classes, dim=dim, components=2, seed=trial)
        bank.initialized[rng.random(classes) < 0.2] = False
        z = rng.normal(size=(n, dim))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        labels = rng.integers(0, classes, size=n)
        temperature, upstream = rng.uniform(0.05, 1.0), float(rng.choice([1.0, 0.7, 0.0]))
        results = []
        for build in (contrastive_loss, chain_contrastive):
            anchors = AnchorSet(z=Tensor(z.copy(), requires_grad=True), labels=labels,
                                num_easy=n, num_hard=0)
            loss = build(anchors, bank, ppc, temperature, np.random.default_rng(trial))
            if loss.needs_grad:
                ad.mul(loss, upstream).backward()
            grad = anchors.z.grad
            results.append((loss.data.tobytes(), None if grad is None else grad.tobytes()))
        assert results[0] == results[1], trial


def test_contrastive_needs_two_ready_classes():
    bank = ready_bank(1, dim=2, components=2, seed=1)
    anchors = AnchorSet(z=Tensor(np.ones((2, 2))), labels=np.zeros(2, dtype=int),
                        num_easy=2, num_hard=0)
    assert float(contrastive_loss(anchors, bank, 2, 0.1,
                                  np.random.default_rng(0)).data) == 0.0


def test_contrastive_ignores_unready_anchor_classes():
    bank = ready_bank(3, dim=2, components=2, seed=2)
    bank.initialized[2] = False
    anchors = AnchorSet(z=Tensor(np.ones((1, 2))), labels=np.array([2]),
                        num_easy=1, num_hard=0)
    assert float(contrastive_loss(anchors, bank, 2, 0.1,
                                  np.random.default_rng(0)).data) == 0.0
    with pytest.raises(ValueError):
        contrastive_loss(anchors, bank, 2, 0.0, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_bank_tensor_round_trip():
    bank = ready_bank(3, dim=4, components=2, seed=5)
    bank.initialized[1] = False
    ema_update(bank, alpha=0.5)
    back = bank_from_tensors(dict(bank_tensors(bank)))
    assert back.num_classes == 3 and back.num_components == 2 and back.dim == 4
    assert back.eps == bank.eps
    assert np.array_equal(back.means, bank.means)
    assert np.array_equal(back.covs, bank.covs)
    assert np.array_equal(back.priors, bank.priors)
    assert np.array_equal(back.ema_means, bank.ema_means)
    assert np.array_equal(back.ema_covs, bank.ema_covs)
    assert np.array_equal(back.initialized, bank.initialized)
