import math

import numpy as np
import pytest

from peerseg import autodiff as ad
from peerseg.autodiff import Tensor
from peerseg.errors import NumericError
from peerseg.gmm import (AnchorSet, ClassSamples, VIEW_RANGE, VIEW_VOXEL,
                         bank_from_tensors, bank_tensors, collect_embeddings,
                         contrastive_loss, em_update, ema_update, merge_anchor_sets,
                         mine_anchors, new_bank, responsibilities, sample_prototypes,
                         weighted_log_likelihood)


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
    return ClassSamples(z=z, conf=conf,
                        view=np.zeros(z.shape[0], dtype=np.int8))


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
    ad.tsum(ad.mul(out.z, out.z)).backward()
    assert embeds.grad is not None
    assert np.abs(embeds.grad).sum() > 0


def test_merge_anchor_sets_concatenates():
    rng = np.random.default_rng(4)
    e = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
    a = mine_anchors(e, [0] * 6, [0] * 6, cap=2, rng=rng)
    b = mine_anchors(e, [1] * 6, [0] * 6, cap=3, rng=rng)
    m = merge_anchor_sets(a, b)
    assert m.count == a.count + b.count
    assert m.labels.tolist() == a.labels.tolist() + b.labels.tolist()


def test_collect_embeddings_caps_and_tags_views():
    rng = np.random.default_rng(5)
    rz = rng.normal(size=(30, 3))
    vz = rng.normal(size=(20, 3))
    rl = np.zeros(30, dtype=np.int64)
    vl = np.concatenate([np.zeros(5, dtype=np.int64), np.ones(15, dtype=np.int64)])
    sets = collect_embeddings(rz, rl, np.full(30, 0.9), vz, vl, np.full(20, 0.8),
                              cap_per_class=20, rng=rng, num_classes=3)
    assert set(sets) == {0, 1}
    assert sets[0].count == 20
    assert sets[1].count == 15
    assert (sets[1].view == VIEW_VOXEL).all()
    assert set(np.unique(sets[0].view)) <= {VIEW_RANGE, VIEW_VOXEL}
    assert sets[1].conf == pytest.approx(np.full(15, 0.8))


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
