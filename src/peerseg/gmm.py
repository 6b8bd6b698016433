"""Per-class Gaussian mixture banks, prototype sampling, contrastive loss.

Every class keeps an M-component full-covariance mixture over the
embedding space, with priors fixed at 1/M.  Fitting is confidence-weighted
EM: responsibilities q[n, m] come from the usual E step, and the M step
normalizes by the effective weight sum_n c[n] * q[n, m], which is
ordinary EM on fractionally weighted samples and therefore ascends the
weighted log likelihood sum_n c[n] * log p(z[n]).  Updated covariances
are symmetrized and their eigenvalues floored at eps, which keeps them
safely positive definite without giving up exact likelihood ascent.

A slow exponential-moving-average shadow of each class's parameters is the
distribution prototypes are sampled from; the live parameters chase the
current batch, the shadow stays stable for the contrastive loss.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import FormatError, NumericError

VIEW_RANGE = 0
VIEW_VOXEL = 1


@dataclass
class ClassSamples:
    """Embeddings pooled for one class: rows of z, confidence, source view."""

    z: np.ndarray      # (n, Z) f64
    conf: np.ndarray   # (n,) f64 in (0, 1]
    view: np.ndarray   # (n,) int8, VIEW_RANGE / VIEW_VOXEL

    @property
    def count(self) -> int:
        return self.z.shape[0]


@dataclass
class GmmBank:
    num_classes: int
    num_components: int
    dim: int
    eps: float = 1e-4
    means: np.ndarray = field(default=None)
    covs: np.ndarray = field(default=None)
    priors: np.ndarray = field(default=None)
    ema_means: np.ndarray = field(default=None)
    ema_covs: np.ndarray = field(default=None)
    initialized: np.ndarray = field(default=None)

    def __post_init__(self):
        y, m, z = self.num_classes, self.num_components, self.dim
        if self.means is None:
            self.means = np.zeros((y, m, z))
            self.covs = np.tile(np.eye(z), (y, m, 1, 1))
            self.priors = np.full((y, m), 1.0 / m)
            self.ema_means = np.zeros((y, m, z))
            self.ema_covs = np.tile(np.eye(z), (y, m, 1, 1))
            self.initialized = np.zeros(y, dtype=bool)

    def ready_classes(self):
        return [int(c) for c in np.nonzero(self.initialized)[0]]


def new_bank(num_classes, num_components=5, dim=8, eps=1e-4) -> GmmBank:
    if num_components < 1 or num_classes < 1 or dim < 1:
        raise ValueError("bank dimensions must be positive")
    if eps <= 0:
        raise ValueError("eps must be positive")
    return GmmBank(num_classes=num_classes, num_components=num_components, dim=dim, eps=eps)


# ---------------------------------------------------------------------------
# densities and EM
# ---------------------------------------------------------------------------

def _chol(cov, context) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"covariance not positive definite for {context}") from exc


def _log_gauss(z, mean, chol_factor) -> np.ndarray:
    """Log N(z | mean, L L^T) for rows of z."""
    diff = z - mean
    w = np.linalg.solve(chol_factor, diff.T).T
    quad = (w * w).sum(axis=1)
    logdet = 2.0 * np.log(np.diag(chol_factor)).sum()
    d = z.shape[1]
    return -0.5 * (d * np.log(2.0 * np.pi) + logdet + quad)


def _component_log_probs(bank, y, z):
    m = bank.num_components
    out = np.empty((z.shape[0], m))
    for j in range(m):
        chol = _chol(bank.covs[y, j], f"class {y} component {j}")
        out[:, j] = _log_gauss(z, bank.means[y, j], chol)
    return out


def responsibilities(bank: GmmBank, y: int, z: np.ndarray) -> np.ndarray:
    """E step: posterior over components for each sample, rows sum to 1."""
    logp = _component_log_probs(bank, y, z) + np.log(bank.priors[y])[None, :]
    shifted = logp - logp.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def weighted_log_likelihood(bank: GmmBank, y: int, z: np.ndarray, conf: np.ndarray) -> float:
    """sum_n conf[n] * log sum_m prior_m N(z[n] | mu_m, Sigma_m)."""
    logp = _component_log_probs(bank, y, z) + np.log(bank.priors[y])[None, :]
    mx = logp.max(axis=1)
    ll = mx + np.log(np.exp(logp - mx[:, None]).sum(axis=1))
    return float((conf * ll).sum())


def _kmeanspp_centers(z, k, rng) -> np.ndarray:
    """k-means++ seeding: spread initial means by squared-distance sampling,
    then refine with Lloyd steps until assignments stop moving."""
    n = z.shape[0]
    centers = [z[int(rng.integers(n))]]
    for _ in range(1, k):
        d2 = np.min(
            ((z[:, None, :] - np.asarray(centers)[None, :, :]) ** 2).sum(axis=2), axis=1)
        total = d2.sum()
        if total <= 0:
            centers.append(z[int(rng.integers(n))])
            continue
        centers.append(z[int(rng.choice(n, p=d2 / total))])
    centers = np.asarray(centers)
    assign = None
    for _ in range(20):
        d2 = ((z[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = d2.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            members = z[assign == j]
            if members.shape[0]:
                centers[j] = members.mean(axis=0)
    return centers


def _init_class(bank: GmmBank, y: int, z: np.ndarray, rng) -> None:
    bank.means[y] = _kmeanspp_centers(z, bank.num_components, rng)
    if z.shape[0] > 1:
        cov = np.cov(z, rowvar=False, ddof=0)
    else:
        cov = np.zeros((bank.dim, bank.dim))
    cov = np.atleast_2d(cov) + bank.eps * np.eye(bank.dim)
    bank.covs[y] = np.tile(cov, (bank.num_components, 1, 1))
    bank.ema_means[y] = bank.means[y].copy()
    bank.ema_covs[y] = bank.covs[y].copy()
    bank.initialized[y] = True


def em_update(bank: GmmBank, sets: dict, num_iters: int = 1, rng=None) -> GmmBank:
    """Confidence-weighted EM over the supplied per-class sample sets.

    Classes with fewer samples than components are skipped.  A class seen
    for the first time is seeded with k-means++ centers (rng required) and
    the class sample covariance.  The M step normalizes by the effective
    weights, so each iteration ascends the weighted likelihood.
    """
    for y in sorted(sets):
        samples = sets[y]
        z, conf = np.asarray(samples.z, dtype=np.float64), np.asarray(samples.conf, dtype=np.float64)
        if z.shape[0] < bank.num_components:
            continue
        if not bank.initialized[y]:
            if rng is None:
                raise ValueError("seeding a new class requires an rng")
            _init_class(bank, y, z, rng)
        for _ in range(num_iters):
            q = responsibilities(bank, y, z)
            w = conf[:, None] * q                      # (n, M) effective weights
            denom = w.sum(axis=0)                      # (M,)
            for j in range(bank.num_components):
                if denom[j] <= 1e-12:
                    continue  # component momentarily owns no mass; keep it
                mu = (w[:, j] @ z) / denom[j]
                diff = z - mu
                cov = (w[:, j, None] * diff).T @ diff / denom[j]
                bank.means[y, j] = mu
                bank.covs[y, j] = _floor_eigenvalues(0.5 * (cov + cov.T), bank.eps)
    return bank


def _floor_eigenvalues(cov, eps) -> np.ndarray:
    """Regularize by flooring eigenvalues at eps.

    This is the constrained M step (maximize over covariances with
    spectrum >= eps), so likelihood ascent stays exact; a healthy
    covariance passes through untouched.
    """
    evals, evecs = np.linalg.eigh(cov)
    if evals[0] >= eps:
        return cov
    floored = (evecs * np.maximum(evals, eps)) @ evecs.T
    return 0.5 * (floored + floored.T)


def ema_update(bank: GmmBank, alpha: float = 0.996) -> GmmBank:
    """shadow <- alpha * shadow + (1 - alpha) * live, for initialized classes."""
    if not 0 <= alpha <= 1:
        raise ValueError("alpha must be in [0, 1]")
    for y in bank.ready_classes():
        bank.ema_means[y] = alpha * bank.ema_means[y] + (1 - alpha) * bank.means[y]
        cov = alpha * bank.ema_covs[y] + (1 - alpha) * bank.covs[y]
        bank.ema_covs[y] = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    return bank


# ---------------------------------------------------------------------------
# prototypes
# ---------------------------------------------------------------------------

def sample_prototypes(bank: GmmBank, y: int, count: int, rng,
                      normalize: bool = True) -> np.ndarray:
    """Draw prototype vectors from class y's EMA shadow mixture.

    Pick a component from the priors, then draw from its Gaussian via the
    Cholesky factor.  normalize=False exposes the raw draws (for checking
    the sampler's first moments against the mixture parameters).
    """
    if not bank.initialized[y]:
        raise RuntimeError(f"class {y} has no initialized mixture")
    if count < 1:
        raise ValueError("count must be >= 1")
    means, covs = bank.ema_means[y], bank.ema_covs[y]
    comps = rng.choice(bank.num_components, size=count, p=bank.priors[y])
    chols = [_chol(covs[j], f"class {y} component {j}") for j in range(bank.num_components)]
    eps = rng.normal(size=(count, bank.dim))
    out = np.empty((count, bank.dim))
    for i in range(count):
        out[i] = means[comps[i]] + chols[comps[i]] @ eps[i]
    if normalize:
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        out = out / norms
    return out


@dataclass
class AnchorSet:
    """Anchor embeddings (gradient-carrying) with their target labels."""

    z: Tensor
    labels: np.ndarray
    num_easy: int
    num_hard: int

    @property
    def count(self) -> int:
        return self.labels.shape[0]


def mine_anchors(embeds: Tensor, predictions, targets, cap: int, rng) -> AnchorSet:
    """Half correctly-predicted cells, half mistakes, uniformly sampled.

    When one pool is short the other backfills, up to cap anchors total.
    Row gathering keeps the anchors attached to the embedding graph.
    """
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if embeds.data.shape[0] != predictions.shape[0] or predictions.shape[0] != targets.shape[0]:
        raise ValueError("embeddings, predictions, and targets must align")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    easy_pool = np.nonzero(predictions == targets)[0]
    hard_pool = np.nonzero(predictions != targets)[0]
    half = cap // 2
    short_easy = half - min(half, easy_pool.size)
    short_hard = half - min(half, hard_pool.size)
    n_easy = min(easy_pool.size, half + short_hard)   # each side backfills the other
    n_hard = min(hard_pool.size, half + short_easy)
    easy = rng.choice(easy_pool, size=n_easy, replace=False) if n_easy else np.empty(0, np.int64)
    hard = rng.choice(hard_pool, size=n_hard, replace=False) if n_hard else np.empty(0, np.int64)
    chosen = np.concatenate([np.sort(easy), np.sort(hard)]).astype(np.int64)
    return AnchorSet(
        z=ad.take_rows(embeds, chosen),
        labels=targets[chosen],
        num_easy=int(n_easy),
        num_hard=int(n_hard),
    )


def merge_anchor_sets(a: AnchorSet, b: AnchorSet) -> AnchorSet:
    return AnchorSet(
        z=ad.concat_rows([a.z, b.z]),
        labels=np.concatenate([a.labels, b.labels]),
        num_easy=a.num_easy + b.num_easy,
        num_hard=a.num_hard + b.num_hard,
    )


def collect_embeddings(range_z, range_labels, range_conf,
                       voxel_z, voxel_labels, voxel_conf,
                       cap_per_class: int, rng, num_classes: int) -> dict:
    """Pool detached embeddings from both views into per-class sample sets.

    Inputs are numpy arrays (detached); per class at most cap_per_class
    rows survive, uniformly subsampled.  Returns {class id: ClassSamples}.
    """
    z = np.concatenate([np.asarray(range_z, dtype=np.float64),
                        np.asarray(voxel_z, dtype=np.float64)], axis=0)
    labels = np.concatenate([np.asarray(range_labels), np.asarray(voxel_labels)])
    conf = np.concatenate([np.asarray(range_conf, dtype=np.float64),
                           np.asarray(voxel_conf, dtype=np.float64)])
    view = np.concatenate([
        np.full(len(range_labels), VIEW_RANGE, dtype=np.int8),
        np.full(len(voxel_labels), VIEW_VOXEL, dtype=np.int8),
    ])
    out = {}
    for y in range(num_classes):
        idx = np.nonzero(labels == y)[0]
        if idx.size == 0:
            continue
        if idx.size > cap_per_class:
            idx = np.sort(rng.choice(idx, size=cap_per_class, replace=False))
        out[y] = ClassSamples(z=z[idx], conf=conf[idx], view=view[idx])
    return out


# ---------------------------------------------------------------------------
# contrastive loss
# ---------------------------------------------------------------------------

def contrastive_loss(anchors: AnchorSet, bank: GmmBank, prototypes_per_class: int,
                     temperature: float, rng) -> Tensor:
    """Prototype InfoNCE, mean-reduced over (anchor, positive) pairs.

    For each anchor of class y, every prototype sampled for y is a
    positive; the prototypes of every other initialized class are the
    negatives.  Prototypes are drawn from the EMA shadow and enter as
    constants, so gradients reach only the anchor embeddings.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    ready = bank.ready_classes()
    if len(ready) < 2 or anchors.count == 0:
        return Tensor(0.0)
    protos = {y: sample_prototypes(bank, y, prototypes_per_class, rng) for y in ready}
    usable = np.isin(anchors.labels, ready)
    if not usable.any():
        return Tensor(0.0)
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
        pos_logits = ad.mul(ad.matmul(a, pos.T), inv_t)          # (n_y, P)
        neg_logits = ad.mul(ad.matmul(a, neg.T), inv_t)          # (n_y, Nn)
        neg_sum = ad.tsum(ad.exp(neg_logits), axis=1, keepdims=True)
        per_pair = ad.sub(ad.log(ad.add(ad.exp(pos_logits), neg_sum)), pos_logits)
        term = ad.tsum(per_pair)
        total = term if total is None else ad.add(total, term)
        pair_count += rows.size * pos.shape[0]
    if total is None:
        return Tensor(0.0)
    return ad.mul(total, 1.0 / pair_count)


# ---------------------------------------------------------------------------
# checkpoint embedding
# ---------------------------------------------------------------------------

_BANK_FIELDS = ("means", "covs", "priors", "ema_means", "ema_covs", "initialized")


def bank_tensors(bank: GmmBank):
    head = np.array([bank.num_classes, bank.num_components, bank.dim, bank.eps],
                    dtype=np.float64)
    return [("bank/shape", head)] + [(f"bank/{f}", np.asarray(getattr(bank, f), dtype=np.float64))
                                     for f in _BANK_FIELDS]


def bank_from_tensors(tensors: dict) -> GmmBank:
    """Inverse of bank_tensors; a missing or misshapen tensor is a FormatError."""
    names = ["bank/shape"] + [f"bank/{f}" for f in _BANK_FIELDS]
    missing = [name for name in names if name not in tensors]
    if missing:
        raise FormatError(f"missing bank tensors: {', '.join(missing)}")
    head = tensors["bank/shape"]
    if head.shape != (4,) or (head[:3] != np.floor(head[:3])).any() \
            or (head[:3] < 1).any() or head[3] <= 0:
        raise FormatError("bank/shape must hold 3 positive integers and a positive eps")
    y, m, z = (int(v) for v in head[:3])
    shapes = ((y, m, z), (y, m, z, z), (y, m), (y, m, z), (y, m, z, z), (y,))
    arrays = {}
    for f, shape in zip(_BANK_FIELDS, shapes):
        arrays[f] = tensors[f"bank/{f}"]
        if arrays[f].shape != shape:
            raise FormatError(f"tensor 'bank/{f}' has shape {arrays[f].shape}, "
                              f"expected {shape} from bank/shape")
    arrays["initialized"] = arrays["initialized"].astype(bool)
    return GmmBank(num_classes=y, num_components=m, dim=z, eps=float(head[3]), **arrays)
