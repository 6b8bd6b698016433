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

The contrast runs in one pass: the prototypes of all ready classes are
stacked, every usable anchor meets every prototype in one product, and a
class mask marks each anchor's positive columns.  A pair's term is
log(exp(s_pos) + sum of exp over the anchor's negative columns) - s_pos.
It is one tape node over the anchor embeddings.  Its push runs the replaced
twelve-op chain's steps in their order and assigns the used rows'
((g_e * e - g_pair) / T) @ prototypes once into a zero buffer.

Rows are chosen before anything is embedded: anchors from predictions and
targets, the mixture pool from labels, so the projector runs on those alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, _accum
from .errors import FormatError, NumericError

@dataclass
class ClassSamples:
    """Embeddings pooled for one class: rows of z and their confidences."""

    z: np.ndarray      # (n, Z) f64
    conf: np.ndarray   # (n,) f64 in (0, 1]

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
    comps = rng.choice(bank.num_components, size=count, p=bank.priors[y])
    chols = np.stack([_chol(bank.ema_covs[y, j], f"class {y} component {j}")
                      for j in range(bank.num_components)])
    eps = rng.normal(size=(count, bank.dim))
    out = bank.ema_means[y][comps] + (chols[comps] @ eps[:, :, None])[:, :, 0]
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

    The choice reads only predictions and targets; z gathers the chosen rows of
    ``embeds``, any one per-cell feature tensor, so a caller can mine on trunk
    features and project the anchors after.
    An odd cap gives its spare slot to the easy side; a short side is backfilled to cap.
    """
    predictions = np.asarray(predictions)
    targets = np.asarray(targets)
    if not embeds.data.shape[0] == predictions.shape[0] == targets.shape[0]:
        raise ValueError("embeddings, predictions, and targets must align")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    easy_pool = np.nonzero(predictions == targets)[0]
    hard_pool = np.nonzero(predictions != targets)[0]
    # cap // 2 hard slots, more when the easy pool is short; the easy side takes the rest
    n_hard = min(hard_pool.size, max(cap // 2, cap - easy_pool.size))
    n_easy = min(easy_pool.size, cap - n_hard)
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


def pool_rows(labels, cap_per_class: int, rng, num_classes: int) -> np.ndarray:
    """The mixture pool's rows, ascending: per class in [0, num_classes) at most
    cap_per_class of its rows, uniformly drawn.  Labels alone decide."""
    rows = [np.nonzero(np.asarray(labels) == y)[0] for y in range(num_classes)]
    return np.sort(np.concatenate([rng.choice(r, size=cap_per_class, replace=False)
                                   if r.size > cap_per_class else r for r in rows]))


def collect_embeddings(z, labels, conf) -> dict:
    """Per-class sample sets {class id: ClassSamples} of the pooled rows: their
    detached embeddings z, in pool_rows' order, labels and confidences."""
    return {int(y): ClassSamples(z=z[labels == y], conf=conf[labels == y])
            for y in np.unique(labels)}


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
    protos = np.concatenate([sample_prototypes(bank, y, prototypes_per_class, rng)
                             for y in ready])
    rows = np.nonzero(np.isin(anchors.labels, ready))[0]
    if rows.size == 0:
        return Tensor(0.0)
    pos = (anchors.labels[rows, None] == np.repeat(ready, prototypes_per_class)) * 1.0
    neg = 1.0 - pos
    z, inv_t, scale = anchors.z, 1.0 / temperature, 1.0 / (rows.size * prototypes_per_class)
    logits = (z.data[rows] @ protos.T) * inv_t
    e = np.exp(logits)
    s = e + (e * neg).sum(axis=1, keepdims=True)

    def push(g):
        g_pair = g * scale * pos
        g_s = g_pair / s
        g_e = g_s + g_s.sum(axis=1, keepdims=True) * neg
        buf = np.zeros_like(z.data)
        buf[rows] = ((-g_pair + g_e * e) * inv_t) @ protos + 0.0
        _accum(z, buf)

    return Tensor(((np.log(s) - logits) * pos).sum() * scale, _parents=(z,), _push=push)


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
