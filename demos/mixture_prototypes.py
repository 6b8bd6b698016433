"""Confidence-weighted mixtures and the prototype contrast they power.

Builds a fake embedding space with two islands per class, fits the
per-class mixture bank by weighted EM, then shows what the bank is for:
virtual prototypes drawn from it pull same-class anchors in and push the
rest away.
"""

import numpy as np

from peerseg.autodiff import Tensor
from peerseg.gmm import (AnchorSet, ClassSamples, contrastive_loss, em_update,
                         ema_update, new_bank, sample_prototypes,
                         weighted_log_likelihood)

rng = np.random.default_rng(3)
dim = 4
centers = {
    0: [np.r_[3.0, 0.0, 0.0, 0.0], np.r_[0.0, 3.0, 0.0, 0.0]],
    1: [np.r_[-3.0, 0.0, 0.0, 0.0], np.r_[0.0, -3.0, 0.0, 0.0]],
    2: [np.r_[0.0, 0.0, 3.0, 0.0], np.r_[0.0, 0.0, -3.0, 0.0]],
}

sets = {}
for y, mus in centers.items():
    z = np.concatenate([mu + 0.6 * rng.normal(size=(120, dim)) for mu in mus])
    conf = rng.uniform(0.5, 1.0, len(z))     # low-confidence rows count less
    sets[y] = ClassSamples(z=z, conf=conf)

# ---- EM: the weighted likelihood climbs, the islands get found ------------

bank = new_bank(num_classes=3, num_components=2, dim=dim)
em_update(bank, sets, num_iters=0, rng=rng)      # seed only
print("weighted log-likelihood of class 0 while EM runs:")
for it in range(6):
    ll = weighted_log_likelihood(bank, 0, sets[0].z, sets[0].conf)
    print(f"  iter {it}: {ll:10.2f}")
    em_update(bank, sets, num_iters=1, rng=rng)
ema_update(bank, alpha=0.0)                      # copy live into the shadow

print("\nfitted class-0 component means (truth at (3,0,..) and (0,3,..)):")
for mu in bank.means[0]:
    print("  ", np.round(mu, 2).tolist())

# ---- prototypes are draws from the fitted mixture -------------------------

draws = sample_prototypes(bank, 0, 2000, rng, normalize=False)
print("\n2000 raw class-0 prototype draws, mean:",
      np.round(draws.mean(axis=0), 2).tolist())
print("mixture mean for comparison:       ",
      np.round(bank.priors[0] @ bank.means[0], 2).tolist())

# ---- the contrast only rewards anchors near their own class ---------------

anchor_z = np.concatenate([sets[y].z[:10] for y in range(3)])
anchor_z = anchor_z / np.linalg.norm(anchor_z, axis=1, keepdims=True)
labels = np.repeat([0, 1, 2], 10)

aligned = AnchorSet(z=Tensor(anchor_z), labels=labels, num_easy=30, num_hard=0)
shuffled = AnchorSet(z=Tensor(anchor_z), labels=rng.permutation(labels),
                     num_easy=30, num_hard=0)
for name, anchors in (("true labels", aligned), ("shuffled labels", shuffled)):
    loss = contrastive_loss(anchors, bank, prototypes_per_class=8,
                            temperature=0.1, rng=np.random.default_rng(0))
    print(f"contrastive loss with {name}: {float(loss.data):.3f}")
