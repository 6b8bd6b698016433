"""Reference mIoU scorers over (truth, prediction) pairs, one per protocol.

`trainer.evaluate` is the program's one implementation of both protocols;
these plain versions are the reference oracles of acceptance test 10 and
`test_metrics.py`.
"""

import numpy as np

from peerseg import ConfusionMatrix


def miou_global(pairs, num_classes: int) -> float:
    """One confusion matrix accumulated over all (truth, prediction) pairs."""
    cm = ConfusionMatrix(num_classes)
    for truth, prediction in pairs:
        cm.update(truth, prediction)
    return cm.miou()


def miou_batchwise(pairs, num_classes: int) -> float:
    """Mean of per-scan mIoU values (each scan scored on its own matrix);
    a scan with no labelled point has no score and is skipped."""
    scores = []
    for truth, prediction in pairs:
        cm = ConfusionMatrix(num_classes)
        cm.update(truth, prediction)
        if cm.counts.any():
            scores.append(cm.miou())
    return float(np.mean(scores)) if scores else float("nan")
