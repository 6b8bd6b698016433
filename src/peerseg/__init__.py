"""Two-view semi-supervised LiDAR segmentation on synthetic scenes.

The package pairs a range-image view with a cylindrical voxel view of the
same point cloud, lets each view supervise the other through detached
pseudo labels, and sharpens the shared embedding space with prototypes
drawn from per-class Gaussian mixtures.  Everything runs on numpy with a
small built-in reverse-mode tape; there are no framework dependencies.
"""

from .augment import cutmix_range, inclination_bands, lasermix_voxel
from .errors import ConfigError, FormatError, NumericError
from .gmm import (GmmBank, collect_embeddings, contrastive_loss, em_update, ema_update,
                  mine_anchors, new_bank, responsibilities, sample_prototypes,
                  weighted_log_likelihood)
from .losses import make_pseudo_labels, set_supervised_loss
from .metrics import ConfusionMatrix, fuse_predictions
from .model import (AdamW, ModelState, forward_segment, init_model, load_checkpoint,
                    poly_lr, save_checkpoint, sgd_step)
from .projection import (CategoricalGrid, RangeImage, VoxelGrid, cells_to_points,
                         cross_transfer, point_labels_to_grid, project_to_range,
                         project_to_voxel)
from .scans import (UNLABELLED, PointScan, SceneConfig, SensorSpec, generate_dataset,
                    generate_scene, read_scan, split_dataset, write_scan)
from .trainer import TrainConfig, ablate, evaluate, predict_point_probs, train

__version__ = "0.1.0"

__all__ = [
    "AdamW", "CategoricalGrid", "ConfigError", "ConfusionMatrix", "FormatError",
    "GmmBank", "ModelState", "NumericError", "PointScan", "RangeImage", "SceneConfig",
    "SensorSpec", "TrainConfig", "UNLABELLED", "VoxelGrid", "ablate", "cells_to_points",
    "collect_embeddings", "contrastive_loss", "cross_transfer", "cutmix_range",
    "em_update", "ema_update", "evaluate", "forward_segment", "fuse_predictions",
    "generate_dataset", "generate_scene", "inclination_bands", "init_model",
    "lasermix_voxel", "load_checkpoint", "make_pseudo_labels", "mine_anchors",
    "new_bank", "point_labels_to_grid", "poly_lr", "predict_point_probs",
    "project_to_range", "project_to_voxel", "read_scan", "responsibilities",
    "sample_prototypes", "save_checkpoint", "set_supervised_loss", "sgd_step",
    "split_dataset", "train", "write_scan",
]
