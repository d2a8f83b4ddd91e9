"""CNN backbone + region/pyramid pooling + complete-graph GCN classifier.

The public surface re-exports the main building blocks; submodules hold the
full APIs (``pndnet.tensor``, ``pndnet.graph``, ``pndnet.train``, ...).
"""

from .backbone import Backbone, BackboneConfig, build_backbone
from .checkpoint import (ModelCheckpoint, checkpoint_from_model, load_checkpoint,
                         model_from_checkpoint, save_checkpoint)
from .data import (AugmentConfig, Dataset, SplitPlan, augment, compute_channel_means,
                   kfold_split, load_dataset, preprocess, split_train_test)
from .errors import PndError
from .gradcam import grad_cam, save_heatmap
from .gradcheck import grad_check, run_checks
from .graph import gcn_forward, gcn_layer_forward, gcn_layer_forward_rank1
from .head import ClassHead, LossValue, cross_entropy, init_head
from .metrics import MetricsReport, compute_metrics, top_k_accuracy
from .model import ForwardResult, ModelConfig, PNDNet, baseline_config
from .synthetic import blob_split_plan, load_blob_corpus, make_blob_corpus, make_blob_image
from .tensor import Rng, Tensor, no_grad, sgd_step
from .train import (EpochStats, TrainConfig, cross_validate, evaluate, evaluate_model,
                    learning_rate, train, train_model)

__all__ = [
    "AugmentConfig", "Backbone", "BackboneConfig", "ClassHead", "Dataset",
    "EpochStats", "ForwardResult", "LossValue", "MetricsReport",
    "ModelCheckpoint", "ModelConfig", "PNDNet", "PndError", "Rng",
    "SplitPlan", "Tensor", "TrainConfig", "augment", "baseline_config",
    "blob_split_plan", "build_backbone", "checkpoint_from_model",
    "compute_channel_means", "compute_metrics", "cross_entropy",
    "cross_validate", "evaluate", "evaluate_model", "gcn_forward",
    "gcn_layer_forward", "gcn_layer_forward_rank1", "grad_cam",
    "grad_check", "init_head", "kfold_split", "learning_rate",
    "load_blob_corpus", "load_checkpoint", "load_dataset",
    "make_blob_corpus", "make_blob_image", "model_from_checkpoint",
    "no_grad", "preprocess", "run_checks", "save_checkpoint",
    "save_heatmap", "sgd_step", "split_train_test", "top_k_accuracy",
    "train", "train_model",
]
__version__ = "0.1.0"
