"""Human-object interaction detection above pooled region features.

The package detects ⟨human, action, object⟩ triplets: an object branch
classifies and refines boxes, a human-centric branch scores actions and
predicts a density over the target object's relative position, and an
optional interaction branch rescores actions per (human, object) pair.
Training, cascaded inference, and role/agent AP evaluation run on
synthetic scenes with known ground truth or on precomputed features.
"""

from .dataset import (
    ActionRegistry,
    ActionSpec,
    Dataset,
    SynthConfig,
    default_registry,
    generate_synthetic,
    load_annotations,
    save_annotations,
    synthetic_registry,
)
from .density import gaussian_compat, mixture_compat
from .evaluation import APReport, MatchRule, evaluate_triplets
from .features import SyntheticFeatureProvider, roi_align
from .geometry import Box, Detection, RelOffset, decode_rel, encode_rel, iou, nms
from .inference import (
    InferenceConfig,
    ScoredTriplet,
    detect_objects,
    infer,
    read_predictions,
    score_detections,
    write_predictions,
)
from .model import HeadConfig, init_params, load_checkpoint, save_checkpoint
from .trainer import Schedule, TrainingDiverged, train

__version__ = "0.1.0"

__all__ = [
    "ActionRegistry",
    "ActionSpec",
    "APReport",
    "Box",
    "Dataset",
    "Detection",
    "HeadConfig",
    "InferenceConfig",
    "MatchRule",
    "RelOffset",
    "Schedule",
    "ScoredTriplet",
    "SynthConfig",
    "SyntheticFeatureProvider",
    "TrainingDiverged",
    "decode_rel",
    "default_registry",
    "detect_objects",
    "encode_rel",
    "evaluate_triplets",
    "gaussian_compat",
    "generate_synthetic",
    "infer",
    "score_detections",
    "init_params",
    "iou",
    "load_annotations",
    "load_checkpoint",
    "mixture_compat",
    "nms",
    "read_predictions",
    "roi_align",
    "save_annotations",
    "save_checkpoint",
    "synthetic_registry",
    "train",
    "write_predictions",
    "__version__",
]
