"""Desk-scale two-stage traffic-sign recognition mathematics.

Detector-side operators (space-to-depth, text-gated fusion, pooled
cross-attention, IoU-family losses), a cross-modal contrastive
classifier with a rule-enhanced BPE text front end, a semantic
embedding cache, detection metrics, and a text-image dataset pipeline,
all on a small float64 autodiff tensor core.
"""

from .boxes import BBox, inner_wiou_t, iou, iou_t
from .cache import CacheStats, SemanticCache, bench_cache, class_bank, get_or_encode, get_or_encode_many
from .contrastive import (
    DualEncoderModel,
    Temperature,
    TrainConfig,
    classify,
    classify_image,
    contrastive_loss,
    similarity,
    train,
)
from .encoders import (
    EncoderParams,
    TextEncoderConfig,
    ViTConfig,
    patchify,
    project_to_shared,
)
from .errors import ContractError, DegenerateInputError, DimensionError, StaleCacheError
from .metrics import APReport, Detection, GroundTruth, ap50, map_suite, match_detections, precision_recall
from .tensor import AdamState, Tensor, adam_step, l2_normalize, layer_norm, matmul, softmax
from .tokenizer import (
    KnowledgeBase,
    TokenSequence,
    Vocab,
    build_vocab,
    detokenize,
    normalize,
    protect_numbers,
    tokenize,
)
from .vision import conv2d_nostride, info_loss, ipool_attention, spd_inverse, spd_rearrange, tcsp_gate

__version__ = "0.1.0"
