"""verifake: deepfake detection by face verification.

Margin-based embedding losses, a gallery/probe cosine matching
protocol, EER/AUC metrics with per-method reporting, exact t-SNE
diagnostics, and a desk-scale trainer with embedding-space deepfake
simulators, tied together by a config-driven pipeline.
"""

__version__ = "0.1.0"

from .embeddings import (
    EXPRESSION_SWAP_METHODS,
    IDENTITY_SWAP_METHODS,
    METHOD_BY_NAME,
    METHOD_NAMES,
    EmbeddingDataset,
    Method,
    between_center_cosine,
    cosine_similarity,
    l2_normalize,
    method_group,
    subject_centers,
    within_identity_cosine,
)
from .errors import (
    CalibrationWarning,
    ConfigError,
    DegenerateVector,
    DimensionMismatch,
    EmptyGallery,
    EmptyScores,
    FormatError,
    InsufficientEnrollment,
    LabelError,
    NormalizationError,
    RangeError,
    SimulationError,
    SubjectOverlap,
    UnknownSubject,
    VerifakeError,
)
from .dataset_io import read_dataset, read_emb1, write_dataset, write_emb1
from .losses import (
    LOSS_NAMES,
    MARGIN_PRESETS,
    ClassHead,
    MarginConfig,
    TripletConfig,
    margin_loss_backward,
    margin_loss_forward,
    margin_preset,
    plain_softmax_loss,
    target_logit,
    triplet_loss,
)
from .metrics import EvalReport, auc, build_report, eer, histogram, roc_curve
from .protocol import (
    Gallery,
    ScoreRecord,
    assert_subject_disjoint,
    build_gallery,
    match_probe,
    run_protocol,
)
from .synthetic import (
    RawDataset,
    SwapSpec,
    SyntheticSpec,
    generate_identities,
    simulate_expression_swap,
    simulate_identity_swap,
)
from .trainer import EmbedderNetwork, TrainConfig, extract_embeddings, train_embedder
from .tsne import (
    AffinityMatrix,
    TsneConfig,
    calibrate_sigma,
    joint_affinities,
    kl_divergence,
    kl_gradient,
    run_tsne,
)
from .config import PipelineConfig, SwapSettings, child_seed, load_config, parse_config
from .pipeline import RunResult, evaluate_dataset, run_pipeline
