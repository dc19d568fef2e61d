"""verifake: deepfake detection by face verification.

Margin-based embedding losses, a gallery/probe cosine matching
protocol, EER/AUC metrics with per-method reporting, exact t-SNE
diagnostics, and a desk-scale trainer with embedding-space deepfake
simulators, tied together by a config-driven pipeline.
"""

__version__ = "0.1.0"

# the Python API the README documents; everything else is imported from
# its submodule
from .config import PipelineConfig, load_config, parse_config
from .dataset_io import read_dataset, write_dataset
from .embeddings import EmbeddingDataset, Method
from .errors import ConfigError, FormatError, VerifakeError
from .metrics import EvalReport, auc, build_report, eer, roc_curve
from .pipeline import RunResult, evaluate_dataset, run_pipeline
from .protocol import ScoreSet, build_gallery, run_protocol
