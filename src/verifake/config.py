"""Line-oriented pipeline configuration.

Format: one `section.key = value` assignment per line; `#` starts a
comment; blank lines are ignored. Sections may be dotted (the key is
the last component), which is how per-method simulator settings are
written:

    run.seed = 42
    run.loss = cosface
    synth.train_identities = 10
    swap.FaceSwap.alpha = 0.8
    swap.FaceSwap.per_subject = 80

All randomness in a run flows from run.seed through a documented
splitting scheme: the child seed for a named stage is the low 64 bits
(final 8 bytes, big-endian) of SHA-256("{seed}:{stage}").
"""

import hashlib
import math
import re
from dataclasses import dataclass, field, replace

from .dataset_io import FORMATS
from .embeddings import METHOD_BY_NAME, METHOD_NAMES, MIN_DIM, Method
from .errors import ConfigError, check_finite
from .losses import LOSS_NAMES, MarginConfig, TripletConfig, margin_preset
from .protocol import (
    AGGREGATIONS,
    DEFAULT_AGGREGATION,
    DEFAULT_GALLERY_SIZE,
    DEFAULT_PROBE_CAP,
)
from .synthetic import SyntheticSpec
from .trainer import DEFAULT_EMBED_DIM, DEFAULT_HIDDEN, TrainConfig
from .tsne import TsneConfig

_LINE = re.compile(r"^([A-Za-z0-9_.]+)\.([A-Za-z0-9_]+)\s*=\s*(.*\S)\s*$")

FORMAT_VERSIONS = {"emb1": 1, "scores_csv": 1, "report_json": 1, "manifest": 1}


def child_seed(seed: int, stage: str) -> int:
    """Deterministic per-stage seed: low 64 bits of SHA-256("{seed}:{stage}")."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[-8:], "big")


def _check_loss_name(name: str) -> None:
    """A ConfigError under `run.loss` unless `name` is a loss name."""
    if name not in LOSS_NAMES:
        raise ConfigError(f"unknown loss {name!r}; expected one of {LOSS_NAMES}", field="run.loss")


def _keyed(section: str, renamed: dict, build, *args, **kwargs):
    """build(*args, **kwargs), re-raising its ConfigError under the config
    key `section.<field>`; `renamed` maps a field to its key where the two
    differ."""
    try:
        return build(*args, **kwargs)
    except ConfigError as exc:
        key = renamed.get(exc.field, exc.field)
        raise ConfigError(exc.reason, field=f"{section}.{key}") from None


@dataclass(frozen=True)
class SwapSettings:
    """Simulator parameters for one manipulation method; a bad value names
    its swap.<Method>.* field."""

    method: Method
    alpha: float = 0.8
    sigma: float = 0.05
    per_subject: int = 40

    def __post_init__(self):
        section = f"swap.{METHOD_NAMES[self.method]}"
        if self.method == Method.NONE:
            raise ConfigError("'none' is not a manipulation method", field=section)
        if self.per_subject < 1:
            raise ConfigError("per_subject must be >= 1", field=f"{section}.per_subject")
        _keyed(section, {}, check_finite, self, "alpha", "sigma")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]", field=f"{section}.alpha")
        if self.sigma < 0:
            raise ConfigError("sigma must be >= 0", field=f"{section}.sigma")


@dataclass
class PipelineConfig:
    """Typed view of a parsed config file (defaults = demo-scale run)."""

    seed: int = 42
    out_dir: str = "out"
    loss_name: str = "cosface"
    file_format: str = "emb1"
    margin: MarginConfig | None = None
    triplet: TripletConfig = field(default_factory=TripletConfig)

    train_identities: int = 60
    eval_identities: int = 10
    samples_per_identity: int = 60
    raw_dim: int = 32
    concentration: float = SyntheticSpec.concentration

    # the defaults below live with the code that uses them
    batch_size: int = TrainConfig.batch_size
    epochs: int = TrainConfig.epochs
    lr: float = TrainConfig.lr
    momentum: float = TrainConfig.momentum
    weight_decay: float = TrainConfig.weight_decay
    lr_marks: tuple | None = TrainConfig.lr_marks
    embed_dim: int = DEFAULT_EMBED_DIM
    hidden_dims: tuple = DEFAULT_HIDDEN

    swaps: list = field(default_factory=list)

    gallery_size: int = DEFAULT_GALLERY_SIZE
    probe_cap: int = DEFAULT_PROBE_CAP
    aggregation: str = DEFAULT_AGGREGATION

    tsne_enabled: bool = True
    tsne_perplexity: float = TsneConfig.perplexity
    tsne_iterations: int = TsneConfig.iterations
    tsne_learning_rate: float = TsneConfig.learning_rate
    tsne_max_points: int = 500

    raw_text: str = ""

    def __post_init__(self):
        _check_loss_name(self.loss_name)
        if self.file_format not in FORMATS:
            raise ConfigError(
                f"format must be one of {FORMATS}, got {self.file_format!r}",
                field="run.format",
            )
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(
                f"aggregation must be one of {AGGREGATIONS}",
                field="protocol.aggregation",
            )
        if not self.swaps:
            self.swaps = [SwapSettings(Method.FACESWAP), SwapSettings(Method.NEURALTEXTURES)]
        # fail before any stage runs
        for part in ("train", "eval"):
            self.synthetic_spec(part)
        if self.loss_name == "triplet" and self.samples_per_identity < 2:
            raise ConfigError(
                "triplet training needs >= 2 samples per identity",
                field="synth.samples_per_identity",
            )
        self.train_config()
        if self.embed_dim < MIN_DIM:
            raise ConfigError(f"embed_dim must be >= {MIN_DIM}", field="train.embed_dim")
        if any(width < 1 for width in self.hidden_dims):
            raise ConfigError("every hidden width must be >= 1", field="train.hidden")
        for key in ("gallery_size", "probe_cap"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1", field=f"protocol.{key}")
        if self.tsne_enabled:
            self.tsne_config()

    def synthetic_spec(self, part: str) -> SyntheticSpec:
        """Generator spec of the 'train' or 'eval' identities; a bad value
        names its synth.* field."""
        return _keyed(
            "synth",
            {"num_identities": f"{part}_identities"},
            SyntheticSpec,
            self.train_identities if part == "train" else self.eval_identities,
            self.samples_per_identity,
            self.raw_dim,
            self.concentration,
            child_seed(self.seed, f"synth:{part}"),
        )

    def train_config(self) -> TrainConfig:
        """The SGD recipe; a bad value names its train.* field."""
        return _keyed(
            "train",
            {},
            TrainConfig,
            batch_size=self.batch_size,
            epochs=self.epochs,
            lr=self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
            lr_marks=self.lr_marks,
            seed=child_seed(self.seed, "train"),
        )

    def tsne_config(self) -> TsneConfig:
        """The t-SNE optimizer settings; a bad value names its tsne.* field."""
        if self.tsne_max_points < 4:
            raise ConfigError(
                "max_points must be >= 4 (t-SNE needs at least 4 points)",
                field="tsne.max_points",
            )
        return _keyed(
            "tsne",
            {},
            TsneConfig,
            perplexity=self.tsne_perplexity,
            iterations=self.tsne_iterations,
            learning_rate=self.tsne_learning_rate,
            seed=child_seed(self.seed, "tsne"),
        )

    def config_hash(self) -> str:
        return hashlib.sha256(self.raw_text.encode("utf-8")).hexdigest()


# key tables: (section, key) -> (attribute, parser)
def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float(raw: str) -> float:
    """A finite float: a range check such as `x <= 0` lets NaN through, and
    infinity through one bound."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _parse_marks(raw: str) -> tuple:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 2:
        raise ValueError("expected two comma-separated iteration marks")
    return (int(parts[0]), int(parts[1]))


def _parse_dims(raw: str) -> tuple:
    return tuple(int(p.strip()) for p in raw.split(",") if p.strip())


_SCHEMA = {
    ("run", "seed"): ("seed", int),
    ("run", "out"): ("out_dir", str),
    ("run", "loss"): ("loss_name", str),
    ("run", "format"): ("file_format", str),
    ("synth", "train_identities"): ("train_identities", int),
    ("synth", "eval_identities"): ("eval_identities", int),
    ("synth", "samples_per_identity"): ("samples_per_identity", int),
    ("synth", "raw_dim"): ("raw_dim", int),
    ("synth", "concentration"): ("concentration", _parse_float),
    ("train", "batch_size"): ("batch_size", int),
    ("train", "epochs"): ("epochs", int),
    ("train", "lr"): ("lr", _parse_float),
    ("train", "momentum"): ("momentum", _parse_float),
    ("train", "weight_decay"): ("weight_decay", _parse_float),
    ("train", "lr_marks"): ("lr_marks", _parse_marks),
    ("train", "embed_dim"): ("embed_dim", int),
    ("train", "hidden"): ("hidden_dims", _parse_dims),
    ("protocol", "gallery_size"): ("gallery_size", int),
    ("protocol", "probe_cap"): ("probe_cap", int),
    ("protocol", "aggregation"): ("aggregation", str),
    ("tsne", "enabled"): ("tsne_enabled", _parse_bool),
    ("tsne", "perplexity"): ("tsne_perplexity", _parse_float),
    ("tsne", "iterations"): ("tsne_iterations", int),
    ("tsne", "learning_rate"): ("tsne_learning_rate", _parse_float),
    ("tsne", "max_points"): ("tsne_max_points", int),
}

_MARGIN_KEYS = {"m1": "m1", "m2": "m2", "m3": "m3", "scale": "s"}
_SWAP_KEYS = {"alpha": _parse_float, "sigma": _parse_float, "per_subject": int}


def parse_config(text: str) -> PipelineConfig:
    """Parse config text into a PipelineConfig.

    Unknown sections/keys, duplicate assignments, and malformed values
    raise ConfigError carrying the offending line number and field.
    """
    values: dict = {}
    margin_overrides: dict = {}
    triplet_margin = None
    swap_raw: dict = {}
    seen: set = set()

    for ln, line in enumerate(text.split("\n"), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _LINE.match(stripped)
        if m is None:
            raise ConfigError(
                f"expected 'section.key = value', got {stripped!r}", line=ln
            )
        section, key, raw = m.group(1), m.group(2), m.group(3)
        full = f"{section}.{key}"
        if full in seen:
            raise ConfigError(f"duplicate assignment of {full}", line=ln, field=full)
        seen.add(full)

        try:
            if section == "loss":
                if key in _MARGIN_KEYS:
                    margin_overrides[_MARGIN_KEYS[key]] = _parse_float(raw)
                elif key == "triplet_margin":
                    triplet_margin = _parse_float(raw)
                else:
                    raise ConfigError(f"unknown key {full}", line=ln, field=full)
            elif section.startswith("swap."):
                method_name = section.split(".", 1)[1]
                if method_name not in METHOD_BY_NAME or method_name == "none":
                    raise ConfigError(
                        f"unknown manipulation method {method_name!r}",
                        line=ln,
                        field=full,
                    )
                if key not in _SWAP_KEYS:
                    raise ConfigError(f"unknown key {full}", line=ln, field=full)
                swap_raw.setdefault(method_name, {})[key] = _SWAP_KEYS[key](raw)
            elif (section, key) in _SCHEMA:
                attr, parser = _SCHEMA[(section, key)]
                values[attr] = parser(raw)
            else:
                raise ConfigError(f"unknown key {full}", line=ln, field=full)
        except ValueError as exc:
            raise ConfigError(f"bad value for {full}: {exc}", line=ln, field=full)

    loss_name = values.get("loss_name", PipelineConfig.loss_name)
    margin = None
    if margin_overrides:
        _check_loss_name(loss_name)
        if loss_name in ("softmax", "triplet"):
            raise ConfigError(
                "loss.m1/m2/m3/scale only apply to margin losses",
                field="loss",
            )
        margin = _keyed(
            "loss", {"s": "scale"}, replace, margin_preset(loss_name), **margin_overrides
        )
    triplet = (
        TripletConfig()
        if triplet_margin is None
        else _keyed("loss", {"margin": "triplet_margin"}, TripletConfig, triplet_margin)
    )

    swaps = [
        SwapSettings(METHOD_BY_NAME[name], **swap_raw[name])
        for name in sorted(swap_raw, key=METHOD_BY_NAME.get)
    ]

    return PipelineConfig(
        margin=margin, triplet=triplet, swaps=swaps, raw_text=text, **values
    )


def load_config(path) -> PipelineConfig:
    """Read and parse a config file; missing file is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config(text)
