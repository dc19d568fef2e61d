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
import re
from dataclasses import dataclass, field

from .embeddings import METHOD_BY_NAME, Method
from .errors import ConfigError
from .losses import LOSS_NAMES, MarginConfig, TripletConfig, margin_preset
from .protocol import AGGREGATIONS
from .synthetic import SyntheticSpec
from .tsne import TsneConfig

_LINE = re.compile(r"^([A-Za-z0-9_.]+)\.([A-Za-z0-9_]+)\s*=\s*(.*\S)\s*$")

FORMAT_VERSIONS = {"emb1": 1, "scores_csv": 1, "report_json": 1, "manifest": 1}


def child_seed(seed: int, stage: str) -> int:
    """Deterministic per-stage seed: low 64 bits of SHA-256("{seed}:{stage}")."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[-8:], "big")


@dataclass(frozen=True)
class SwapSettings:
    """Simulator parameters for one manipulation method."""

    method: Method
    alpha: float = 0.8
    sigma: float = 0.05
    per_subject: int = 40


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
    concentration: float = 8.0

    batch_size: int = 64
    epochs: int = 25
    lr: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 5e-4
    lr_marks: tuple | None = None
    embed_dim: int = 64
    hidden_dims: tuple = (128, 128)

    swaps: list = field(default_factory=list)

    gallery_size: int = 20
    probe_cap: int = 1000
    aggregation: str = "mean"

    tsne_enabled: bool = True
    tsne_perplexity: float = 30.0
    tsne_iterations: int = 1000
    tsne_learning_rate: float = 200.0
    tsne_max_points: int = 500

    raw_text: str = ""

    def __post_init__(self):
        if self.loss_name not in LOSS_NAMES:
            raise ConfigError(
                f"unknown loss {self.loss_name!r}; expected one of {LOSS_NAMES}",
                field="run.loss",
            )
        if self.file_format not in ("emb1", "csv"):
            raise ConfigError(
                f"format must be emb1 or csv, got {self.file_format!r}",
                field="run.format",
            )
        if self.aggregation not in AGGREGATIONS:
            raise ConfigError(
                f"aggregation must be one of {AGGREGATIONS}",
                field="protocol.aggregation",
            )
        if not self.swaps:
            self.swaps = [SwapSettings(Method.FACESWAP), SwapSettings(Method.NEURALTEXTURES)]
        for part in ("train", "eval"):
            self.synthetic_spec(part)  # fail before any stage runs
        if self.tsne_enabled:
            self.tsne_config()  # fail before any stage runs

    def resolved_margin(self) -> MarginConfig | None:
        if self.loss_name in ("softmax", "triplet"):
            return None
        if self.margin is not None:
            return self.margin
        return margin_preset(self.loss_name)

    def synthetic_spec(self, part: str) -> SyntheticSpec:
        """Generator spec of the 'train' or 'eval' identities; a bad value
        names its synth.* field."""
        try:
            return SyntheticSpec(
                self.train_identities if part == "train" else self.eval_identities,
                self.samples_per_identity,
                self.raw_dim,
                self.concentration,
                child_seed(self.seed, f"synth:{part}"),
            )
        except ConfigError as exc:
            key = f"{part}_identities" if exc.field == "num_identities" else exc.field
            raise ConfigError(exc.reason, field=f"synth.{key}") from None

    def tsne_config(self) -> TsneConfig:
        """The t-SNE optimizer settings; a bad value names its tsne.* field."""
        if self.tsne_max_points < 4:
            raise ConfigError(
                "max_points must be >= 4 (t-SNE needs at least 4 points)",
                field="tsne.max_points",
            )
        try:
            return TsneConfig(
                perplexity=self.tsne_perplexity,
                iterations=self.tsne_iterations,
                learning_rate=self.tsne_learning_rate,
                seed=child_seed(self.seed, "tsne"),
            )
        except ConfigError as exc:
            raise ConfigError(exc.reason, field=f"tsne.{exc.field}") from None

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
    ("synth", "concentration"): ("concentration", float),
    ("train", "batch_size"): ("batch_size", int),
    ("train", "epochs"): ("epochs", int),
    ("train", "lr"): ("lr", float),
    ("train", "momentum"): ("momentum", float),
    ("train", "weight_decay"): ("weight_decay", float),
    ("train", "lr_marks"): ("lr_marks", _parse_marks),
    ("train", "embed_dim"): ("embed_dim", int),
    ("train", "hidden"): ("hidden_dims", _parse_dims),
    ("protocol", "gallery_size"): ("gallery_size", int),
    ("protocol", "probe_cap"): ("probe_cap", int),
    ("protocol", "aggregation"): ("aggregation", str),
    ("tsne", "enabled"): ("tsne_enabled", _parse_bool),
    ("tsne", "perplexity"): ("tsne_perplexity", float),
    ("tsne", "iterations"): ("tsne_iterations", int),
    ("tsne", "learning_rate"): ("tsne_learning_rate", float),
    ("tsne", "max_points"): ("tsne_max_points", int),
}

_MARGIN_KEYS = {"m1": "m1", "m2": "m2", "m3": "m3", "scale": "s"}
_SWAP_KEYS = {"alpha": float, "sigma": float, "per_subject": int}


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
                    margin_overrides[_MARGIN_KEYS[key]] = float(raw)
                elif key == "triplet_margin":
                    triplet_margin = float(raw)
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
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value for {full}: {exc}", line=ln, field=full)

    loss_name = values.get("loss_name", "cosface")
    margin = None
    if margin_overrides:
        if loss_name in ("softmax", "triplet"):
            raise ConfigError(
                "loss.m1/m2/m3/scale only apply to margin losses",
                field="loss",
            )
        base = margin_preset(loss_name)
        margin = MarginConfig(
            m1=margin_overrides.get("m1", base.m1),
            m2=margin_overrides.get("m2", base.m2),
            m3=margin_overrides.get("m3", base.m3),
            s=margin_overrides.get("s", base.s),
        )
    triplet = TripletConfig(triplet_margin) if triplet_margin is not None else TripletConfig()

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


__all__ = [
    "PipelineConfig",
    "SwapSettings",
    "parse_config",
    "load_config",
    "child_seed",
    "FORMAT_VERSIONS",
]
