"""Gallery/probe verification protocol.

Each subject enrolls g real embeddings (seeded sampling without
replacement); every remaining record becomes a probe. A real probe is
scored against its own subject's gallery and labeled genuine; a fake
probe is scored against its HOST (target) subject's gallery and labeled
imposter, carrying its manipulation method tag. One probe yields one
score: the mean (or max) of its g gallery cosines.
"""

from dataclasses import dataclass

import numpy as np

from .embeddings import METHOD_BY_NAME, METHOD_NAMES, EmbeddingDataset, Method, row_groups
from .errors import (
    ConfigError,
    EmptyGallery,
    InsufficientEnrollment,
    SubjectOverlap,
    UnknownSubject,
)

DEFAULT_GALLERY_SIZE = 20
DEFAULT_PROBE_CAP = 1000
AGGREGATIONS = ("mean", "max")


@dataclass
class Gallery:
    """Enrolled real embeddings: subject id -> (g, dim) float64 matrix."""

    size: int
    entries: dict

    def subjects(self) -> set:
        return set(self.entries)

    def templates(self, subject: int) -> np.ndarray:
        if subject not in self.entries:
            raise UnknownSubject(f"subject {subject} is not enrolled")
        return self.entries[subject]


@dataclass(frozen=True)
class ScoreRecord:
    """One probe's match score against its host subject's gallery."""

    score: float
    kind: str
    method: Method
    subject: int

    def __post_init__(self):
        if self.kind not in ("genuine", "imposter"):
            raise ConfigError(f"bad score kind {self.kind!r}")
        if self.kind == "genuine" and self.method != Method.NONE:
            raise ConfigError("genuine records must carry method 'none'")
        if not -1.0 <= self.score <= 1.0:
            raise ConfigError(f"cosine score {self.score} outside [-1, 1]")


def build_gallery(
    dataset: EmbeddingDataset,
    g: int = DEFAULT_GALLERY_SIZE,
    seed: int = 0,
    probe_cap: int = DEFAULT_PROBE_CAP,
):
    """Split a dataset into (Gallery, probes).

    For every subject, g of its real records are enrolled by seeded
    uniform sampling without replacement; everything else (including all
    fakes) becomes a probe. When a host subject has more than probe_cap
    probe records, a seeded subsample keeps exactly probe_cap of them.
    The probes are an EmbeddingDataset in input order.
    """
    if g < 1:
        raise ConfigError("gallery size must be >= 1", field="gallery_size")
    if probe_cap < 1:
        raise ConfigError("probe cap must be >= 1", field="probe_cap")

    real = np.flatnonzero(~dataset.fake)
    by_subject = [(s, real[pos]) for s, pos in row_groups(dataset.subject[real])]
    short = [s for s, rows in by_subject if len(rows) < g]
    if short:
        raise InsufficientEnrollment(short, g)

    rng = np.random.default_rng(seed)
    enrolled = np.zeros(len(dataset), dtype=bool)
    entries = {}
    for subject, rows in by_subject:
        chosen = np.sort(rows[rng.choice(len(rows), size=g, replace=False)])
        enrolled[chosen] = True
        entries[subject] = dataset.vectors[chosen].astype(np.float64)

    probe_rows = np.flatnonzero(~enrolled)
    keep = np.ones(len(probe_rows), dtype=bool)
    for _, pos in row_groups(dataset.host[probe_rows]):
        if len(pos) > probe_cap:
            keep[pos] = False
            keep[pos[rng.choice(len(pos), size=probe_cap, replace=False)]] = True
    return Gallery(g, entries), dataset.take(probe_rows[keep])


def _score(templates: np.ndarray, probes: np.ndarray, aggregation: str) -> np.ndarray:
    # one gemv per probe row, the same BLAS call as `templates @ probe`, so
    # each score is bitwise what scoring that probe alone gives
    cosines = np.matmul(templates[None], probes[:, :, None])[:, :, 0]
    values = cosines.mean(axis=1) if aggregation == "mean" else cosines.max(axis=1)
    return np.clip(values, -1.0, 1.0)


def match_probe(probe, subject_gallery, aggregation: str = "mean") -> float:
    """Aggregate the cosine similarities of one probe against a
    subject's gallery templates."""
    if aggregation not in AGGREGATIONS:
        raise ConfigError(f"aggregation must be one of {AGGREGATIONS}")
    templates = np.asarray(subject_gallery, dtype=np.float64)
    if templates.size == 0:
        raise EmptyGallery("cannot match against an empty gallery")
    if templates.ndim != 2:
        raise EmptyGallery(f"gallery must be a (g, dim) matrix, got {templates.shape}")
    vec = np.asarray(probe, dtype=np.float64)
    return float(_score(templates, vec[None], aggregation)[0])


def run_protocol(gallery: Gallery, probes: EmbeddingDataset, aggregation: str = "mean") -> list:
    """Score every probe against its host subject's gallery.

    Output order equals input order and every probe produces exactly one
    ScoreRecord.
    """
    if aggregation not in AGGREGATIONS:
        raise ConfigError(f"aggregation must be one of {AGGREGATIONS}")
    unknown = ~np.isin(probes.host, list(gallery.entries))
    if unknown.any():
        host = int(probes.host[np.argmax(unknown)])
        raise UnknownSubject(f"probe host subject {host} is not enrolled")
    scores = np.empty(len(probes))
    for host, pos in row_groups(probes.host):
        vectors = probes.vectors[pos].astype(np.float64)
        scores[pos] = _score(gallery.entries[host], vectors, aggregation)
    methods = tuple(Method)  # by wire code; real records carry NONE
    return [
        ScoreRecord(score, "imposter" if fake else "genuine", methods[code], host)
        for score, fake, code, host in zip(
            scores.tolist(), probes.fake.tolist(), probes.method.tolist(), probes.host.tolist()
        )
    ]


def assert_subject_disjoint(training_ids, evaluation_ids) -> None:
    """Raise SubjectOverlap unless the two id sets are disjoint."""
    overlap = set(training_ids) & set(evaluation_ids)
    if overlap:
        raise SubjectOverlap(sorted(overlap))


def scores_to_csv(records) -> str:
    """Serialize ScoreRecords as `score,kind,method,subject` CSV."""
    lines = ["score,kind,method,subject"]
    for r in records:
        lines.append(f"{float(r.score)!r},{r.kind},{METHOD_NAMES[r.method]},{r.subject}")
    return "\n".join(lines) + "\n"


def scores_from_csv(text: str) -> list:
    """Parse the CSV written by scores_to_csv."""
    lines = text.strip().split("\n")
    if not lines or lines[0] != "score,kind,method,subject":
        raise ConfigError("bad score CSV header", line=1)
    records = []
    for ln, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 4:
            raise ConfigError(f"expected 4 fields, got {len(parts)}", line=ln)
        score, kind, method_name, subject = parts
        if method_name not in METHOD_BY_NAME:
            raise ConfigError(f"unknown method {method_name!r}", line=ln)
        try:
            records.append(
                ScoreRecord(
                    float(score), kind, METHOD_BY_NAME[method_name], int(subject)
                )
            )
        except (ValueError, ConfigError) as exc:
            raise ConfigError(str(exc), line=ln) from None
    return records


__all__ = [
    "Gallery",
    "ScoreRecord",
    "build_gallery",
    "match_probe",
    "run_protocol",
    "assert_subject_disjoint",
    "scores_to_csv",
    "scores_from_csv",
    "DEFAULT_GALLERY_SIZE",
    "DEFAULT_PROBE_CAP",
    "AGGREGATIONS",
]
