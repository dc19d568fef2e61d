"""Gallery/probe verification protocol.

Each subject enrolls g real embeddings (seeded sampling without
replacement); every remaining record becomes a probe. A real probe is
scored against its own subject's gallery and labeled genuine; a fake
probe is scored against its HOST (target) subject's gallery and labeled
imposter, carrying its manipulation method tag. One probe yields one
score: the mean (or max) of its g gallery cosines.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .embeddings import (
    METHOD_BY_NAME,
    METHOD_NAMES,
    EmbeddingDataset,
    Method,
    first_fault,
    row_groups,
)
from .errors import ConfigError, InsufficientEnrollment, SubjectOverlap, VerifakeError

DEFAULT_GALLERY_SIZE = 20
DEFAULT_PROBE_CAP = 1000
AGGREGATIONS = ("mean", "max")
DEFAULT_AGGREGATION = "mean"


# the fields of a scores.csv row, one ScoreSet column each
_ROW = np.dtype([("score", "f8"), ("genuine", "?"), ("method", "u1"), ("subject", "u4")])


@dataclass(eq=False)
class ScoreSet:
    """Probe scores stored as columns that mirror the `scores.csv` row;
    row i of every column is score i.

    score: (n,) float64 cosine in [-1, 1]; genuine: (n,) bool, False for an
    imposter; method: (n,) uint8 wire code (see Method), NONE exactly on
    the genuine rows; subject: (n,) uint32 host subject.
    """

    score: np.ndarray
    genuine: np.ndarray
    method: np.ndarray
    subject: np.ndarray

    def __post_init__(self):
        for name in _ROW.names:
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=_ROW[name]))
        if self.score.ndim != 1 or any(c.shape != self.score.shape for c in self._columns()):
            raise ConfigError("score columns must be 1-D and of one length")
        fault = _first_score_fault(self.score, self.genuine, self.method)
        if fault is not None:
            raise ConfigError(f"row {fault[0]}: {fault[1]}")

    def __len__(self):
        return len(self.score)

    def _columns(self):
        return tuple(getattr(self, name) for name in _ROW.names)

    def __eq__(self, other):
        """Bitwise equality of every column."""
        if not isinstance(other, ScoreSet):
            return NotImplemented
        return all(a.tobytes() == b.tobytes() for a, b in zip(self._columns(), other._columns()))


def _first_score_fault(score, genuine, method):
    """(row, message) of the earliest row that breaks a score rule, or None."""
    faults = [
        (method > max(Method), lambda i: f"unknown method code {method[i]}"),
        (genuine != (method == Method.NONE), lambda i: (
            "genuine scores must carry method 'none'" if genuine[i]
            else "imposter scores must carry a manipulation method"
        )),
        (~((score >= -1.0) & (score <= 1.0)),  # NaN fails both
         lambda i: f"cosine score {float(score[i])!r} outside [-1, 1]"),
    ]
    hit = first_fault([mask for mask, _ in faults])
    return None if hit is None else (hit[0], faults[hit[1]][1](hit[0]))


def build_gallery(
    dataset: EmbeddingDataset,
    g: int = DEFAULT_GALLERY_SIZE,
    seed: int = 0,
    probe_cap: int = DEFAULT_PROBE_CAP,
):
    """Split a dataset into (gallery, probe rows), the gallery a dict
    mapping each subject id to its (g, dim) float64 templates.

    For every subject, g of its real records are enrolled by seeded
    uniform sampling without replacement; everything else (including all
    fakes) becomes a probe. When a host subject has more than probe_cap
    probe records, a seeded subsample keeps exactly probe_cap of them.
    The probes are given as their ascending int64 row indices into
    `dataset`, so no probe column is copied.
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
    gallery = {}
    for subject, rows in by_subject:
        chosen = np.sort(rows[rng.choice(len(rows), size=g, replace=False)])
        enrolled[chosen] = True
        gallery[subject] = dataset.vectors[chosen].astype(np.float64)

    probe_rows = np.flatnonzero(~enrolled)
    keep = np.ones(len(probe_rows), dtype=bool)
    for _, pos in row_groups(dataset.host[probe_rows]):
        if len(pos) > probe_cap:
            keep[pos] = False
            keep[pos[rng.choice(len(pos), size=probe_cap, replace=False)]] = True
    return gallery, probe_rows[keep]


def run_protocol(
    gallery: dict, rows, dataset: EmbeddingDataset, aggregation: str = DEFAULT_AGGREGATION
) -> ScoreSet:
    """Score the probes, the records `rows` (row indices) of `dataset`,
    against their host subjects' templates in `gallery` (see build_gallery).

    Score i belongs to record rows[i]: real probes are genuine, fakes
    imposters carrying their method, and the subject is the probe's host.
    Each host's probe vectors are gathered from `dataset` in turn.
    """
    if aggregation not in AGGREGATIONS:
        raise ConfigError(f"aggregation must be one of {AGGREGATIONS}")
    rows = np.asarray(rows, dtype=np.int64)
    hosts = dataset.host[rows]
    unknown = ~np.isin(hosts, list(gallery))
    if unknown.any():
        host = int(hosts[np.argmax(unknown)])
        raise VerifakeError(f"probe host subject {host} is not enrolled")
    scores = np.empty(len(rows))
    for host, pos in row_groups(hosts):
        vectors = dataset.vectors[rows[pos]].astype(np.float64)
        # one gemv per probe row, the same BLAS call as `templates @ probe`,
        # so each score is bitwise what scoring that probe alone gives
        cosines = np.matmul(gallery[host][None], vectors[:, :, None])[:, :, 0]
        values = cosines.mean(axis=1) if aggregation == "mean" else cosines.max(axis=1)
        scores[pos] = np.clip(values, -1.0, 1.0)
    return ScoreSet(scores, ~dataset.fake[rows], dataset.method[rows], hosts)


def assert_subject_disjoint(training_ids, evaluation_ids) -> None:
    """Raise SubjectOverlap unless the two id sets are disjoint."""
    overlap = set(training_ids) & set(evaluation_ids)
    if overlap:
        raise SubjectOverlap(sorted(overlap))


_HEADER = "score,kind,method,subject"
_KINDS = {"genuine": True, "imposter": False}


_SCORE_BLOCK = 4096  # rows converted to Python values at a time


def scores_to_csv(scores: ScoreSet, fh) -> None:
    """Write a ScoreSet to the text file `fh` as `score,kind,method,subject`
    CSV, in blocks of _SCORE_BLOCK rows; each score is written as its repr,
    so it reads back bit-exactly."""
    fh.write(_HEADER + "\n")
    for start in range(0, len(scores), _SCORE_BLOCK):
        block = (column[start : start + _SCORE_BLOCK].tolist() for column in scores._columns())
        fh.writelines(
            f"{score!r},{'genuine' if genuine else 'imposter'},{METHOD_NAMES[method]},{subject}\n"
            for score, genuine, method, subject in zip(*block)
        )


def scores_from_csv(text: str) -> ScoreSet:
    """Parse the CSV written by scores_to_csv; a ConfigError names the
    earliest line at fault, counted in `text` as given and as
    str.splitlines() counts lines, as read_csv does."""
    body = text.lstrip()
    # the number of the line that the header starts on
    header_line = len((text[: len(text) - len(body)] + "x").splitlines())
    lines = body.rstrip().splitlines()
    if lines[:1] != [_HEADER]:
        raise ConfigError("bad score CSV header", line=header_line)
    rows = []

    def checked_rows():
        # the rows read so far, row i from the i-th line after the header
        table = np.array(rows, dtype=_ROW)
        fault = _first_score_fault(table["score"], table["genuine"], table["method"])
        if fault is not None:
            raise ConfigError(fault[1], line=header_line + 1 + fault[0])
        return ScoreSet(*(table[name] for name in _ROW.names))

    try:
        for ln, line in enumerate(lines[1:], start=header_line + 1):
            parts = line.split(",")
            if len(parts) != 4:
                raise ConfigError(f"expected 4 fields, got {len(parts)}", line=ln)
            score, kind, method_name, subject = parts
            if kind not in _KINDS:
                raise ConfigError(f"bad score kind {kind!r}", line=ln)
            if method_name not in METHOD_BY_NAME:
                raise ConfigError(f"unknown method {method_name!r}", line=ln)
            try:
                row = (float(score), _KINDS[kind], METHOD_BY_NAME[method_name], int(subject))
            except ValueError as exc:
                raise ConfigError(str(exc), line=ln) from None
            if not 0 <= row[3] < 2**32:
                raise ConfigError("subject id outside the u32 range", line=ln)
            rows.append(row)
    except ConfigError:
        checked_rows()  # a fault on an earlier line is reported first
        raise
    return checked_rows()


def read_scores(path) -> ScoreSet:
    """Read a scores.csv file; a byte that is not UTF-8 fails at its line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())  # the byte's line
        raise ConfigError(f"undecodable byte {data[exc.start]:#04x}", line=line) from None
    return scores_from_csv(text)
