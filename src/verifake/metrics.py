"""Verification metrics: ROC construction, AUC, EER, score histograms,
and Table-style per-method reports.

The ROC is built by sweeping thresholds over the distinct score values in
descending order (plus a sentinel above the maximum), with

    GAR(t) = fraction of genuine scores >= t
    FAR(t) = fraction of imposter scores >= t

Trapezoidal integration of that curve equals the pairwise concordance
statistic (ties counted 1/2) exactly, which the tests verify against a
brute-force oracle. EER is read off the ROC polyline by locating the
segment where FAR crosses FRR = 1 - GAR and interpolating linearly.
"""

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .embeddings import METHOD_NAMES, method_group, row_groups, run_starts
from .errors import VerifakeError

HISTOGRAM_BINS = 50


@dataclass
class RocCurve:
    """ROC polyline: per-point threshold, FAR and GAR.

    Points run from (0, 0) at threshold +inf to (1, 1) at the lowest
    score, sorted by FAR non-decreasing.
    """

    thresholds: np.ndarray
    far: np.ndarray
    gar: np.ndarray

    def auc(self) -> float:
        """Trapezoidal area under the curve."""
        far, gar = self.far, self.gar
        # numpy 2's trapezoid expression, written out for numpy < 2.0
        return float((np.diff(far) * (gar[1:] + gar[:-1]) / 2.0).sum())

    def eer(self) -> float:
        """FAR where the polyline crosses FAR = FRR = 1 - GAR, linearly
        interpolated within the bracketing segment."""
        # h = FAR + GAR - 1 runs monotonically from -1 to +1 along the curve
        h = self.far + self.gar - 1.0
        k = int(np.searchsorted(h, 0.0, side="left"))
        if k == 0:
            return float(self.far[0])
        if h[k] == 0.0:
            return float(self.far[k])
        t = (0.0 - h[k - 1]) / (h[k] - h[k - 1])
        return float(self.far[k - 1] + t * (self.far[k] - self.far[k - 1]))


def _as_scores(scores, what):
    arr = np.asarray(scores, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise VerifakeError(f"{what} score list must be non-empty")
    return arr


def roc_curve(genuine, imposter) -> RocCurve:
    """Build the ROC by an exhaustive sweep over distinct score values."""
    gen = _as_scores(genuine, "genuine")
    imp = _as_scores(imposter, "imposter")

    # descending distinct thresholds; at each, counts of scores >= t via
    # searchsorted on the ascending sorted arrays
    scores = np.sort(np.concatenate([gen, imp]))
    thresholds = scores[run_starts(scores)][::-1]
    gen_sorted = np.sort(gen)
    imp_sorted = np.sort(imp)
    gar = (gen.size - np.searchsorted(gen_sorted, thresholds, side="left")) / gen.size
    far = (imp.size - np.searchsorted(imp_sorted, thresholds, side="left")) / imp.size

    thresholds = np.concatenate([[np.inf], thresholds])
    far = np.concatenate([[0.0], far])
    gar = np.concatenate([[0.0], gar])
    return RocCurve(thresholds, far, gar)


def auc(genuine, imposter) -> float:
    """Area under the ROC curve (trapezoidal).

    Equals the probability that a random genuine score exceeds a random
    imposter score, ties counted 1/2.
    """
    return roc_curve(genuine, imposter).auc()


def eer(genuine, imposter) -> float:
    """Equal error rate: FAR at the point of the ROC polyline where
    FAR = FRR = 1 - GAR, linearly interpolated within the bracketing
    segment."""
    return roc_curve(genuine, imposter).eer()


def histogram(scores) -> np.ndarray:
    """Bin counts over HISTOGRAM_BINS uniform bins spanning [-1, 1].

    Bin edges are inclusive on the left; the last bin also includes its
    right edge. Scores outside [-1, 1] raise VerifakeError.
    """
    arr = np.asarray(scores, dtype=np.float64)
    if arr.size and (arr.min() < -1.0 or arr.max() > 1.0):
        raise VerifakeError(
            f"scores must lie in [-1, 1], got range [{arr.min()}, {arr.max()}]"
        )
    counts, _ = np.histogram(arr, bins=HISTOGRAM_BINS, range=(-1.0, 1.0))
    return counts


@dataclass
class ReportRow:
    """One per-method line of the evaluation report."""

    method: str
    group: str
    auc: float
    eer_percent: float
    n_genuine: int
    n_imposter: int


@dataclass
class EvalReport:
    """Per-method AUC/EER table plus score histograms and metadata."""

    rows: list = field(default_factory=list)
    histograms: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "counts": self.counts,
            "histogram_bins": HISTOGRAM_BINS,
            "histograms": {k: [int(c) for c in v] for k, v in self.histograms.items()},
            "metadata": self.metadata,
            "rows": [asdict(row) for row in self.rows],
            "warnings": [],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def format_table(self) -> str:
        """Aligned text table, identity-swap methods first."""
        lines = []
        meta = ", ".join(f"{k}={v}" for k, v in sorted(self.metadata.items()))
        if meta:
            lines.append(meta)
        lines.append(f"{'method':<16} {'group':<16} {'AUC':>7} {'EER':>8}")
        lines.append("-" * 50)
        for group in ("identity-swap", "expression-swap"):
            for row in self.rows:
                if row.group == group:
                    lines.append(
                        f"{row.method:<16} {row.group:<16} "
                        f"{row.auc:>7.3f} {row.eer_percent:>7.2f}%"
                    )
        return "\n".join(lines) + "\n"


def build_report(scores, metadata: dict | None = None, curves: dict | None = None) -> EvalReport:
    """Aggregate a ScoreSet into a per-method AUC/EER report.

    Every method's metrics pit all genuine scores against that method's
    imposter scores and are read off one ROC curve per method; rows are
    ordered by method code. Each curve goes into `curves` under its
    method's name when that dict is given (for roc_to_csv), and is
    dropped once read otherwise.
    """
    genuine = scores.score[scores.genuine]
    if not genuine.size:
        raise VerifakeError("report requires at least one genuine record")
    imposter = scores.score[~scores.genuine]

    report = EvalReport(metadata=dict(metadata or {}))
    report.counts = {
        "genuine": genuine.size,
        "imposter": imposter.size,
        "total": len(scores),
    }
    report.histograms["genuine"] = histogram(genuine)
    for method, pos in row_groups(scores.method[~scores.genuine]):
        name, values = METHOD_NAMES[method], imposter[pos]
        curve = roc_curve(genuine, values)
        if curves is not None:
            curves[name] = curve
        report.histograms[name] = histogram(values)
        report.rows.append(
            ReportRow(
                method=name,
                group=method_group(method),
                auc=round(curve.auc(), 4),
                eer_percent=round(100.0 * curve.eer(), 2),
                n_genuine=genuine.size,
                n_imposter=len(pos),
            )
        )
    return report


def roc_to_csv(curves: dict[str, RocCurve]) -> str:
    """Serialize per-method ROC curves as `method,threshold,far,gar` CSV."""
    lines = ["method,threshold,far,gar"]
    for name in sorted(curves):
        c = curves[name]
        for t, f, g in zip(c.thresholds, c.far, c.gar):
            lines.append(f"{name},{float(t)!r},{float(f)!r},{float(g)!r}")
    return "\n".join(lines) + "\n"


def histograms_to_csv(report: EvalReport) -> str:
    """Serialize report histograms as `series,bin_lo,bin_hi,count` CSV."""
    edges = np.linspace(-1.0, 1.0, HISTOGRAM_BINS + 1)
    lines = ["series,bin_lo,bin_hi,count"]
    for name in sorted(report.histograms):
        counts = report.histograms[name]
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            lines.append(f"{name},{float(lo)!r},{float(hi)!r},{int(c)}")
    return "\n".join(lines) + "\n"
