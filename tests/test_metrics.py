"""ROC/AUC/EER, histograms, and the per-method report."""

import json

import numpy as np
import pytest
from helpers import ScoreRow, score_set

import verifake.metrics as metrics_module
from verifake.embeddings import Method
from verifake.errors import VerifakeError
from verifake.metrics import (
    HISTOGRAM_BINS,
    auc,
    build_report,
    eer,
    histogram,
    histograms_to_csv,
    roc_curve,
    roc_to_csv,
)

THIRD = 1.0 / 3.0


def concordance(genuine, imposter):
    """Brute-force pairwise oracle: P(g > i), ties counted half."""
    total = 0.0
    for g in genuine:
        for i in imposter:
            total += 1.0 if g > i else (0.5 if g == i else 0.0)
    return total / (len(genuine) * len(imposter))


# ------------------------------------------------------------------- roc


def test_roc_endpoints_and_monotonicity():
    rng = np.random.default_rng(0)
    curve = roc_curve(rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 25))
    assert (curve.far[0], curve.gar[0]) == (0.0, 0.0)
    assert (curve.far[-1], curve.gar[-1]) == (1.0, 1.0)
    assert np.all(np.diff(curve.far) >= 0)
    assert np.all(np.diff(curve.gar) >= 0)
    assert curve.far.min() >= 0 and curve.far.max() <= 1
    assert curve.thresholds[0] == np.inf


def test_roc_perfect_separation_contains_corner():
    curve = roc_curve([0.9, 0.8], [0.1, 0.2])
    assert (0.0, 1.0) in zip(curve.far.tolist(), curve.gar.tolist())


def test_roc_indistinguishable_two_points():
    curve = roc_curve([0.5], [0.5])
    assert list(zip(curve.far.tolist(), curve.gar.tolist())) == [(0.0, 0.0), (1.0, 1.0)]


def test_roc_three_vs_three_operating_point():
    curve = roc_curve([0.9, 0.8, 0.3], [0.7, 0.2, 0.1])
    assert (THIRD, 2 * THIRD) in zip(curve.far.tolist(), curve.gar.tolist())


def test_roc_rejects_empty():
    with pytest.raises(VerifakeError, match="genuine score list must be non-empty"):
        roc_curve([], [0.5])
    with pytest.raises(VerifakeError, match="imposter score list must be non-empty"):
        roc_curve([0.5], [])


# ------------------------------------------------------------------- auc


def test_auc_perfect():
    assert auc([0.9, 0.8], [0.1, 0.2]) == 1.0


def test_auc_three_concordant_of_four():
    assert auc([0.6, 0.4], [0.5, 0.3]) == pytest.approx(0.75, abs=1e-12)


def test_auc_swapped_lists_complement():
    assert auc([0.5, 0.3], [0.6, 0.4]) == pytest.approx(0.25, abs=1e-12)


def test_auc_matches_concordance_with_ties():
    rng = np.random.default_rng(17)
    for _ in range(30):
        ng, ni = rng.integers(1, 30, size=2)
        # coarse grid forces duplicate values across and within lists
        g = rng.integers(0, 8, size=ng) / 8.0
        i = rng.integers(0, 8, size=ni) / 8.0
        assert auc(g, i) == pytest.approx(concordance(g, i), abs=1e-9)


def test_auc_complement_identity():
    rng = np.random.default_rng(18)
    g = rng.uniform(-1, 1, 20)
    i = rng.uniform(-1, 1, 30)
    assert auc(g, i) + auc(i, g) == pytest.approx(1.0, abs=1e-9)


def test_auc_invariant_under_increasing_transform():
    rng = np.random.default_rng(19)
    g = rng.uniform(-1, 1, 25)
    i = rng.uniform(-1, 1, 25)
    assert auc(np.tanh(2 * g), np.tanh(2 * i)) == auc(g, i)


def test_auc_does_not_need_numpy_trapezoid(monkeypatch):
    # np.trapezoid only exists from numpy 2.0; the declared floor is 1.24
    rng = np.random.default_rng(20)
    g = rng.uniform(-1, 1, 40)
    i = rng.uniform(-1, 1, 35)
    expected = auc(g, i)
    monkeypatch.delattr(np, "trapezoid", raising=False)
    assert auc(g, i) == expected
    assert auc([0.6, 0.4], [0.5, 0.3]) == pytest.approx(0.75, abs=1e-12)


# ------------------------------------------------------------------- eer


def test_eer_perfect_is_zero():
    assert eer([0.9, 0.8], [0.1, 0.2]) == 0.0


def test_eer_three_vs_three_exact_third():
    assert eer([0.9, 0.8, 0.3], [0.7, 0.2, 0.1]) == THIRD


def test_eer_identical_distributions_is_half():
    scores = np.random.default_rng(123).uniform(-1, 1, 100)
    assert eer(scores, scores) == pytest.approx(0.5, abs=1e-9)


def test_eer_zero_iff_separated():
    rng = np.random.default_rng(20)
    for _ in range(20):
        g = rng.uniform(-1, 1, 15)
        i = rng.uniform(-1, 1, 15)
        separated = g.min() > i.max()
        assert (eer(g, i) == 0.0) == separated


def test_eer_within_far_range():
    rng = np.random.default_rng(21)
    for _ in range(20):
        g = rng.uniform(-1, 1, 12)
        i = rng.uniform(-1, 1, 12)
        assert 0.0 <= eer(g, i) <= 1.0


# ------------------------------------------------------------- histogram


def test_histogram_empty():
    counts = histogram([])
    assert counts.shape == (HISTOGRAM_BINS,)
    assert counts.sum() == 0


def test_histogram_point_mass():
    counts = histogram([0.0])
    assert counts.sum() == 1
    assert (counts > 0).sum() == 1


def test_histogram_conserves_count():
    scores = np.random.default_rng(31).uniform(-1, 1, 100)
    assert histogram(scores).sum() == 100


def test_histogram_includes_both_edges():
    counts = histogram([-1.0, 1.0])
    assert counts.sum() == 2
    assert counts[0] == 1 and counts[-1] == 1


def test_histogram_rejects_out_of_range():
    with pytest.raises(VerifakeError, match=r"scores must lie in \[-1, 1\], got range \[0.2, 1.0001\]"):
        histogram([0.2, 1.0001])
    with pytest.raises(VerifakeError, match=r"scores must lie in \[-1, 1\], got range \[-1.2, -1.2\]"):
        histogram([-1.2])


# ---------------------------------------------------------------- report


def genuine_records(scores):
    return [ScoreRow(s, "genuine", Method.NONE, 0) for s in scores]


def imposter_records(scores, method):
    return [ScoreRow(s, "imposter", method, 0) for s in scores]


def test_single_method_report_has_one_row():
    records = genuine_records([0.9, 0.8, 0.7]) + imposter_records(
        [0.2, 0.1], Method.FACESWAP
    )
    report = build_report(score_set(records))
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row.method == "FaceSwap"
    assert row.group == "identity-swap"
    assert row.auc == 1.0
    assert row.eer_percent == 0.0
    assert (row.n_genuine, row.n_imposter) == (3, 2)


def test_report_counts_sum_to_input():
    records = (
        genuine_records([0.9, 0.8])
        + imposter_records([0.3], Method.FACESWAP)
        + imposter_records([0.4, 0.5], Method.NEURALTEXTURES)
    )
    report = build_report(score_set(records))
    assert report.counts == {"genuine": 2, "imposter": 3, "total": 5}
    assert {r.method for r in report.rows} == {"FaceSwap", "NeuralTextures"}


def test_report_requires_genuine_scores():
    with pytest.raises(VerifakeError, match="report requires at least one genuine record"):
        build_report(score_set(imposter_records([0.3], Method.FACESWAP)))


def test_report_rounding_and_table_format():
    # auc lands on 4/7 = 0.571428..., checking dict (4 dp) vs table (3 dp)
    genuine = genuine_records([0.9, 0.85, 0.8, 0.75, 0.7, 0.65, 0.6])
    imposter = imposter_records([0.72], Method.DEEPFAKES)
    report = build_report(score_set(genuine + imposter))
    assert report.rows[0].auc == round(4 / 7, 4) == 0.5714
    table = report.format_table()
    assert "0.571" in table
    assert "%" in table
    line = [ln for ln in table.splitlines() if "Deepfakes" in ln][0]
    assert line.rstrip().endswith("%")


def test_table_lists_identity_swaps_first():
    records = (
        genuine_records([0.9, 0.8, 0.7])
        + imposter_records([0.1], Method.FACE2FACE)  # expression, code 2
        + imposter_records([0.2], Method.DEEPFAKES)  # identity, code 5
    )
    table = build_report(score_set(records)).format_table()
    assert table.index("Deepfakes") < table.index("Face2Face")


def test_report_rows_sorted_by_method_code():
    records = (
        genuine_records([0.9, 0.8])
        + imposter_records([0.2], Method.DEEPFAKES)
        + imposter_records([0.3], Method.FACESWAP)
    )
    report = build_report(score_set(records))
    assert [r.method for r in report.rows] == ["FaceSwap", "Deepfakes"]


def test_report_json_roundtrip():
    records = genuine_records([0.9, 0.8]) + imposter_records(
        [0.1, 0.2], Method.FACESHIFTER
    )
    report = build_report(score_set(records), metadata={"loss": "cosface", "seed": 7})
    text = report.to_json()
    assert text.endswith("\n")
    assert json.loads(text) == report.to_dict()
    # deterministic serialization
    again = build_report(score_set(records), metadata={"seed": 7, "loss": "cosface"})
    assert again.to_json() == text


def test_report_builds_one_roc_per_method(monkeypatch):
    calls = []

    def counted(genuine, imposter):
        calls.append(len(imposter))
        return roc_curve(genuine, imposter)

    monkeypatch.setattr(metrics_module, "roc_curve", counted)
    genuine = [0.9, 0.8, 0.7, 0.4]
    records = (
        genuine_records(genuine)
        + imposter_records([0.75, 0.1], Method.FACESWAP)
        + imposter_records([0.85, 0.3, 0.2], Method.FACE2FACE)
    )
    curves = {}
    report = build_report(score_set(records), curves=curves)
    assert calls == [2, 3]
    # the rows and the ROC artifact read the same curves as the wrappers
    assert list(curves) == ["FaceSwap", "Face2Face"]
    for row, imposter in zip(report.rows, ([0.75, 0.1], [0.85, 0.3, 0.2])):
        assert row.auc == round(auc(genuine, imposter), 4)
        assert row.eer_percent == round(100.0 * eer(genuine, imposter), 2)
    monkeypatch.undo()
    expected = {"FaceSwap": roc_curve(genuine, [0.75, 0.1]), "Face2Face": roc_curve(genuine, [0.85, 0.3, 0.2])}
    assert roc_to_csv(curves) == roc_to_csv(expected)


def test_report_histograms_cover_each_series():
    records = genuine_records([0.9, 0.8]) + imposter_records(
        [0.1], Method.FACESWAP
    )
    report = build_report(score_set(records))
    assert set(report.histograms) == {"genuine", "FaceSwap"}
    assert report.histograms["genuine"].sum() == 2
    assert report.histograms["FaceSwap"].sum() == 1


# ------------------------------------------------------------------- csv


def test_roc_csv_shape():
    curves = {
        "FaceSwap": roc_curve([0.9, 0.8], [0.1]),
        "Face2Face": roc_curve([0.9], [0.3, 0.2]),
    }
    text = roc_to_csv(curves)
    lines = text.strip().split("\n")
    assert lines[0] == "method,threshold,far,gar"
    expected = sum(len(c.thresholds) for c in curves.values())
    assert len(lines) == 1 + expected
    # sorted by method name
    assert lines[1].startswith("Face2Face,")


def test_histograms_csv_shape():
    records = genuine_records([0.5, 0.6]) + imposter_records([0.1], Method.FACESWAP)
    report = build_report(score_set(records))
    lines = histograms_to_csv(report).strip().split("\n")
    assert lines[0] == "series,bin_lo,bin_hi,count"
    assert len(lines) == 1 + 2 * HISTOGRAM_BINS
    total = sum(int(ln.split(",")[3]) for ln in lines[1:])
    assert total == 3
