"""Gallery enrollment, probe matching, and score sets."""

import io

import numpy as np
import pytest

from helpers import (
    concat,
    record_keys,
    records_of,
    reference_build_gallery,
    reference_run_protocol,
    score_rows,
)

from verifake import protocol
from verifake.embeddings import EmbeddingDataset, Method, l2_normalize
from verifake.errors import ConfigError, InsufficientEnrollment, SubjectOverlap, VerifakeError
from verifake.metrics import eer, roc_curve
from verifake.protocol import (
    ScoreSet,
    assert_subject_disjoint,
    build_gallery,
    read_scores,
    run_protocol,
    scores_from_csv,
    scores_to_csv,
)
from verifake.synthetic import (
    SyntheticSpec,
    generate_identities,
    identity_swap_rows,
    swap_noise,
)


def unit_rows(rng, n, dim):
    return [l2_normalize(rng.normal(size=dim)) for _ in range(n)]


def toy_dataset(subjects=3, per_subject=6, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(subjects), per_subject)
    return EmbeddingDataset.reals(labels, unit_rows(rng, len(labels), dim))


def fakes_of(subject, host, method, vectors):
    n = len(vectors)
    return EmbeddingDataset(vectors, [subject] * n, [host] * n, [True] * n, [method] * n)


# ---------------------------------------------------------------- gallery


def test_gallery_exhaustion_leaves_no_real_probes():
    ds = toy_dataset(subjects=2, per_subject=5)
    gallery, rows = build_gallery(ds, g=5, seed=0)
    probes = ds.take(rows)
    assert gallery.keys() == {0, 1}
    assert probes.fake.all()
    assert len(probes) == 0


def test_gallery_probe_partition():
    ds = toy_dataset(subjects=3, per_subject=8)
    gallery, rows = build_gallery(ds, g=5, seed=1)
    probes = ds.take(rows)
    for s in range(3):
        assert gallery[s].shape == (5, 4)
    # every record is either enrolled or a probe, never both
    probe_keys = [row.tobytes() for row in probes.vectors]
    enrolled_keys = [
        row.astype(np.float32).tobytes()
        for s in range(3)
        for row in gallery[s]
    ]
    all_keys = [row.tobytes() for row in ds.vectors]
    assert sorted(probe_keys + enrolled_keys) == sorted(all_keys)
    assert not set(probe_keys) & set(enrolled_keys)


def test_gallery_short_subject_rejected():
    ds = toy_dataset(subjects=2, per_subject=4)
    with pytest.raises(InsufficientEnrollment) as info:
        build_gallery(ds, g=5, seed=0)
    assert info.value.subjects == [0, 1]


def test_gallery_reports_only_short_subjects():
    rng = np.random.default_rng(2)
    ds = EmbeddingDataset.reals([0] * 5 + [7] * 2, unit_rows(rng, 7, 4))
    with pytest.raises(InsufficientEnrollment) as info:
        build_gallery(ds, g=3, seed=0)
    assert info.value.subjects == [7]


def test_gallery_deterministic():
    ds = toy_dataset(subjects=3, per_subject=9, seed=3)
    g1, rows1 = build_gallery(ds, g=4, seed=9)
    g2, rows2 = build_gallery(ds, g=4, seed=9)
    for s in g1:
        assert np.array_equal(g1[s], g2[s])
    assert ds.take(rows1) == ds.take(rows2)


def test_probe_cap_is_per_host_and_order_preserving():
    ds = toy_dataset(subjects=2, per_subject=12, seed=4)
    _, rows = build_gallery(ds, g=4, seed=0, probe_cap=5)
    probes = ds.take(rows)
    assert np.bincount(probes.host).tolist() == [5, 5]
    # capped probes appear in the same relative order as the dataset
    order = {row.tobytes(): i for i, row in enumerate(ds.vectors)}
    positions = [order[row.tobytes()] for row in probes.vectors]
    assert positions == sorted(positions)


def test_gallery_size_validated():
    ds = toy_dataset()
    with pytest.raises(ConfigError):
        build_gallery(ds, g=0)
    with pytest.raises(ConfigError):
        build_gallery(ds, g=3, probe_cap=0)


# ---------------------------------------------------------- probe matching


def match_one(probe, templates, aggregation="mean"):
    """run_protocol's score for one probe against a hand-built gallery."""
    gallery = {0: np.array(templates, dtype=np.float64)}
    probes = EmbeddingDataset.reals([0], [probe])
    return float(run_protocol(gallery, [0], probes, aggregation).score[0])


def test_match_probe_identity_orthogonal_antipodal():
    e0 = np.array([1.0, 0.0])
    assert match_one(e0, [e0]) == 1.0
    assert match_one(e0, [[0.0, 1.0]]) == 0.0
    assert match_one(e0, [[-1.0, 0.0]]) == -1.0


def test_match_probe_mean_of_hit_and_orthogonal():
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    assert match_one(e0, [e0, e1], "mean") == pytest.approx(0.5, abs=1e-12)


def test_match_probe_max_of_hit_and_orthogonal():
    e0 = np.array([1.0, 0.0, 0.0])
    e1 = np.array([0.0, 1.0, 0.0])
    assert match_one(e0, [e0, e1], "max") == pytest.approx(1.0, abs=1e-12)


def test_match_probe_degenerate_gallery():
    v = l2_normalize(np.array([1.0, 1.0, 1.0, 1.0]))  # exact in the float32 probe
    for agg in ("mean", "max"):
        assert match_one(v, [v, v, v], agg) == pytest.approx(1.0, abs=1e-12)


def test_match_probe_bad_aggregation():
    v = np.array([1.0, 0.0])
    with pytest.raises(ConfigError):
        match_one(v, [v], "median")


# ----------------------------------------------------------- run_protocol


def test_all_real_probes_are_genuine():
    ds = toy_dataset(subjects=2, per_subject=8)
    gallery, rows = build_gallery(ds, g=5, seed=0)
    scores = run_protocol(gallery, rows, ds)
    assert len(scores) == len(rows)
    assert scores.genuine.all() and (scores.method == Method.NONE).all()


def test_conservation_and_order():
    ds = toy_dataset(subjects=2, per_subject=8, seed=5)
    rng = np.random.default_rng(6)
    ds = concat(ds, fakes_of(1, 0, Method.FACESWAP, unit_rows(rng, 4, 4)))
    gallery, rows = build_gallery(ds, g=5, seed=0)
    probes = ds.take(rows)
    scores = run_protocol(gallery, rows, ds)
    assert len(scores) == len(probes)
    # output order and method multiset follow the probe list exactly
    for fake, method, host, score in zip(probes.fake, probes.method, probes.host, score_rows(scores)):
        assert score.kind == ("imposter" if fake else "genuine")
        expect = method if fake else Method.NONE
        assert score.method == expect
        assert score.subject == host


def test_unknown_host_subject():
    ds = toy_dataset(subjects=2, per_subject=6)
    gallery, _ = build_gallery(ds, g=5, seed=0)
    stray = EmbeddingDataset.reals([0, 99], [[1.0, 0.0, 0.0, 0.0]] * 2)
    with pytest.raises(VerifakeError, match="probe host subject 99 is not enrolled"):
        run_protocol(gallery, [0, 1], stray)


def test_identity_swaps_score_below_genuine():
    # fakes blended toward a donor identity should sit farther from the
    # host gallery than the host's own real probes
    raw = generate_identities(SyntheticSpec(4, 30, 16, concentration=12.0, seed=11))
    ds = EmbeddingDataset.reals(raw.labels, raw.features)
    rng = np.random.default_rng(13)
    donors = np.arange(40) % 4
    hosts = (donors + 1) % 4
    pick = np.arange(40) % 5
    noise = np.stack([swap_noise(rng, 0.05, 16) for _ in range(40)])
    fakes = identity_swap_rows(
        np.stack([raw.features[raw.labels == d][k] for d, k in zip(donors, pick)]),
        np.stack([raw.features[raw.labels == h][k] for h, k in zip(hosts, pick)]),
        0.8,
        noise,
    )
    ds = concat(ds, EmbeddingDataset(fakes, donors, hosts, [True] * 40, [Method.FACESWAP] * 40))
    gallery, rows = build_gallery(ds, g=10, seed=0)
    scored = run_protocol(gallery, rows, ds)
    genuine = scored.score[scored.genuine]
    imposter = scored.score[~scored.genuine]
    assert imposter.size and genuine.size
    assert np.mean(imposter) < np.mean(genuine)


def test_monotone_transform_keeps_roc():
    ds = toy_dataset(subjects=3, per_subject=10, seed=7)
    rng = np.random.default_rng(8)
    ds = concat(ds, fakes_of(2, 0, Method.DEEPFAKES, unit_rows(rng, 8, 4)))
    gallery, rows = build_gallery(ds, g=6, seed=0)
    scored = run_protocol(gallery, rows, ds)
    genuine = scored.score[scored.genuine]
    imposter = scored.score[~scored.genuine]

    base = roc_curve(genuine, imposter)
    bent = roc_curve(genuine ** 3, imposter ** 3)  # strictly increasing on [-1, 1]
    assert np.allclose(base.far, bent.far, atol=0)
    assert np.allclose(base.gar, bent.gar, atol=0)
    assert eer(genuine, imposter) == pytest.approx(
        eer(genuine ** 3, imposter ** 3), abs=1e-12
    )


def uneven_dataset(seed, g):
    """Seeded reals and fakes whose hosts get uneven probe counts: subject
    s has g + 3 + 3s real records, and host 0 receives every fake."""
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.full(g + 3 + 3 * s, s) for s in range(4)])
    rng.shuffle(labels)
    ds = EmbeddingDataset.reals(labels, unit_rows(rng, len(labels), 6))
    return concat(
        ds,
        fakes_of(2, 0, Method.FACESWAP, unit_rows(rng, 7, 6)),
        fakes_of(0, 0, Method.FACE2FACE, unit_rows(rng, 5, 6)),
    )


@pytest.mark.parametrize("aggregation", ["mean", "max"])
@pytest.mark.parametrize("seed, g", [(0, 6), (1, 6), (2, 20)])
def test_protocol_matches_per_record_reference_bitwise(seed, g, aggregation):
    ds = uneven_dataset(seed, g)
    # host 0 has 3 real probes plus 12 fakes: over the cap of 13
    gallery, rows = build_gallery(ds, g=g, seed=seed, probe_cap=13)
    probes = ds.take(rows)
    ref_gallery, ref_probes = reference_build_gallery(records_of(ds), g, seed, 13)
    assert gallery.keys() == ref_gallery.keys()
    for subject, templates in gallery.items():
        assert templates.tobytes() == ref_gallery[subject].tobytes()
    assert record_keys(records_of(probes)) == record_keys(ref_probes)

    counts = np.bincount(probes.host).tolist()
    assert counts == [13, 6, 9, 12]  # host 0 capped, the others uneven
    scores = run_protocol(gallery, rows, ds, aggregation)
    expected = reference_run_protocol(ref_gallery, ref_probes, aggregation)
    assert [(repr(r.score), r.kind, r.method, r.subject) for r in score_rows(scores)] == [
        (repr(r.score), r.kind, r.method, r.subject) for r in expected
    ]


@pytest.mark.parametrize("aggregation", ["mean", "max"])
def test_protocol_scores_any_rows_as_the_reference_scores_them_taken(aggregation):
    # rows in any order, a host's rows split apart: score i is record rows[i]'s
    ds = uneven_dataset(3, 6)
    gallery, rows = build_gallery(ds, g=6, seed=3, probe_cap=13)
    rows = np.random.default_rng(4).permutation(rows)[:-5]
    ref_gallery, _ = reference_build_gallery(records_of(ds), 6, 3, 13)
    scores = run_protocol(gallery, rows, ds, aggregation)
    expected = reference_run_protocol(ref_gallery, records_of(ds.take(rows)), aggregation)
    assert [(repr(r.score), r.kind, r.method, r.subject) for r in score_rows(scores)] == [
        (repr(r.score), r.kind, r.method, r.subject) for r in expected
    ]


# -------------------------------------------------------------- disjoint


def test_disjoint_ok():
    assert_subject_disjoint({1, 2}, {3, 4})


def test_overlap_reported_sorted():
    with pytest.raises(SubjectOverlap) as info:
        assert_subject_disjoint({1, 2}, {2, 3})
    assert info.value.ids == [2]


def test_empty_side_is_disjoint():
    assert_subject_disjoint(set(), {1})


# ------------------------------------------------------------ score CSV


def test_score_record_validation():
    # row 0 is good; row 1 breaks one rule per case, and the error names it
    cases = [
        ((0.5, True, Method.FACESWAP), "genuine scores must carry method 'none'"),
        ((0.5, False, Method.NONE), "imposter scores must carry a manipulation method"),
        ((1.5, True, Method.NONE), "cosine score 1.5 outside"),
        ((float("nan"), True, Method.NONE), "cosine score nan outside"),
        ((0.5, False, 7), "unknown method code 7"),
    ]
    for (score, genuine, method), message in cases:
        with pytest.raises(ConfigError, match=f"row 1: {message}"):
            ScoreSet([0.2, score], [True, genuine], [Method.NONE, method], [1, 1])
    with pytest.raises(ConfigError, match="one length"):
        ScoreSet([0.2, 0.3], [True], [Method.NONE], [1])


def scores_csv_text(scores) -> str:
    buffer = io.StringIO()
    scores_to_csv(scores, buffer)
    return buffer.getvalue()


@pytest.mark.parametrize("block", [1, 3, 7])
def test_scores_csv_bytes_do_not_depend_on_block(monkeypatch, block):
    rng = np.random.default_rng(5)
    fake = rng.random(20) < 0.5
    scores = ScoreSet(
        rng.uniform(-1.0, 1.0, 20),
        ~fake,
        np.where(fake, rng.integers(1, 7, 20), Method.NONE),
        rng.integers(0, 2**32, 20),
    )
    whole = scores_csv_text(scores)  # one block of the default size
    monkeypatch.setattr(protocol, "_SCORE_BLOCK", block)
    assert scores_csv_text(scores) == whole
    assert scores_from_csv(whole) == scores


def test_scores_csv_roundtrip():
    scores = ScoreSet(
        [0.875, -0.25, 0.1234567890123],
        [True, False, False],
        [Method.NONE, Method.FACESWAP, Method.NEURALTEXTURES],
        [0, 1, 2],
    )
    text = scores_csv_text(scores)
    assert text.splitlines() == [
        "score,kind,method,subject",
        "0.875,genuine,none,0",
        "-0.25,imposter,FaceSwap,1",
        "0.1234567890123,imposter,NeuralTextures,2",
    ]
    assert scores_from_csv(text) == scores
    assert scores != ScoreSet(
        [0.875, -0.25, 0.1234567890124], scores.genuine, scores.method, scores.subject
    )


def test_scores_csv_errors_carry_line_numbers():
    good = scores_csv_text(ScoreSet([0.5], [True], [Method.NONE], [0]))
    with pytest.raises(ConfigError, match="line 2"):
        scores_from_csv(good.replace("genuine", "maybe"))
    with pytest.raises(ConfigError, match="line 2"):
        scores_from_csv(good.replace("0.5", "zero.five"))
    with pytest.raises(ConfigError, match="line 2"):
        scores_from_csv(good.replace("none", "wig"))
    with pytest.raises(ConfigError, match="line 1"):
        scores_from_csv("wrong,header,row,here\n")
    with pytest.raises(ConfigError, match="u32.*line 2"):
        scores_from_csv(good.replace(",0\n", ",-1\n"))
    with pytest.raises(ConfigError, match="manipulation method: line 3"):
        scores_from_csv(good + "0.2,imposter,none,1\n")
    # a rule broken on line 3 is found after the loop, a parse error on
    # line 4 inside it; line 3 is still the one reported
    with pytest.raises(ConfigError, match="outside.*line 3"):
        scores_from_csv(good + "1.5,genuine,none,1\n0.1,imposter,FaceSwap\n")
    # lines are counted in the file as given, leading blank lines included
    with pytest.raises(ConfigError, match="line 5"):
        scores_from_csv("\n\n" + good + "0.1,maybe,FaceSwap,1\n")
    with pytest.raises(ConfigError, match="outside.*line 4"):
        scores_from_csv("\n\n" + good.replace("0.5", "1.5"))


@pytest.mark.parametrize("brk", ["\r\n", "\r"])
def test_scores_csv_lines_count_as_splitlines_counts_them(tmp_path, brk):
    # a scores.csv with CRLF or CR line ends reads as its LF twin, and a
    # fault names its line as str.splitlines() counts lines
    scores = ScoreSet([0.875, -0.25, 0.5], [True, False, False], [0, 1, 4], [0, 1, 2])
    text = scores_csv_text(scores)
    path = tmp_path / "scores.csv"
    path.write_bytes(text.replace("\n", brk).encode())
    assert read_scores(path) == scores_from_csv(text) == scores
    bad = 2 * brk + (text + "0.1,maybe,FaceSwap,1\n").replace("\n", brk)
    path.write_bytes(bad.encode())
    with pytest.raises(ConfigError, match="bad score kind.*line 7"):
        read_scores(path)
    path.write_bytes(bad.replace("maybe", "imposter").replace("0.1,", "0.\xff,").encode("latin-1"))
    with pytest.raises(ConfigError, match="undecodable byte 0xff.*line 7"):
        read_scores(path)
    path.write_bytes(brk.join(["", "x", *text.splitlines()]).encode())
    with pytest.raises(ConfigError, match="bad score CSV header: line 2"):
        read_scores(path)
