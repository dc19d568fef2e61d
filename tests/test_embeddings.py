"""Vector primitives, the columnar dataset, and its invariants."""

import numpy as np
import pytest

from helpers import concat

from verifake.embeddings import (
    EXPRESSION_SWAP_METHODS,
    IDENTITY_SWAP_METHODS,
    METHOD_BY_NAME,
    METHOD_NAMES,
    EmbeddingDataset,
    Method,
    between_center_cosine,
    l2_normalize,
    method_group,
    row_groups,
    subject_centers,
    within_identity_cosine,
)
from verifake.errors import VerifakeError


def test_l2_normalize_pythagorean():
    out = l2_normalize([3.0, 4.0])
    assert np.allclose(out, [0.6, 0.8], atol=0, rtol=0)


def test_l2_normalize_identity():
    out = l2_normalize([1.0, 0.0, 0.0])
    assert np.array_equal(out, [1.0, 0.0, 0.0])


def test_l2_normalize_zero_vector():
    with pytest.raises(VerifakeError, match="cannot normalize vector with norm 0.000e"):
        l2_normalize([0.0, 0.0])


def test_l2_normalize_rows_match_one_vector_calls():
    # each row of a matrix is normalized by its own norm, bit for bit as
    # the call on that row alone, and that call equals np.linalg.norm's
    rng = np.random.default_rng(8)
    for dim in (2, 3, 16, 31, 128):
        M = rng.normal(size=(200, dim)) * 10.0 ** rng.integers(-3, 4, size=(200, 1))
        rows = np.stack([l2_normalize(v) for v in M])
        assert l2_normalize(M).tobytes() == rows.tobytes()
        assert rows.tobytes() == np.stack([v / np.linalg.norm(v) for v in M]).tobytes()


def test_l2_normalize_rows_zero_row_raises():
    M = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(VerifakeError, match="cannot normalize vector with norm 0.000e"):
        l2_normalize(M)


def test_l2_normalize_unit_norm_tolerance():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.normal(size=8) * 10.0 ** rng.integers(-3, 4)
        out = l2_normalize(v)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-6


def test_cosine_scale_invariance():
    # the cosine of normalized vectors ignores the input scale
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.normal(size=6)
        w = l2_normalize(rng.normal(size=6))
        a = float(rng.uniform(0.1, 100.0))
        c1 = float(l2_normalize(a * v) @ w)
        c2 = float(l2_normalize(v) @ w)
        assert abs(c1 - c2) <= 1e-9


def one_record(subject, host, fake, method, vector):
    return EmbeddingDataset([vector], [subject], [host], [fake], [method])


def test_real_record_invariants():
    ds = EmbeddingDataset.reals([3], [[1.0, 0.0]])
    assert not ds.fake[0]
    assert ds.method[0] == Method.NONE
    assert ds.host[0] == ds.subject[0] == 3

    with pytest.raises(VerifakeError, match="record 0: real records must carry method"):
        one_record(1, 1, False, Method.FACESWAP, [1.0, 0.0])
    with pytest.raises(VerifakeError, match="host == subject"):
        one_record(1, 2, False, Method.NONE, [1.0, 0.0])
    with pytest.raises(VerifakeError, match="fake records must carry"):
        one_record(1, 2, True, Method.NONE, [1.0, 0.0])


def test_label_fault_names_first_bad_record():
    vectors = np.eye(3)[:, :2]
    with pytest.raises(VerifakeError, match="record 1: real records must have host"):
        EmbeddingDataset(vectors, [0, 1, 2], [0, 5, 6], [False] * 3, [0] * 3)


def test_fake_record_host_association():
    ds = one_record(5, 9, True, Method.FACESWAP, [0.0, 1.0])
    assert ds.fake[0] and ds.subject[0] == 5 and ds.host[0] == 9


def test_vector_stored_float32():
    # the columns mirror the EMB1 record types
    ds = EmbeddingDataset.reals([0, 1], [[0.1, 0.2, 0.3], [0.3, 0.2, 0.1]])
    assert ds.vectors.dtype == np.float32 and ds.vectors.shape == (2, 3)
    assert ds.subject.dtype == ds.host.dtype == np.uint32
    assert ds.fake.dtype == bool and ds.method.dtype == np.uint8


def test_record_equality_is_bitwise():
    a = EmbeddingDataset.reals([0], [[0.1, 0.2]])
    b = EmbeddingDataset.reals([0], [[0.1, 0.2]])
    c = EmbeddingDataset.reals([0], [[0.1, np.nextafter(np.float32(0.2), 1.0)]])
    d = EmbeddingDataset.reals([1], [[0.1, 0.2]])
    assert a == b
    assert a != c
    assert a != d


def test_min_dim_enforced():
    with pytest.raises(VerifakeError, match=r"vectors must be an \(n, dim >= 2\) matrix"):
        EmbeddingDataset.reals([0], [[1.0]])


def test_dataset_dim_consistency():
    with pytest.raises(VerifakeError, match=r"label column has shape \(1,\), expected \(2,\)"):
        EmbeddingDataset([[1.0, 0.0], [0.0, 1.0]], [0, 1], [0], [False] * 2, [0] * 2)


def test_dataset_accessors():
    reals = EmbeddingDataset.reals([0, 1], [[1.0, 0.0], [0.0, 1.0]])
    fakes = one_record(0, 1, True, Method.DEEPFAKES, [1.0, 1.0])
    ds = concat(reals, fakes)
    assert len(ds) == 3 and ds.dim == 2
    assert ds.take(~ds.fake) == reals
    assert ds.take(ds.fake) == fakes
    assert ds.take(np.array([2, 0])).subject.tolist() == [0, 0]
    assert concat(reals.take(slice(0, 0)), reals, fakes) == ds
    with pytest.raises(VerifakeError, match="dims 2 and 3 differ"):
        concat(reals, EmbeddingDataset.reals([0], [[1.0, 0.0, 0.0]]))


def test_row_groups_sorted_keys_stable_positions():
    groups = [(k, pos.tolist()) for k, pos in row_groups(np.array([7, 2, 7, 2, 9]))]
    assert groups == [(2, [1, 3]), (7, [0, 2]), (9, [4])]
    assert all(type(k) is int for k, _ in groups)


def test_method_tables_round_trip():
    for code, name in METHOD_NAMES.items():
        assert METHOD_BY_NAME[name] == code
    assert Method.NONE == 0 and Method.FACESWAP == 1 and Method.FACESWAP_K == 6


def test_method_groups_partition():
    fakes = set(Method) - {Method.NONE}
    assert IDENTITY_SWAP_METHODS | EXPRESSION_SWAP_METHODS == fakes
    assert not IDENTITY_SWAP_METHODS & EXPRESSION_SWAP_METHODS
    assert method_group(Method.FACESWAP) == "identity-swap"
    assert method_group(Method.NEURALTEXTURES) == "expression-swap"
    with pytest.raises(VerifakeError, match="is not a manipulation method"):
        method_group(Method.NONE)


def test_subject_centers_and_spread_stats():
    e0, e1 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    ds = EmbeddingDataset.reals([0, 0, 1, 1], [e0, e0, e1, e1])
    centers = subject_centers(ds)
    assert np.allclose(centers[0], e0) and np.allclose(centers[1], e1)
    assert within_identity_cosine(ds) == pytest.approx(1.0)
    assert between_center_cosine(ds) == pytest.approx(0.0, abs=1e-12)


def test_within_identity_needs_pairs():
    ds = EmbeddingDataset.reals([0], [[1.0, 0.0]])
    with pytest.raises(VerifakeError, match="no subject has two or more real records"):
        within_identity_cosine(ds)


def test_between_center_needs_two_subjects():
    ds = EmbeddingDataset.reals([0, 0], [[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(VerifakeError, match="need at least two subjects"):
        between_center_cosine(ds)
