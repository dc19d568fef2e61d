"""Embedding vector primitives and the columnar embedding dataset.

Embeddings are unit-norm float32 vectors; all other modules consume the
types defined here. Vectors are stored float32 so that file round-trips
are bit-exact; score arithmetic upcasts to float64.
"""

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import VerifakeError

MIN_DIM = 2
# Gate for "approximately unit" inputs; loose enough that finite-difference
# probes (h ~ 1e-5) of a unit vector still pass.
INPUT_NORM_TOL = 1e-3
ZERO_NORM = 1e-12  # a vector with a norm at or below this has no direction


class Method(IntEnum):
    """Manipulation-method tags and their wire codes."""

    NONE = 0
    FACESWAP = 1
    FACE2FACE = 2
    FACESHIFTER = 3
    NEURALTEXTURES = 4
    DEEPFAKES = 5
    FACESWAP_K = 6


METHOD_NAMES = {
    Method.NONE: "none",
    Method.FACESWAP: "FaceSwap",
    Method.FACE2FACE: "Face2Face",
    Method.FACESHIFTER: "FaceShifter",
    Method.NEURALTEXTURES: "NeuralTextures",
    Method.DEEPFAKES: "Deepfakes",
    Method.FACESWAP_K: "FaceSwap-K",
}
METHOD_BY_NAME = {name: code for code, name in METHOD_NAMES.items()}

# Identity swaps replace the face (corrupting identity features);
# expression swaps reanimate expression only (identity kept intact).
IDENTITY_SWAP_METHODS = frozenset(
    {Method.FACESWAP, Method.FACESHIFTER, Method.DEEPFAKES, Method.FACESWAP_K}
)
EXPRESSION_SWAP_METHODS = frozenset({Method.FACE2FACE, Method.NEURALTEXTURES})


def method_group(method: Method) -> str:
    """Return 'identity-swap' or 'expression-swap' for a fake method tag."""
    if method in IDENTITY_SWAP_METHODS:
        return "identity-swap"
    if method in EXPRESSION_SWAP_METHODS:
        return "expression-swap"
    raise VerifakeError(f"method {method!r} is not a manipulation method")


def row_dots(X, Y):
    """Per-row dot products of two vectors or two stacks of rows, each
    through BLAS ddot like `x @ y` on one pair of vectors (an elementwise
    product summed per row rounds differently)."""
    return np.matmul(X[..., None, :], Y[..., :, None])[..., 0, 0]


def l2_normalize(v) -> np.ndarray:
    """Scale the vector `v`, or each row of the matrix `v`, to unit L2
    norm, preserving direction. Each norm is the square root of the row's
    own dot product, as np.linalg.norm takes it on one vector.

    Raises VerifakeError when a norm is at or below ZERO_NORM.
    """
    v = np.asarray(v, dtype=np.float64)
    norms = np.sqrt(row_dots(v, v))
    if np.any(norms <= ZERO_NORM):
        raise VerifakeError(f"cannot normalize vector with norm {norms.min():.3e}")
    return v / norms[..., None]


@dataclass(eq=False)
class EmbeddingDataset:
    """Embedding records stored as columns that mirror the EMB1 record;
    row i of every column is record i.

    vectors: (n, dim) float32; subject, host: (n,) uint32; fake: (n,)
    bool; method: (n,) uint8 wire code (see Method). For real records the
    method is NONE and host equals subject. For fakes, host is the target
    identity whose gallery the record is matched against; identity swaps
    carry the donor identity in subject.
    """

    vectors: np.ndarray
    subject: np.ndarray
    host: np.ndarray
    fake: np.ndarray
    method: np.ndarray

    def __post_init__(self):
        self.vectors = np.ascontiguousarray(self.vectors, dtype=np.float32)
        if self.vectors.ndim != 2 or self.vectors.shape[1] < MIN_DIM:
            raise VerifakeError(
                f"vectors must be an (n, dim >= {MIN_DIM}) matrix, "
                f"got shape {self.vectors.shape}"
            )
        n = self.vectors.shape[0]
        self.subject = np.ascontiguousarray(self.subject, dtype=np.uint32)
        self.host = np.ascontiguousarray(self.host, dtype=np.uint32)
        self.fake = np.ascontiguousarray(self.fake, dtype=bool)
        self.method = np.ascontiguousarray(self.method, dtype=np.uint8)
        for column in (self.subject, self.host, self.fake, self.method):
            if column.shape != (n,):
                raise VerifakeError(
                    f"label column has shape {column.shape}, expected ({n},)"
                )
        faults = label_faults(self.subject, self.host, self.fake, self.method)
        hit = first_fault([mask for mask, _ in faults])
        if hit is not None:
            raise VerifakeError(f"record {hit[0]}: {faults[hit[1]][1]}")

    @classmethod
    def reals(cls, subject, vectors) -> "EmbeddingDataset":
        """Real (genuine) records: host equals subject, method NONE."""
        n = len(subject)
        return cls(vectors, subject, subject, np.zeros(n, bool), np.zeros(n, np.uint8))

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self):
        return self.vectors.shape[0]

    def take(self, index) -> "EmbeddingDataset":
        """The records selected by an index array or boolean mask, in order."""
        return EmbeddingDataset(
            self.vectors[index], self.subject[index], self.host[index],
            self.fake[index], self.method[index],
        )

    def _columns(self):
        return self.vectors, self.subject, self.host, self.fake, self.method

    def __eq__(self, other):
        """Bitwise equality of every column (vectors compared as bits)."""
        if not isinstance(other, EmbeddingDataset):
            return NotImplemented
        return np.array_equal(
            self.vectors.view(np.uint32), other.vectors.view(np.uint32)
        ) and all(
            np.array_equal(a, b) for a, b in zip(self._columns()[1:], other._columns()[1:])
        )


def label_faults(subject, host, fake, method) -> list:
    """The record label rules as (violating-rows mask, message) pairs, in
    check order."""
    real = ~fake
    return [
        (real & (method != Method.NONE), "real records must carry method 'none'"),
        (real & (host != subject), "real records must have host == subject"),
        (fake & (method == Method.NONE), "fake records must carry a manipulation method"),
    ]


def first_fault(masks):
    """(row, check) indices of the earliest row failing any of the boolean
    row masks in `masks`, given in check order; a row failing several
    checks reports the first. None when every row passes."""
    hits = [(int(np.argmax(mask)), k) for k, mask in enumerate(masks) if mask.any()]
    return min(hits) if hits else None


def run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """The position where each run of equal values starts in a sorted 1-D
    array: np.unique's return_index on sorted input, without the import of
    numpy.ma that np.unique makes on its first call."""
    boundary = np.empty(len(sorted_keys), dtype=bool)
    boundary[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=boundary[1:])
    return np.flatnonzero(boundary)


def row_groups(keys: np.ndarray):
    """(key, positions) for each distinct key of a 1-D array, keys
    ascending as Python ints; the positions of a key keep input order."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = run_starts(ordered)
    return zip(ordered[starts].tolist(), np.split(order, starts[1:]))


def _real_rows_by_subject(dataset: EmbeddingDataset) -> dict:
    """Subject id -> float64 matrix of its real vectors, in record order."""
    real = dataset.take(~dataset.fake)
    return {
        sid: real.vectors[pos].astype(np.float64) for sid, pos in row_groups(real.subject)
    }


def subject_centers(dataset: EmbeddingDataset) -> dict:
    """Normalized mean direction of each subject's real records."""
    return {
        sid: l2_normalize(M.sum(axis=0))
        for sid, M in _real_rows_by_subject(dataset).items()
    }


def within_identity_cosine(dataset: EmbeddingDataset) -> float:
    """Mean cosine over all within-subject pairs of real records,
    averaged per subject first so small subjects count equally."""
    per_subject = []
    for M in _real_rows_by_subject(dataset).values():
        if M.shape[0] < 2:
            continue
        C = M @ M.T
        iu = np.triu_indices(M.shape[0], k=1)
        per_subject.append(float(C[iu].mean()))
    if not per_subject:
        raise VerifakeError("no subject has two or more real records")
    return float(np.mean(per_subject))


def between_center_cosine(dataset: EmbeddingDataset) -> float:
    """Mean pairwise cosine between the subjects' center directions."""
    centers = subject_centers(dataset)
    if len(centers) < 2:
        raise VerifakeError("need at least two subjects for center spread")
    M = np.stack([centers[sid] for sid in sorted(centers)])
    C = M @ M.T
    iu = np.triu_indices(M.shape[0], k=1)
    return float(C[iu].mean())
