"""Readers/writers for the EMB1 binary embedding format and its CSV twin.

EMB1 layout (all little-endian):

    bytes 0..3   magic b"EMB1"
    u32          record count
    u32          dim
    per record:
        u32      subject_id
        u32      host_subject_id
        u8       realness (0 real / 1 fake)
        u8       method code (see embeddings.Method)
        u16      reserved, must be zero
        dim*f32  vector components

The CSV alternative has header `subject,host,realness,method,v0..v{d-1}`,
realness spelled `real`/`fake` and the method by name. Both formats
round-trip datasets bit-exactly (vectors are float32).
"""

import numpy as np

from .embeddings import (
    EmbeddingDataset,
    Method,
    METHOD_BY_NAME,
    METHOD_NAMES,
    MIN_DIM,
    first_fault,
    label_faults,
)
from .errors import FormatError
from .losses import INPUT_NORM_TOL

MAGIC = b"EMB1"
_HEADER_SIZE = 12  # magic, u32 record count, u32 dim
_U32_MAX = 2**32 - 1
_CSV_BLOCK_ROWS = 4096  # CSV rows parsed into one float64 block before the float32 cast


def _record_dtype(dim: int) -> np.dtype:
    return np.dtype([
        ("subject", "<u4"),
        ("host", "<u4"),
        ("realness", "u1"),
        ("method", "u1"),
        ("reserved", "<u2"),
        ("vector", "<f4", (dim,)),
    ])


def _record_faults(vectors, subject, host, fake, method) -> list:
    """Label then vector checks of every record, as (bad rows, message for
    row i) pairs. A vector must be finite with its norm within
    INPUT_NORM_TOL of 1."""
    faults = [
        (mask, lambda i, text=text: text)
        for mask, text in label_faults(subject, host, fake, method)
    ]
    norms = np.sqrt(np.einsum("ij,ij->i", vectors, vectors, dtype=np.float64))

    def vector_message(i):
        if not np.isfinite(norms[i]):
            return "vector has a non-finite component"
        return f"vector norm {float(norms[i])!r} is not within {INPUT_NORM_TOL} of 1"

    faults.append((~(np.abs(norms - 1.0) <= INPUT_NORM_TOL), vector_message))
    return faults


def write_emb1(path, dataset: EmbeddingDataset) -> None:
    """Write `dataset` to `path` in EMB1 format."""
    rows = np.zeros(len(dataset), dtype=_record_dtype(dataset.dim))
    rows["subject"] = dataset.subject
    rows["host"] = dataset.host
    rows["realness"] = dataset.fake
    rows["method"] = dataset.method
    rows["vector"] = dataset.vectors
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array([len(dataset), dataset.dim], dtype="<u4").tobytes())
        fh.write(memoryview(rows).cast("B"))  # the array's own buffer, not a copy


def read_emb1(path) -> EmbeddingDataset:
    """Read an EMB1 file, validating structure byte-for-byte. A bad record
    is reported at the offset of the field at fault (the record's start
    for label and vector faults)."""
    with open(path, "rb") as fh:
        data = fh.read()

    if len(data) < 4 or data[:4] != MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {MAGIC!r}", offset=0)
    if len(data) < _HEADER_SIZE:
        raise FormatError("truncated header", offset=len(data))
    count, dim = (int(x) for x in np.frombuffer(data, dtype="<u4", count=2, offset=4))
    if dim < MIN_DIM:
        raise FormatError(f"dim {dim} below minimum {MIN_DIM}", offset=8)

    try:
        record = _record_dtype(dim)
    except ValueError:  # numpy caps one record at 2**31 - 1 bytes
        raise FormatError(f"dim {dim} too large", offset=8) from None

    rec_size = record.itemsize
    complete = min(count, (len(data) - _HEADER_SIZE) // rec_size)
    rows = np.frombuffer(data, dtype=record, count=complete, offset=_HEADER_SIZE)
    realness, code, reserved = rows["realness"], rows["method"], rows["reserved"]
    columns = (rows["vector"], rows["subject"], rows["host"], realness == 1, code)
    # (bad rows, field offset within the record, message for row i), in
    # the order the fields are checked
    faults = [
        (realness > 1, 8, lambda i: f"invalid realness byte {realness[i]}"),
        (code > max(Method), 9, lambda i: f"unknown method code {code[i]}"),
        (reserved != 0, 10, lambda i: f"reserved field must be zero, got {reserved[i]}"),
    ]
    faults += [
        (mask, 0, lambda i, message=message: f"record {i}: {message(i)}")
        for mask, message in _record_faults(*columns)
    ]
    hit = first_fault([mask for mask, _, _ in faults])
    if hit is not None:
        i, k = hit
        _, field, message = faults[k]
        raise FormatError(message(i), offset=_HEADER_SIZE + i * rec_size + field)
    if complete < count:
        raise FormatError(
            f"truncated payload: record {complete} of {count} incomplete",
            offset=len(data),
        )
    end = _HEADER_SIZE + count * rec_size
    if end != len(data):
        raise FormatError(
            f"{len(data) - end} trailing bytes after last record", offset=end
        )
    return EmbeddingDataset(*columns)


def write_csv(path, dataset: EmbeddingDataset) -> None:
    """Write `dataset` as CSV. Values use full-precision decimal so the
    float32 components round-trip exactly."""
    d = dataset.dim
    header = "subject,host,realness,method," + ",".join(f"v{i}" for i in range(d))
    labels = zip(
        dataset.subject.tolist(),
        dataset.host.tolist(),
        dataset.fake.tolist(),
        dataset.method.tolist(),
    )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(header + "\n")
        # one row's floats at a time: a whole-matrix tolist() would hold
        # every component as a Python float at once
        fh.writelines(
            f"{subject},{host},{'fake' if fake else 'real'},{METHOD_NAMES[method]},"
            f"{','.join(map(repr, row.tolist()))}\n"
            for (subject, host, fake, method), row in zip(labels, dataset.vectors)
        )


def read_csv(path) -> EmbeddingDataset:
    """Read the CSV embedding format; FormatError offsets are line numbers.

    The file is read as a stream: each physical line is split with
    str.splitlines(), which yields exactly the lines of the whole text
    (\\v, \\f and \\x1c-\\x1e end a line too), and parsed rows are kept
    in float32 blocks of _CSV_BLOCK_ROWS."""
    # a byte above 0x7f decodes to a lone surrogate and is reported at its line
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        lines = (line for physical in fh for line in physical.splitlines())
        header = next(lines, None)
        if header is None:
            raise FormatError("empty file", offset=1)
        cols = header.split(",")
        if cols[:4] != ["subject", "host", "realness", "method"]:
            raise FormatError(f"bad header {header!r}", offset=1)
        dim = len(cols) - 4
        if dim < MIN_DIM:
            raise FormatError(f"dim {dim} below minimum {MIN_DIM}", offset=1)
        if cols[4:] != [f"v{i}" for i in range(dim)]:
            raise FormatError("value columns must be v0..v{d-1}", offset=1)

        # full blocks as (float32 vectors, labels); labels are subject,
        # host, fake, method codes
        blocks = []
        vectors = np.empty((_CSV_BLOCK_ROWS, dim))
        labels = np.empty((_CSV_BLOCK_ROWS, 4), dtype=np.int64)
        linenos = []

        def close_block(k):
            with np.errstate(over="ignore"):  # out-of-range values become inf: a fault
                blocks.append((vectors[:k].astype(np.float32), labels[:k].copy()))

        def checked_columns():
            # the rows read so far; the earliest label or vector fault raises
            close_block(len(linenos) % _CSV_BLOCK_ROWS)
            vecs = np.concatenate([v for v, _ in blocks])
            labs = np.concatenate([lab for _, lab in blocks])
            blocks.clear()
            ids = labs[:, :2].astype(np.uint32)
            columns = (vecs, ids[:, 0], ids[:, 1], labs[:, 2] == 1, labs[:, 3].astype(np.uint8))
            faults = _record_faults(*columns)
            hit = first_fault([mask for mask, _ in faults])
            if hit is not None:
                i, j = hit
                raise FormatError(faults[j][1](i), offset=linenos[i])
            return columns

        try:
            for lineno, line in enumerate(lines, start=2):
                if not line:
                    continue
                if not line.isascii():
                    byte = next(b for b in line.encode("ascii", "surrogateescape") if b > 0x7F)
                    raise FormatError(f"non-ASCII byte {byte:#04x}", offset=lineno)
                fields = line.split(",")
                if len(fields) != 4 + dim:
                    raise FormatError(
                        f"expected {4 + dim} fields, got {len(fields)}", offset=lineno
                    )
                try:
                    subject, host = int(fields[0]), int(fields[1])
                except ValueError:
                    raise FormatError("non-integer subject/host id", offset=lineno) from None
                if not (0 <= subject <= _U32_MAX and 0 <= host <= _U32_MAX):
                    raise FormatError("subject/host id outside the u32 range", offset=lineno)
                if fields[2] not in ("real", "fake"):
                    raise FormatError(f"invalid realness {fields[2]!r}", offset=lineno)
                if fields[3] not in METHOD_BY_NAME:
                    raise FormatError(f"unknown method {fields[3]!r}", offset=lineno)
                k = len(linenos) % _CSV_BLOCK_ROWS
                try:
                    vectors[k] = list(map(float, fields[4:]))
                except ValueError:
                    raise FormatError("non-numeric vector component", offset=lineno) from None
                labels[k] = subject, host, fields[2] == "fake", METHOD_BY_NAME[fields[3]]
                linenos.append(lineno)
                if k == _CSV_BLOCK_ROWS - 1:
                    close_block(_CSV_BLOCK_ROWS)
        except FormatError:
            checked_columns()  # a fault on an earlier line is reported first
            raise
    return EmbeddingDataset(*checked_columns())


def write_dataset(path, dataset: EmbeddingDataset, fmt: str = "emb1") -> None:
    """Write `dataset` to `path` in the given format ('emb1' or 'csv')."""
    if fmt == "emb1":
        write_emb1(path, dataset)
    elif fmt == "csv":
        write_csv(path, dataset)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def read_dataset(path, fmt: str | None = None) -> EmbeddingDataset:
    """Read a dataset, sniffing EMB1 vs CSV from the magic when `fmt` is None."""
    if fmt is None:
        with open(path, "rb") as fh:
            fmt = "emb1" if fh.read(4) == MAGIC else "csv"
    if fmt == "emb1":
        return read_emb1(path)
    if fmt == "csv":
        return read_csv(path)
    raise ValueError(f"unknown format {fmt!r}")
