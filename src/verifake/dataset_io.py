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

Large CSV files are split across forked children, which read the parent's
dataset or parse into their copy of its columns and hand their rows back
through temp files. A child never runs BLAS, whose threads die in a fork.
"""

import contextlib
import os
import sys
from functools import partial

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
FORMATS = ("emb1", "csv")  # the names write_dataset takes
_HEADER_SIZE = 12  # magic, u32 record count, u32 dim
_U32_MAX = 2**32 - 1
_EMB1_BLOCK_ROWS = 4096  # EMB1 records packed or read together
_CSV_PIECE_BYTES = 1 << 14  # CSV bytes read at once when no b"\n" comes sooner
# vector components below which the CSV codec runs in this process only
_SPLIT_MIN_VALUES = 1 << 17


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
    """Write `dataset` to `path` in EMB1 format, packing _EMB1_BLOCK_ROWS
    records at a time."""
    n = len(dataset)
    block = np.zeros(min(n, _EMB1_BLOCK_ROWS), dtype=_record_dtype(dataset.dim))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array([n, dataset.dim], dtype="<u4").tobytes())
        for lo in range(0, n, _EMB1_BLOCK_ROWS):
            hi = min(lo + _EMB1_BLOCK_ROWS, n)
            rows = block[: hi - lo]
            rows["subject"] = dataset.subject[lo:hi]
            rows["host"] = dataset.host[lo:hi]
            rows["realness"] = dataset.fake[lo:hi]
            rows["method"] = dataset.method[lo:hi]
            rows["vector"] = dataset.vectors[lo:hi]
            fh.write(memoryview(rows).cast("B"))  # the block's own buffer, not a copy


def _read_records(fh, record, count):
    """Read `count` EMB1 records of dtype `record` from binary file `fh`,
    _EMB1_BLOCK_ROWS at a time, into one column per field, in field order."""
    fields = [np.empty((count, *record[name].shape), record[name].base) for name in record.names]
    block = np.empty(min(count, _EMB1_BLOCK_ROWS), dtype=record)
    for lo in range(0, count, _EMB1_BLOCK_ROWS):
        rows = block[: min(count - lo, _EMB1_BLOCK_ROWS)]
        if fh.readinto(rows) != rows.nbytes:
            raise FormatError("file shrank while it was read", offset=fh.tell())
        for column, name in zip(fields, record.names):
            column[lo : lo + len(rows)] = rows[name]
    return fields


def read_emb1(path) -> EmbeddingDataset:
    """Read an EMB1 file, validating structure byte-for-byte. A bad record
    is reported at the offset of the field at fault (the record's start
    for label and vector faults). The records are read _EMB1_BLOCK_ROWS
    at a time straight into the dataset's columns."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_SIZE)
        if len(head) < 4 or head[:4] != MAGIC:
            raise FormatError(f"bad magic {head[:4]!r}, expected {MAGIC!r}", offset=0)
        if len(head) < _HEADER_SIZE:
            raise FormatError("truncated header", offset=len(head))
        count, dim = (int(x) for x in np.frombuffer(head, dtype="<u4", count=2, offset=4))
        if dim < MIN_DIM:
            raise FormatError(f"dim {dim} below minimum {MIN_DIM}", offset=8)

        try:
            record = _record_dtype(dim)
        except ValueError:  # numpy caps one record at 2**31 - 1 bytes
            raise FormatError(f"dim {dim} too large", offset=8) from None

        rec_size = record.itemsize
        size = os.fstat(fh.fileno()).st_size
        complete = min(count, (size - _HEADER_SIZE) // rec_size)
        subject, host, realness, code, reserved, vectors = _read_records(fh, record, complete)

    columns = (vectors, subject, host, realness == 1, code)
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
            f"truncated payload: record {complete} of {count} incomplete", offset=size
        )
    end = _HEADER_SIZE + count * rec_size
    if end != size:
        raise FormatError(f"{size - end} trailing bytes after last record", offset=end)
    return EmbeddingDataset(*columns)


def _worker_count(values) -> int:
    """The number of processes to split the CSV codec's work on `values`
    vector components across: the usable CPUs from _SPLIT_MIN_VALUES on,
    where os.fork and os.sched_getaffinity exist; else 1."""
    if values >= _SPLIT_MIN_VALUES and hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


@contextlib.contextmanager
def _forked(jobs, own):
    """Run each of `jobs` in a forked child on an anonymous temp file it
    writes its output to, and own() here meanwhile. Yields own()'s result
    and the children's files, rewound and in job order, once every child
    has exited. A child that fails raises OSError."""
    import tempfile

    with contextlib.ExitStack() as stack:
        # made before the forks, so that each child inherits its file
        files = [stack.enter_context(tempfile.TemporaryFile()) for _ in jobs]
        pids = []
        try:
            for job, out in zip(jobs, files):
                pid = os.fork()
                if pid == 0:  # os._exit: never the parent's cleanup or buffers
                    code = 1
                    try:
                        job(out)
                        out.flush()
                        code = 0
                    except Exception:
                        import traceback

                        traceback.print_exc()
                        sys.stderr.flush()
                    finally:
                        os._exit(code)
                pids.append(pid)
            result = own()
        finally:
            codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
        failed = [code for code in codes if code]
        if failed:
            raise OSError(
                f"{len(failed)} of {len(jobs)} worker processes failed (exit codes {failed})"
            )
        for out in files:
            out.seek(0)
        yield result, files


def _read_exactly(fh, buffer) -> None:
    """Fill `buffer` from what a worker wrote to `fh`."""
    if fh.readinto(buffer) != memoryview(buffer).nbytes:
        raise OSError("a worker process wrote a truncated result")


def _write_csv_rows(dataset, lo, hi, fh) -> None:
    """Write rows [lo, hi) of `dataset` to binary file `fh` as CSV lines."""
    labels = zip(
        dataset.subject[lo:hi].tolist(),
        dataset.host[lo:hi].tolist(),
        dataset.fake[lo:hi].tolist(),
        dataset.method[lo:hi].tolist(),
    )
    # one row's floats at a time: a whole-matrix tolist() would hold
    # every component as a Python float at once
    fh.writelines(
        f"{subject},{host},{'fake' if fake else 'real'},{METHOD_NAMES[method]},"
        f"{','.join(map(repr, row.tolist()))}\n".encode("ascii")
        for (subject, host, fake, method), row in zip(labels, dataset.vectors[lo:hi])
    )


def write_csv(path, dataset: EmbeddingDataset) -> None:
    """Write `dataset` as CSV. Values use full-precision decimal so the
    float32 components round-trip exactly.

    From _SPLIT_MIN_VALUES vector components on, the rows are cut into one
    contiguous range per worker: this process writes the first range
    straight into the file, forked children format the others into temp
    files, and those are appended in order. The bytes do not depend on
    the split."""
    import shutil

    n = len(dataset)
    parts = _worker_count(n * dataset.dim)
    bounds = [n * i // parts for i in range(parts + 1)]
    header = "subject,host,realness,method," + ",".join(f"v{i}" for i in range(dataset.dim))
    jobs = [partial(_write_csv_rows, dataset, lo, hi) for lo, hi in zip(bounds[1:], bounds[2:])]
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode("ascii"))
        with _forked(jobs, partial(_write_csv_rows, dataset, 0, bounds[1], fh)) as (_, files):
            for part in files:
                shutil.copyfileobj(part, fh)


def _csv_lines(fh, size):
    """The lines in the next `size` bytes of binary file `fh`, as
    str.splitlines() splits their whole text: \\v, \\f, \\x1c-\\x1e and a lone
    \\r end a line too, and "\\r\\n" is one break. The bytes are read a
    physical line at a time, at most _CSV_PIECE_BYTES (or the carried
    line's length) at once; a line still open at the end of a read is
    carried into the next."""
    carry, limit = "", _CSV_PIECE_BYTES
    while size > 0:
        piece = fh.readline(limit if limit < size else size)
        if not piece:
            break
        size -= len(piece)
        # a byte above 0x7f decodes to a lone surrogate and is reported at its line
        text = piece.decode("ascii", "surrogateescape")
        if carry:
            text, carry, limit = carry + text, "", _CSV_PIECE_BYTES
        if size and piece[-1] != ord("\n"):
            # cut short: the last line may go on, and a last "\r" may be
            # the start of a "\r\n"
            lines = text.splitlines(keepends=True)
            carry = lines.pop()
            text = "".join(lines)
            limit = max(_CSV_PIECE_BYTES, len(carry))
        yield from text.splitlines()
    yield from carry.splitlines()


def _line_end(fh, pos, hi) -> int:
    """The offset just after the first b"\\n" in bytes [pos, hi) of binary
    file `fh`, or hi."""
    fh.seek(pos)
    while pos < hi and (chunk := fh.read(min(hi - pos, _CSV_PIECE_BYTES))):
        found = chunk.find(b"\n")
        if found >= 0:
            return pos + found + 1
        pos += len(chunk)
    return hi


def _csv_columns(fh, dim):
    """Empty dataset columns and line numbers with room for every row of
    binary file `fh`: a row, like the header, holds 3 + dim commas."""
    fh.seek(0)
    commas = 0
    while chunk := fh.read(1 << 16):
        commas += int(np.count_nonzero(np.frombuffer(chunk, dtype=np.uint8) == ord(",")))
    rows = commas // (3 + dim)
    columns = (
        np.empty((rows, dim), dtype=np.float32),
        np.empty(rows, dtype=np.uint32),
        np.empty(rows, dtype=np.uint32),
        np.empty(rows, dtype=bool),
        np.empty(rows, dtype=np.uint8),
    )
    return columns, np.empty(rows, dtype=np.int64)


def _csv_cuts(fh, lo, hi, parts) -> list:
    """Offsets [lo, ..., hi] that cut bytes [lo, hi) of binary file `fh`
    into `parts` ranges of about equal size, each cut just after a b"\\n"."""
    cuts = [lo]
    for i in range(1, parts):
        cuts.append(_line_end(fh, max(lo + (hi - lo) * i // parts - 1, cuts[-1]), hi))
    return cuts + [hi]


def _parse_csv_rows(lines, dim, columns, linenos):
    """Parse CSV data `lines` into rows 0.. of `columns` (vectors, subject,
    host, fake, method), and their line numbers, counted from 1, into
    `linenos`, up to the first syntax fault -> (rows, lines read, the
    message of a fault on the last line read, or None)."""
    vectors, subject, host, fake, method = columns
    row = lineno = 0
    with np.errstate(over="ignore"):  # out-of-range values become inf: a fault
        for lineno, line in enumerate(lines, start=1):
            if not line:
                continue
            if not line.isascii():
                byte = next(b for b in line.encode("ascii", "surrogateescape") if b > 0x7F)
                return row, lineno, f"non-ASCII byte {byte:#04x}"
            fields = line.split(",")
            if len(fields) != 4 + dim:
                return row, lineno, f"expected {4 + dim} fields, got {len(fields)}"
            try:
                subject_id, host_id = int(fields[0]), int(fields[1])
            except ValueError:
                return row, lineno, "non-integer subject/host id"
            if not (0 <= subject_id <= _U32_MAX and 0 <= host_id <= _U32_MAX):
                return row, lineno, "subject/host id outside the u32 range"
            if fields[2] not in ("real", "fake"):
                return row, lineno, f"invalid realness {fields[2]!r}"
            if fields[3] not in METHOD_BY_NAME:
                return row, lineno, f"unknown method {fields[3]!r}"
            try:
                vectors[row] = list(map(float, fields[4:]))
            except ValueError:
                return row, lineno, "non-numeric vector component"
            subject[row] = subject_id
            host[row] = host_id
            fake[row] = fields[2] == "fake"
            method[row] = METHOD_BY_NAME[fields[3]]
            linenos[row] = lineno
            row += 1
    return row, lineno, None


def _parse_csv_part(path, lo, hi, dim, columns, linenos, out) -> None:
    """Child job of read_csv: parse bytes [lo, hi) of `path` into rows 0..
    of `columns` and `linenos`, the child's copy of the parent's, and write
    to `out` the row count, the line count and the fault message's length
    (0 for none) as int64, the message, then those rows as raw bytes."""
    with open(path, "rb") as fh:
        fh.seek(lo)
        rows, lines, fault = _parse_csv_rows(_csv_lines(fh, hi - lo), dim, columns, linenos)
    message = (fault or "").encode("utf-8", "surrogatepass")
    out.write(np.array([rows, lines, len(message)], dtype=np.int64))
    out.write(message)
    for column in (*columns, linenos):
        out.write(column[:rows])


def _read_csv_part(fh, columns, linenos, start):
    """Read what _parse_csv_part wrote into rows `start`.. of `columns` and
    `linenos` -> what _parse_csv_rows returned there."""
    head = np.empty(3, dtype=np.int64)
    _read_exactly(fh, head)
    rows, lines, size = head.tolist()
    message = fh.read(size).decode("utf-8", "surrogatepass")
    for column in (*columns, linenos):
        _read_exactly(fh, column[start : start + rows])
    return rows, lines, message or None


def read_csv(path) -> EmbeddingDataset:
    """Read the CSV embedding format; FormatError names the line.

    The file is read as a stream of lines, counted as str.splitlines()
    counts the lines of the whole text, into columns allocated once. From
    _SPLIT_MIN_VALUES vector components on, the body is cut at b"\\n"
    boundaries into one range per worker: this process parses the first
    range, forked children parse the others, and their rows are read
    straight into the columns. The earliest fault is reported."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = next(_csv_lines(fh, size), None)
        if header is None:
            raise FormatError("empty file", line=1)
        cols = header.split(",")
        if cols[:4] != ["subject", "host", "realness", "method"]:
            raise FormatError(f"bad header {header!r}", line=1)
        dim = len(cols) - 4
        if dim < MIN_DIM:
            raise FormatError(f"dim {dim} below minimum {MIN_DIM}", line=1)
        if cols[4:] != [f"v{i}" for i in range(dim)]:
            raise FormatError("value columns must be v0..v{d-1}", line=1)

        # the body starts after the header's physical line; the rows that
        # follow the header on that line are this process's to parse
        body = _line_end(fh, 0, size)
        columns, linenos = _csv_columns(fh, dim)
        cuts = _csv_cuts(fh, body, size, _worker_count(len(linenos) * dim))

        def own():
            fh.seek(0)
            lines = _csv_lines(fh, cuts[1])
            next(lines)  # the header
            return _parse_csv_rows(lines, dim, columns, linenos)

        ranges = zip(cuts[1:], cuts[2:])
        jobs = [partial(_parse_csv_part, path, lo, hi, dim, columns, linenos) for lo, hi in ranges]
        with _forked(jobs, own) as (result, files):
            n, line = 0, 1  # rows and lines so far, the header first
            for part in [None, *files]:
                if part is not None:
                    result = _read_csv_part(part, columns, linenos, n)
                rows, lines, fault = result
                linenos[n : n + rows] += line
                n += rows
                line += lines
                if fault is not None:  # on the last line read
                    break

    # the rows before the first syntax fault; an earlier label or vector
    # fault is reported first
    columns = tuple(column[:n] for column in columns)
    faults = _record_faults(*columns)
    hit = first_fault([mask for mask, _ in faults])
    if hit is not None:
        i, j = hit
        raise FormatError(faults[j][1](i), line=int(linenos[i]))
    if fault is not None:
        raise FormatError(fault, line=line)
    return EmbeddingDataset(*columns)


def write_dataset(path, dataset: EmbeddingDataset, fmt: str) -> None:
    """Write `dataset` to `path` in the given format ('emb1' or 'csv')."""
    if fmt == "emb1":
        write_emb1(path, dataset)
    elif fmt == "csv":
        write_csv(path, dataset)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def read_dataset(path) -> EmbeddingDataset:
    """Read a dataset, EMB1 if it starts with the magic, else CSV."""
    with open(path, "rb") as fh:
        emb1 = fh.read(4) == MAGIC
    return read_emb1(path) if emb1 else read_csv(path)
