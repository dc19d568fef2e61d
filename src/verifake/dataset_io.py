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

The CSV codec runs in this process on blocks of rows, in numpy, with the
bytes, values, errors and line numbers of a line-at-a-time codec. The
writer computes repr's digits of each value from 1e-4 to 1 exactly (see
_shortest_digits), and the reader parses a value like "0.123" only where
float() is sure to give the same float32 (see _parse_csv_block). Other
values go to repr and float(); the header's physical line, a block that
fails a check and every line from one longer than the read buffer on go to
_parse_csv_rows, the reader of record for odd input and for every error.
"""

import os

import numpy as np

from .embeddings import (
    EmbeddingDataset,
    INPUT_NORM_TOL,
    Method,
    METHOD_BY_NAME,
    METHOD_NAMES,
    MIN_DIM,
    first_fault,
    label_faults,
)
from .errors import FormatError, VerifakeError

MAGIC = b"EMB1"
FORMATS = ("emb1", "csv")  # the names write_dataset takes
_HEADER_SIZE = 12  # magic, u32 record count, u32 dim
_U32_MAX = 2**32 - 1
_EMB1_BLOCK_ROWS = 4096  # EMB1 records packed or read together
_CSV_PIECE_BYTES = 1 << 14  # CSV bytes read at once when no b"\n" comes sooner
# vector components the CSV writer formats at once, and the most vector
# components and bytes the reader parses at once: blocks of whole lines
_CSV_WRITE_VALUES = 1 << 13
_CSV_READ_VALUES = 1 << 11
_CSV_READ_BYTES = 3 << 14
_CSV_PAD = 24  # zero bytes before a read block: the words before a field reach back 24
_CSV_TOKEN = 24  # the most bytes of a written field and its separator

# 10**k for k in [0, 20], and its top 26 significand bits and the rest:
# either part times a float32 is exact in float64
_POW10 = np.array([float(10**k) for k in range(21)])
_POW10_HI = (_POW10.view(np.uint64) & np.uint64(2**64 - 2**27)).view(np.float64)
_POW10_LO = _POW10 - _POW10_HI
_HALF_ULP_POW10 = _POW10 * 2.0**-53  # 2**e times this: half an ulp64 of [2**e, 2**(e+1)), scaled
_F64_EXPONENT = np.uint64(0x7FF0000000000000)
_F64_FRACTION = np.uint64(0x000FFFFFFFFFFFFF)
# each 4-digit number as its ASCII digits in one little-endian u32
_DIGITS4 = sum(
    (np.arange(10_000, dtype="<u4") // 10**place % 10 + ord("0")) << 8 * (3 - place)
    for place in range(4)
)
# a token's first two words for 0 to 3 zeros after the point, and the
# last digits its last word keeps with 0 to 2 of its 17 digits dropped
_TOKEN_LEAD = np.frombuffer(
    b"".join(b"\0" + b"0." + b"0" * z + b"\0" * (5 - z) for z in range(4)), dtype="<u4"
).reshape(4, 2)
_TOKEN_TAIL = np.array([0xFFFFFF, 0xFFFF, 0xFF], dtype=np.uint32)
# for each of the three words before a number's end, the bytes that
# _digits_before keeps of it for a number of 0 to 20 digits, and their
# ASCII zeros
_WORD_KEEP = np.array(
    [
        [(2**64 - 1) << 8 * min(max(back - n, 0), 8) & (2**64 - 1) for n in range(21)]
        for back in (24, 16, 8)
    ],
    dtype=np.uint64,
)
_WORD_ZEROS = _WORD_KEEP & np.uint64(0x3030303030303030)
_SIGNED_POW10 = np.concatenate([_POW10, -_POW10])
# every known "realness,method" pair, sorted, with its labels
_LABELS = sorted(
    (f"{realness},{name}".encode("ascii"), realness == "fake", code)
    for realness in ("real", "fake")
    for code, name in METHOD_NAMES.items()
)
_LABEL_BYTES = 1 + max(len(pair) for pair, _, _ in _LABELS)
_LABEL_PAIRS = np.array([pair for pair, _, _ in _LABELS], dtype=f"S{_LABEL_BYTES}")
_LABEL_FAKE = np.array([fake for _, fake, _ in _LABELS])
_LABEL_METHOD = np.array([code for _, _, code in _LABELS], dtype=np.uint8)


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


def _shortest_digits(v):
    """The digits of repr(v) for float64 `v`, each a widened float32 with
    1e-4 <= v < 1 -> (digits, dropped, zeros, done): where `done`,
    repr(v) is "0.", `zeros` zeros, then the 17-digit int `digits`
    without its last `dropped` digits, which are zeros.

    T = v * 10**(17 + zeros) has 17 digits before the point and is exact
    as an int plus r. Its 17-digit rounding lies in v's float64 rounding
    interval, which is closed, as a widened float32 has an even
    significand, and half as deep below a power of two. Like repr, the
    digits are cut while a multiple of 10 or 100 lies in that interval,
    keeping the nearer candidate, at a tie the one with an even last
    digit. Where a multiple of 1000 does too (about 1 value in 200), v is
    not `done`."""
    zeros = (v < 0.1).astype(np.int8) + (v < 0.01) + (v < 0.001)
    k = zeros + 17
    # T == hi + r exactly: each part of 10**k times v is exact, and
    # TwoSum adds them without loss
    a, b = v * _POW10_HI.take(k), v * _POW10_LO.take(k)
    hi = a + b
    b_part = hi - a
    r = (a - (hi - b_part)) + (b - b_part)
    del a, b, b_part
    base = hi.astype(np.int64)
    del hi
    rounded = np.rint(r)
    base += rounded.astype(np.int64)
    r -= rounded  # T == base + r, |r| <= 1/2
    del rounded
    bits = v.view(np.uint64)
    up = (bits & _F64_EXPONENT).view(np.float64)
    up *= _HALF_ULP_POW10.take(k)
    del k
    low = np.where(bits & _F64_FRACTION, up, 0.5 * up)  # both over 1/2
    digits, dropped = base.copy(), np.zeros(len(v), dtype=np.int8)
    for step in (10, 100):
        # the nearest multiples of step lie q + r below T and u - r above
        quotient = base // step
        even = quotient & 1 == 0
        q = base - quotient * step
        del quotient
        u = step - q
        down = q + r <= low
        rise = u - r <= up
        # both lie inside only for step 10: then the nearer, at a tie the
        # one with an even last digit
        u -= q
        twice = 2 * r
        keep_down = down & ((twice < u) | ((twice == u) & even))
        del u, twice, even
        q -= step * (rise & ~keep_down)
        shorter = down | rise
        np.subtract(base, q, out=digits, where=shorter)
        dropped += shorter
    # a multiple of 100 in the interval is the only one, and where it is a
    # multiple of 1000, repr cuts more digits
    return digits, dropped, zeros, digits - digits // 1000 * 1000 != 0


def _csv_tokens(x) -> np.ndarray:
    """Float32 values `x` as CSV tokens: row i of the (len(x), _CSV_TOKEN)
    uint8 result holds the characters of repr(float(x[i])) in order, with zero
    bytes between them, then a comma. From 1e-4 to 1 in magnitude the
    digits are _shortest_digits'; repr writes the others.

    A token is six little-endian u32 words: [sign, "0", ".", zero],
    [zero, zero, 2 digits], three of 4 digits, [3 digits, comma]."""
    with np.errstate(invalid="ignore"):  # a signaling NaN
        v = np.abs(x).astype(np.float64)
    fast = (v >= 1e-4) & (v < 1.0)
    v[~fast] = np.float32(0.1)  # a stand-in with 17 digits, which repr overwrites
    digits, dropped, zeros, done = _shortest_digits(v)
    fast &= done & (digits >= 10**16) & (digits < 10**17)  # always 17 digits; repr writes any other
    tokens = np.empty((len(x), 6), dtype=np.uint32)
    tokens[:, :2] = _TOKEN_LEAD.take(zeros, axis=0)
    tokens[:, 0] |= (x < 0) * np.uint32(ord("-"))
    top = digits // 10**15
    rest = digits - top * 10**15
    tokens[:, 1] |= _DIGITS4.take(top) & 0xFFFF0000
    for col, scale in enumerate((10**11, 10**7, 10**3), start=2):
        group = rest // scale
        rest -= group * scale
        tokens[:, col] = _DIGITS4.take(group)
    tokens[:, 5] = (_DIGITS4.take(rest * 10) & _TOKEN_TAIL.take(dropped)) | (ord(",") << 24)
    tokens = tokens.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:  # at most 23 characters: a sign, 17 digits, a point and e-45
        text = np.array([repr(value) for value in x[slow].tolist()], dtype="S23")
        tokens[slow, :23] = text.view(np.uint8).reshape(-1, 23)
    return tokens


def _format_csv_rows(dataset, lo, hi) -> np.ndarray:
    """Rows [lo, hi) of `dataset` as the bytes of their CSV lines: each
    line's labels from Python, its values from _csv_tokens, and the zero
    bytes between them dropped at once."""
    labels = zip(
        dataset.subject[lo:hi].tolist(),
        dataset.host[lo:hi].tolist(),
        dataset.fake[lo:hi].tolist(),
        dataset.method[lo:hi].tolist(),
    )
    heads = np.array(
        [
            f"{subject},{host},{'fake' if fake else 'real'},{METHOD_NAMES[method]},"
            for subject, host, fake, method in labels
        ],
        dtype="S",
    )
    tokens = _csv_tokens(dataset.vectors[lo:hi].ravel()).reshape(hi - lo, -1)
    tokens[:, -1] = ord("\n")
    lines = np.concatenate([heads.view(np.uint8).reshape(hi - lo, -1), tokens], axis=1)
    del tokens
    return lines[lines != 0]


def write_csv(path, dataset: EmbeddingDataset) -> None:
    """Write `dataset` as CSV. Each value is repr(float(value)), the
    shortest decimal that reads back as the same float32, written
    _CSV_WRITE_VALUES components at a time (see _csv_tokens)."""
    n = len(dataset)
    rows = max(1, _CSV_WRITE_VALUES // dataset.dim)
    header = "subject,host,realness,method," + ",".join(f"v{i}" for i in range(dataset.dim))
    with open(path, "wb") as fh:
        fh.write(f"{header}\n".encode("ascii"))
        for lo in range(0, n, rows):
            fh.write(_format_csv_rows(dataset, lo, min(lo + rows, n)))


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


def _digits_before(buf, end, count):
    """The numbers that the `count` bytes before each offset `end` of
    buf[_CSV_PAD:] spell in ASCII digits -> (numbers, whether each spells
    one below 10**17). A count must be 0 to 20.

    Each of the three little-endian words before `end` keeps its digits,
    as values; its bytes before them become 0. A byte that is not a
    digit, or the borrow of one, sets a top bit of its word's flags. The
    first word must hold one digit at most; the other two become numbers
    by three multiplies each (Lemire's SWAR parse)."""
    total = np.empty(end.shape, dtype=np.uint64)
    scratch = np.empty_like(total)
    ok = None
    for skip, keep, zeros in zip((0, 8, 16), _WORD_KEEP, _WORD_ZEROS):
        # element i: the word at byte i + skip of buf, 24 - skip bytes
        # before byte i of buf[_CSV_PAD:]
        words = np.ndarray((len(buf) - 31,), dtype="<u8", buffer=buf, offset=skip, strides=(1,))
        word = words[end]
        word &= keep.take(count, out=scratch, mode="clip")
        word -= zeros.take(count, out=scratch, mode="clip")
        if ok is None:
            ok = (word & 0x00FFFFFFFFFFFFFF == 0) & (word < 10 << 56)
            np.right_shift(word, 56, out=total)
            del word
            continue
        np.add(word, 0x7676767676767676, out=scratch)
        scratch |= word
        scratch &= 0x8080808080808080
        ok &= scratch == 0
        word *= 2561  # 10 << 8 | 1: pairs
        word >>= 8
        word &= 0x00FF00FF00FF00FF
        word *= 6553601  # 100 << 16 | 1: fours
        word >>= 16
        word &= 0x0000FFFF0000FFFF
        word *= 42949672960001  # 10000 << 32 | 1: eight
        word >>= 32
        total *= 10**8
        total += word
        del word
    return total, ok


def _parse_csv_block(buf, size, dim, columns, linenos, line):
    """Parse the lines of the block buf[_CSV_PAD : _CSV_PAD + size], each
    ending in b"\\n", into rows 0.. of `columns` and `linenos`, numbering
    them on from `line` -> the row count, or None, having stored nothing,
    when a check fails:

    - every byte is a b"\\n", a comma, or ASCII from "-" to "~";
    - each line holds 3 + dim commas, ids of 1 to 10 plain digits that fit
      u32, and a known realness and method;
    - float() reads each value as _parse_csv_rows does: a ValueError
      fails the block.

    A value "0." or "-0." then D, m digits with m <= 20 and D < 10**17,
    is c = float32(y) for y = D / 10**m in float64, if
    |y - c| < 1/8 ulp32(c). y is within 2**-52 of D / 10**m and so is
    float(token), relatively, so float(token) lies strictly within a
    quarter ulp32 of c, inside c's float32 rounding interval: c is what
    _parse_csv_rows stores. Any other value goes through float().

    Offsets count from the block's start; 8 bytes of `buf` follow it."""
    block = buf[_CSV_PAD : _CSV_PAD + size]
    if block.max() > 0x7E:
        return None
    seps = np.flatnonzero(block < ord("-"))  # each must be a comma or a b"\n"
    if seps.size % (4 + dim):
        return None
    rows = seps.size // (4 + dim)
    grid = seps.reshape(rows, -1)
    kinds = block.take(grid)
    kinds[:, -1] ^= ord(",") ^ ord("\n")  # a b"\n" ends each line, commas all else
    if (kinds != ord(",")).any():
        return None  # a line of another comma count, or an empty one
    starts = np.empty_like(grid)
    starts[0, 0] = 0
    starts.flat[1:] = seps[:-1] + 1
    span = starts[:, 2, None] + np.arange(_LABEL_BYTES)
    pairs = block.take(span, mode="clip")
    pairs[span >= grid[:, 3, None]] = 0
    pairs = pairs.view(f"S{_LABEL_BYTES}").ravel()
    at = np.searchsorted(_LABEL_PAIRS, pairs).clip(max=len(_LABEL_PAIRS) - 1)
    if not (_LABEL_PAIRS[at] == pairs).all():
        return None
    del span, pairs

    # each field as a run of digits before its end, where the ids and,
    # after "0." or "-0.", the values are
    point = starts[:, 4:]
    minus = block.take(point, mode="clip") == ord("-")
    point += minus
    fast = block.take(point, mode="clip") == ord("0")
    point += 1
    fast &= block.take(point, mode="clip") == ord(".")
    point += 1
    count = np.subtract(grid, starts, out=starts)
    del starts
    fast &= (count[:, 4:] >= 1) & (count[:, 4:] <= 20)
    ids_ok = (count[:, :2] >= 1) & (count[:, :2] <= 10)
    np.minimum(np.maximum(count, 0, out=count), 20, out=count)
    number, ok = _digits_before(buf, grid, count)
    ids = number[:, :2].copy()
    if not (ids_ok & ok[:, :2] & (ids <= _U32_MAX)).all():
        return None
    fast &= ok[:, 4:]
    del ok, ids_ok
    end, number, count = grid[:, 4:], number[:, 4:], count[:, 4:]
    count += minus * len(_POW10)
    y = number.astype(np.float64)
    del number
    y /= _SIGNED_POW10.take(count)
    del count
    value = y.astype(np.float32)
    y -= value
    binade = np.maximum(value.view(np.uint32) & 0x7F800000, 0x00800000).view(np.float32)
    np.abs(y, out=y)
    y *= 2.0**26
    fast &= y < binade  # |y - c| < 2**-3 * 2**-23 * 2**e
    slow = np.flatnonzero(~fast)
    if slow.size:
        start = grid[:, 3:-1].flat[slow] + 1
        try:
            floats = [
                float(block[a:b].tobytes().decode("ascii"))
                for a, b in zip(start.tolist(), end.flat[slow].tolist())
            ]
        except ValueError:
            return None
        with np.errstate(over="ignore"):  # out-of-range values become inf: a fault
            value.flat[slow] = floats
    vectors, subject, host, fake, method = columns
    vectors[:rows] = value
    subject[:rows] = ids[:, 0]
    host[:rows] = ids[:, 1]
    fake[:rows] = _LABEL_FAKE.take(at)
    method[:rows] = _LABEL_METHOD.take(at)
    linenos[:rows] = np.arange(line + 1, line + 1 + rows)
    return rows


def read_csv(path) -> EmbeddingDataset:
    """Read the CSV embedding format; FormatError names the line.

    The file is read as a stream of lines, counted as str.splitlines()
    counts the lines of the whole text, into columns allocated once, in
    one loop over blocks of whole b"\\n" lines, at most _CSV_READ_VALUES
    vector components and _CSV_READ_BYTES bytes (or one written line)
    each, for _parse_csv_block. Its one fallback, _parse_csv_rows, reads
    the header's physical line, a block that fails a check, and every
    line from one longer than the buffer on; it reports the first fault."""
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

        columns, linenos = _csv_columns(fh, dim)
        room = max(_CSV_READ_BYTES, _CSV_TOKEN * (4 + dim))  # a whole written line fits
        buf = np.zeros(_CSV_PAD + room + 8, dtype=np.uint8)
        most = max(1, _CSV_READ_VALUES // dim)
        n, line, pos, fault = 0, 0, 0, None
        while fault is None and pos < size:
            fh.seek(pos)
            got = fh.readinto(memoryview(buf)[_CSV_PAD : _CSV_PAD + min(room, size - pos)])
            # whole lines; the header's physical line alone; with no b"\n", the rest
            breaks = np.flatnonzero(buf[_CSV_PAD : _CSV_PAD + got] == ord("\n"))
            breaks = breaks[: most if pos else 1]
            end = pos + int(breaks[-1]) + 1 if breaks.size else size
            rest = tuple(column[n:] for column in columns)
            rows = None
            if pos and breaks.size:
                rows = _parse_csv_block(buf, end - pos, dim, rest, linenos[n:], line)
            if rows is None:
                fh.seek(pos)
                lines = _csv_lines(fh, end - pos)
                if not pos:
                    line = 1
                    next(lines)  # the header, checked above
                rows, lines, fault = _parse_csv_rows(lines, dim, rest, linenos[n:])
                linenos[n : n + rows] += line
            else:
                lines = rows
            n += rows
            line += lines
            pos = end
        del buf  # the record checks below peak without it

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
        raise VerifakeError(f"unknown format {fmt!r}")


def read_dataset(path) -> EmbeddingDataset:
    """Read a dataset, EMB1 if it starts with the magic, else CSV."""
    with open(path, "rb") as fh:
        emb1 = fh.read(4) == MAGIC
    return read_emb1(path) if emb1 else read_csv(path)
