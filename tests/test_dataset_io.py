"""EMB1 binary format and CSV twin: round trips and corruption checks."""

import decimal
import struct

import numpy as np
import pytest

from helpers import (
    records_of,
    reference_read_csv,
    reference_write_csv,
    reference_write_emb1,
    traced_peak,
)

import verifake.dataset_io as dataset_io_module
from verifake.config import PipelineConfig, SwapSettings
from verifake.dataset_io import (
    MAGIC,
    read_csv,
    read_dataset,
    read_emb1,
    write_csv,
    write_dataset,
    write_emb1,
)
from verifake.embeddings import EmbeddingDataset, Method, l2_normalize
from verifake.errors import FormatError, VerifakeError
from verifake.pipeline import synth_embedding_dataset

CSV_HEADER = "subject,host,realness,method,v0,v1\n"


def unit(rng, dim):
    return l2_normalize(rng.normal(size=dim))


def sample_dataset(dim=6, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingDataset(
        [unit(rng, dim) for _ in range(3)],
        [0, 1, 0],
        [0, 1, 1],
        [False, False, True],
        [Method.NONE, Method.NONE, Method.NEURALTEXTURES],
    )


def one_real(dim=2):
    return EmbeddingDataset.reals([0], [np.eye(dim)[0]])


def test_emb1_round_trip_bit_exact(tmp_path):
    ds = sample_dataset()
    path = tmp_path / "d.emb1"
    write_emb1(path, ds)
    back = read_emb1(path)
    assert back == ds
    # second trip through the same bytes is also identical on disk
    path2 = tmp_path / "d2.emb1"
    write_emb1(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_csv_round_trip_bit_exact(tmp_path):
    ds = sample_dataset(dim=4, seed=3)
    path = tmp_path / "d.csv"
    write_csv(path, ds)
    assert read_csv(path) == ds


@pytest.mark.parametrize("fmt", ["emb1", "csv"])
def test_writers_match_per_record_reference_bytes(tmp_path, monkeypatch, fmt):
    monkeypatch.setattr(dataset_io_module, "_EMB1_BLOCK_ROWS", 16)  # the last block is short
    # seeded swaps of both groups, the two record kinds and several subjects
    cfg = PipelineConfig(
        seed=5,
        eval_identities=5,
        samples_per_identity=7,
        raw_dim=9,
        swaps=[
            SwapSettings(Method.DEEPFAKES, per_subject=4),
            SwapSettings(Method.FACE2FACE, sigma=0.2, per_subject=3),
        ],
    )
    ds = synth_embedding_dataset(cfg)
    assert ds.fake.any() and (~ds.fake).any()
    path, ref = tmp_path / f"new.{fmt}", tmp_path / f"ref.{fmt}"
    write_dataset(path, ds, fmt=fmt)
    reference = reference_write_emb1 if fmt == "emb1" else reference_write_csv
    reference(ref, ds.dim, records_of(ds))
    assert path.read_bytes() == ref.read_bytes()
    assert read_dataset(ref) == ds


def _reference_bytes(tmp_path, ds):
    ref = tmp_path / "ref.csv"
    reference_write_csv(ref, ds.dim, records_of(ds))
    return ref.read_bytes()


def _values_dataset(values, dim=64):
    """`values`, padded with 0.5, as the rows of a dataset of reals."""
    values = np.asarray(values, dtype=np.float32)
    rows = np.full(-(-len(values) // dim) * dim, 0.5, dtype=np.float32)
    rows[: len(values)] = values
    rows = rows.reshape(-1, dim)
    return EmbeddingDataset.reals(np.arange(len(rows)), rows)


def test_csv_writer_matches_repr_at_the_edges(tmp_path):
    tiny, huge = np.float32(2.0**-149), np.finfo(np.float32).max
    edges = [2.0**e for e in range(-149, 128)]  # every float32 power of two
    edges += [0.0, -0.0, huge, -huge, np.inf, -np.inf, np.nan]
    edges += [tiny, tiny * 3, np.float32(2.0**-126) - tiny]  # subnormals
    for point in (1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1.0):
        below = above = np.float32(point)
        for _ in range(3):
            below, above = np.nextafter(below, np.float32(0)), np.nextafter(above, np.float32(2))
            edges += [below, above]
        edges.append(np.float32(point))
    values = np.array(edges, dtype=np.float32)
    ds = _values_dataset(np.concatenate([values, -values]))
    path = tmp_path / "e.csv"
    write_csv(path, ds)
    assert path.read_bytes() == _reference_bytes(tmp_path, ds)


def test_csv_writer_matches_repr_on_random_bit_patterns(tmp_path):
    # 1,000,000 float32 bit patterns: half of them anything (NaNs too),
    # half of them between 1e-4 and 1 in magnitude, where the digits are
    # computed rather than written by repr
    rng = np.random.default_rng(2024)
    low, high = (np.array([1e-4, 1.0], dtype=np.float32)).view(np.uint32)
    signs = rng.integers(0, 2, 500_000, dtype=np.uint32) << 31
    bits = np.concatenate([
        rng.integers(0, 2**32, 500_000, dtype=np.uint32),
        rng.integers(low, high, 500_000, dtype=np.uint32) | signs,
    ])
    ds = _values_dataset(bits.view(np.float32))
    path = tmp_path / "r.csv"
    write_csv(path, ds)
    assert path.read_bytes() == _reference_bytes(tmp_path, ds)


def test_csv_empty_dataset_writes_only_the_header(tmp_path):
    ds = EmbeddingDataset.reals([], np.zeros((0, 3)))
    path = tmp_path / "empty.csv"
    write_csv(path, ds)
    assert path.read_bytes() == b"subject,host,realness,method,v0,v1,v2\n"
    assert read_csv(path) == ds


def _unit_rows(vectors):
    return vectors / np.linalg.norm(vectors, axis=1, keepdims=True)


def _basis_reals(n, dim):
    """n real records whose vectors cycle through the unit basis: cheap to
    write as CSV."""
    return EmbeddingDataset.reals(np.arange(n) % 40, np.eye(dim)[np.arange(n) % dim])


def test_emb1_writer_working_set_is_one_block(tmp_path):
    # records are packed and written in blocks, not as one array the size of the file
    ds = _basis_reals(40_000, 4)
    path = tmp_path / "w.emb1"
    _, peak = traced_peak(write_emb1, path, ds)
    columns = sum(column.nbytes for column in ds._columns())
    assert peak <= 0.25 * columns, f"peak {peak} bytes is {peak / columns:.2f}x the columns"
    assert read_emb1(path) == ds


def test_csv_reader_working_set_is_bounded(tmp_path):
    # the rows are parsed straight into columns allocated once
    ds = _basis_reals(3000, 32)
    path = tmp_path / "r.csv"
    write_csv(path, ds)
    back, peak = traced_peak(read_csv, path)
    assert back == ds
    columns = sum(column.nbytes for column in back._columns())
    assert peak <= 1.6 * columns, f"peak {peak} bytes is {peak / columns:.2f}x the columns"


def test_csv_reader_streams_lines_ending_in_cr(tmp_path):
    # a file with no b"\n" at all is one physical line: it is read in
    # pieces, not whole
    ds = _basis_reals(3000, 32)
    path = tmp_path / "cr.csv"
    write_csv(path, ds)
    path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
    back, peak = traced_peak(read_csv, path)
    assert back == ds
    columns = sum(column.nbytes for column in back._columns())
    assert peak <= 1.6 * columns, f"peak {peak} bytes is {peak / columns:.2f}x the columns"


def test_csv_writer_working_set_is_one_block(tmp_path):
    # rows are formatted and written a block at a time: at 20,000 rows of
    # dim 32 the peak is one block's arrays, 8,192 values at about 100
    # bytes each, under 0.3 of the columns
    rng = np.random.default_rng(2)
    ds = EmbeddingDataset.reals(np.arange(20_000) % 40, _unit_rows(rng.normal(size=(20_000, 32))))
    path = tmp_path / "w.csv"
    _, peak = traced_peak(write_csv, path, ds)
    columns = sum(column.nbytes for column in ds._columns())
    assert peak <= 0.3 * columns, f"peak {peak} bytes is {peak / columns:.2f}x the columns"
    assert read_csv(path) == ds


def test_emb1_reader_working_set_is_bounded(tmp_path):
    # the records are read in blocks straight into the columns, not as a
    # copy of the whole file
    ds = _basis_reals(20_000, 32)
    path = tmp_path / "r.emb1"
    write_emb1(path, ds)
    back, peak = traced_peak(read_emb1, path)
    assert back == ds
    columns = sum(column.nbytes for column in back._columns())
    assert peak <= 1.3 * columns, f"peak {peak} bytes is {peak / columns:.2f}x the columns"


def test_emb1_layout_is_as_documented(tmp_path):
    vec = np.array([0.25, -1.5], dtype=np.float32)
    ds = EmbeddingDataset([vec], [7], [9], [True], [Method.FACESWAP])
    path = tmp_path / "one.emb1"
    write_emb1(path, ds)
    raw = path.read_bytes()
    assert raw[:4] == b"EMB1"
    count, dim = struct.unpack_from("<II", raw, 4)
    assert (count, dim) == (1, 2)
    subj, host, realness, method, reserved = struct.unpack_from("<IIBBH", raw, 12)
    assert (subj, host, realness, method, reserved) == (7, 9, 1, 1, 0)
    assert np.frombuffer(raw, dtype="<f4", count=2, offset=24).tolist() == [0.25, -1.5]
    assert len(raw) == 12 + 12 + 8


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.emb1"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError) as err:
        read_emb1(path)
    assert err.value.offset == 0


def test_truncated_header(tmp_path):
    path = tmp_path / "short.emb1"
    path.write_bytes(MAGIC + b"\x01")
    with pytest.raises(FormatError):
        read_emb1(path)


def test_oversized_dim_rejected(tmp_path):
    path = tmp_path / "dim.emb1"
    for count, dim in ((0, 2**32 - 1), (1, 2**32 - 1), (1, 1)):  # and one below the minimum
        path.write_bytes(MAGIC + struct.pack("<II", count, dim))
        with pytest.raises(FormatError, match="dim") as err:
            read_emb1(path)
        assert err.value.offset == 8


def test_count_exceeds_payload(tmp_path):
    ds = sample_dataset(dim=4)
    path = tmp_path / "trunc.emb1"
    write_emb1(path, ds)
    data = bytearray(path.read_bytes())
    # claim one more record than the payload holds
    struct.pack_into("<I", data, 4, len(ds) + 1)
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="truncated") as err:
        read_emb1(path)
    assert err.value.offset == len(data)


def test_trailing_bytes_rejected(tmp_path):
    ds = sample_dataset(dim=4)
    path = tmp_path / "extra.emb1"
    write_emb1(path, ds)
    path.write_bytes(path.read_bytes() + b"\x00\x00")
    with pytest.raises(FormatError, match="trailing"):
        read_emb1(path)


def corrupt(tmp_path, ds, index, value, name="c.emb1"):
    path = tmp_path / name
    write_emb1(path, ds)
    data = bytearray(path.read_bytes())
    data[index] = value
    path.write_bytes(bytes(data))
    return path


def test_invalid_realness_byte(tmp_path):
    path = corrupt(tmp_path, one_real(), 12 + 8, 2)
    with pytest.raises(FormatError, match="realness") as err:
        read_emb1(path)
    assert err.value.offset == 12 + 8


def test_unknown_method_code(tmp_path):
    path = corrupt(tmp_path, one_real(), 12 + 9, 200)
    with pytest.raises(FormatError, match="method") as err:
        read_emb1(path)
    assert err.value.offset == 12 + 9


def test_nonzero_reserved_rejected(tmp_path):
    path = corrupt(tmp_path, one_real(), 12 + 10, 1)
    with pytest.raises(FormatError, match="reserved") as err:
        read_emb1(path)
    assert err.value.offset == 12 + 10


def test_inconsistent_record_labels_rejected(tmp_path):
    # realness byte says real but the method byte is a manipulation tag
    path = corrupt(tmp_path, one_real(), 12 + 9, int(Method.FACESWAP))
    with pytest.raises(FormatError, match="record 0: real records must carry") as err:
        read_emb1(path)
    assert err.value.offset == 12


def test_emb1_earliest_bad_record_reported_first(tmp_path):
    # record 1 has a label fault, record 2 a bad realness byte: the
    # earlier record wins even though realness is checked first within one
    ds = sample_dataset(dim=4)
    rec_size = 12 + 4 * 4
    path = corrupt(tmp_path, ds, 12 + rec_size + 9, int(Method.FACESWAP))
    data = bytearray(path.read_bytes())
    data[12 + 2 * rec_size + 8] = 7
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="record 1: real records") as err:
        read_emb1(path)
    assert err.value.offset == 12 + rec_size


def test_emb1_faults_keep_their_order_across_blocks(tmp_path, monkeypatch):
    # five records read two at a time: a field fault in the second block
    # wins over trailing bytes, and the payload checks run after it
    monkeypatch.setattr(dataset_io_module, "_EMB1_BLOCK_ROWS", 2)
    ds = _basis_reals(5, 4)
    rec_size = 12 + 4 * 4
    path = tmp_path / "b.emb1"
    write_emb1(path, ds)
    good = path.read_bytes()
    assert read_emb1(path) == ds
    bad = bytearray(good + b"\x00")
    bad[12 + 3 * rec_size + 10] = 1
    path.write_bytes(bytes(bad))
    with pytest.raises(FormatError, match="reserved") as err:
        read_emb1(path)
    assert err.value.offset == 12 + 3 * rec_size + 10
    path.write_bytes(good[:-1])
    with pytest.raises(FormatError, match="record 4 of 5 incomplete") as err:
        read_emb1(path)
    assert err.value.offset == len(good) - 1
    path.write_bytes(good + b"\x00")
    with pytest.raises(FormatError, match="1 trailing bytes") as err:
        read_emb1(path)
    assert err.value.offset == len(good)


BAD_VECTORS = [
    pytest.param([np.nan, 0.0], "non-finite", id="nan"),
    pytest.param([14.0, 0.0], "norm 14.0", id="norm-14"),
    pytest.param([0.0, 0.0], "norm 0.0", id="zero"),
]


@pytest.mark.parametrize("vector, message", BAD_VECTORS)
def test_emb1_rejects_bad_vector_with_record_offset(tmp_path, vector, message):
    ds = EmbeddingDataset.reals([0, 1, 2], [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    ds.vectors[1] = vector  # stored as written, bypassing every writer check
    path = tmp_path / "v.emb1"
    write_emb1(path, ds)
    with pytest.raises(FormatError, match=f"record 1: vector .*{message}") as err:
        read_emb1(path)
    assert err.value.offset == 12 + (12 + 8)


@pytest.mark.parametrize("vector, message", BAD_VECTORS)
def test_csv_rejects_bad_vector_with_line(tmp_path, vector, message):
    path = tmp_path / "v.csv"
    path.write_text(
        CSV_HEADER + "0,0,real,none,1.0,0.0\n\n"
        f"1,1,real,none,{vector[0]!r},{vector[1]!r}\n"
    )
    with pytest.raises(FormatError, match=f"vector .*{message}") as err:
        read_csv(path)
    assert err.value.line == 4  # the blank line 3 is skipped


def test_vectors_within_tolerance_accepted(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text(CSV_HEADER + "0,0,real,none,1.0009,0.0\n")
    assert read_csv(path).vectors[0, 0] == np.float32(1.0009)
    path.write_text(CSV_HEADER + "0,0,real,none,1.0011,0.0\n")
    with pytest.raises(FormatError, match="norm"):
        read_csv(path)


def test_csv_header_checked(tmp_path):
    path = tmp_path / "h.csv"
    for text, message in (
        ("a,b,c\n1,2,3\n", "bad header"),
        ("", "empty file"),
        ("subject,host,realness,method,v0,w1\n0,0,real,none,1.0,0.0\n", "value columns"),
    ):
        path.write_text(text)
        with pytest.raises(FormatError, match=message) as err:
            read_csv(path)
        assert err.value.line == 1


def test_csv_bad_field_count(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text(CSV_HEADER + "0,0,real,none,1.0\n")
    with pytest.raises(FormatError, match=r"\(at line 2\)$") as err:
        read_csv(path)
    assert err.value.line == 2 and err.value.offset is None


def test_csv_bad_realness_and_method(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text(CSV_HEADER + "0,0,maybe,none,1.0,0.0\n")
    with pytest.raises(FormatError, match="realness"):
        read_csv(path)
    path.write_text(CSV_HEADER + "0,0,real,Bogus,1.0,0.0\n")
    with pytest.raises(FormatError, match="method"):
        read_csv(path)


def test_csv_ids_must_fit_u32(tmp_path):
    path = tmp_path / "u.csv"
    for ids, message in (("-1,-1", "u32"), (f"{2**32},{2**32}", "u32"), ("1.5,0", "non-integer")):
        path.write_text(CSV_HEADER + "0,0,real,none,1.0,0.0\n" + ids + ",real,none,1.0,0.0\n")
        with pytest.raises(FormatError, match=message) as err:
            read_csv(path)
        assert err.value.line == 3


LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\r", "\r\n", "\n\n"]


def _csv_outcome(reader, path):
    try:
        ds = reader(path)
    except FormatError as exc:
        return str(exc), exc.line
    return [ds.vectors.tobytes()] + [col.tolist() for col in (ds.subject, ds.host, ds.fake, ds.method)]


def _line_break_rows():
    rng = np.random.default_rng(7)
    return [
        f"{s},{s},real,none," + ",".join(map(repr, unit(rng, 2).astype(np.float32).tolist()))
        for s in range(5)
    ]


def _line_break_texts(brk):
    rows = _line_break_rows()
    bad_label = "1,2,real,none,1.0,0.0"
    return [
        CSV_HEADER + brk.join(rows) + brk,  # every row ends in the break
        CSV_HEADER + rows[0] + brk + rows[1] + "\n" + "1,1,real,none,1.0\n",  # field count
        CSV_HEADER + "\n".join(rows[:3]) + brk + bad_label + "\n" + rows[4] + "\n",  # label
        CSV_HEADER + rows[0] + "\n" + rows[1][:9] + brk + rows[1][9:] + "\n",  # break inside a row
        CSV_HEADER.replace(",v0", brk + "v0"),  # break inside the header
        brk + CSV_HEADER + rows[0],
        CSV_HEADER[:-1] + brk + rows[0] + "\n" + rows[1] + "\n",  # a row on the header's line
    ]


@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_csv_line_breaks_match_whole_text_reader(tmp_path, brk):
    rows = _line_break_rows()
    path = tmp_path / "b.csv"
    for text in _line_break_texts(brk):
        path.write_bytes(text.encode("ascii"))
        assert _csv_outcome(read_csv, path) == _csv_outcome(reference_read_csv, path), repr(text)

    path.write_bytes((CSV_HEADER + brk.join(rows) + brk).encode("ascii"))
    assert len(read_csv(path)) == 5
    path.write_bytes((CSV_HEADER + rows[0] + brk + rows[1] + "\nx\n").encode("ascii"))
    with pytest.raises(FormatError) as err:
        read_csv(path)
    assert err.value.line == 4 + (brk == "\n\n")  # "\r\n" is one line break


@pytest.mark.parametrize("piece", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_csv_lines_cut_into_pieces_match_whole_text_reader(tmp_path, monkeypatch, brk, piece):
    # every line, and every "\r\n", is cut across reads somewhere
    monkeypatch.setattr(dataset_io_module, "_CSV_PIECE_BYTES", piece)
    path = tmp_path / "p.csv"
    for text in _line_break_texts(brk):
        path.write_bytes(text.encode("ascii"))
        assert _csv_outcome(read_csv, path) == _csv_outcome(reference_read_csv, path), repr(text)


@pytest.mark.parametrize("read_bytes", [1, 2, 7, 64])
@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_csv_blocks_of_every_size_match_whole_text_reader(tmp_path, monkeypatch, brk, read_bytes):
    # one-row blocks, and reads that end inside lines and inside "\r\n"
    monkeypatch.setattr(dataset_io_module, "_CSV_READ_VALUES", 2)
    monkeypatch.setattr(dataset_io_module, "_CSV_READ_BYTES", read_bytes)
    monkeypatch.setattr(dataset_io_module, "_CSV_TOKEN", 1)
    path = tmp_path / "k.csv"
    for text in _line_break_texts(brk):
        path.write_bytes(text.encode("ascii"))
        assert _csv_outcome(read_csv, path) == _csv_outcome(reference_read_csv, path), repr(text)


def _split_codec(monkeypatch, rows):
    """Cut the body of every CSV file, however small, into blocks of at
    most `rows` rows."""
    monkeypatch.setattr(dataset_io_module, "_CSV_READ_VALUES", rows * 2)
    monkeypatch.setattr(dataset_io_module, "_CSV_TOKEN", 1)


@pytest.mark.parametrize("rows", [2, 3])
@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_csv_split_reader_matches_whole_text_reader_at_every_cut(tmp_path, monkeypatch, brk, rows):
    # reads of every byte count: each b"\n" boundary of the body ends a
    # block of one to `rows` rows somewhere
    _split_codec(monkeypatch, rows)
    path = tmp_path / "s.csv"
    for text in _line_break_texts(brk):
        data = text.encode("ascii")
        path.write_bytes(data)
        expected = _csv_outcome(reference_read_csv, path)
        for read_bytes in range(1, len(data) + 1):
            monkeypatch.setattr(dataset_io_module, "_CSV_READ_BYTES", read_bytes)
            assert _csv_outcome(read_csv, path) == expected, (text, read_bytes)


@pytest.mark.parametrize("rows", [2, 3])
def test_csv_split_reader_scans_for_commas_once(tmp_path, monkeypatch, rows):
    # each block parses into the columns sized by the one scan of the file
    _split_codec(monkeypatch, rows)
    scan = dataset_io_module._csv_columns
    scans = []

    def counted_scan(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(dataset_io_module, "_csv_columns", counted_scan)
    path = tmp_path / "c.csv"
    for text in _line_break_texts("\n"):
        path.write_bytes(text.encode("ascii"))
        scans.clear()
        outcome = _csv_outcome(read_csv, path)
        assert outcome == _csv_outcome(reference_read_csv, path), text
        header_fault = isinstance(outcome, tuple) and outcome[1] == 1
        assert len(scans) == (0 if header_fault else 1), text


def _line_reader_outcome(monkeypatch, path):
    """read_csv's outcome with every block sent to the line reader."""
    with monkeypatch.context() as patch:
        patch.setattr(dataset_io_module, "_parse_csv_block", lambda *args: None)
        return _csv_outcome(read_csv, path)


def _matches_line_reader(monkeypatch, path):
    outcome = _csv_outcome(read_csv, path)
    assert outcome == _line_reader_outcome(monkeypatch, path)
    assert outcome == _csv_outcome(reference_read_csv, path)
    return outcome


def _counted_line_reader(monkeypatch):
    """The row counts of read_csv's calls to _parse_csv_rows, in order."""
    parse_rows = dataset_io_module._parse_csv_rows
    parsed = []

    def counted(lines, *args):
        rows, count, fault = parse_rows(lines, *args)
        parsed.append(rows)
        return rows, count, fault

    monkeypatch.setattr(dataset_io_module, "_parse_csv_rows", counted)
    return parsed


def test_csv_block_reader_takes_canonical_files(tmp_path, monkeypatch):
    # values of every kind the writer writes: 17 digits or fewer, "0.0",
    # "-0.0", 1.0 and below 1e-4; only the header's physical line goes
    # to the line reader
    rng = np.random.default_rng(8)
    vectors = rng.normal(size=(500, 16))
    vectors[rng.random(vectors.shape) < 0.05] = 0.0
    vectors[:, 1] *= np.where(rng.random(500) < 0.2, 1e-5, 1.0)
    vectors[:, 2] = np.where(rng.random(500) < 0.1, -0.0, vectors[:, 2])
    vectors[:5] = np.eye(16)[:5]
    ds = EmbeddingDataset.reals(rng.integers(0, 2**32, 500), _unit_rows(vectors))
    path = tmp_path / "c.csv"
    write_csv(path, ds)
    parsed = _counted_line_reader(monkeypatch)
    assert read_csv(path) == ds
    assert parsed == [0]  # the header's physical line
    monkeypatch.undo()
    _matches_line_reader(monkeypatch, path)


@pytest.mark.parametrize("fault", [None, "after", "norm"])
def test_csv_line_longer_than_the_buffer_sends_the_rest_to_the_line_reader(
    tmp_path, monkeypatch, fault
):
    # line 101 of a written file has a value padded with zeros past the
    # read buffer; with a syntax fault on line 301, or a bad norm on the
    # padded line itself
    rng = np.random.default_rng(13)
    ds = EmbeddingDataset.reals(list(range(400)), _unit_rows(rng.normal(size=(400, 8))))
    path = tmp_path / "long.csv"
    write_csv(path, ds)
    lines = path.read_text().split("\n")
    fields = lines[100].split(",")
    col = next(i for i in range(4, 12) if "e" not in fields[i])
    fields[col] = ("0.9" if fault == "norm" else fields[col]) + "0" * 60_000
    lines[100] = ",".join(fields)
    if fault == "after":
        lines[300] = lines[300].replace("real", "maybe")
    path.write_text("\n".join(lines))
    parsed = _counted_line_reader(monkeypatch)
    outcome = _csv_outcome(read_csv, path)
    assert parsed == [0, {None: 301, "after": 200, "norm": 301}[fault]]
    monkeypatch.undo()
    assert _matches_line_reader(monkeypatch, path) == outcome
    if fault is None:
        assert read_csv(path) == ds
    else:
        assert outcome[1] == {"after": 301, "norm": 101}[fault], outcome


def test_csv_rows_after_a_break_on_the_header_line_match_line_reader(tmp_path, monkeypatch):
    rows = _line_break_rows()
    path = tmp_path / "r.csv"
    header_line = CSV_HEADER[:-1] + "\r" + "\r".join(rows[:2])
    path.write_text(header_line + "\n" + "\n".join(rows[2:]) + "\n")
    parsed = _counted_line_reader(monkeypatch)
    assert read_csv(path).subject.tolist() == [0, 1, 2, 3, 4]
    assert parsed == [2]  # the header's physical line; the rest is one block
    monkeypatch.undo()
    _matches_line_reader(monkeypatch, path)


ODD_TOKENS = [
    "0.50", "+0.5", " 0.5", ".5", "5e-1", "0.1_2", "-0.5", "0.5 ", "0.", "-0", "-0.",
    "0.5000000000000000000000001", "0." + "5" * 24, "0.00000000000000000005", "1e39", "nan",
    "-nan", "inf", "0x1p-1", "", "0.5.5", "0.-5", "--0.5", "0.05e1", "00.5", "0.5\t",
]


@pytest.mark.parametrize("token", ODD_TOKENS)
def test_csv_block_reader_matches_line_reader_on_odd_values(tmp_path, monkeypatch, token):
    rows = _line_break_rows()
    path = tmp_path / "o.csv"
    lines = rows[:3] + [f"7,7,real,none,{token},0.8660254"] + rows[3:]
    path.write_text(CSV_HEADER + "\n".join(lines) + "\n")
    _matches_line_reader(monkeypatch, path)


ODD_IDS = ["+5", "007", "5_0", "4294967295", "4294967296", "0", "", "1 "]


@pytest.mark.parametrize("ids", ODD_IDS)
def test_csv_block_reader_matches_line_reader_on_odd_ids(tmp_path, monkeypatch, ids):
    rows = _line_break_rows()
    path = tmp_path / "i.csv"
    lines = rows[:2] + [f"{ids},{ids},real,none,1.0,0.0"] + rows[2:]
    path.write_text(CSV_HEADER + "\n".join(lines) + "\n")
    _matches_line_reader(monkeypatch, path)


def test_csv_block_reader_matches_line_reader_at_float32_midpoints(tmp_path, monkeypatch):
    # the decimal midpoint between two adjacent float32s, exactly and cut
    # to 17 digits, and its neighbours one unit in the last place away:
    # the block reader's float32 must not be a rounding off the line's
    rng = np.random.default_rng(12)
    lows = np.concatenate([rng.uniform(1e-4, 0.9, 300), 2.0 ** -np.arange(1, 14)])
    lows = lows.astype(np.float32)
    lines = []
    with decimal.localcontext() as context:
        context.prec = 80
        for low in lows:
            high = np.nextafter(low, np.float32(1))
            middle = (decimal.Decimal(float(low)) + decimal.Decimal(float(high))) / 2
            places = 16 - middle.adjusted()  # 17 significant digits
            cut = middle.quantize(decimal.Decimal(1).scaleb(-places))
            step = decimal.Decimal(1).scaleb(-places)
            partner = repr(float(np.float32(np.sqrt(1 - float(low) ** 2))))
            for token in (middle, cut, cut - step, cut + step):
                lines.append(f"3,3,real,none,{token:f},{partner}")
    path = tmp_path / "m.csv"
    path.write_text(CSV_HEADER + "\n".join(lines) + "\n")
    outcome = _matches_line_reader(monkeypatch, path)
    assert isinstance(outcome, list), outcome


def test_csv_row_on_the_header_line_is_read(tmp_path):
    rows = _line_break_rows()
    path = tmp_path / "h.csv"
    path.write_bytes((CSV_HEADER[:-1] + "\v" + rows[0] + "\n" + rows[1] + "\n").encode("ascii"))
    assert read_csv(path).subject.tolist() == [0, 1]


def test_csv_writer_bytes_do_not_depend_on_the_split(tmp_path, monkeypatch):
    # 7 rows in blocks of 1, 2, 3 and 7 rows: no split is even
    rng = np.random.default_rng(11)
    ds = EmbeddingDataset.reals(list(range(7)), [unit(rng, 3) for _ in range(7)])
    ref = tmp_path / "ref.csv"
    reference_write_csv(ref, ds.dim, records_of(ds))
    for rows in (1, 2, 3, 7):
        monkeypatch.setattr(dataset_io_module, "_CSV_WRITE_VALUES", rows * ds.dim)
        path = tmp_path / f"{rows}.csv"
        write_csv(path, ds)
        assert path.read_bytes() == ref.read_bytes(), rows
        assert read_csv(path) == ds


def test_csv_earliest_bad_line_reported_first(tmp_path):
    # a label fault on line 2 is found after the loop, a parse error on
    # line 3 inside it; line 2 must still be the one reported
    path = tmp_path / "o.csv"
    path.write_text(CSV_HEADER + "0,1,real,none,1.0,0.0\n0,0,real,none,1.0,oops\n")
    with pytest.raises(FormatError, match="host == subject") as err:
        read_csv(path)
    assert err.value.line == 2


def test_csv_undecodable_byte_names_its_line(tmp_path):
    # lines count as the reader counts them: the blank line 3 and the
    # "\r" break both end a line
    path = tmp_path / "n.csv"
    path.write_bytes(
        CSV_HEADER.encode() + b"0,0,real,none,1.0,0.0\n\n1,1,real,none,1.0,0.0\r"
        b"2,2,real,none,1.0,0.\xe90\n"
    )
    with pytest.raises(FormatError, match="non-ASCII byte 0xe9") as err:
        read_csv(path)
    assert err.value.line == 5


def test_sniffing_dispatch(tmp_path):
    ds = sample_dataset(dim=3, seed=9)
    b = tmp_path / "a.emb1"
    c = tmp_path / "a.csv"
    write_dataset(b, ds, fmt="emb1")
    write_dataset(c, ds, fmt="csv")
    assert read_dataset(b) == ds
    assert read_dataset(c) == ds


def test_write_dataset_unknown_format_is_a_verifake_error(tmp_path):
    path = tmp_path / "a.xml"
    with pytest.raises(VerifakeError, match="unknown format 'xml'"):
        write_dataset(path, sample_dataset(), fmt="xml")
    assert not path.exists()


def test_record_order_stable(tmp_path):
    rng = np.random.default_rng(4)
    ds = EmbeddingDataset.reals([i % 3 for i in range(10)], [unit(rng, 2) for _ in range(10)])
    path = tmp_path / "ord.emb1"
    write_emb1(path, ds)
    back = read_emb1(path)
    assert back.subject.tolist() == ds.subject.tolist()
    assert back.vectors.tobytes() == ds.vectors.tobytes()
