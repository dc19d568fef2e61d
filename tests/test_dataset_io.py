"""EMB1 binary format and CSV twin: round trips and corruption checks."""

import contextlib
import itertools
import struct
import tempfile

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
from verifake.errors import FormatError
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


def _split_codec(monkeypatch, parts):
    """Send every CSV file, however small, through `parts` processes."""
    monkeypatch.setattr(dataset_io_module, "_worker_count", lambda values: parts)


@contextlib.contextmanager
def _jobs_in_process(jobs, own):
    """dataset_io._forked without the fork: each job runs here on its own
    temp file, before own()."""
    with contextlib.ExitStack() as stack:
        files = [stack.enter_context(tempfile.TemporaryFile()) for _ in jobs]
        for job, out in zip(jobs, files):
            job(out)
            out.seek(0)
        yield own(), files


def _every_cut(monkeypatch, data, parts):
    """Cuts for the reader's 2 or 3 ranges that put each cut at each
    b"\\n" boundary of the body of `data`; 3 ranges have a middle one that
    is empty or one physical line long. The reader uses the cuts yielded
    last."""
    body = data.find(b"\n") + 1 or len(data)
    ends = sorted({i + 1 for i in range(body - 1, len(data)) if data[i] == ord("\n")} | {len(data)})
    if parts == 2:
        choices = [[end] for end in ends]
    else:
        choices = [[a, a] for a in ends] + [[a, b] for a, b in zip(ends, ends[1:])]
    for cuts in choices:
        monkeypatch.setattr(
            dataset_io_module, "_csv_cuts", lambda fh, lo, hi, k, cuts=cuts: [lo, *cuts, hi]
        )
        yield cuts


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("brk", LINE_BREAKS)
def test_csv_split_reader_matches_whole_text_reader_at_every_cut(tmp_path, monkeypatch, brk, parts):
    # the parts run in this process, so that every cut is cheap to try;
    # the next test forks
    _split_codec(monkeypatch, parts)
    monkeypatch.setattr(dataset_io_module, "_forked", _jobs_in_process)
    path = tmp_path / "s.csv"
    for text in _line_break_texts(brk):
        data = text.encode("ascii")
        path.write_bytes(data)
        expected = _csv_outcome(reference_read_csv, path)
        for cuts in _every_cut(monkeypatch, data, parts):
            assert _csv_outcome(read_csv, path) == expected, (text, cuts)


@pytest.mark.parametrize("parts", [2, 3])
def test_csv_forked_reader_matches_whole_text_reader(tmp_path, monkeypatch, parts):
    _split_codec(monkeypatch, parts)
    path = tmp_path / "f.csv"
    for text in _line_break_texts("\r\n"):
        path.write_bytes(text.encode("ascii"))
        assert _csv_outcome(read_csv, path) == _csv_outcome(reference_read_csv, path), text


@pytest.mark.parametrize("parts", [2, 3])
def test_csv_split_reader_scans_for_commas_once(tmp_path, monkeypatch, parts):
    # each part parses into the columns sized by the one scan of the file
    _split_codec(monkeypatch, parts)
    monkeypatch.setattr(dataset_io_module, "_forked", _jobs_in_process)
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


def test_csv_row_on_the_header_line_is_read(tmp_path):
    rows = _line_break_rows()
    path = tmp_path / "h.csv"
    path.write_bytes((CSV_HEADER[:-1] + "\v" + rows[0] + "\n" + rows[1] + "\n").encode("ascii"))
    assert read_csv(path).subject.tolist() == [0, 1]


def test_csv_writer_bytes_do_not_depend_on_the_split(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    ds = EmbeddingDataset.reals(list(range(7)), [unit(rng, 3) for _ in range(7)])
    ref = tmp_path / "ref.csv"
    reference_write_csv(ref, ds.dim, records_of(ds))
    for parts in (1, 2, 3):  # 7 rows: no split is even
        _split_codec(monkeypatch, parts)
        path = tmp_path / f"{parts}.csv"
        write_csv(path, ds)
        assert path.read_bytes() == ref.read_bytes(), parts
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


def test_record_order_stable(tmp_path):
    rng = np.random.default_rng(4)
    ds = EmbeddingDataset.reals([i % 3 for i in range(10)], [unit(rng, 2) for _ in range(10)])
    path = tmp_path / "ord.emb1"
    write_emb1(path, ds)
    back = read_emb1(path)
    assert back.subject.tolist() == ds.subject.tolist()
    assert back.vectors.tobytes() == ds.vectors.tobytes()
