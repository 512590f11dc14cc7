"""Feature-table parsing/rendering, synthetic pools, class splits, oracle."""

import io
import os
import re
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from fewbench import dataset
from fewbench.dataset import (
    ClassRecord,
    DatasetTable,
    SyntheticSpec,
    bayes_oracle_accuracy,
    generate_synthetic,
    load_feature_dataset,
    load_feature_header,
    parse_feature_dataset,
    render_feature_dataset,
    render_value,
    split_classes,
    synthetic_class_means,
    write_feature_dataset,
)
from fewbench.errors import ArgumentError, ParseError
from fewbench.rng import RngState
from fewbench.sampler import EpisodeSpec, sample_episode

SAMPLE = """dim=3
# a comment line
0,1.0,0.5,-2.25
0,0.1,0.2,0.3

1,0.25,0.0,3.5
1,1e-3,-0.75,2.0
"""


def test_parse_basic():
    table = parse_feature_dataset(SAMPLE)
    assert table.dim == 3
    assert table.class_ids() == [0, 1]
    assert table.total_examples == 4
    by_id = {rec.class_id: rec for rec in table.classes}
    assert np.array_equal(by_id[0].examples[0], [1.0, 0.5, -2.25])
    assert by_id[1].examples.shape == (2, 3)


def test_class_order_is_first_appearance():
    text = "dim=1\n7,1.0\n3,2.0\n7,3.0\n"
    assert parse_feature_dataset(text).class_ids() == [7, 3]


@pytest.mark.parametrize(
    "text,line_no",
    [
        ("", 1),                                  # empty input
        ("dimension=3\n0,1,2,3\n", 1),            # bad header keyword
        ("dim=x\n", 1),                           # unparseable dimension
        ("dim=0\n", 1),                           # non-positive dimension
        ("dim=1_6\n0,1.0\n", 1),                  # digit separator in d
        ("dim=\u0661\n0,1.0\n", 1),               # non-ASCII digit in d
        ("dim=2\n0,1.0\n", 2),                    # ragged row
        ("dim=2\n0,1.0,2.0,3.0\n", 2),            # too many values
        ("dim=2\nzero,1.0,2.0\n", 2),             # bad class id
        ("dim=2\n-1,1.0,2.0\n", 2),               # negative class id
        ("dim=2\n0,1.0,abc\n", 2),                # unparseable value
        ("dim=2\n0,1.0,nan\n", 2),                # non-finite value
        ("dim=2\n0,1.0,inf\n", 2),                # non-finite value
        ("dim=1\n0,1.0\n0,2.0\n0,1.0\n", 4),      # duplicate (class, row)
        ("dim=1\n0,0.0\n# c\n0,-0.0\n", 4),       # -0.0 == 0.0: duplicate
        ("dim=1\n0,1.0\n9223372036854775808,1.0\n", 3),  # class id 2**63
        ("dim=1\n0,1.0\n1_0,1.0\n", 3),          # digit separator in id
        ("dim=1\n0,1.0\n0,1_0.5\n", 3),          # digit separator in value
        ("dim=1\n0,1.0\n0,\u0661\n", 3),          # non-ASCII digit
        ("dim=2\n0,1.0,\x1f2.0\n", 2),            # U+001F padding
        ("dim=2\n0,1.0,2.0\n0,nan,abc\n", 3),     # bad value after a nan
        ("dim=2\n-1,1.0,abc\n", 2),               # negative id before bad value
        ("dim=1\n0,\n", 2),                       # empty value
        ("dim=2\n,1.0,2.0\n", 2),                 # empty class id
        ("dim=1000000000\n0,1.0\n", 2),            # d too wide for one record
    ],
)
def test_parse_errors_name_the_line(text, line_no):
    with pytest.raises(ParseError) as err:
        parse_feature_dataset(text)
    assert err.value.line_no == line_no


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("0,1.0", "row has 1 values"),
        ("x,1.0,nan", "bad class id"),
        ("-1,abc,nan", "negative class id"),
        ("1,abc,nan", "unparseable value"),
        ("1,nan,2.0", "non-finite value"),
        ("0,-0.0,1.0", "duplicate row"),
    ],
)
def test_parse_errors_follow_the_check_order_within_a_line(row, fragment):
    """Field count, class id, negative id, value, non-finite, duplicate."""
    with pytest.raises(ParseError, match=fragment) as err:
        parse_feature_dataset(f"dim=2\n0,0.0,1.0\n{row}\n")
    assert err.value.line_no == 3


def test_duplicate_rows_allowed_across_classes():
    table = parse_feature_dataset("dim=1\n0,1.0\n1,1.0\n")
    assert table.total_examples == 2


def test_rows_that_share_a_hash_are_compared_exactly(monkeypatch):
    """When every row has the same hash, the exact pass compares them all:
    rows of one class that differ are no duplicate, and across classes
    equal rows are none either."""
    rows = "".join(f"{c},{v}.5,{-v}.0\n" for v in range(4) for c in (0, 1))
    text = f"dim=2\n# a comment\n{rows}"
    want = parse_feature_dataset(text)
    duplicated = text + "\n1,2.5,-2.0\n"  # after a blank line: line 12 repeats line 8
    with pytest.raises(ParseError) as fresh:
        parse_feature_dataset(duplicated)
    monkeypatch.setattr(dataset, "_row_hashes",
                        lambda records: np.zeros(len(records), dtype=np.uint64))
    assert _tables_bitwise_equal(parse_feature_dataset(text), want)
    with pytest.raises(ParseError) as collided:
        parse_feature_dataset(duplicated)
    assert str(collided.value) == str(fresh.value)
    assert collided.value.line_no == fresh.value.line_no == 12


@pytest.mark.parametrize("text", ["dim=3\n", "dim=3", "dim=3\n# only a comment\n\n  \n"])
def test_header_only_file_is_an_empty_table(text):
    table = parse_feature_dataset(text)
    assert table.dim == 3 and table.classes == []


def test_largest_class_id_and_padding_parse():
    table = parse_feature_dataset("dim=2\n 9223372036854775807 ,\t+1.5, -0.0 \n")
    assert table.class_ids() == [9223372036854775807]
    assert type(table.class_ids()[0]) is int
    assert table.classes[0].examples.tobytes() == np.array([[1.5, -0.0]]).tobytes()


# ---------------------------------------------------------------------------
# The whole-table parser against the row-at-a-time parser it replaced


def row_loop_oracle(text: str) -> DatasetTable:
    """The row-at-a-time parser that the whole-table pass replaced, kept
    verbatim as the reference.  Its grammar is Python's ``int``/``float``,
    which also takes ``_`` separators, non-ASCII digits and whitespace, and
    class ids of 2**63 and up.

    Parse the feature-table format from a string.

    Raises :class:`ParseError` naming the one-based line number on a
    malformed header, ragged row, non-finite value, or a duplicated
    (class, row) pair.
    """
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty input, expected 'dim=<d>' header", line_no=1)
    header = lines[0].strip()
    if not header.startswith("dim="):
        raise ParseError(f"expected 'dim=<d>' header, got {header!r}", line_no=1)
    try:
        dim = int(header[len("dim="):])
    except ValueError:
        raise ParseError(f"bad dimension in header {header!r}", line_no=1) from None
    if dim < 1:
        raise ParseError(f"dimension must be >= 1, got {dim}", line_no=1)

    order: list[int] = []
    rows: dict[int, list[np.ndarray]] = {}
    seen_rows: dict[int, set[tuple[float, ...]]] = {}
    for i, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) != dim + 1:
            raise ParseError(
                f"row has {len(parts) - 1} values, expected {dim}", line_no=i
            )
        try:
            class_id = int(parts[0])
        except ValueError:
            raise ParseError(f"bad class id {parts[0]!r}", line_no=i) from None
        if class_id < 0:
            raise ParseError(f"negative class id {class_id}", line_no=i)
        try:
            values = [float(p) for p in parts[1:]]
        except ValueError:
            raise ParseError(f"unparseable value in row {line!r}", line_no=i) from None
        if not all(np.isfinite(values)):
            raise ParseError("non-finite value in row", line_no=i)
        key = tuple(values)
        if class_id not in rows:
            order.append(class_id)
            rows[class_id] = []
            seen_rows[class_id] = set()
        if key in seen_rows[class_id]:
            raise ParseError(
                f"duplicate row for class {class_id}", line_no=i
            )
        seen_rows[class_id].add(key)
        rows[class_id].append(np.asarray(values, dtype=np.float64))

    classes = [
        ClassRecord(cid, np.vstack(rows[cid]).reshape(len(rows[cid]), dim))
        for cid in order
    ]
    return DatasetTable(dim=dim, classes=classes)



def _tables_bitwise_equal(a: DatasetTable, b: DatasetTable) -> bool:
    return (
        a.dim == b.dim
        and [type(c) for c in a.class_ids()] == [type(c) for c in b.class_ids()]
        and a.class_ids() == b.class_ids()
        and all(
            x.examples.dtype == y.examples.dtype
            and x.examples.shape == y.examples.shape
            and x.examples.flags.c_contiguous and y.examples.flags.c_contiguous
            and x.examples.tobytes() == y.examples.tobytes()
            for x, y in zip(a.classes, b.classes)
        )
    )


_GOOD_IDS = ["0", "1", "2", "3", " 1", "2\t", "+2", "01", "-0", "9223372036854775807"]
_BAD_IDS = [
    "-1", "x", "", " ", "1.0", "1e0", "\x1f1", "-9223372036854775809",  # both refuse
    "9223372036854775808", "1_0", "\u0661", "\xa01",                    # oracle reads
]
_GOOD_VALUES = [
    "0.0", "-0.0", "1.0", "0", "+1.0", "1", "1.", ".5", " 2.5 ", "\t-3e-2", "0.1",
    "1E+2", "1e-320", "5e-324", "-1e-400", "1.7976931348623157e308",
]
_BAD_VALUES = [
    "nan", "inf", "-Infinity", "1e400",                               # non-finite
    "", " ", "abc", "1.0.0", "0x1", "1e", ".", "1 2", "\x1f1",         # both refuse
    "1_0", "\u0661", "\xa01", "\u30001.0",                            # oracle reads
]
_PADDING = ["", "", "", " ", "\t", "\xa0", "\x1f", "\u3000"]
_NEWLINES = ["\n", "\n", "\r\n", "\r", "\x0b", "\u2028"]


@st.composite
def feature_texts(draw):
    """Feature-table texts over a small token pool, so rows of one class
    repeat and classes interleave.  Each text draws how often a token or
    a field count is bad, from never to often."""
    bad_percent = draw(st.sampled_from([0, 0, 0, 3, 10, 30]))

    def pick(good, bad, weight=0):
        if draw(st.integers(0, 99)) < bad_percent:
            return draw(st.sampled_from(bad))
        # the first ``weight`` good tokens come up most, to repeat rows
        return draw(st.sampled_from(good[:weight] * 4 + good))

    dim = draw(st.integers(1, 3))
    lines = [pick([f"dim={dim}", f" dim={dim}\t"], ["dim=0", "dims=2", f"dim={dim},"], 1)]
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row"] * 6 + ["comment", "blank"]))
        if kind == "comment":
            line = draw(st.sampled_from(["#", "# 0,1.0", "  #x,1_0"]))
        elif kind == "blank":
            line = ""
        else:
            n = pick([dim], [dim - 1, dim + 1])
            fields = [pick(_GOOD_IDS, _BAD_IDS, 2)]
            fields += [pick(_GOOD_VALUES, _BAD_VALUES, 3) for _ in range(n)]
            line = ",".join(fields)
        lines.append(draw(st.sampled_from(_PADDING)) + line + draw(st.sampled_from(_PADDING)))
    newline = draw(st.sampled_from(_NEWLINES))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def _first_oracle_only_line(text: str) -> int | None:
    """Line of the first data row holding a field that the oracle reads but
    the new grammar refuses: a non-ASCII character, a ``_``, or a class id
    of 2**63 or more."""
    lines = text.splitlines()
    for i, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        for j, part in enumerate(parts):
            try:
                value = int(part) if j == 0 else float(part)
            except ValueError:
                continue
            if not part.isascii() or "_" in part or (j == 0 and value >= 2**63):
                return i
    return None


def _assert_matches_oracle(parse, text: str) -> None:
    """``parse(text)`` gives the oracle's table bit for bit, or raises at
    the first line that the oracle or the new grammar refuses."""
    try:
        expected = row_loop_oracle(text)
        oracle_line = None
    except ParseError as exc:
        expected = None
        oracle_line = exc.line_no
    except ArgumentError:
        # the oracle read a class id of 2**63 or more, which no table holds:
        # it refused no line, and the new grammar refuses that id's line
        expected = oracle_line = None
    refused = [ln for ln in (oracle_line, _first_oracle_only_line(text)) if ln is not None]
    if not refused:
        assert _tables_bitwise_equal(parse(text), expected)
        return
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line_no == min(refused)


@settings(max_examples=600, deadline=None)
@given(feature_texts())
@example("dim=1\n9223372036854775808,0.0")   # an id that only the oracle reads
def test_whole_table_pass_matches_row_loop_oracle(text):
    _assert_matches_oracle(parse_feature_dataset, text)


class _PipeLike(io.StringIO):
    """Text that can only be read forward, like a pipe."""

    def seekable(self):
        return False

    def tell(self):
        raise io.UnsupportedOperation("tell")

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")


@pytest.mark.parametrize("block_chars", [1, 7, 64])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=feature_texts())
def test_block_pass_matches_oracle_at_any_block_size(block_chars, text, monkeypatch, tmp_path):
    """Blocks of one character up to several lines, from a string, from a
    file, and from a stream that cannot be rewound."""
    monkeypatch.setattr(dataset, "_BLOCK_CHARS", block_chars)
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8", newline="")
    _assert_matches_oracle(parse_feature_dataset, text)
    _assert_matches_oracle(lambda _: load_feature_dataset(str(path)), text)
    _assert_matches_oracle(lambda _: parse_feature_dataset(_PipeLike(text, newline="")), text)


def test_whole_table_pass_matches_oracle_on_a_large_pool():
    spec = SyntheticSpec(num_classes=12, dim=5, samples_per_class=40,
                         class_std=1.0, mean_scale=2.0, seed=3)
    text = render_feature_dataset(generate_synthetic(spec))
    # interleave the classes so grouping has to restore file order
    head, *rows = text.splitlines()
    text = "\n".join([head] + rows[::2] + rows[1::2]) + "\n"
    assert _tables_bitwise_equal(parse_feature_dataset(text), row_loop_oracle(text))
    duplicated = text + "11,0.0,1,2,3,4\n# note\n11,-0.0,1.0,2,3,4e0\n"
    for parse in (parse_feature_dataset, row_loop_oracle):
        with pytest.raises(ParseError) as err:
            parse(duplicated)
        assert err.value.line_no == len(rows) + 4


@pytest.mark.parametrize("text", [
    "dim=2\n0,1.0,2.0\n1,3.0,4.0\n",
    "dim=2\n0,1.0,2.0\n\n1,3.0,4.0\n0,1.0,2.0\n",   # duplicate at line 5
    "dim=2\n0,1.0,2.0\n1,3.0\n",                    # ragged row at line 3
])
def test_open_file_parses_from_its_position(text, tmp_path, monkeypatch):
    """A file is read from where it stands, so line numbers count from
    that position."""
    monkeypatch.setattr(dataset, "_BLOCK_CHARS", 4)
    path = tmp_path / "table.csv"
    path.write_text("# preamble\n" + text, encoding="utf-8")
    try:
        expected = parse_feature_dataset(text)
    except ParseError as exc:
        expected = exc
    with open(path, "r", encoding="utf-8") as fh:
        fh.readline()
        if isinstance(expected, ParseError):
            with pytest.raises(ParseError) as err:
                parse_feature_dataset(fh)
            assert err.value.line_no == expected.line_no
        else:
            assert _tables_bitwise_equal(parse_feature_dataset(fh), expected)


def test_unreadable_feature_files_raise_parse_error(tmp_path, monkeypatch):
    with pytest.raises(ParseError, match="cannot read feature file"):
        load_feature_dataset(str(tmp_path / "missing.csv"))
    with pytest.raises(ParseError, match="cannot read feature file"):
        load_feature_dataset(str(tmp_path))
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"dim=1\n\xff,1.0\n")
    with pytest.raises(ParseError, match="not utf-8 text") as err:
        load_feature_dataset(str(bad))
    assert err.value.line_no is None
    # with small blocks the bad byte is decoded after the first blocks parsed
    monkeypatch.setattr(dataset, "_BLOCK_CHARS", 8)
    bad.write_bytes(b"dim=1\n" + b"".join(b"0,%d.0\n" % i for i in range(20)) + b"1,\xff\n")
    with pytest.raises(ParseError, match="not utf-8 text"):
        load_feature_dataset(str(bad))


def _load_result(load, path):
    try:
        table = load(path)
    except ParseError as exc:
        return str(exc)
    return table.dim, table.classes


@pytest.mark.parametrize("line1", [
    b"", b"\n", b"dim=3", b"dim=3\n", b" dim=3 \r\n", b"dim=0\n", b"dim=1_6\n",
    b"dim=\xff3\n", b"dim=3\xe2\x80\n", b"dim=3\xe2\x80", b"\xef\xbb\xbfdim=3\n",
    b"x" * 20000 + b"\xff\n",
])
def test_header_load_reads_line_one_as_the_full_load_does(line1, tmp_path):
    path = str(tmp_path / "pool.csv")
    with open(path, "wb") as fh:
        fh.write(line1)
    header = _load_result(load_feature_header, path)
    full = _load_result(load_feature_dataset, path)
    assert header == (full if isinstance(full, str) else (full[0], []))


def test_header_load_of_unreadable_files(tmp_path):
    for path in (str(tmp_path / "missing.csv"), str(tmp_path)):
        message = _load_result(load_feature_dataset, path)
        assert message.startswith("cannot read feature file")
        assert _load_result(load_feature_header, path) == message


@pytest.mark.parametrize("rest", [b"0,nan,1,2\n", b"\xff\n", b"1,2\n\xff", b"0,1,2,3\n" * 3])
@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r", b"\xc2\x85", b"\x1c"])
def test_header_load_ignores_what_follows_line_one(newline, rest, tmp_path):
    path = str(tmp_path / "pool.csv")
    with open(path, "wb") as fh:
        fh.write(b"dim=3" + newline + rest)
    table = load_feature_header(path)
    assert (table.dim, table.classes) == (3, [])


def _writer_table() -> DatasetTable:
    pool = generate_synthetic(SyntheticSpec(num_classes=4, dim=3, samples_per_class=9,
                                            class_std=1.0, mean_scale=2.0, seed=2))
    edge = ClassRecord(2**63 - 1, np.array([[-0.0, 5e-324, -1.7976931348623157e308]]))
    return DatasetTable(dim=3, classes=[pool.classes[2], edge, *pool.classes[:2]])


@pytest.mark.parametrize("block_chars", [1, 64, 1 << 20])
def test_writer_output_equals_render(block_chars, tmp_path, monkeypatch):
    monkeypatch.setattr(dataset, "_BLOCK_CHARS", block_chars)
    table = _writer_table()
    path = str(tmp_path / "table.csv")
    write_feature_dataset(table, path)
    with open(path, "rb") as fh:
        assert fh.read() == render_feature_dataset(table).encode("utf-8")
    assert _tables_bitwise_equal(load_feature_dataset(path), table)


def test_failed_write_leaves_the_old_file(tmp_path, monkeypatch):
    monkeypatch.setattr(dataset, "_BLOCK_CHARS", 64)
    path = str(tmp_path / "table.csv")
    write_feature_dataset(_writer_table(), path)
    with open(path, "rb") as fh:
        before = fh.read()

    # a table whose rows turn non-finite after it is built: the writer
    # refuses its second class, after the first class's chunks were written
    bad = _writer_table()
    bad.classes[1].examples[0, 1] = np.nan
    with pytest.raises(ArgumentError, match="contains non-finite values"):
        write_feature_dataset(bad, path)

    # a failure after some chunks reached the temporary file
    real_chunks = dataset._feature_chunks

    def failing_chunks(table):
        for i, chunk in enumerate(real_chunks(table)):
            if i == 3:
                raise OSError("disk full")
            yield chunk

    monkeypatch.setattr(dataset, "_feature_chunks", failing_chunks)
    with pytest.raises(OSError, match="disk full"):
        write_feature_dataset(generate_synthetic(SyntheticSpec(
            num_classes=3, dim=3, samples_per_class=20, class_std=1.0,
            mean_scale=2.0, seed=1)), path)
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["table.csv"]


def test_unwritable_output_is_argument_error_naming_the_path(tmp_path):
    table = _writer_table()
    # the temporary file cannot be created: its directory does not exist
    missing = str(tmp_path / "missing" / "table.csv")
    with pytest.raises(ArgumentError, match="missing/table.csv"):
        write_feature_dataset(table, missing)
    # the rename fails: the target is a non-empty directory
    (tmp_path / "dir" / "inner").mkdir(parents=True)
    target = str(tmp_path / "dir")
    with pytest.raises(ArgumentError, match=re.escape(f"cannot write {target!r}")):
        dataset.write_text_atomic(target, "text\n")
    assert sorted(os.listdir(tmp_path)) == ["dir"]
    assert os.listdir(tmp_path / "dir") == ["inner"]


def test_feature_file_io_memory_is_bounded(tmp_path):
    """Besides the table, reading holds about one block of text and the
    table's records once more, and writing holds about one block.  A file
    whose last row is bad holds no more while its error is found.  The
    second shape is that of the large-query benchmark's test file."""
    for num_classes, samples_per_class in ((10, 300), (20, 600)):
        table = generate_synthetic(SyntheticSpec(num_classes=num_classes, dim=16,
                                                 samples_per_class=samples_per_class,
                                                 class_std=1.0, mean_scale=2.0, seed=4))
        table_bytes = sum(rec.examples.nbytes for rec in table.classes)
        path = str(tmp_path / f"table{num_classes}.csv")
        tracemalloc.start()
        try:
            write_feature_dataset(table, path)
            _, write_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            loaded = load_feature_dataset(path)
            _, load_peak = tracemalloc.get_traced_memory()
            with open(path, "a", encoding="utf-8") as fh:
                fh.write("0" + ",nan" * 16 + "\n")
            tracemalloc.reset_peak()
            error_before, _ = tracemalloc.get_traced_memory()
            with pytest.raises(ParseError, match="non-finite") as err:
                load_feature_dataset(path)
            _, error_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert _tables_bitwise_equal(loaded, table)
        assert err.value.line_no == 1 + table.total_examples + 1
        assert write_peak < 1.0 * table_bytes
        # the loaded table itself is one of the four
        assert load_peak - before < 4.0 * table_bytes
        assert error_peak - error_before < 4.0 * table_bytes


# ---------------------------------------------------------------------------
# The memo of a feature file loaded again and again


def _memo_table(seed: int, samples_per_class: int = 9) -> DatasetTable:
    return generate_synthetic(SyntheticSpec(num_classes=5, dim=3,
                                            samples_per_class=samples_per_class,
                                            class_std=1.0, mean_scale=2.0, seed=seed))


@pytest.fixture
def parses(monkeypatch):
    """The sources that ``parse_feature_dataset`` was called on."""
    calls = []
    real = dataset.parse_feature_dataset

    def counting(source):
        calls.append(source)
        return real(source)

    monkeypatch.setattr(dataset, "parse_feature_dataset", counting)
    return calls


@pytest.fixture
def hashed(monkeypatch):
    """The bytes that loads fed to sha256, whether while parsing or not."""
    fed = []
    real = dataset._sha256

    class Counting:
        def __init__(self):
            self._digest = real()

        def update(self, data):
            fed.append(len(data))
            self._digest.update(data)

        def digest(self):
            return self._digest.digest()

    monkeypatch.setattr(dataset, "_sha256", Counting)
    return fed


def _arrays(table: DatasetTable) -> list[np.ndarray]:
    return [table.x, table.ids, table.sizes, table.starts]


def _keep(path: str) -> None:
    """Load ``path`` twice in a row, so that its table is kept."""
    load_feature_dataset(path)
    load_feature_dataset(path)
    assert list(dataset._memo) == [(os.stat(path).st_dev, os.stat(path).st_ino)]
    assert dataset._memo[list(dataset._memo)[0]] is not None


def test_a_file_loaded_once_is_parsed_without_hashing_and_no_table_is_kept(
        tmp_path, parses, hashed):
    paths = [str(tmp_path / f"table{i}.csv") for i in range(2)]
    for i, path in enumerate(paths):
        write_feature_dataset(_memo_table(20 + i), path)
    for path in paths * 2:  # each load follows a load of the other file
        table = load_feature_dataset(path)
        info = os.stat(path)
        assert dataset._memo == {(info.st_dev, info.st_ino): None}
    assert _tables_bitwise_equal(table, _memo_table(21))
    assert len(parses) == 4
    assert hashed == []


def test_a_process_that_loads_a_file_once_does_not_import_hashlib(tmp_path):
    """hashlib loads OpenSSL, about 3.6 MB resident; only a file loaded
    again in a row needs it."""
    path = str(tmp_path / "table.csv")
    write_feature_dataset(_memo_table(22), path)
    code = ("import sys\nfrom fewbench import cli, dataset\n"
            f"dataset.load_feature_dataset({path!r})\n"
            "assert 'hashlib' not in sys.modules\n"
            f"dataset.load_feature_dataset({path!r})\n"
            "assert 'hashlib' in sys.modules\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(dataset.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_a_third_load_in_a_row_of_an_unchanged_file_is_a_private_copy(tmp_path, parses):
    path = str(tmp_path / "table.csv")
    write_feature_dataset(_memo_table(1), path)
    first = load_feature_dataset(path)
    second = load_feature_dataset(path)
    assert len(parses) == 2
    third = load_feature_dataset(path)
    assert len(parses) == 2
    loads = (first, second, third)
    for table in loads[1:]:
        assert _tables_bitwise_equal(table, first)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(_arrays(first), _arrays(table)))
    (_, kept), = dataset._memo.values()
    tables = loads + (kept,)
    for i, a in enumerate(tables):
        for b in tables[i + 1:]:
            assert not any(np.shares_memory(u, v) for u, v in zip(_arrays(a), _arrays(b)))
    # writing into any loaded table leaves the next load unchanged
    for table in loads:
        table.x[:] = -1.0
        table.ids[:] = 0
        table.sizes[:] = 1
        table.starts[:] = 0
    assert _tables_bitwise_equal(load_feature_dataset(path), _memo_table(1))
    assert len(parses) == 2


def test_a_file_rewritten_in_place_at_the_same_size_is_parsed_again(tmp_path, parses):
    path = tmp_path / "table.csv"
    text = render_feature_dataset(_memo_table(2))
    path.write_text(text, encoding="utf-8")
    _keep(str(path))
    before = os.stat(path)
    changed = text.replace("1", "2", 1)
    assert changed != text and len(changed) == len(text)
    with open(path, "r+", encoding="utf-8") as fh:
        fh.write(changed)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert ((after.st_ino, after.st_size, after.st_mtime_ns)
            == (before.st_ino, before.st_size, before.st_mtime_ns))
    assert _tables_bitwise_equal(load_feature_dataset(str(path)), parse_feature_dataset(changed))
    assert len(parses) == 3
    # the changed bytes are kept in turn
    assert _tables_bitwise_equal(load_feature_dataset(str(path)), parse_feature_dataset(changed))
    assert len(parses) == 3


def test_a_bad_row_appended_to_a_kept_file_raises_as_a_fresh_load(tmp_path):
    path = str(tmp_path / "table.csv")
    table = _memo_table(3)
    write_feature_dataset(table, path)
    _keep(path)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("4,1.0,nan,2.0\n")
    with pytest.raises(ParseError) as kept:
        load_feature_dataset(path)
    assert dataset._memo == {}
    with pytest.raises(ParseError) as fresh:
        load_feature_dataset(path)
    assert str(kept.value) == str(fresh.value)
    assert kept.value.line_no == fresh.value.line_no == table.total_examples + 2


def test_a_file_replaced_through_the_writer_is_parsed_again(tmp_path, parses):
    path = str(tmp_path / "table.csv")
    write_feature_dataset(_memo_table(4), path)
    _keep(path)
    write_feature_dataset(_memo_table(5), path)
    assert _tables_bitwise_equal(load_feature_dataset(path), _memo_table(5))
    assert len(parses) == 3


def test_a_failed_parse_stores_nothing(tmp_path):
    path = tmp_path / "table.csv"
    for text in ("dim=2\n0,1.0\n", "dim=2\n0,1.0,2.0\n0,1.0,2.0\n", "dim=x\n"):
        path.write_text(text, encoding="utf-8")
        for _ in range(2):
            with pytest.raises(ParseError):
                load_feature_dataset(str(path))
            assert dataset._memo == {}
    path.write_bytes(b"dim=1\n0,1.0\n\xff\n")
    with pytest.raises(ParseError, match="not utf-8 text"):
        load_feature_dataset(str(path))
    assert dataset._memo == {}


def test_a_load_of_another_file_drops_the_kept_table(tmp_path, parses):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    write_feature_dataset(_memo_table(10), a)
    write_feature_dataset(_memo_table(11), b)
    _keep(a)
    assert _tables_bitwise_equal(load_feature_dataset(b), _memo_table(11))
    assert dataset._memo == {(os.stat(b).st_dev, os.stat(b).st_ino): None}
    assert _tables_bitwise_equal(load_feature_dataset(a), _memo_table(10))
    assert len(parses) == 4


def test_a_pipe_is_read_once_and_never_kept(tmp_path, parses):
    fifo = str(tmp_path / "pipe")
    os.mkfifo(fifo)
    text = render_feature_dataset(_memo_table(6))
    path = str(tmp_path / "table.csv")
    write_feature_dataset(_memo_table(7), path)
    _keep(path)

    def feed():
        with open(fifo, "w", encoding="utf-8") as fh:
            fh.write(text)

    for _ in range(2):
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        table = load_feature_dataset(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert _tables_bitwise_equal(table, _memo_table(6))
        assert dataset._memo == {}
    assert len(parses) == 4


def test_keeping_and_copying_a_table_hold_about_one_table(tmp_path):
    """The second load in a row parses as the first does and then copies
    the table it keeps; a later load reads the file in blocks of 64 KiB to
    hash it and copies the kept table once.  The shape is that of the
    large-query benchmark's test file."""
    table = generate_synthetic(SyntheticSpec(num_classes=20, dim=16, samples_per_class=600,
                                             class_std=1.0, mean_scale=2.0, seed=4))
    path = str(tmp_path / "table.csv")
    write_feature_dataset(table, path)
    load_feature_dataset(path)
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            loaded = load_feature_dataset(path)
            _, peak = tracemalloc.get_traced_memory()
            peaks.append(peak - before)
            assert _tables_bitwise_equal(loaded, table)
            del loaded
    finally:
        tracemalloc.stop()
    # as test_feature_file_io_memory_is_bounded: the loaded table is one of the four
    assert peaks[0] < 4.0 * table.x.nbytes
    assert peaks[1] <= 1.2 * table.x.nbytes


def test_render_parse_round_trip_is_byte_stable():
    gen = np.random.default_rng(0)
    table = DatasetTable(
        dim=4,
        classes=[
            ClassRecord(c, gen.normal(size=(5, 4)) * 10.0 ** gen.integers(-8, 8))
            for c in range(3)
        ],
    )
    text = render_feature_dataset(table)
    text2 = render_feature_dataset(parse_feature_dataset(text))
    assert text2 == text


@settings(max_examples=100, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_render_value_round_trips_exactly(x):
    assert float(render_value(x)) == x


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6))
@example([-0.0, 0.0, 5e-324, -2.225073858507201e-308, 1e-310])
@example([1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308])
def test_rendered_rows_match_render_value(values):
    examples = np.array([values, [-v for v in values]])
    table = DatasetTable(dim=len(values), classes=[ClassRecord(4, examples)])
    expected = [f"dim={len(values)}"]
    expected += ["4," + ",".join(render_value(v) for v in row) for row in examples]
    assert render_feature_dataset(table) == "\n".join(expected) + "\n"


def test_validate_rejects_bad_tables():
    """A repeated id, a class without rows and rows of another width are
    refused when the table is built."""
    good = ClassRecord(0, np.zeros((2, 3)))
    with pytest.raises(ArgumentError):
        DatasetTable(dim=3, classes=[good, ClassRecord(0, np.ones((1, 3)))])
    with pytest.raises(ArgumentError):
        DatasetTable(dim=3, classes=[ClassRecord(1, np.zeros((0, 3)))])
    with pytest.raises(ArgumentError):
        DatasetTable(dim=2, classes=[good])


def _header_only(tmp_path) -> DatasetTable:
    path = str(tmp_path / "pool.csv")
    with open(path, "w") as fh:
        fh.write("dim=3\n0,1.0,2.0,3.0\n")
    return load_feature_header(path)


_POOL = SyntheticSpec(num_classes=4, dim=3, samples_per_class=5, seed=3)

BUILDERS = {
    "records": lambda tmp_path: DatasetTable(3, [ClassRecord(8, np.ones((2, 3))),
                                                 ClassRecord(np.int16(2), [[0.5, 1.0, 2.0]])]),
    "from_rows": lambda tmp_path: DatasetTable.from_rows(3, np.ones((20, 3)), [5, 0, 9, 1],
                                                         [3, 7, 5, 5]),
    "parse": lambda tmp_path: parse_feature_dataset(SAMPLE),
    "generate_synthetic": lambda tmp_path: generate_synthetic(_POOL),
    "split_classes": lambda tmp_path: split_classes(generate_synthetic(_POOL), 3, 5).meta_test,
    "load_feature_header": _header_only,
}


@pytest.mark.parametrize("how", sorted(BUILDERS))
def test_every_way_of_building_a_table_passes_the_same_checks(how, tmp_path, monkeypatch):
    """Whatever built it, a table went through the one structural check,
    and holds an integer ``dim`` of at least 1, distinct non-negative
    int64 ids, classes of at least one row, and rows ``dim`` wide; built
    again from its records, it is the same table."""
    checked = []
    real_set = DatasetTable._set

    def spy(self, *args):
        real_set(self, *args)
        checked.append(self)

    monkeypatch.setattr(DatasetTable, "_set", spy)
    table = BUILDERS[how](tmp_path)
    assert checked[-1] is table
    assert type(table.dim) is int and table.dim >= 1
    assert table.ids.dtype == np.int64 and (table.ids >= 0).all()
    assert len(set(table.class_ids())) == table.n_classes
    assert table.sizes.dtype == np.int64 and (table.sizes >= 1).all()
    assert table.x.ndim == 2 and table.x.shape[1] == table.dim
    assert _tables_bitwise_equal(DatasetTable(table.dim, table.classes), table)


BAD_STRUCTURE = [
    # (dim, ids, sizes, message): each refused by both constructors
    (2.0, [0], [1], "dim must be an integer, got 2.0"),
    (True, [0], [1], "dim must be an integer, got True"),
    ("2", [0], [1], "dim must be an integer, got '2'"),
    (0, [], [], "dim must be >= 1, got 0"),
    (2, [1.5], [1], "class_id must be an integer, got 1.5"),
    (2, [True], [1], "class_id must be an integer, got True"),
    (2, ["7"], [1], "class_id must be an integer, got '7'"),
    (2, [np.float64(3.0)], [1], f"class_id must be an integer, got {np.float64(3.0)!r}"),
    (2, [0, -1], [1, 1], "negative class_id -1"),
    (2, [4, 2, 4], [1, 1, 1], "duplicate class_id 4"),
    (2, [0, 1], [1, 0], "class 1 has no examples"),
]


@pytest.mark.parametrize("dim,ids,sizes,message", BAD_STRUCTURE)
def test_bad_structure_is_refused_when_the_table_is_built(dim, ids, sizes, message):
    width = dim if type(dim) is int and dim > 0 else 2
    records = [ClassRecord(c, np.ones((m, width))) for c, m in zip(ids, sizes)]
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        DatasetTable(dim, records)
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        DatasetTable.from_rows(dim, np.ones((sum(sizes), width)), ids, sizes)


@pytest.mark.parametrize("shapes,message", [
    ([(3, 3)], "class 0 examples have shape (3, 3), expected (n, 2)"),
    ([(2, 2), (1, 3)], "class 1 examples have shape (1, 3), expected (n, 2)"),
    ([(2,)], "class 0 examples have shape (2,), expected (n, 2)"),
    ([(1, 2, 1)], "class 0 examples have shape (1, 2, 1), expected (n, 2)"),
])
def test_rows_of_another_width_are_refused_when_the_table_is_built(shapes, message):
    """Records are checked one by one before their rows are joined, so
    ragged records raise no bare ``ValueError``, and rows wider than
    ``dim`` make no table."""
    records = [ClassRecord(c, np.ones(shape)) for c, shape in enumerate(shapes)]
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        DatasetTable(2, records)
    with pytest.raises(ArgumentError, match=re.escape("rows have shape (3, 3), expected (n, 2)")):
        DatasetTable.from_rows(2, np.ones((3, 3)), [0], [3])


def test_from_rows_refuses_ids_and_sizes_of_unequal_lengths():
    with pytest.raises(ArgumentError, match="^2 class ids for 1 classes$"):
        DatasetTable.from_rows(1, np.ones((2, 1)), [0, 1], [2])


def test_numpy_integer_ids_below_2_63_build():
    ids = [np.int64(5), np.uint64(2**63 - 1), np.int8(0), np.uint8(3), 7]
    table = DatasetTable(1, [ClassRecord(c, [[float(i)]]) for i, c in enumerate(ids)])
    assert table.ids.dtype == np.int64
    assert table.class_ids() == [5, 2**63 - 1, 0, 3, 7]
    assert DatasetTable(np.int32(4)).dim == 4 and type(DatasetTable(np.int32(4)).dim) is int


def test_the_largest_class_id_round_trips(tmp_path):
    path = str(tmp_path / "table.csv")
    table = DatasetTable(2, [ClassRecord(np.int64(2**63 - 1), [[1.5, -0.0]])])
    write_feature_dataset(table, path)
    assert _tables_bitwise_equal(load_feature_dataset(path), table)


@pytest.mark.parametrize("class_id", [2**63, np.uint64(2**63), 2**70])
def test_ids_a_file_cannot_hold_are_refused_when_the_table_is_built(class_id):
    """An id of 2**63 or more, which the file format cannot hold, makes no
    table, whichever way it is built, so a table's ``ids`` are int64."""
    message = f"^class_id {int(class_id)} is too large for a feature file$"
    with pytest.raises(ArgumentError, match=message):
        DatasetTable(1, [ClassRecord(0, [[1.0]]), ClassRecord(class_id, [[2.0]])])
    with pytest.raises(ArgumentError, match=message):
        DatasetTable.from_rows(1, np.ones((2, 1)), [0, class_id], [1, 1])


def test_the_largest_class_id_keeps_class_map_int64():
    table = DatasetTable(1, [ClassRecord(c, [[0.0], [1.5]]) for c in (2**63 - 1, 0, 5)])
    assert table.ids.dtype == np.int64
    episode = sample_episode(table, EpisodeSpec(3, 1), RngState(1))
    assert episode.class_map.dtype == np.int64
    assert sorted(episode.class_map.tolist()) == [0, 5, 2**63 - 1]


@pytest.mark.parametrize("sizes,starts,message", [
    ([2, 3], None, "class 1 has rows 2:5 outside the 4 rows of x"),
    ([2, 2], [0, 3], "class 1 has rows 3:5 outside the 4 rows of x"),
    ([2, 2], [-1, 2], "class 0 has rows -1:1 outside the 4 rows of x"),
    ([2, 2], [0], "1 starts for 2 classes"),
    ([2, 2], [0, 2, 4], "3 starts for 2 classes"),
])
def test_from_rows_refuses_rows_outside_x(sizes, starts, message):
    """Rows past ``x`` used to build a table that the sampler then met with
    a bare ``IndexError``."""
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        DatasetTable.from_rows(1, np.arange(4.0).reshape(4, 1), [0, 1], sizes, starts)
    # the rows that are inside x build, and share x
    table = DatasetTable.from_rows(1, np.arange(4.0).reshape(4, 1), [0, 1], [1, 2], [3, 0])
    assert [rec.examples.ravel().tolist() for rec in table.classes] == [[3.0], [0.0, 1.0]]


@pytest.mark.parametrize("sizes,starts,message", [
    ([1.9, 1.5], [0.5, 1.7], "class sizes must be integers, got 1.9"),
    ([1, 1.0], None, "class sizes must be integers, got 1.0"),
    ([1, True], None, "class sizes must be integers, got True"),
    (np.array([1.0, 2.0]), None, f"class sizes must be integers, got {np.float64(1.0)!r}"),
    (np.array([True, True]), None, f"class sizes must be integers, got {np.True_!r}"),
    ([1, 1], [0.5, 1.7], "class starts must be integers, got 0.5"),
    ([1, 1], [0, False], "class starts must be integers, got False"),
    ([1, 1], np.array([0.0, 1.0]), f"class starts must be integers, got {np.float64(0.0)!r}"),
])
def test_from_rows_refuses_sizes_and_starts_that_are_not_integers(sizes, starts, message):
    """Class sizes and starts follow the rule of counts: a float, which
    the int64 cast used to truncate without notice, and a bool are
    refused."""
    with pytest.raises(ArgumentError, match=f"^{re.escape(message)}$"):
        DatasetTable.from_rows(1, np.arange(3.0).reshape(3, 1), [0, 1], sizes, starts)


def test_both_constructors_build_int64_sizes_and_starts():
    """Integer sizes and starts of any integer type build; the records a
    ``DatasetTable`` is built from give the same sizes and starts."""
    x = np.arange(5.0).reshape(5, 1)
    for sizes, starts in (([2, 3], [0, 2]), (np.array([2, 3], np.uint8), np.array([0, 2], np.int32)),
                          (range(2, 4), (np.int16(0), np.uint64(2)))):
        table = DatasetTable.from_rows(1, x, [0, 1], sizes, starts)
        built = DatasetTable(1, table.classes)
        for t in (table, built):
            assert t.sizes.dtype == t.starts.dtype == np.int64
            assert (t.sizes.tolist(), t.starts.tolist()) == ([2, 3], [0, 2])


def test_tables_have_no_validate_method():
    assert not hasattr(DatasetTable(1), "validate")


# ---------------------------------------------------------------------------
# Synthetic pools


def test_generate_synthetic_shapes_and_determinism():
    spec = SyntheticSpec(num_classes=6, dim=5, samples_per_class=7,
                         class_std=1.0, mean_scale=2.0, seed=13)
    t1 = generate_synthetic(spec)
    t2 = generate_synthetic(spec)
    assert t1.n_classes == 6 and t1.dim == 5 and t1.total_examples == 42
    for r1, r2 in zip(t1.classes, t2.classes):
        assert r1.class_id == r2.class_id
        assert np.array_equal(r1.examples, r2.examples)


def test_synthetic_means_match_generated_pool():
    """The published mean generator and the pool generator share a stream."""
    spec = SyntheticSpec(num_classes=4, dim=3, samples_per_class=2000,
                         class_std=0.5, mean_scale=3.0, seed=99)
    means = synthetic_class_means(spec)
    table = generate_synthetic(spec)
    for c, rec in enumerate(table.classes):
        empirical = rec.examples.mean(axis=0)
        # n=2000 samples of std 0.5 -> standard error ~0.011 per coordinate
        assert np.max(np.abs(empirical - means[c])) < 0.08


def test_synthetic_class_noise_scale():
    spec = SyntheticSpec(num_classes=3, dim=8, samples_per_class=4000,
                         class_std=0.7, mean_scale=2.0, seed=5)
    table = generate_synthetic(spec)
    for rec in table.classes:
        sd = rec.examples.std(axis=0, ddof=1)
        assert np.allclose(sd, 0.7, atol=0.05)


def test_spec_validation():
    with pytest.raises(ArgumentError):
        SyntheticSpec(0, 4, 5, 1.0, 2.0, 1)
    with pytest.raises(ArgumentError):
        SyntheticSpec(3, 4, 5, 0.0, 2.0, 1)
    with pytest.raises(ArgumentError):
        SyntheticSpec(3, 4, 5, 1.0, -1.0, 1)
    # degenerate mean_scale=0 stays legal: it pins the oracle at chance level
    SyntheticSpec(3, 4, 5, 1.0, 0.0, 1)


# ---------------------------------------------------------------------------
# Class splits


def test_split_classes_partition():
    spec = SyntheticSpec(num_classes=10, dim=2, samples_per_class=3,
                         class_std=1.0, mean_scale=1.0, seed=0)
    table = generate_synthetic(spec)
    split = split_classes(table, 6, seed=4)
    train_ids = set(split.meta_train.class_ids())
    test_ids = set(split.meta_test.class_ids())
    assert len(train_ids) == 6 and len(test_ids) == 4
    assert train_ids.isdisjoint(test_ids)
    assert train_ids | test_ids == set(table.class_ids())


def test_split_classes_deterministic_and_seed_sensitive():
    spec = SyntheticSpec(num_classes=30, dim=2, samples_per_class=2,
                         class_std=1.0, mean_scale=1.0, seed=0)
    table = generate_synthetic(spec)
    a = split_classes(table, 15, seed=1).meta_train.class_ids()
    b = split_classes(table, 15, seed=1).meta_train.class_ids()
    c = split_classes(table, 15, seed=2).meta_train.class_ids()
    assert a == b
    assert a != c


def test_split_classes_bounds():
    spec = SyntheticSpec(num_classes=4, dim=2, samples_per_class=2,
                         class_std=1.0, mean_scale=1.0, seed=0)
    table = generate_synthetic(spec)
    with pytest.raises(ArgumentError):
        split_classes(table, 0, seed=1)
    with pytest.raises(ArgumentError):
        split_classes(table, 4, seed=1)
    with pytest.raises(ArgumentError, match="seed must be >= 0, got -1"):
        split_classes(table, 3, seed=-1)


@pytest.mark.parametrize("n_train,seed,message", [
    (3.0, 1, r"n_train_classes must be an integer in \[1, 3\], got 3.0"),
    (np.float64(2.0), 1, "n_train_classes must be an integer"),
    ("2", 1, "n_train_classes must be an integer"),
    (2, 1.0, "seed must be an integer, got 1.0"),
])
def test_split_classes_refuses_counts_and_seeds_it_cannot_use(n_train, seed, message):
    """A float count would fail as a bare ``TypeError`` in the slice.  The
    split seed has no upper bound (``data.split_seed`` takes any
    non-negative integer, see ``test_split_seed_has_no_upper_bound``)."""
    table = generate_synthetic(SyntheticSpec(4, 2, 2, 1.0, 1.0, 0))
    with pytest.raises(ArgumentError, match=message):
        split_classes(table, n_train, seed=seed)
    split_classes(table, np.int64(2), seed=np.uint64(2**64 - 1))   # NumPy integers pass


def test_classes_are_views_of_the_one_pool_array():
    """Parsed, generated or built from records, a table keeps its rows back
    to back in one float64 array, in class order; a class split shares its
    table's array.  Class records are views of it, so writing through one
    changes the table."""
    parsed = parse_feature_dataset("dim=2\n3,1,2\n5,3,4\n3,5,6\n")
    assert parsed.x.tolist() == [[1, 2], [5, 6], [3, 4]]
    assert parsed.class_ids() == [3, 5] and parsed.starts.tolist() == [0, 2]
    generated = generate_synthetic(SyntheticSpec(6, 3, 4, 1.0, 1.0, 0))
    split = split_classes(generated, 2, seed=5)
    built = DatasetTable(2, [ClassRecord(1, np.ones((2, 2), dtype=int)),
                             ClassRecord(0, np.zeros((1, 2)))])
    for table in (parsed, generated, built):
        assert table.x.shape == (table.total_examples, table.dim)
        assert table.starts.tolist() == np.cumsum([0, *table.sizes[:-1]]).tolist()
    sides = (split.meta_train, split.meta_test)
    assert all(table.x is generated.x for table in sides)
    assert [table.total_examples for table in sides] == [8, 16]
    for table in (parsed, generated, built, *sides):
        assert table.x.dtype == np.float64 and table.x.flags.c_contiguous
        for rec, start, size in zip(table.classes, table.starts, table.sizes):
            assert np.shares_memory(rec.examples, table.x)
            assert rec.examples.shape == (size, table.dim)
            rec.examples[-1] = 7.0
            assert (table.x[start + size - 1] == 7.0).all()


def test_classes_are_a_snapshot_and_the_repr_names_the_classes():
    table = DatasetTable(2, [ClassRecord(4, np.zeros((2, 2))), ClassRecord(1, np.ones((1, 2)))])
    table.classes.pop()
    table.classes.append(ClassRecord(9, np.ones((3, 2))))
    assert table.class_ids() == [4, 1] and table.total_examples == 3
    with pytest.raises(AttributeError):
        table.classes[0].examples = np.ones((2, 2))
    assert repr(table) == "DatasetTable(dim=2, ids=[4, 1], sizes=[2, 1])"


# ---------------------------------------------------------------------------
# Bayes oracle


def test_oracle_perfect_when_classes_far_apart():
    spec = SyntheticSpec(num_classes=8, dim=8, samples_per_class=10,
                         class_std=0.01, mean_scale=10.0, seed=21)
    acc = bayes_oracle_accuracy(spec, EpisodeSpec(n_way=5, k_shot=1), 50, seed=3)
    assert acc == 1.0


def test_oracle_chance_when_means_coincide():
    spec = SyntheticSpec(num_classes=8, dim=8, samples_per_class=30,
                         class_std=1.0, mean_scale=0.0, seed=21)
    acc = bayes_oracle_accuracy(spec, EpisodeSpec(n_way=5, k_shot=1), 200, seed=3)
    # 5-way chance is 0.2; 200 episodes x 145 queries gives a tight estimate
    assert abs(acc - 0.2) < 0.02


def test_oracle_decreases_with_overlap():
    kwargs = dict(num_classes=10, dim=16, samples_per_class=20, mean_scale=2.0, seed=7)
    easy = bayes_oracle_accuracy(
        SyntheticSpec(class_std=0.5, **kwargs), EpisodeSpec(), 100, seed=1
    )
    hard = bayes_oracle_accuracy(
        SyntheticSpec(class_std=2.0, **kwargs), EpisodeSpec(), 100, seed=1
    )
    assert easy > hard


def test_oracle_rejects_bad_trials():
    spec = SyntheticSpec(num_classes=8, dim=4, samples_per_class=10,
                         class_std=1.0, mean_scale=1.0, seed=0)
    with pytest.raises(ArgumentError):
        bayes_oracle_accuracy(spec, EpisodeSpec(), 0, seed=1)
    for trials in (2.5, 2.0, "2"):
        with pytest.raises(ArgumentError, match="trials must be an integer"):
            bayes_oracle_accuracy(spec, EpisodeSpec(), trials, seed=1)
