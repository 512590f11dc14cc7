"""Feature-table parsing/rendering, synthetic pools, class splits, oracle."""

import io
import os
import re
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
from fewbench.sampler import EpisodeSpec

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
    table = DatasetTable(dim=dim, classes=classes)
    table.validate()
    return table



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
    refused = [ln for ln in (oracle_line, _first_oracle_only_line(text)) if ln is not None]
    if not refused:
        assert _tables_bitwise_equal(parse(text), expected)
        return
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.line_no == min(refused)


@settings(max_examples=600, deadline=None)
@given(feature_texts())
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

    # a table that fails validation
    bad = DatasetTable(dim=3, classes=[ClassRecord(0, np.zeros((2, 2)))])
    with pytest.raises(ArgumentError):
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
    good = ClassRecord(0, np.zeros((2, 3)))
    with pytest.raises(ArgumentError):
        DatasetTable(dim=3, classes=[good, ClassRecord(0, np.ones((1, 3)))]).validate()
    with pytest.raises(ArgumentError):
        DatasetTable(dim=3, classes=[ClassRecord(1, np.zeros((0, 3)))]).validate()
    with pytest.raises(ArgumentError):
        DatasetTable(dim=2, classes=[good]).validate()


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
