"""Feature-embedding datasets: loading, writing, synthesis, and class splits.

A dataset is a pool of labeled d-dimensional feature vectors grouped by
class.  Pools are stored in a line-oriented text format so fixtures can be
written by hand and runs can be diffed::

    dim=3
    # optional comments
    0,1.0,0.5,-2.25
    1,0.25,0.0,3.5

Values render as the shortest decimal that round-trips a 64-bit float, so
write -> load -> write is byte-stable.

The grammar the parser accepts, line by line (lines split as
``str.splitlines`` splits them, and stripped of surrounding whitespace):

* line 1 is ``dim=<d>``, where ``d`` is written like a class id (below)
  and is at least 1;
* empty lines and lines starting with ``#`` are skipped;
* every other line is a data row: ASCII only, without U+001F, holding
  ``d + 1`` comma-separated fields, each of which may be padded with
  spaces or tabs;
* the first field is the class id: an optional sign and decimal digits,
  with a value in ``[0, 2**63)``;
* the other fields are values in Python's ``float`` syntax without ``_``
  digit separators (``1``, ``-0.5``, ``.5``, ``2.``, ``1e-3``, ``1E+2``),
  and must be finite;
* no row may repeat an earlier row of its class, comparing values as
  floats, so ``0.0`` and ``-0.0`` are the same value.

A class's rows keep their file order, and classes are ordered by their
first row.  Whatever breaks a rule raises :class:`ParseError` naming the
line.

Files are read and written in blocks of 64 KiB of text.  A write holds
one chunk of rows at a time; a load holds one block of text while it
parses it, and peaks at about 2.3x the table's array on large tables,
when it joins the parsed records of the blocks into one array.  Their
values are then gathered, in class order, into the table's one array.

:func:`load_feature_dataset` parses a regular file that is loaded again
and again in a row only while its bytes change: from its second load on
it keeps a private copy of the file's table, checked against the sha256
of the bytes parsed before it is copied out again.  A file loaded once,
and a pipe, are parsed as they are read and nothing is kept.
"""

from __future__ import annotations

import io
import os
import stat
from dataclasses import dataclass
from itertools import chain, repeat
from typing import IO, Iterable, Iterator, TextIO

import numpy as np

from .errors import ArgumentError, BenchError, ParseError
from .rng import Interval, check_bounds, check_count, check_seed, is_integer

__all__ = [
    "ClassRecord",
    "DatasetTable",
    "MetaSplit",
    "SyntheticSpec",
    "load_feature_dataset",
    "load_feature_header",
    "parse_feature_dataset",
    "write_feature_dataset",
    "read_text",
    "write_text_atomic",
    "render_feature_dataset",
    "render_value",
    "split_classes",
    "generate_synthetic",
    "bayes_oracle_accuracy",
]


def render_value(x: float) -> str:
    """Shortest decimal string that round-trips the 64-bit float ``x``."""
    return repr(float(x))


@dataclass(frozen=True)
class ClassRecord:
    """All examples of one class, in file/generation order."""

    class_id: int
    examples: np.ndarray  # (n_examples, dim) float64


def _int64s(name: str, values) -> np.ndarray:
    """``values`` as an int64 array; :class:`ArgumentError` unless each
    entry is an integer (see :func:`is_integer`), never a float, which the
    cast would truncate, nor a bool."""
    for value in values:
        if not is_integer(value):
            raise ArgumentError(f"{name} must be integers, got {value!r}")
    return np.asarray(values, dtype=np.int64)


class DatasetTable:
    """A pool of labeled feature vectors grouped by class.

    Class ``c`` has the id ``ids[c]`` and the rows
    ``x[starts[c]:starts[c] + sizes[c]]``.  A table parsed, generated or
    built from records holds its classes back to back in ``x``, in class
    order (records are copied there once, as float64); a class split
    shares its table's ``x``.  :attr:`classes` is a read-only snapshot of
    records viewing ``x``: changing the list changes no table, so build a
    new table to change its classes.

    A table checks its structure when it is built, and raises
    :class:`ArgumentError` unless ``dim`` is an integer of at least 1 and
    each class has an integer id in ``[0, 2**63)`` that no other class
    has, so ``ids`` is int64, and at least one row of ``dim`` values
    inside ``x``, given by an integer size and start.  Rows can change in
    place, so whether they are finite is checked when the table is
    written.
    """

    def __init__(self, dim: int, classes: Iterable[ClassRecord] = ()):
        classes, dim = list(classes), check_count("dim", dim)
        for rec in classes:
            if np.shape(rec.examples)[1:] != (dim,):
                raise ArgumentError(f"class {rec.class_id} examples have shape "
                                    f"{np.shape(rec.examples)}, expected (n, {dim})")
        x = np.concatenate([rec.examples for rec in classes] or [np.empty((0, dim))],
                           dtype=np.float64)
        self._set(dim, x, [rec.class_id for rec in classes],
                  [len(rec.examples) for rec in classes])

    @classmethod
    def from_rows(cls, dim: int, x: np.ndarray, ids, sizes, starts=None) -> "DatasetTable":
        """The table over the float64 rows ``x``, kept as they are: class
        ``c`` has the id ``ids[c]`` and ``sizes[c]`` rows from row
        ``starts[c]``, by default right after the rows of class ``c - 1``,
        inside ``x``."""
        table = cls.__new__(cls)
        table._set(dim, x, ids, sizes, starts)
        return table

    def _set(self, dim, x, ids, sizes, starts=None) -> None:
        self.dim, self.x = check_count("dim", dim), x
        if x.shape[1:] != (self.dim,):
            raise ArgumentError(f"rows have shape {x.shape}, expected (n, {dim})")
        self.sizes = _int64s("class sizes", sizes)
        self.starts = (np.cumsum(self.sizes) - self.sizes if starts is None
                       else _int64s("class starts", starts))
        if len(ids) != len(self.sizes):
            raise ArgumentError(f"{len(ids)} class ids for {len(self.sizes)} classes")
        if len(self.starts) != len(self.sizes):
            raise ArgumentError(f"{len(self.starts)} starts for {len(self.sizes)} classes")
        seen: dict[int, None] = {}  # the ids checked so far, in class order
        for c, a, m in zip(ids, self.starts.tolist(), self.sizes.tolist()):
            if not is_integer(c):
                raise ArgumentError(f"class_id must be an integer, got {c!r}")
            if c < 0:
                raise ArgumentError(f"negative class_id {c}")
            if int(c) >= 2**63:  # int: NumPy 1 compares an int64 with 2**63 as floats
                raise ArgumentError(f"class_id {c} is too large for a feature file")
            if c in seen:
                raise ArgumentError(f"duplicate class_id {c}")
            if m < 1:
                raise ArgumentError(f"class {c} has no examples")
            if a < 0 or a + m > len(x):
                raise ArgumentError(f"class {c} has rows {a}:{a + m} outside the {len(x)} rows of x")
            seen[int(c)] = None
        self.ids = np.asarray(list(seen), dtype=np.int64)

    def __repr__(self) -> str:
        return (f"DatasetTable(dim={self.dim}, ids={self.ids.tolist()}, "
                f"sizes={self.sizes.tolist()})")

    @property
    def classes(self) -> list[ClassRecord]:
        """Each class's id and rows, the rows a view of ``x``, in a new
        list on each access (see the class docstring)."""
        return [ClassRecord(c, self.x[a:a + m]) for c, a, m in
                zip(self.ids.tolist(), self.starts.tolist(), self.sizes.tolist())]

    @property
    def n_classes(self) -> int:
        return len(self.ids)

    @property
    def total_examples(self) -> int:
        return int(self.sizes.sum())

    def class_ids(self) -> list[int]:
        return self.ids.tolist()


@dataclass
class MetaSplit:
    """Class-disjoint meta-train / meta-test pools.  A split loaded from
    files for a method that does not meta-train holds a meta-train table
    with no classes: only its file's header was read."""

    meta_train: DatasetTable
    meta_test: DatasetTable


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters of a synthetic Gaussian-mixture pool.

    Class means are drawn coordinate-wise from N(0, mean_scale^2); examples
    of a class are the mean plus isotropic N(0, class_std^2) noise.  The
    ratio mean_scale/class_std controls class overlap.  The defaults are
    the pool of a synthetic phase and of ``fewbench gen-synthetic``.
    """

    num_classes: int = 20
    dim: int = 16
    samples_per_class: int = 20
    class_std: float = 1.0
    mean_scale: float = 2.0
    seed: int = 7

    # mean_scale == 0 (all class means coincide) is allowed as a degenerate
    # case so the Bayes oracle can be checked against chance level.
    BOUNDS = {"class_std": Interval("(0, inf)"), "mean_scale": Interval("[0, inf)")}

    def __post_init__(self) -> None:
        sizes = (self.num_classes, self.dim, self.samples_per_class)
        if not all(is_integer(size) for size in sizes):
            raise ArgumentError(f"non-integer size field in {self}")
        if min(sizes) < 1:
            raise ArgumentError(f"non-positive size field in {self}")
        check_bounds(self.BOUNDS, vars(self))
        check_seed(self.seed)


_BLOCK_CHARS = 1 << 16  # characters per block of feature text read or written


def parse_feature_dataset(source: str | TextIO) -> DatasetTable:
    """Parse the feature-table format (see the module docstring) from a
    string, or from an open text file starting at its current position.

    The text is read once, in blocks of whole lines of about 64 KiB, and
    each block is checked whole before the next one is read.  Besides one
    block, the parse holds the records read so far, and its traced peak
    is about 2.3x the table's array on large tables: 3.3 MiB for 12,000
    rows of 16 values.  A block that ``loadtxt`` refuses is read again a
    row at a time up to its first bad row.  The source is never rewound,
    so piped input parses too.

    Raises :class:`ParseError` naming the one-based line number, counted
    from where the source stood, of the first line that breaks the
    format.  Within a line the checks run in the order: field count,
    class id, negative class id, value, non-finite value, duplicated
    (class, row) pair.  A file that is not text in its encoding raises
    :class:`ParseError` without a line.
    """
    source = io.StringIO(source) if isinstance(source, str) else source
    blocks = _read_blocks(source)
    lines = next(blocks, "").splitlines()
    if not lines:
        raise ParseError("empty input, expected 'dim=<d>' header", line_no=1)
    header = lines[0].strip()
    if not header.startswith("dim="):
        raise ParseError(f"expected 'dim=<d>' header, got {header!r}", line_no=1)
    # ``d`` has the grammar of a class id, read by the same reader
    dim_text = header[len("dim="):]
    dim_record = _load([dim_text], np.int64) if dim_text.strip() else None
    if dim_record is None:
        raise ParseError(f"bad dimension in header {header!r}", line_no=1)
    dim = int(dim_record[0])
    if dim < 1:
        raise ParseError(f"dimension must be >= 1, got {dim}", line_no=1)
    dtype = _record_dtype(dim)

    # one loadtxt pass per block, which also rejects a row with the wrong
    # number of fields; a block it refuses is read again a row at a time up
    # to its first bad row, and nothing after that block is read
    parts, hashes, skipped = [], [], []  # skipped: lines that are not data rows
    first_line, message = 2, None
    for lines in chain([lines[1:]], map(str.splitlines, blocks)):
        rows = [line for line in map(str.strip, lines) if line and line[0] != "#"]
        if len(rows) < len(lines):
            skipped += [n for n, line in enumerate(map(str.strip, lines), first_line)
                        if not line or line[0] == "#"]
        first_line += len(lines)
        if rows:
            checked, message = _check_rows(rows, dtype, dim)
            parts += checked
            hashes += map(_row_hashes, checked)
            if message is not None:
                break
    del lines, rows  # the last block's lines are not kept through the copies below
    n_rows = sum(map(len, parts))
    if parts:
        records = np.concatenate(parts)
        parts.clear()  # the table's array below is the second copy, not the third
        del checked  # it still holds the last block's records
        ids, x = records["id"], records["x"]
        # a duplicate before the first bad row is the first error
        dup = _first_duplicate(np.concatenate(hashes), ids, x)
        if dup is not None:
            raise ParseError(f"duplicate row for class {ids[dup]}", line_no=_line_no(dup, skipped))
    if message is not None:
        raise ParseError(message, line_no=_line_no(n_rows, skipped))
    if n_rows == 0:
        return DatasetTable(dim=dim)

    # group by class: a stable sort keeps file order within a class, and
    # each class's first row in file order fixes the class order
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    ends = np.r_[starts[1:], len(ids)]
    groups = np.argsort(order[starts], kind="stable")
    rows = np.concatenate([order[starts[g]:ends[g]] for g in groups])
    return DatasetTable.from_rows(dim, x[rows], sorted_ids[starts[groups]],
                                  (ends - starts)[groups])


def _read_blocks(source: TextIO) -> Iterator[str]:
    """The text of ``source`` in blocks of whole lines: each block ends at
    the first ``\\n`` at or after ``_BLOCK_CHARS`` characters, or at the end
    of the text.  A ``\\n`` ends a line in every newline convention, so no
    block splits a line or a ``\\r\\n`` pair."""
    while True:
        try:
            block = source.read(_BLOCK_CHARS)
            if block and block[-1] != "\n":
                block += source.readline()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not {exc.encoding} text: {exc.reason}") from None
        if not block:
            return
        yield block


def _line_no(row: int, skipped: list[int]) -> int:
    """The line number of data row ``row``, counted from 0, given the
    ascending numbers of the lines after the header that are not data
    rows."""
    line_no = 2 + row
    for n in skipped:
        if n > line_no:
            break
        line_no += 1
    return line_no


def _record_dtype(dim: int) -> list:
    # a spec, not an np.dtype: loadtxt builds it inside _load, so a ``d``
    # too large for one record is a row that does not parse
    return [("id", np.int64), ("x", np.float64, (dim,))]


def _load(rows: list[str], dtype) -> np.ndarray | None:
    """One ``np.loadtxt`` pass over comma-separated ``rows``: one record per
    row, or None when a row does not parse.

    Rows must be ASCII: numpy's integer reader has crashed the process on
    some non-ASCII characters.  U+001F is refused too, because loadtxt
    skips it as padding where ``int`` and ``float`` reject it.
    """
    if not all(map(str.isascii, rows)) or any(map(str.__contains__, rows, repeat("\x1f"))):
        return None
    try:
        records = np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    return records if len(records) == len(rows) else None


def _row_hashes(records: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each record's class id and values.

    Adding +0.0 folds -0.0 into +0.0, so rows of one class that compare
    equal as floats have equal bits, and so equal hashes.
    """
    bits = (records["x"] + 0.0).view(np.uint64)
    mult = (np.arange(bits.shape[1], dtype=np.uint64) * 2 + 1) * np.uint64(0x9E3779B97F4A7C15)
    h = ((bits ^ (bits >> np.uint64(29))) * mult).sum(axis=1, dtype=np.uint64)
    return h + records["id"].astype(np.uint64) * np.uint64(0xC2B2AE3D27D4EB4F)


def _first_duplicate(h: np.ndarray, ids: np.ndarray, x: np.ndarray) -> int | None:
    """The index of the first row that compares equal as floats to an
    earlier row of its class, or None, given the rows' :func:`_row_hashes`
    ``h``.  Only rows that share a hash are compared exactly, so the exact
    pass is empty unless a duplicate is likely."""
    order = np.argsort(h)
    same = h[order[1:]] == h[order[:-1]]
    if not same.any():
        return None
    seen: set[tuple[int, bytes]] = set()
    for i in np.union1d(order[1:][same], order[:-1][same]).tolist():
        key = (int(ids[i]), (x[i] + 0.0).tobytes())
        if key in seen:
            return i
        seen.add(key)
    return None


def _check_rows(rows: list[str], dtype, dim: int) -> tuple[list[np.ndarray], str | None]:
    """Read ``rows`` up to the first one that breaks a rule other than
    duplication: the records of the rows before it, and its error
    message, or None when no row breaks one.

    ``rows`` that ``loadtxt`` refuses together are read again a row at a
    time, up to the first one that it refuses alone; the rows before that
    one are then read together, since it reads them each alone.
    """
    records = _load(rows, dtype)
    if records is None and len(rows) > 1:
        k = next(k for k, row in enumerate(rows) if _load([row], dtype) is None)
        parts, message = _check_rows(rows[:k], dtype, dim) if k else ([], None)
        return parts, message or _row_error(rows[k], dim)
    if records is None:
        return [], _row_error(rows[0], dim)
    negative = records["id"] < 0
    bad = negative | ~np.isfinite(records["x"]).all(axis=1)
    if not bad.any():
        return [records], None
    k = int(bad.argmax())
    message = f"negative class id {records['id'][k]}" if negative[k] else "non-finite value in row"
    return [records[:k]] if k else [], message


def _row_error(row: str, dim: int) -> str:
    """The error message of a data row that ``loadtxt`` refuses alone."""
    n_values = row.count(",")
    if n_values != dim:
        return f"row has {n_values} values, expected {dim}"
    id_text = row.partition(",")[0]
    class_id = _load([id_text], np.int64) if id_text.strip() else None
    if class_id is None:
        return f"bad class id {id_text!r}"
    if class_id[0] < 0:
        return f"negative class id {class_id[0]}"
    return f"unparseable value in row {row!r}"


def _open_feature_file(path: str, mode: str, **kwargs) -> IO:
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise ParseError(f"cannot read feature file: {exc}") from None


class _HashingReader(io.RawIOBase):
    """A raw reader over the binary file ``raw`` that feeds each byte it
    reads to its ``digest``, so a text wrapper over it hashes exactly the
    bytes that it decodes, and reading it to the end hashes the rest of
    the file."""

    def __init__(self, raw, digest):
        self._raw, self.digest = raw, digest

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int | None:
        n = self._raw.readinto(buffer)
        if n:
            self.digest.update(memoryview(buffer)[:n])
        return n


# The last regular file loaded, under its (st_dev, st_ino): None after its
# first load, and from its second load in a row on, the sha256 of the bytes
# it last parsed with a private copy of their table.
_memo: dict[tuple[int, int], tuple[bytes, DatasetTable] | None] = {}


def _copy_table(table: DatasetTable) -> DatasetTable:
    return DatasetTable.from_rows(table.dim, table.x.copy(), table.ids.copy(),
                                  table.sizes.copy(), table.starts.copy())


def _sha256():
    # imported when first used: hashlib loads OpenSSL, about 3.6 MB
    # resident, which a process that loads each file once never needs
    import hashlib

    return hashlib.sha256()


def load_feature_dataset(path: str) -> DatasetTable:
    """Load a feature-table file, parsed and checked by :func:`parse_feature_dataset`.

    A file that cannot be opened, or is not UTF-8 text, raises
    :class:`ParseError`.

    A regular file that is loaded again and again, with no other file
    loaded in between, is parsed only while its bytes change.  Its first
    load parses it and keeps only its device and inode.  The second load
    in a row parses it too, hashing the bytes it parses with sha256, and
    keeps a private copy of the table.  Each later load in a row hashes
    the file and returns a new copy of the kept table if the bytes are
    those parsed, or parses them again if not.  So a load always returns
    the table of the bytes it read and shares memory with no other load;
    a file loaded once costs no more than its parse, and a load of
    another file, or of a pipe, drops the kept table.
    """
    with _open_feature_file(path, "rb", buffering=0) as raw:
        info = os.fstat(raw.fileno())
        key = (info.st_dev, info.st_ino) if stat.S_ISREG(info.st_mode) else None
        again = key is not None and key in _memo
        kept = _memo.pop(key, None)
        _memo.clear()
        if kept is not None:
            hashing = _HashingReader(raw, _sha256())
            while hashing.read(1 << 16):
                pass
            if hashing.digest.digest() == kept[0]:
                _memo[key] = kept
                return _copy_table(kept[1])
            raw.seek(0)
        reader = _HashingReader(raw, _sha256()) if again else raw
        with io.TextIOWrapper(io.BufferedReader(reader), encoding="utf-8") as fh:
            table = parse_feature_dataset(fh)
    if key is not None:
        _memo[key] = (reader.digest.digest(), _copy_table(table)) if again else None
    return table


def load_feature_header(path: str) -> DatasetTable:
    """The ``dim=<d>`` header of a feature-table file, as a table with no
    classes.  Only line 1 is decoded and checked, with the errors of
    :func:`load_feature_dataset`; the rows after it are not read."""
    # a byte that is not UTF-8 reads as a lone surrogate, which ends no
    # line, so the strict decode below sees line 1's bytes and no others
    with _open_feature_file(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        line = "".join(fh.readline().splitlines(keepends=True)[:1])
    raw = io.BytesIO(line.encode("utf-8", "surrogateescape"))
    return parse_feature_dataset(io.TextIOWrapper(raw, encoding="utf-8"))


def _feature_chunks(table: DatasetTable) -> Iterator[str]:
    """The text of ``table`` in chunks of whole lines: the header, then
    each class's rows in chunks of at most ``_BLOCK_CHARS`` characters,
    checked finite first, since rows can change in place after a build."""
    yield f"dim={table.dim}\n"
    # with its comma, a rendered value takes at most 25 characters, and so
    # does a class id below 2**63
    step = max(1, _BLOCK_CHARS // (25 * (table.dim + 1)))
    for rec in table.classes:
        if not np.isfinite(rec.examples).all():
            raise ArgumentError(f"class {rec.class_id} contains non-finite values")
        prefix = f"{rec.class_id},"
        for start in range(0, len(rec.examples), step):
            # tolist() gives Python floats, whose repr is render_value's output
            rows = rec.examples[start:start + step].tolist()
            yield "".join([prefix + ",".join(map(repr, row)) + "\n" for row in rows])


def render_feature_dataset(table: DatasetTable) -> str:
    return "".join(_feature_chunks(table))


def _write_chunks_atomic(path: str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` to a temporary file beside ``path``, then rename it
    into place: readers see the old file or the new one, never a partial
    one, and a write that fails leaves the old file untouched.  A temporary
    file that cannot be created or renamed raises :class:`ArgumentError`
    naming ``path``; any other failure propagates as it is."""
    tmp = os.path.join(
        os.path.dirname(path), f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp"
    )
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise ArgumentError(f"cannot write {path!r}: {exc.strerror or exc}") from None
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except BaseException:
        os.unlink(tmp)
        raise
    try:
        os.replace(tmp, path)
    except OSError as exc:
        os.unlink(tmp)
        raise ArgumentError(f"cannot write {path!r}: {exc.strerror or exc}") from None


def read_text(path: str, error: type[BenchError], what: str) -> str:
    """The whole UTF-8 text of ``path``; a file that cannot be read, or is
    not UTF-8, raises ``error`` with the message ``cannot read <what>: ...``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what}: {exc}") from None


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` atomically: readers see the old file or
    the new one, never a partial one."""
    _write_chunks_atomic(path, [text])


def write_feature_dataset(table: DatasetTable, path: str) -> None:
    """Write ``table`` to ``path`` atomically, a chunk of rows at a time."""
    _write_chunks_atomic(path, _feature_chunks(table))


def split_classes(table: DatasetTable, n_train_classes: int, seed: int) -> MetaSplit:
    """Partition classes into disjoint meta-train / meta-test pools.

    The assignment is a deterministic function of the table's class list,
    ``n_train_classes`` and ``seed``.  Both pools share the table's rows.
    """
    total = table.n_classes
    if not (is_integer(n_train_classes) and 1 <= n_train_classes < total):
        raise ArgumentError(f"n_train_classes must be an integer in [1, {total - 1}], "
                            f"got {n_train_classes!r}")
    check_count("seed", seed, 0)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    train = np.zeros(total, dtype=bool)
    train[gen.permutation(total)[:n_train_classes]] = True
    side = [DatasetTable.from_rows(table.dim, table.x, table.ids[pick], table.sizes[pick],
                                   table.starts[pick]) for pick in (train, ~train)]
    return MetaSplit(meta_train=side[0], meta_test=side[1])


def synthetic_class_means(spec: SyntheticSpec) -> np.ndarray:
    """True class means of the synthetic pool, shape (num_classes, dim)."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))
    return gen.normal(0.0, spec.mean_scale, size=(spec.num_classes, spec.dim))


def generate_synthetic(spec: SyntheticSpec) -> DatasetTable:
    """Synthesize a Gaussian-mixture pool, fully determined by the spec."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(spec.seed)))
    means = gen.normal(0.0, spec.mean_scale, size=(spec.num_classes, spec.dim))
    noise = gen.normal(
        0.0, spec.class_std, size=(spec.num_classes, spec.samples_per_class, spec.dim)
    )
    noise += means[:, None, :]  # in place: the noise array becomes the pool
    return DatasetTable.from_rows(spec.dim, noise.reshape(-1, spec.dim),
                                  range(spec.num_classes),
                                  [spec.samples_per_class] * spec.num_classes)


def bayes_oracle_accuracy(spec: SyntheticSpec, episode_spec, trials: int, seed: int) -> float:
    """Monte-Carlo accuracy of the Bayes-optimal classifier on the spec's pool.

    The oracle knows the true class means and the (shared, isotropic)
    covariance, so on balanced episodes its rule is nearest-true-mean among
    the episode's classes.  Serves as the reference point that no
    embedding-side method can beat in expectation.
    """
    from .sampler import episode_stream  # local import to avoid a cycle

    trials = check_count("trials", trials)
    means = synthetic_class_means(spec)
    correct = total = 0
    for ep in episode_stream(generate_synthetic(spec), episode_spec, trials, seed):
        episode_means = means[ep.class_map]  # (N, dim) true means, episode order
        d2 = ((ep.query_x[:, None, :] - episode_means[None, :, :]) ** 2).sum(axis=2)
        pred = np.argmin(d2, axis=1)
        correct += int((pred == ep.query_y).sum())
        total += len(ep.query_y)
    return correct / total
