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
parses it, and peaks at about 2.3x the table's arrays on large tables,
when it copies the parsed records into one array per class.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator, TextIO

import numpy as np

from .errors import ArgumentError, BenchError, ParseError
from .rng import INTEGERS, check_count, check_seed

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


@dataclass
class ClassRecord:
    """All examples of one class, in file/generation order."""

    class_id: int
    examples: np.ndarray  # (n_examples, dim) float64


@dataclass
class DatasetTable:
    """A pool of labeled feature vectors grouped by class."""

    dim: int
    classes: list[ClassRecord]

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def total_examples(self) -> int:
        return sum(len(c.examples) for c in self.classes)

    def class_ids(self) -> list[int]:
        return [c.class_id for c in self.classes]

    def validate(self) -> None:
        if self.dim < 1:
            raise ArgumentError(f"dim must be >= 1, got {self.dim}")
        seen: set[int] = set()
        for rec in self.classes:
            if rec.class_id < 0:
                raise ArgumentError(f"negative class_id {rec.class_id}")
            if rec.class_id in seen:
                raise ArgumentError(f"duplicate class_id {rec.class_id}")
            seen.add(rec.class_id)
            if len(rec.examples) == 0:
                raise ArgumentError(f"class {rec.class_id} has no examples")
            if rec.examples.ndim != 2 or rec.examples.shape[1] != self.dim:
                raise ArgumentError(
                    f"class {rec.class_id} examples have shape {rec.examples.shape}, "
                    f"expected (n, {self.dim})"
                )
            if not np.isfinite(rec.examples).all():
                raise ArgumentError(f"class {rec.class_id} contains non-finite values")


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
    ratio mean_scale/class_std controls class overlap.
    """

    num_classes: int
    dim: int
    samples_per_class: int
    class_std: float
    mean_scale: float
    seed: int

    def __post_init__(self) -> None:
        sizes = (self.num_classes, self.dim, self.samples_per_class)
        if not all(isinstance(size, INTEGERS) for size in sizes):
            raise ArgumentError(f"non-integer size field in {self}")
        if min(sizes) < 1:
            raise ArgumentError(f"non-positive size field in {self}")
        # mean_scale == 0 (all class means coincide) is allowed as a degenerate
        # case so the Bayes oracle can be checked against chance level.
        if not (self.class_std > 0 and self.mean_scale >= 0):
            raise ArgumentError("class_std must be positive and mean_scale non-negative")
        check_seed(self.seed)


_BLOCK_CHARS = 1 << 16  # characters per block of feature text read or written
_NARROW_ROWS = 256  # rows per loadtxt call while narrowing a refused block


def parse_feature_dataset(source: str | TextIO) -> DatasetTable:
    """Parse the feature-table format (see the module docstring) from a
    string, or from an open text file starting at its current position.

    The text is read once, in blocks of whole lines of about 64 KiB, and
    each block is checked whole before the next one is read.  Besides one
    block, the parse holds the records read so far, and its traced peak
    is about 2.3x the table's arrays on large tables: 3.3 MiB for 12,000
    rows of 16 values.  The source is never rewound, so piped input
    parses too.

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
    # number of fields; a block it refuses is narrowed to its first bad
    # row, and nothing after that block is read
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
        parts.clear()  # the table's arrays below are the second copy, not the third
        del checked  # it still holds the last block's records
        ids, x = records["id"], records["x"]
        # a duplicate before the first bad row is the first error
        dup = _first_duplicate(np.concatenate(hashes), ids, x)
        if dup is not None:
            raise ParseError(f"duplicate row for class {ids[dup]}", line_no=_line_no(dup, skipped))
    if message is not None:
        raise ParseError(message, line_no=_line_no(n_rows, skipped))
    if n_rows == 0:
        return DatasetTable(dim=dim, classes=[])

    # group by class: a stable sort keeps file order within a class, and
    # each class's first row in file order fixes the class order
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
    ends = np.r_[starts[1:], len(ids)]
    classes = [
        ClassRecord(int(sorted_ids[starts[g]]), x[order[starts[g]:ends[g]]])
        for g in np.argsort(order[starts], kind="stable")
    ]
    return DatasetTable(dim=dim, classes=classes)


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


def _check_rows(
    rows: list[str], dtype, dim: int, step: int = _NARROW_ROWS
) -> tuple[list[np.ndarray], str | None]:
    """Read ``rows`` up to the first one that breaks a rule other than
    duplication: the records of the rows before it, and its error
    message, or None when no row breaks one.

    ``rows`` that ``loadtxt`` refuses are read again ``step`` rows at a
    time, and a part it refuses again a row at a time, so the row-by-row
    reads stay inside one part.
    """
    records = _load(rows, dtype)
    if records is None and len(rows) > 1:
        parts: list[np.ndarray] = []
        for start in range(0, len(rows), step):
            checked, message = _check_rows(rows[start:start + step], dtype, dim, 1)
            parts += checked
            if message is not None:
                return parts, message
        return parts, None
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


def _open_feature_file(path: str, errors: str = "strict") -> TextIO:
    try:
        return open(path, "r", encoding="utf-8", errors=errors)
    except OSError as exc:
        raise ParseError(f"cannot read feature file: {exc}") from None


def load_feature_dataset(path: str) -> DatasetTable:
    """Load and validate a feature-table file.  Row order is preserved.

    A file that cannot be opened, or is not UTF-8 text, raises
    :class:`ParseError`.
    """
    with _open_feature_file(path) as fh:
        return parse_feature_dataset(fh)


def load_feature_header(path: str) -> DatasetTable:
    """The ``dim=<d>`` header of a feature-table file, as a table with no
    classes.  Only line 1 is decoded and checked, with the errors of
    :func:`load_feature_dataset`; the rows after it are not read."""
    # a byte that is not UTF-8 reads as a lone surrogate, which ends no
    # line, so the strict decode below sees line 1's bytes and no others
    with _open_feature_file(path, errors="surrogateescape") as fh:
        line = "".join(fh.readline().splitlines(keepends=True)[:1])
    raw = io.BytesIO(line.encode("utf-8", "surrogateescape"))
    return parse_feature_dataset(io.TextIOWrapper(raw, encoding="utf-8"))


def _feature_chunks(table: DatasetTable) -> Iterator[str]:
    """The text of ``table`` in chunks of whole lines: the header, then
    each class's rows in chunks of at most ``_BLOCK_CHARS`` characters."""
    table.validate()
    yield f"dim={table.dim}\n"
    # with its comma, a rendered value takes at most 25 characters, and so
    # does a class id below 2**63
    step = max(1, _BLOCK_CHARS // (25 * (table.dim + 1)))
    for rec in table.classes:
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
    ``n_train_classes`` and ``seed``.
    """
    total = table.n_classes
    if not (isinstance(n_train_classes, INTEGERS) and 1 <= n_train_classes < total):
        raise ArgumentError(f"n_train_classes must be an integer in [1, {total - 1}], "
                            f"got {n_train_classes!r}")
    if not isinstance(seed, INTEGERS):
        raise ArgumentError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ArgumentError(f"seed must be >= 0, got {seed}")
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    perm = gen.permutation(total)
    train_idx = set(perm[:n_train_classes].tolist())
    train = [rec for i, rec in enumerate(table.classes) if i in train_idx]
    test = [rec for i, rec in enumerate(table.classes) if i not in train_idx]
    return MetaSplit(
        meta_train=DatasetTable(table.dim, train),
        meta_test=DatasetTable(table.dim, test),
    )


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
    classes = [ClassRecord(c, noise[c]) for c in range(spec.num_classes)]
    return DatasetTable(dim=spec.dim, classes=classes)


def bayes_oracle_accuracy(
    spec: SyntheticSpec,
    episode_spec,
    trials: int,
    seed: int,
) -> float:
    """Monte-Carlo accuracy of the Bayes-optimal classifier on the spec's pool.

    The oracle knows the true class means and the (shared, isotropic)
    covariance, so on balanced episodes its rule is nearest-true-mean among
    the episode's classes.  Serves as the reference point that no
    embedding-side method can beat in expectation.
    """
    from .sampler import RngState, sample_episode  # local import to avoid a cycle

    trials = check_count("trials", trials)
    means = synthetic_class_means(spec)
    table = generate_synthetic(spec)
    root = RngState(seed)
    correct = 0
    total = 0
    for i in range(trials):
        ep = sample_episode(table, episode_spec, root.fork(i))
        episode_means = means[ep.class_map]  # (N, dim) true means, episode order
        d2 = ((ep.query_x[:, None, :] - episode_means[None, :, :]) ** 2).sum(axis=2)
        pred = np.argmin(d2, axis=1)
        correct += int((pred == ep.query_y).sum())
        total += len(ep.query_y)
    return correct / total
