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
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, ParseError

__all__ = [
    "ClassRecord",
    "DatasetTable",
    "MetaSplit",
    "SyntheticSpec",
    "load_feature_dataset",
    "parse_feature_dataset",
    "write_feature_dataset",
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

    def by_id(self, class_id: int) -> ClassRecord:
        for rec in self.classes:
            if rec.class_id == class_id:
                return rec
        raise ArgumentError(f"no class with id {class_id}")

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
    """Class-disjoint meta-train / meta-test pools."""

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

    def validate(self) -> None:
        if self.num_classes < 1 or self.dim < 1 or self.samples_per_class < 1:
            raise ArgumentError(f"non-positive size field in {self}")
        # mean_scale == 0 (all class means coincide) is allowed as a degenerate
        # case so the Bayes oracle can be checked against chance level.
        if not (self.class_std > 0 and self.mean_scale >= 0):
            raise ArgumentError("class_std must be positive and mean_scale non-negative")
        if not 0 <= int(self.seed) < 2**64:
            raise ArgumentError(f"seed must be a 64-bit unsigned integer, got {self.seed}")


def parse_feature_dataset(text: str) -> DatasetTable:
    """Parse the feature-table format from a string.

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


def load_feature_dataset(path: str) -> DatasetTable:
    """Load and validate a feature-table file.  Row order is preserved."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_feature_dataset(fh.read())


def render_feature_dataset(table: DatasetTable) -> str:
    table.validate()
    out = [f"dim={table.dim}"]
    for rec in table.classes:
        for row in rec.examples:
            out.append(f"{rec.class_id}," + ",".join(render_value(v) for v in row))
    return "\n".join(out) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path``, then rename it
    into place: readers see the old file or the new one, never a partial
    one, and a write that fails leaves the old file untouched."""
    tmp = os.path.join(
        os.path.dirname(path), f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp"
    )
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_feature_dataset(table: DatasetTable, path: str) -> None:
    write_text_atomic(path, render_feature_dataset(table))


def split_classes(table: DatasetTable, n_train_classes: int, seed: int) -> MetaSplit:
    """Partition classes into disjoint meta-train / meta-test pools.

    The assignment is a deterministic function of the table's class list,
    ``n_train_classes`` and ``seed``.
    """
    total = table.n_classes
    if not 1 <= n_train_classes < total:
        raise ArgumentError(
            f"n_train_classes must be in [1, {total - 1}], got {n_train_classes}"
        )
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed))))
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
    spec.validate()
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(spec.seed))))
    return gen.normal(0.0, spec.mean_scale, size=(spec.num_classes, spec.dim))


def generate_synthetic(spec: SyntheticSpec) -> DatasetTable:
    """Synthesize a Gaussian-mixture pool, fully determined by the spec."""
    spec.validate()
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(int(spec.seed))))
    means = gen.normal(0.0, spec.mean_scale, size=(spec.num_classes, spec.dim))
    noise = gen.normal(
        0.0, spec.class_std, size=(spec.num_classes, spec.samples_per_class, spec.dim)
    )
    data = means[:, None, :] + noise
    classes = [ClassRecord(c, data[c]) for c in range(spec.num_classes)]
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

    if trials < 1:
        raise ArgumentError(f"trials must be >= 1, got {trials}")
    means = synthetic_class_means(spec)
    table = generate_synthetic(spec)
    root = RngState(int(seed))
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
