"""Two-process competition flow: budgeted ingestion and scoring, phases,
three-seed orchestration, and leaderboard reporting.

Ingestion meta-trains a method and saves a learner artifact; scoring loads
the artifact and evaluates it over a seeded 600-episode stream.  Both run
under one shared wallclock budget per seed.  A phase runs the pair three
times with distinct seeds, applies the worst-of-3 rule, and appends one
entry to an append-only leaderboard file.
"""

from __future__ import annotations

import fcntl
import math
import os
import time
from dataclasses import dataclass, field, fields

from .api import METHODS, MethodConfig, load_learner, meta_fit, save_learner
from .dataset import (
    MetaSplit,
    SyntheticSpec,
    generate_synthetic,
    load_feature_dataset,
    load_feature_header,
    read_text,
    split_classes,
    write_text_atomic,
)
from .errors import (
    ArgumentError,
    ArtifactError,
    BenchError,
    BudgetExceededError,
    ConfigError,
    ParseError,
    ReportError,
)
from .evaluation import AggregateScore, RunResult, evaluate_learner, final_score, render_score_report
from .rng import Interval, check_bounds
from .sampler import ALL_REMAINING, EpisodeSpec, check_pool

__all__ = [
    "BudgetClock",
    "PhaseConfig",
    "LeaderboardEntry",
    "parse_config_text",
    "load_config",
    "load_split",
    "run_ingestion",
    "run_scoring",
    "run_phase",
    "append_leaderboard_entry",
    "leaderboard_report",
]


@dataclass
class BudgetClock:
    """Monotonic wallclock budget shared by ingestion and scoring."""

    limit_seconds: float
    start: float = field(default_factory=time.monotonic)

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def remaining(self) -> float:
        return self.limit_seconds - self.elapsed()

    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self) -> None:
        """Raise when the budget has run out; called cooperatively in loops."""
        if self.expired():
            raise BudgetExceededError(
                f"wallclock budget of {self.limit_seconds}s exceeded "
                f"after {self.elapsed():.2f}s"
            )


# ---------------------------------------------------------------------------
# Configuration


def parse_config_text(text: str) -> dict[str, str]:
    """Parse line-oriented ``key = value`` configuration with # comments.
    A key set twice raises :class:`ParseError` at its second line."""
    out: dict[str, str] = {}
    first: dict[str, int] = {}
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", line_no=i)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ParseError("empty key", line_no=i)
        if first.setdefault(key, i) != i:
            raise ParseError(f"{key!r} already set at line {first[key]}", line_no=i)
        out[key] = value
    return out


@dataclass(frozen=True)
class PhaseConfig:
    """Everything one phase run needs, resolved from a config mapping.
    The fields are checked when it is built."""

    name: str
    synthetic: SyntheticSpec | None
    train_path: str | None
    test_path: str | None
    n_train_classes: int | None
    split_seed: int
    episode_spec: EpisodeSpec
    episode_count: int
    budget_seconds: float
    seeds: tuple[int, ...]
    method: MethodConfig
    workdir: str
    leaderboard_path: str
    train_log: str = ""  # paths.train_log; "{seed}" becomes the seed

    # a NaN budget would never expire; inf means no limit
    BOUNDS = {"phase.budget_seconds": Interval("(0, inf]")}

    def __post_init__(self) -> None:
        check_bounds(self.BOUNDS, {"phase.budget_seconds": self.budget_seconds}, ConfigError)
        if self.episode_count < 1:
            raise ConfigError(f"phase.episode_count must be >= 1, got {self.episode_count}")
        if self.split_seed < 0:
            raise ConfigError(f"data.split_seed must be >= 0, got {self.split_seed}")
        for seed in self.seeds:
            if not 0 <= seed < 2**64:
                raise ConfigError(f"phase.seeds must lie in [0, 2**64), got {seed}")
        if len(self.seeds) != 3 or len(set(self.seeds)) != 3:
            raise ConfigError(
                f"phase.seeds must be 3 distinct seeds, got {list(self.seeds)}"
            )

    def artifact_path(self, seed: int) -> str:
        return os.path.join(self.workdir, f"learner_seed{seed}.txt")

    def report_path(self, seed: int) -> str:
        return os.path.join(self.workdir, f"score_seed{seed}.csv")

    def train_log_path(self, seed: int) -> str | None:
        if self.train_log == "":
            return None
        return self.train_log.replace("{seed}", str(seed))


#: Every key ``load_config`` reads and its default, apart from the
#: ``method.<name>.<key>`` keys that the method registry declares.  The
#: ``data.synthetic.*`` and ``sampler.*`` defaults are the fields of
#: :class:`SyntheticSpec` and :class:`EpisodeSpec`.
CONFIG_KEYS = {
    "phase.name": "custom",
    "phase.seeds": (101, 202, 303),
    "phase.episode_count": 600,
    "phase.budget_seconds": 7200.0,
    "data.train_path": None,
    "data.test_path": None,
    "data.n_train_classes": None,  # synthetic: 3/4 of the classes, at least 1
    "data.split_seed": 1234,
    **{f"data.synthetic.{f.name}": f.default for f in fields(SyntheticSpec)},
    **{f"sampler.{f.name}": f.default for f in fields(EpisodeSpec)},
    "method.name": "proto",
    "paths.workdir": ".",
    "paths.leaderboard": None,  # <paths.workdir>/leaderboard.csv
    "paths.train_log": "",
}

#: Synthetic stand-ins for the published phase shapes, by ``phase.name``:
#: overlays of ``CONFIG_KEYS`` for a synthetic phase.
_PRESETS = {
    name: {"data.synthetic.num_classes": classes,
           "data.synthetic.samples_per_class": samples, "data.n_train_classes": train}
    for name, classes, samples, train in (("public-like", 1623, 20, 964),
                                          ("feedback-like", 100, 600, 80),
                                          ("final-like", 100, 600, 85))
}


def _seed_list(text: str) -> tuple[int, ...]:
    return tuple(int(s.strip()) for s in text.split(",") if s.strip())


def _query_count(text: str) -> int | str:
    return ALL_REMAINING if text == ALL_REMAINING else int(text)


#: What a value of each kind must be, for the error naming a bad one.
_KINDS = {int: "an integer", float: "a number", _seed_list: "comma-separated integers",
          _query_count: f"an integer or '{ALL_REMAINING}'"}


def _method_params(cfg: dict[str, str]) -> dict[str, dict[str, str]]:
    """Group the ``method.<name>.<key>`` keys by method, checking those of
    every registered method against its schema, selected or not; reject
    any other key that nothing reads."""
    per_method: dict[str, dict[str, str]] = {}
    for key, value in cfg.items():
        if key in CONFIG_KEYS:
            continue
        section, _, rest = key.partition(".")
        name, dot, param = rest.partition(".")
        if section == "method" and dot and name in METHODS:
            per_method.setdefault(name, {})[param] = value
            continue
        raise ConfigError(
            f"unknown config key {key!r}; known: {sorted(CONFIG_KEYS)}, and "
            f"method.<name>.<key> for the methods {sorted(METHODS)}"
        )
    for name, params in per_method.items():
        MethodConfig(name=name, params=params)
    return per_method


def load_config(cfg: dict[str, str]) -> PhaseConfig:
    """Build a validated PhaseConfig from a parsed key/value mapping.  A key
    left out takes its default from ``CONFIG_KEYS``, or from ``_PRESETS`` in
    a synthetic phase named after a preset; a value that does not convert
    raises :class:`ConfigError` naming the key."""
    method_params = _method_params(cfg)
    synthetic_data = "data.train_path" not in cfg and "data.test_path" not in cfg
    preset = _PRESETS.get(cfg.get("phase.name"), {}) if synthetic_data else {}
    defaults = {**CONFIG_KEYS, **preset}

    def get(key: str, kind=str):
        if key not in cfg:
            return defaults[key]
        try:
            return kind(cfg[key])
        except ValueError:
            raise ConfigError(f"{key} must be {_KINDS[kind]}, got {cfg[key]!r}") from None

    synthetic = n_train_classes = None
    if synthetic_data:
        synthetic = SyntheticSpec(**{f.name: get(f"data.synthetic.{f.name}", type(f.default))
                                     for f in fields(SyntheticSpec)})
        n_train_classes = get("data.n_train_classes", int)
        if n_train_classes is None:
            n_train_classes = max(1, (3 * synthetic.num_classes) // 4)
    elif "data.train_path" not in cfg or "data.test_path" not in cfg:
        raise ConfigError("data.train_path and data.test_path must both be set")
    elif unread := sorted(key for key in cfg if key.startswith("data.synthetic.")
                          or key in ("data.n_train_classes", "data.split_seed")):
        raise ConfigError(f"{', '.join(unread)} set, but only a synthetic phase reads "
                          "them, and this one reads data.train_path and data.test_path")

    episode_spec = EpisodeSpec(get("sampler.n_way", int), get("sampler.k_shot", int),
                               get("sampler.query_per_class", _query_count))
    method_name = get("method.name")
    workdir = get("paths.workdir")
    leaderboard_path = get("paths.leaderboard")
    return PhaseConfig(
        name=get("phase.name"),
        synthetic=synthetic,
        train_path=get("data.train_path"),
        test_path=get("data.test_path"),
        n_train_classes=n_train_classes,
        episode_spec=episode_spec,
        seeds=get("phase.seeds", _seed_list),
        method=MethodConfig(name=method_name, params=method_params.get(method_name, {})),
        split_seed=get("data.split_seed", int),
        episode_count=get("phase.episode_count", int),
        budget_seconds=get("phase.budget_seconds", float),
        workdir=workdir,
        leaderboard_path=(os.path.join(workdir, "leaderboard.csv")
                          if leaderboard_path is None else leaderboard_path),
        train_log=get("paths.train_log"),
    )


def load_split(config: PhaseConfig) -> MetaSplit:
    """Materialize the phase's meta-train/meta-test pools.  Feature files
    of different widths raise :class:`ConfigError` before any training.

    Only a method with a ``meta_fit`` reads the meta-train rows; for any
    other method just the train file's header is read and checked, and
    ``meta_train`` is a table of that width with no classes.  A standalone
    :func:`run_ingestion` or :func:`run_scoring` loads less: ingestion
    reads only the test file's header, scoring only the train file's.
    Phases of one process that load only the same test file parse it
    twice while its bytes do not change, and copy it from the third
    phase on (see :func:`~fewbench.dataset.load_feature_dataset`).
    """
    return _load_split(config, train_rows=_meta_trains(config), test_rows=True)


def _meta_trains(config: PhaseConfig) -> bool:
    return METHODS[config.method.name].meta_fit is not None


def _load_split(config: PhaseConfig, *, train_rows: bool, test_rows: bool) -> MetaSplit:
    """:func:`load_split`, reading the rows of the train and the test file
    only where asked; of a file whose rows are not read just the header is
    read and checked, giving a table of its width with no classes."""
    if config.synthetic is not None:
        table = generate_synthetic(config.synthetic)
        return split_classes(table, config.n_train_classes, config.split_seed)
    train = (load_feature_dataset if train_rows else load_feature_header)(config.train_path)
    test = (load_feature_dataset if test_rows else load_feature_header)(config.test_path)
    if train.dim != test.dim:
        raise ConfigError(f"data.train_path holds {train.dim}-wide features, "
                          f"data.test_path {test.dim}-wide ones")
    return MetaSplit(meta_train=train, meta_test=test)


# ---------------------------------------------------------------------------
# Ingestion / scoring / phase


def _make_workdir(workdir: str) -> None:
    try:
        os.makedirs(workdir, exist_ok=True)
    except OSError as exc:
        raise ArgumentError(f"cannot create workdir {workdir!r}: {exc.strerror or exc}") from None


def run_ingestion(
    config: PhaseConfig,
    seed: int,
    clock: BudgetClock | None = None,
    split: MetaSplit | None = None,
) -> str:
    """Meta-train under the budget clock and save the learner artifact.
    Without ``split`` it loads its own, reading of the test file only the
    header that the width check needs.

    On timeout the budget error propagates and no artifact is written.
    """
    split = split or _load_split(config, train_rows=_meta_trains(config), test_rows=False)
    if clock is not None:
        clock.check()
    # before meta-training, which may write its log into the workdir
    _make_workdir(config.workdir)
    learner = meta_fit(config.method, config.episode_spec, split.meta_train, seed,
                       clock=clock, log_path=config.train_log_path(seed))
    if clock is not None:
        clock.check()
    path = config.artifact_path(seed)
    save_learner(learner, path)
    return path


def run_scoring(
    artifact_path: str,
    config: PhaseConfig,
    seed: int,
    clock: BudgetClock | None = None,
    split: MetaSplit | None = None,
) -> AggregateScore:
    """Load the artifact, evaluate on meta-test, write the score report.
    Without ``split`` it loads its own, reading of the train file only the
    header that the width check needs.  An artifact of another method, or
    of other parameter values, than ``config.method`` raises
    :class:`ArtifactError` before anything is evaluated or written."""
    learner = load_learner(artifact_path)
    ours, theirs = config.method, learner.method
    if (theirs.name, theirs.values) != (ours.name, ours.values):
        raise ArtifactError(f"artifact {artifact_path!r} holds a {theirs.name!r} learner "
                            f"with {theirs.values}, but the config selects {ours.name!r} "
                            f"with {ours.values}")
    split = split or _load_split(config, train_rows=False, test_rows=True)
    score = evaluate_learner(
        learner,
        split.meta_test,
        config.episode_spec,
        config.episode_count,
        seed=seed,
        clock=clock,
    )
    _make_workdir(config.workdir)
    write_text_atomic(config.report_path(seed), render_score_report(score))
    return score


@dataclass(frozen=True)
class LeaderboardEntry:
    """One appended leaderboard line.

    Completed entries carry all three seed results; timed-out or failed
    entries leave the score fields empty.  The wallclock field is the only
    non-deterministic field and is excluded from reproducibility checks.
    ``cause`` names the exception that stopped a timed-out or failed run
    (``"SamplingError: ..."``); it is not part of the leaderboard line.
    """

    method: str
    final: float | None
    seed_results: tuple[tuple[float, float], ...]  # (mean, ci95) per seed
    wallclock: float
    status: str  # completed | timed_out | failed
    cause: str = field(default="", compare=False)

    def render(self) -> str:
        fields = [self.method]
        fields.append("" if self.final is None else repr(self.final))
        for i in range(3):
            if i < len(self.seed_results):
                mean, ci = self.seed_results[i]
                fields += [repr(mean), repr(ci)]
            else:
                fields += ["", ""]
        fields.append(repr(self.wallclock))
        fields.append(self.status)
        return ",".join(fields)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text!r}")
    return value


def parse_leaderboard_entry(line: str, line_no: int | None = None) -> LeaderboardEntry:
    """Parse one leaderboard line.  A completed line carries a final and
    exactly three seed results, and its final is the least of their means;
    any other line carries no final.  Seed results fill the first slots,
    and numbers must be finite."""
    parts = line.split(",")
    if len(parts) != 10:
        raise ReportError(
            f"leaderboard line {line_no}: expected 10 fields, got {len(parts)}"
        )
    try:
        final = _finite(parts[1]) if parts[1] else None
        slots = [i for i in (2, 4, 6) if parts[i] or parts[i + 1]]
        if slots != [2, 4, 6][:len(slots)]:
            raise ValueError("seed results must fill the first slots")
        results = [(_finite(parts[i]), _finite(parts[i + 1])) for i in slots]
        wallclock = _finite(parts[8])
        status = parts[9]
        if status not in ("completed", "timed_out", "failed"):
            raise ValueError(f"bad status {status!r}")
        if status != "completed":
            if final is not None:
                raise ValueError(f"a {status} entry carries a final")
        elif final is None or len(results) != 3 or final != min(m for m, _ in results):
            raise ValueError("a completed entry needs 3 seed results and their "
                             "least mean as its final")
    except ValueError as exc:
        raise ReportError(f"leaderboard line {line_no}: {exc}") from None
    return LeaderboardEntry(
        method=parts[0], final=final, seed_results=tuple(results),
        wallclock=wallclock, status=status,
    )


def append_leaderboard_entry(path: str, entry: LeaderboardEntry) -> None:
    """Append one line under an exclusive lock (concurrent runs serialize).
    A leaderboard that cannot be written raises :class:`ReportError`."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "a", encoding="utf-8") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            try:
                fh.write(entry.render() + "\n")
                fh.flush()
            finally:
                fcntl.flock(fh.fileno(), fcntl.LOCK_UN)
    except OSError as exc:
        raise ReportError(f"cannot append to leaderboard {path!r}: {exc.strerror or exc}") from None


def run_phase(config: PhaseConfig) -> tuple[RunResult | None, LeaderboardEntry]:
    """Three seeded ingestion+scoring runs, worst-of-3, leaderboard append.

    Each seed gets a fresh budget clock shared by its ingestion and
    scoring.  A seed that times out or fails marks the whole entry; the
    competition treats an incomplete submission as having no final score.
    """
    split = load_split(config)
    t0 = time.monotonic()
    scores: list[AggregateScore] = []
    status = "completed"
    cause = ""
    try:
        # a pool too small for the episode shape fails before any training
        check_pool(split.meta_test, config.episode_spec)
        for seed in config.seeds:
            clock = BudgetClock(limit_seconds=config.budget_seconds)
            artifact = run_ingestion(config, seed, clock=clock, split=split)
            scores.append(run_scoring(artifact, config, seed, clock=clock, split=split))
    except BenchError as exc:
        status = "timed_out" if isinstance(exc, BudgetExceededError) else "failed"
        cause = f"{type(exc).__name__}: {exc}"
    wallclock = time.monotonic() - t0

    result = final_score(scores) if status == "completed" else None
    entry = LeaderboardEntry(
        method=config.method.name,
        final=None if result is None else result.final,
        seed_results=tuple((s.mean, s.ci95_halfwidth) for s in scores),
        wallclock=wallclock,
        status=status,
        cause=cause,
    )
    append_leaderboard_entry(config.leaderboard_path, entry)
    return result, entry


def leaderboard_report(path: str) -> str:
    """Ranked text report: completed entries by final score (desc), ties by
    lower wallclock; timed-out and failed entries listed after, unranked."""
    lines = [ln for ln in read_text(path, ReportError, "leaderboard").splitlines() if ln.strip()]
    entries = [
        parse_leaderboard_entry(ln, line_no=i) for i, ln in enumerate(lines, start=1)
    ]
    completed = [e for e in entries if e.status == "completed"]
    others = [e for e in entries if e.status != "completed"]
    completed.sort(key=lambda e: (-e.final, e.wallclock))

    out = ["rank,method,final,wallclock,status"]
    for rank, e in enumerate(completed, start=1):
        out.append(f"{rank},{e.method},{e.final!r},{e.wallclock!r},{e.status}")
    for e in others:
        out.append(f"-,{e.method},,{e.wallclock!r},{e.status}")
    return "\n".join(out) + "\n"
