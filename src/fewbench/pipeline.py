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
from dataclasses import dataclass, field

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
    BenchError,
    BudgetExceededError,
    ConfigError,
    ParseError,
    ReportError,
)
from .evaluation import AggregateScore, RunResult, evaluate_learner, final_score, render_score_report
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
    """Parse line-oriented ``key = value`` configuration with # comments."""
    out: dict[str, str] = {}
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
        out[key] = value
    return out


_PRESETS = {
    # synthetic stand-ins for the published phase shapes:
    # (num_classes, samples_per_class, n_train_classes)
    "public-like": (1623, 20, 964),
    "feedback-like": (100, 600, 80),
    "final-like": (100, 600, 85),
}


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

    def __post_init__(self) -> None:
        # NaN fails every comparison, so a NaN budget would never expire;
        # inf is allowed and means no limit
        if not self.budget_seconds > 0:
            raise ConfigError(f"phase.budget_seconds must be positive, got {self.budget_seconds}")
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


def _get_int(cfg: dict[str, str], key: str, default: int | None) -> int | None:
    if key not in cfg:
        return default
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {cfg[key]!r}") from None


def _get_float(cfg: dict[str, str], key: str, default: float) -> float:
    if key not in cfg:
        return default
    try:
        return float(cfg[key])
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {cfg[key]!r}") from None


#: Every key ``load_config`` reads, apart from the ``method.<name>.<key>``
#: keys that the method registry declares.
_CONFIG_KEYS = frozenset({
    "phase.name", "phase.seeds", "phase.episode_count", "phase.budget_seconds",
    "data.train_path", "data.test_path", "data.n_train_classes",
    "data.split_seed", "data.synthetic.num_classes",
    "data.synthetic.samples_per_class", "data.synthetic.dim",
    "data.synthetic.class_std", "data.synthetic.mean_scale",
    "data.synthetic.seed", "sampler.n_way", "sampler.k_shot",
    "sampler.query_per_class", "method.name", "paths.workdir",
    "paths.leaderboard", "paths.train_log",
})


def _method_params(cfg: dict[str, str]) -> dict[str, dict[str, str]]:
    """Group the ``method.<name>.<key>`` keys by method, checking those of
    every registered method against its schema, selected or not; reject
    any other key that nothing reads."""
    per_method: dict[str, dict[str, str]] = {}
    for key, value in cfg.items():
        if key in _CONFIG_KEYS:
            continue
        section, _, rest = key.partition(".")
        name, dot, param = rest.partition(".")
        if section == "method" and dot and name in METHODS:
            per_method.setdefault(name, {})[param] = value
            continue
        raise ConfigError(
            f"unknown config key {key!r}; known: {sorted(_CONFIG_KEYS)}, and "
            f"method.<name>.<key> for the methods {sorted(METHODS)}"
        )
    for name, params in per_method.items():
        MethodConfig(name=name, params=params)
    return per_method


def load_config(cfg: dict[str, str]) -> PhaseConfig:
    """Build a validated PhaseConfig from a parsed key/value mapping."""
    method_params = _method_params(cfg)
    name = cfg.get("phase.name", "custom")
    preset = _PRESETS.get(name)

    synthetic = None
    train_path = cfg.get("data.train_path")
    test_path = cfg.get("data.test_path")
    n_train_classes = _get_int(cfg, "data.n_train_classes", None)
    if train_path is None and test_path is None:
        num_classes = _get_int(
            cfg, "data.synthetic.num_classes", preset[0] if preset else 20
        )
        samples = _get_int(
            cfg, "data.synthetic.samples_per_class", preset[1] if preset else 20
        )
        if n_train_classes is None:
            n_train_classes = preset[2] if preset else max(1, (3 * num_classes) // 4)
        synthetic = SyntheticSpec(
            num_classes=num_classes,
            dim=_get_int(cfg, "data.synthetic.dim", 16),
            samples_per_class=samples,
            class_std=_get_float(cfg, "data.synthetic.class_std", 1.0),
            mean_scale=_get_float(cfg, "data.synthetic.mean_scale", 2.0),
            seed=_get_int(cfg, "data.synthetic.seed", 7),
        )
    elif train_path is None or test_path is None:
        raise ConfigError("data.train_path and data.test_path must both be set")

    qpc_raw = cfg.get("sampler.query_per_class", ALL_REMAINING)
    query_per_class: int | str
    if qpc_raw == ALL_REMAINING:
        query_per_class = ALL_REMAINING
    else:
        try:
            query_per_class = int(qpc_raw)
        except ValueError:
            raise ConfigError(
                f"sampler.query_per_class must be an integer or "
                f"'{ALL_REMAINING}', got {qpc_raw!r}"
            ) from None
    episode_spec = EpisodeSpec(
        n_way=_get_int(cfg, "sampler.n_way", 5),
        k_shot=_get_int(cfg, "sampler.k_shot", 1),
        query_per_class=query_per_class,
    )

    seeds_raw = cfg.get("phase.seeds", "101,202,303")
    try:
        seeds = tuple(int(s.strip()) for s in seeds_raw.split(",") if s.strip())
    except ValueError:
        raise ConfigError(f"phase.seeds must be comma-separated integers, got {seeds_raw!r}") from None

    method_name = cfg.get("method.name", "proto")
    method = MethodConfig(name=method_name, params=method_params.get(method_name, {}))

    workdir = cfg.get("paths.workdir", ".")
    return PhaseConfig(
        name=name,
        synthetic=synthetic,
        train_path=train_path,
        test_path=test_path,
        n_train_classes=n_train_classes,
        split_seed=_get_int(cfg, "data.split_seed", 1234),
        episode_spec=episode_spec,
        episode_count=_get_int(cfg, "phase.episode_count", 600),
        budget_seconds=_get_float(cfg, "phase.budget_seconds", 7200.0),
        seeds=seeds,
        method=method,
        workdir=workdir,
        leaderboard_path=cfg.get(
            "paths.leaderboard", os.path.join(workdir, "leaderboard.csv")
        ),
        train_log=cfg.get("paths.train_log", ""),
    )


def load_split(config: PhaseConfig) -> MetaSplit:
    """Materialize the phase's meta-train/meta-test pools.  Feature files
    of different widths raise :class:`ConfigError` before any training.

    Only a method with a ``meta_fit`` reads the meta-train rows; for any
    other method just the train file's header is read and checked, and
    ``meta_train`` is a table of that width with no classes.  A standalone
    :func:`run_ingestion` or :func:`run_scoring` loads less: ingestion
    reads only the test file's header, scoring only the train file's.
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
    clock.check() if clock is not None else None
    learner = meta_fit(config.method, config.episode_spec, split.meta_train, seed,
                       clock=clock, log_path=config.train_log_path(seed))
    if clock is not None:
        clock.check()
    _make_workdir(config.workdir)
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
    header that the width check needs."""
    learner = load_learner(artifact_path)
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
