"""Phase orchestration: config parsing, budgets, artifacts, leaderboard."""

import os
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewbench import pipeline
from fewbench.api import METHODS
from fewbench.api import load_learner
from fewbench.dataset import write_feature_dataset, generate_synthetic, SyntheticSpec
from fewbench.errors import (
    ArgumentError,
    ArtifactError,
    BudgetExceededError,
    ConfigError,
    ParseError,
    ReportError,
)
from fewbench.pipeline import (
    BudgetClock,
    LeaderboardEntry,
    append_leaderboard_entry,
    leaderboard_report,
    load_config,
    load_split,
    parse_config_text,
    parse_leaderboard_entry,
    run_ingestion,
    run_phase,
    run_scoring,
)
from fewbench.sampler import ALL_REMAINING


def small_cfg(tmp_path, **extra):
    """A complete fast-running phase config over easy synthetic data."""
    cfg = {
        "data.synthetic.num_classes": "12",
        "data.synthetic.dim": "4",
        "data.synthetic.samples_per_class": "6",
        "data.synthetic.class_std": "0.1",
        "data.synthetic.mean_scale": "3.0",
        "data.synthetic.seed": "3",
        "data.n_train_classes": "6",
        "phase.episode_count": "4",
        "phase.budget_seconds": "60",
        "paths.workdir": str(tmp_path / "work"),
    }
    cfg.update({k: str(v) for k, v in extra.items()})
    return load_config(cfg)


# ---------------------------------------------------------------------------
# Config text


def test_parse_config_text():
    text = (
        "# comment\n"
        "\n"
        "phase.name = public-like\n"
        "method.proto.metric=cosine\n"
        "weird = a = b\n"
    )
    cfg = parse_config_text(text)
    assert cfg == {
        "phase.name": "public-like",
        "method.proto.metric": "cosine",
        "weird": "a = b",
    }


def test_parse_config_text_errors_carry_line_numbers():
    with pytest.raises(ParseError) as err:
        parse_config_text("a = 1\nnot a pair\n")
    assert err.value.line_no == 2
    with pytest.raises(ParseError) as err:
        parse_config_text("a = 1\nb = 2\n = headless\n")
    assert err.value.line_no == 3


def test_load_config_defaults():
    cfg = load_config({})
    assert cfg.method.name == "proto"
    assert cfg.episode_spec.n_way == 5
    assert cfg.episode_spec.k_shot == 1
    assert cfg.episode_spec.query_per_class == ALL_REMAINING
    assert cfg.episode_count == 600
    assert cfg.budget_seconds == 7200.0
    assert cfg.seeds == (101, 202, 303)
    assert cfg.split_seed == 1234
    assert cfg.synthetic.num_classes == 20
    assert cfg.synthetic.dim == 16
    assert cfg.n_train_classes == 15


@pytest.mark.parametrize(
    "name,classes,samples,train_classes",
    [
        ("public-like", 1623, 20, 964),
        ("feedback-like", 100, 600, 80),
        ("final-like", 100, 600, 85),
    ],
)
def test_load_config_presets(name, classes, samples, train_classes):
    cfg = load_config({"phase.name": name})
    assert cfg.synthetic.num_classes == classes
    assert cfg.synthetic.samples_per_class == samples
    assert cfg.n_train_classes == train_classes


def test_load_config_scopes_method_params():
    cfg = load_config({
        "method.name": "qda",
        "method.qda.shrinkage": "0.25",
        "method.proto.metric": "cosine",  # other method's knob: ignored
    })
    assert cfg.method.params == {"shrinkage": "0.25"}
    assert cfg.method.validate()["shrinkage"] == 0.25


@pytest.mark.parametrize(
    "overrides",
    [
        {"data.synthetic.num_classes": "many"},
        {"phase.budget_seconds": "soon"},
        {"phase.budget_seconds": "0"},
        {"phase.budget_seconds": "nan"},
        {"phase.episode_count": "0"},
        {"phase.seeds": "1,two,3"},
        {"phase.seeds": "-1,2,3"},
        {"phase.seeds": f"1,2,{2**64}"},
        {"data.split_seed": "-1"},
        {"data.train_path": "only_half.csv"},
        {"sampler.query_per_class": "some"},
        {"method.name": "mystery"},
        {"method.name": "qda", "method.qda.shrinkage": "2"},
        {"method.name": "fomaml", "method.fomaml.hidden": "0"},
        {"method.name": "fomaml", "method.fomaml.meta_batch": "0"},
        {"method.name": "linear", "method.linear.pretrain_batches": "0"},
        {"method.name": "proto", "method.ptmap.step_size": "1.5"},
    ],
)
def test_load_config_rejects(overrides):
    with pytest.raises(ConfigError):
        load_config(overrides)


def test_load_config_rejects_unknown_top_level_keys():
    for key in ("phase.episode_cuont", "phase.workers", "method.data_mode",
                "method.mystery.depth", "paths"):
        with pytest.raises(ConfigError) as err:
            load_config({key: "5"})
        message = str(err.value)
        assert repr(key) in message
        assert "'phase.episode_count'" in message and "'paths.train_log'" in message


def test_load_config_checks_every_registered_method_schema():
    # a phase config may carry other methods' keys, as long as they are valid
    cfg = load_config({
        "method.name": "proto",
        "method.fomaml.epochs": "15",
        "paths.train_log": "log_{seed}.csv",
    })
    assert cfg.method.params == {}
    assert cfg.train_log_path(7) == "log_7.csv"
    for key, value in (("method.fomaml.epochz", "15"),
                       ("method.fomaml.epochs", "many"),
                       ("method.rect.metric", "bogus")):
        with pytest.raises(ConfigError) as err:
            load_config({"method.name": "proto", key: value})
        assert key.rsplit(".", 1)[1] in str(err.value)


def test_load_config_rejects_unknown_metric():
    with pytest.raises(ConfigError) as err:
        load_config({"method.name": "proto", "method.proto.metric": "bogus"})
    assert "'euclidean'" in str(err.value) and "'cosine'" in str(err.value)


def test_load_split_synthetic_partitions_classes(tmp_path):
    cfg = small_cfg(tmp_path)
    split = load_split(cfg)
    assert split.meta_train.n_classes == 6
    assert split.meta_test.n_classes == 6
    train_ids = set(split.meta_train.class_ids())
    test_ids = set(split.meta_test.class_ids())
    assert train_ids.isdisjoint(test_ids)


def test_load_split_from_files(tmp_path):
    table = generate_synthetic(SyntheticSpec(
        num_classes=4, dim=3, samples_per_class=5,
        class_std=1.0, mean_scale=1.0, seed=1,
    ))
    train_path = str(tmp_path / "train.csv")
    test_path = str(tmp_path / "test.csv")
    write_feature_dataset(table, train_path)
    write_feature_dataset(table, test_path)
    cfg = load_config({"data.train_path": train_path, "data.test_path": test_path})
    split = load_split(cfg)
    assert split.meta_train.n_classes == 4
    assert split.meta_test.total_examples == 20


# ---------------------------------------------------------------------------
# Budget clock


def test_budget_clock_passes_then_expires():
    roomy = BudgetClock(limit_seconds=100.0)
    assert not roomy.expired()
    assert 0.0 < roomy.remaining() <= 100.0
    roomy.check()  # no raise

    spent = BudgetClock(limit_seconds=0.0)
    assert spent.expired()
    with pytest.raises(BudgetExceededError):
        spent.check()


def test_infinite_budget_loads_and_never_expires():
    cfg = load_config({"phase.budget_seconds": "inf",
                       "phase.seeds": f"0,1,{2**64 - 1}"})
    assert cfg.budget_seconds == float("inf")
    assert cfg.seeds == (0, 1, 2**64 - 1)
    clock = BudgetClock(limit_seconds=cfg.budget_seconds)
    assert not clock.expired()
    clock.check()  # no raise


def test_split_seed_has_no_upper_bound():
    # SeedSequence takes any non-negative integer; only negatives are refused
    cfg = load_config({"data.split_seed": str(2**70),
                       "data.synthetic.num_classes": "6",
                       "data.synthetic.samples_per_class": "3",
                       "data.n_train_classes": "3"})
    assert cfg.split_seed == 2**70
    split = load_split(cfg)
    assert split.meta_train.n_classes == 3
    assert split.meta_test.n_classes == 3


def test_budget_clock_elapsed_grows():
    clock = BudgetClock(limit_seconds=10.0)
    first = clock.elapsed()
    time.sleep(0.01)
    assert clock.elapsed() > first


# ---------------------------------------------------------------------------
# Ingestion and scoring


def test_ingestion_saves_loadable_artifact(tmp_path):
    cfg = small_cfg(tmp_path)
    path = run_ingestion(cfg, seed=101)
    assert path == cfg.artifact_path(101)
    learner = load_learner(path)
    assert learner.method.name == "proto"
    assert learner.provenance.seed == 101


def test_ingestion_timeout_leaves_no_artifact(tmp_path):
    cfg = small_cfg(tmp_path)
    with pytest.raises(BudgetExceededError):
        run_ingestion(cfg, seed=101, clock=BudgetClock(limit_seconds=0.0))
    assert not os.path.exists(cfg.artifact_path(101))


def test_scoring_requires_artifact(tmp_path):
    cfg = small_cfg(tmp_path)
    with pytest.raises(ArtifactError):
        run_scoring(cfg.artifact_path(101), cfg, seed=101)


def test_scoring_writes_report(tmp_path):
    cfg = small_cfg(tmp_path)
    artifact = run_ingestion(cfg, seed=101)
    score = run_scoring(artifact, cfg, seed=101)
    assert score.episode_count == 4
    text = open(cfg.report_path(101), encoding="utf-8").read()
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[-1].startswith("aggregate,")


def test_failed_report_write_keeps_earlier_report(tmp_path, monkeypatch):
    cfg = small_cfg(tmp_path)
    artifact = run_ingestion(cfg, seed=101)
    run_scoring(artifact, cfg, seed=101)
    before = open(cfg.report_path(101), "rb").read()
    listing = sorted(os.listdir(cfg.workdir))

    def broken_render(score):
        raise ReportError("render failed")

    monkeypatch.setattr(pipeline, "render_score_report", broken_render)
    with pytest.raises(ReportError):
        run_scoring(artifact, cfg, seed=101)
    monkeypatch.undo()

    def broken_replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", broken_replace)
    with pytest.raises(OSError):
        run_scoring(artifact, cfg, seed=101)
    monkeypatch.undo()
    assert open(cfg.report_path(101), "rb").read() == before
    assert sorted(os.listdir(cfg.workdir)) == listing


def test_scoring_timeout_leaves_no_report(tmp_path):
    cfg = small_cfg(tmp_path)
    artifact = run_ingestion(cfg, seed=101)
    with pytest.raises(BudgetExceededError):
        run_scoring(artifact, cfg, seed=101, clock=BudgetClock(limit_seconds=0.0))
    assert not os.path.exists(cfg.report_path(101))


# ---------------------------------------------------------------------------
# Phase runs


def test_run_phase_completed(tmp_path):
    cfg = small_cfg(tmp_path)
    result, entry = run_phase(cfg)
    assert entry.status == "completed"
    assert result is not None
    means = [s.mean for s in result.per_seed]
    assert result.final == min(means)
    assert entry.final == result.final
    assert len(entry.seed_results) == 3
    for seed in cfg.seeds:
        assert os.path.exists(cfg.artifact_path(seed))
        assert os.path.exists(cfg.report_path(seed))
    board = open(cfg.leaderboard_path, encoding="utf-8").read().splitlines()
    assert len(board) == 1
    assert parse_leaderboard_entry(board[0]) == entry


def test_run_phase_requires_three_distinct_seeds(tmp_path):
    with pytest.raises(ConfigError):
        run_phase(small_cfg(tmp_path, **{"phase.seeds": "1,2"}))
    with pytest.raises(ConfigError):
        run_phase(small_cfg(tmp_path, **{"phase.seeds": "1,2,2"}))


def test_run_phase_timeout_marks_timed_out(tmp_path):
    cfg = small_cfg(
        tmp_path,
        **{
            "method.name": "sleeper",
            "method.sleeper.duration_seconds": "30",
            "phase.budget_seconds": "0.2",
        },
    )
    result, entry = run_phase(cfg)
    assert result is None
    assert entry.status == "timed_out"
    assert entry.final is None
    assert entry.cause.startswith("BudgetExceededError: ")
    assert not os.path.exists(cfg.artifact_path(cfg.seeds[0]))
    board = open(cfg.leaderboard_path, encoding="utf-8").read().splitlines()
    assert parse_leaderboard_entry(board[0]).status == "timed_out"


def test_run_phase_failure_marks_failed(tmp_path):
    # 6 samples per class cannot fill a 7-shot episode: scoring fails
    cfg = small_cfg(tmp_path, **{"sampler.k_shot": "7"})
    result, entry = run_phase(cfg)
    assert result is None
    assert entry.status == "failed"
    assert entry.final is None
    assert entry.cause.startswith("SamplingError: ")
    # the cause stays out of the 10-field leaderboard line
    board = open(cfg.leaderboard_path, encoding="utf-8").read()
    assert "SamplingError" not in board
    assert parse_leaderboard_entry(board.splitlines()[0]) == entry


def test_run_phase_is_deterministic_except_wallclock(tmp_path):
    entries = []
    artifacts = []
    reports = []
    for name in ("a", "b"):
        cfg = small_cfg(tmp_path / name)
        _, entry = run_phase(cfg)
        entries.append(entry)
        artifacts.append([
            open(cfg.artifact_path(s), encoding="utf-8").read() for s in cfg.seeds
        ])
        reports.append([
            open(cfg.report_path(s), encoding="utf-8").read() for s in cfg.seeds
        ])
    assert artifacts[0] == artifacts[1]
    assert reports[0] == reports[1]
    a, b = entries
    assert (a.method, a.final, a.seed_results, a.status) == \
           (b.method, b.final, b.seed_results, b.status)


# ---------------------------------------------------------------------------
# Leaderboard


def entry_of(method, final, wallclock, status="completed"):
    results = ((final, 0.01),) * 3 if final is not None else ()
    return LeaderboardEntry(method=method, final=final, seed_results=results,
                            wallclock=wallclock, status=status)


def test_leaderboard_entry_round_trip():
    full = entry_of("proto", 0.8125, 12.5)
    assert parse_leaderboard_entry(full.render()) == full
    empty = entry_of("fomaml", None, 3.25, status="failed")
    assert parse_leaderboard_entry(empty.render()) == empty
    partial = LeaderboardEntry(
        method="qda", final=None, seed_results=((0.5, 0.02),),
        wallclock=1.5, status="timed_out",
    )
    assert parse_leaderboard_entry(partial.render()) == partial


@pytest.mark.parametrize(
    "line",
    [
        "proto,0.5,0.5,0.1,0.5,0.1,0.5,0.1,2.0",          # 9 fields
        "proto,0.5,0.5,0.1,0.5,0.1,0.5,0.1,2.0,walking",  # bad status
        "proto,half,,,,,,,2.0,failed",                     # bad float
        "proto,0.5,0.5,0.1,0.5,0.1,0.5,0.1,soon,completed",
    ],
)
def test_parse_leaderboard_entry_rejects(line):
    with pytest.raises(ReportError) as err:
        parse_leaderboard_entry(line, line_no=7)
    assert "7" in str(err.value)


def test_leaderboard_report_ranks_and_breaks_ties(tmp_path):
    path = str(tmp_path / "board.csv")
    append_leaderboard_entry(path, entry_of("slowgood", 0.9, 9.0))
    append_leaderboard_entry(path, entry_of("low", 0.8, 5.0))
    append_leaderboard_entry(path, entry_of("fastgood", 0.9, 2.0))
    append_leaderboard_entry(path, entry_of("stuck", None, 7.0, "timed_out"))
    append_leaderboard_entry(path, entry_of("broken", None, 1.0, "failed"))
    lines = leaderboard_report(path).splitlines()
    assert lines[0] == "rank,method,final,wallclock,status"
    ranked = [ln.split(",")[:2] for ln in lines[1:]]
    assert ranked == [
        ["1", "fastgood"],
        ["2", "slowgood"],
        ["3", "low"],
        ["-", "stuck"],
        ["-", "broken"],
    ]


def test_leaderboard_report_missing_file():
    with pytest.raises(ReportError):
        leaderboard_report("/nonexistent/board.csv")


def test_leaderboard_report_undecodable_file(tmp_path):
    path = tmp_path / "board.csv"
    path.write_bytes(b"\xff\n")
    with pytest.raises(ReportError):
        leaderboard_report(str(path))


def test_leaderboard_report_names_bad_line(tmp_path):
    path = str(tmp_path / "board.csv")
    append_leaderboard_entry(path, entry_of("ok", 0.5, 1.0))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("mangled line\n")
    with pytest.raises(ReportError) as err:
        leaderboard_report(path)
    assert "2" in str(err.value)


# ---------------------------------------------------------------------------
# Fuzzing the config and leaderboard parsers


_FUZZ_KEYS = sorted(pipeline._CONFIG_KEYS) + [
    f"method.{name}.{param}" for name, method in METHODS.items() for param in method.params
] + ["method.proto", "phase", "method.mystery.depth"]

_FUZZ_VALUES = st.one_of(
    st.sampled_from([
        "", "0", "1", "-1", "3", "5", "0.5", "1e400", "nan", "inf", "-inf",
        "1_000", "\u0663", "2", "18446744073709551616", "9" * 5000, "1,2,3",
        "1,1,2", "-1,2,3", "all-remaining", "cosine", "true", "off", "proto",
        "qda", "feedback-like", "public-like", "x.csv",
    ]),
    st.text(max_size=12),
)


@st.composite
def config_texts(draw):
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["pair"] * 5 + ["text", "comment"]))
        if kind == "pair":
            key = draw(st.one_of(st.sampled_from(_FUZZ_KEYS), st.text(max_size=8)))
            lines.append(f"{key} = {draw(_FUZZ_VALUES)}")
        elif kind == "comment":
            lines.append("# " + draw(st.text(max_size=8)))
        else:
            lines.append(draw(st.text(max_size=20)))
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(config_texts())
def test_config_text_fuzz_raises_only_config_errors(text):
    try:
        load_config(parse_config_text(text))
    except (ParseError, ConfigError, ArgumentError):
        pass


_LEADERBOARD_FIELDS = st.one_of(
    st.sampled_from(["", "0.5", "0.01", "-0.0", "nan", "inf", "1e400", "1_0",
                     "\u0663", "completed", "timed_out", "failed", "proto"]),
    st.text(max_size=8),
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(
    st.text(),
    st.lists(_LEADERBOARD_FIELDS, min_size=8, max_size=11).map(",".join),
))
def test_leaderboard_line_fuzz_raises_only_report_errors(line):
    try:
        entry = parse_leaderboard_entry(line, line_no=3)
    except ReportError:
        return
    assert entry.status in ("completed", "timed_out", "failed")
