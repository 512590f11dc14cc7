"""Phase orchestration: config parsing, budgets, artifacts, leaderboard."""

import dataclasses
import importlib.util
import os
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewbench import pipeline
from fewbench.api import METHODS, MethodConfig
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
    PhaseConfig,
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
from fewbench.sampler import ALL_REMAINING, EpisodeSpec


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


def test_parse_config_text_refuses_a_repeated_key():
    with pytest.raises(ParseError) as err:
        parse_config_text("method.name = proto\n# again\nmethod.name  =ptmap\n")
    assert err.value.line_no == 3
    assert str(err.value) == "line 3: 'method.name' already set at line 1"


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
    assert cfg.method.values["shrinkage"] == 0.25


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
        {"phase.seeds": "1,2"},
        {"phase.seeds": "1,2,2"},
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


# The PhaseConfig each config gave before the defaults moved into one
# table: the defaults of an empty config, and each preset's pool shape.
_DEFAULT_PHASE = PhaseConfig(
    name="custom",
    synthetic=SyntheticSpec(num_classes=20, dim=16, samples_per_class=20,
                            class_std=1.0, mean_scale=2.0, seed=7),
    train_path=None,
    test_path=None,
    n_train_classes=15,
    split_seed=1234,
    episode_spec=EpisodeSpec(n_way=5, k_shot=1, query_per_class=ALL_REMAINING),
    episode_count=600,
    budget_seconds=7200.0,
    seeds=(101, 202, 303),
    method=MethodConfig("proto", {}),
    workdir=".",
    leaderboard_path=os.path.join(".", "leaderboard.csv"),
    train_log="",
)


@pytest.mark.parametrize("name,classes,samples,train_classes", [
    ("custom", 20, 20, 15),
    ("public-like", 1623, 20, 964),
    ("feedback-like", 100, 600, 80),
    ("final-like", 100, 600, 85),
])
def test_load_config_of_a_preset_is_the_pinned_phase(name, classes, samples, train_classes):
    expected = dataclasses.replace(
        _DEFAULT_PHASE, name=name, n_train_classes=train_classes,
        synthetic=dataclasses.replace(_DEFAULT_PHASE.synthetic, num_classes=classes,
                                      samples_per_class=samples))
    assert load_config({"phase.name": name}) == expected


def test_default_synthetic_pool_is_the_spec_defaults():
    assert load_config({}).synthetic == SyntheticSpec()
    assert load_config({}) == _DEFAULT_PHASE


def _perfbench_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_load_config_of_every_benchmark_phase_is_the_pinned_phase():
    workloads = _perfbench_workloads()
    checked = 0
    for workload in workloads.WORKLOADS.values():
        paths = ("/d/train.csv", "/d/test.csv") if workload.csv else None
        for method, episodes in workload.phases:
            for seed in (1, 7):
                text = workloads.config_text(workload, method, episodes, seed, "/w", paths)
                expected = dataclasses.replace(
                    _DEFAULT_PHASE,
                    synthetic=None if paths else dataclasses.replace(
                        _DEFAULT_PHASE.synthetic, num_classes=workload.num_classes,
                        samples_per_class=workload.samples_per_class),
                    train_path=paths and paths[0],
                    test_path=paths and paths[1],
                    n_train_classes=None if paths else workload.n_train_classes,
                    episode_spec=EpisodeSpec(5, workload.k_shot, ALL_REMAINING),
                    episode_count=episodes,
                    seeds=workloads.phase_seeds(seed),
                    method=MethodConfig(method, {"epochs": "15"} if (
                        method == "fomaml" and workload.name == "small") else {}),
                    workdir=f"/w/{method}",
                    leaderboard_path="/w/leaderboard.csv",
                )
                assert load_config(parse_config_text(text)) == expected
                checked += 1
    assert checked == 20


def test_readme_lists_every_config_key_and_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `([^`]+)` \| (.*?) \|", readme, re.M))
    for key, default in pipeline.CONFIG_KEYS.items():
        assert key in rows, key
        if default not in (None, ""):
            shown = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
            assert rows[key] == f"`{shown}`", key


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
    paths = {"data.train_path": train_path, "data.test_path": test_path}
    # a method that does not meta-train gets only the train file's header
    split = load_split(load_config({**paths, "method.name": "proto"}))
    assert split.meta_train.dim == 3
    assert split.meta_train.classes == []
    assert split.meta_test.total_examples == 20
    # one that meta-trains gets every train row
    split = load_split(load_config({**paths, "method.name": "linear"}))
    assert split.meta_train.dim == 3
    assert split.meta_train.n_classes == 4
    assert split.meta_train.total_examples == 20
    assert split.meta_test.total_examples == 20


@pytest.mark.parametrize("method", ["proto", "qda", "rect", "ptmap", "linear", "fomaml"])
def test_train_rows_are_read_only_by_methods_that_meta_train(method, tmp_path):
    pool = generate_synthetic(SyntheticSpec(
        num_classes=6, dim=4, samples_per_class=6,
        class_std=0.1, mean_scale=3.0, seed=5,
    ))
    test_path = str(tmp_path / "test.csv")
    good_path = str(tmp_path / "good.csv")
    write_feature_dataset(pool, test_path)
    write_feature_dataset(pool, good_path)
    bad_path = str(tmp_path / "bad.csv")
    with open(bad_path, "wb") as fh:
        fh.write(b"dim=4\n0,nan,1,2,3\n\xff\n")

    def config(train_path, name):
        return load_config({
            "data.train_path": train_path, "data.test_path": test_path,
            "method.name": method, "method.fomaml.epochs": "2",
            "phase.episode_count": "3", "paths.workdir": str(tmp_path / name),
        })

    cfg = config(bad_path, "bad")
    if METHODS[method].meta_fit is not None:
        # the split loads before any seed runs, so its error is raised
        # and no leaderboard entry is written
        with pytest.raises(ParseError, match="not utf-8 text"):
            run_phase(cfg)
        assert not os.path.exists(tmp_path / "bad")
        return
    assert run_phase(cfg)[1].status == "completed"
    good_cfg = config(good_path, "good")
    assert run_phase(good_cfg)[1].status == "completed"
    for seed in cfg.seeds:
        with open(cfg.report_path(seed), "rb") as fh, \
                open(good_cfg.report_path(seed), "rb") as good_fh:
            assert fh.read() == good_fh.read()


def _file_config(tmp_path, method):
    pool = generate_synthetic(SyntheticSpec(
        num_classes=6, dim=4, samples_per_class=6,
        class_std=0.1, mean_scale=3.0, seed=5,
    ))
    paths = [str(tmp_path / "train.csv"), str(tmp_path / "test.csv")]
    for path in paths:
        write_feature_dataset(pool, path)
    return load_config({
        "data.train_path": paths[0], "data.test_path": paths[1],
        "method.name": method, "phase.episode_count": "3",
        "paths.workdir": str(tmp_path / "work"),
    })


def test_standalone_scoring_reads_only_the_header_of_the_train_file(tmp_path):
    cfg = _file_config(tmp_path, "linear")
    seed = cfg.seeds[0]
    artifact = run_ingestion(cfg, seed)
    first = run_scoring(artifact, cfg, seed)
    with open(cfg.report_path(seed), "rb") as fh:
        report = fh.read()
    with open(cfg.train_path, "a", encoding="utf-8") as fh:
        fh.write("0,nan,1,2,3\n")
    with pytest.raises(ParseError, match="non-finite"):
        run_ingestion(cfg, seed)
    assert run_scoring(artifact, cfg, seed) == first
    with open(cfg.report_path(seed), "rb") as fh:
        assert fh.read() == report


@pytest.mark.parametrize("method", ["linear", "proto"])
def test_standalone_ingestion_reads_only_the_header_of_the_test_file(method, tmp_path):
    cfg = _file_config(tmp_path, method)
    with open(cfg.test_path, "a", encoding="utf-8") as fh:
        fh.write("0,1,2\n")
    artifact = run_ingestion(cfg, cfg.seeds[0])
    with pytest.raises(ParseError, match="row has 2 values, expected 4"):
        run_scoring(artifact, cfg, cfg.seeds[0])


@pytest.mark.parametrize("stage", ["ingest", "score"])
def test_standalone_stages_check_the_widths_of_both_files(stage, tmp_path):
    cfg = _file_config(tmp_path, "linear")
    artifact = run_ingestion(cfg, cfg.seeds[0])
    write_feature_dataset(generate_synthetic(SyntheticSpec(
        num_classes=6, dim=3, samples_per_class=6,
        class_std=0.1, mean_scale=3.0, seed=5,
    )), cfg.test_path if stage == "ingest" else cfg.train_path)
    with pytest.raises(ConfigError, match=r"holds \d-wide features, data.test_path \d-wide"):
        if stage == "ingest":
            run_ingestion(cfg, cfg.seeds[0])
        else:
            run_scoring(artifact, cfg, cfg.seeds[0])


@pytest.mark.parametrize("method", ["linear", "fomaml", "proto"])
def test_feature_files_of_different_widths_fail_before_training(method, tmp_path):
    paths = []
    for dim in (16, 8):
        paths.append(str(tmp_path / f"pool{dim}.csv"))
        write_feature_dataset(generate_synthetic(SyntheticSpec(
            num_classes=6, dim=dim, samples_per_class=6,
            class_std=1.0, mean_scale=2.0, seed=dim,
        )), paths[-1])
    cfg = load_config({
        "data.train_path": paths[0], "data.test_path": paths[1],
        "method.name": method, "method.fomaml.epochs": "2",
        "phase.episode_count": "4", "paths.workdir": str(tmp_path / "work"),
    })
    with pytest.raises(ConfigError, match="16-wide .* 8-wide"):
        run_phase(cfg)
    assert not os.path.exists(tmp_path / "work")


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
    with pytest.raises(ArtifactError, match="cannot read artifact: .*learner_seed101.txt"):
        run_scoring(cfg.artifact_path(101), cfg, seed=101)


def test_uncreatable_workdir_is_argument_error(tmp_path):
    (tmp_path / "file").write_text("")
    good = small_cfg(tmp_path)
    artifact = run_ingestion(good, seed=101)
    cfg = small_cfg(tmp_path, **{"paths.workdir": str(tmp_path / "file" / "work")})
    with pytest.raises(ArgumentError, match="file/work"):
        run_ingestion(cfg, seed=101)
    with pytest.raises(ArgumentError, match="file/work"):
        run_scoring(artifact, cfg, seed=101)


def test_unwritable_leaderboard_is_report_error(tmp_path):
    (tmp_path / "file").write_text("")
    with pytest.raises(ReportError, match="board.csv"):
        append_leaderboard_entry(str(tmp_path / "file" / "board.csv"),
                                 entry_of("proto", 0.5, 1.0))


def test_scoring_writes_report(tmp_path):
    cfg = small_cfg(tmp_path)
    artifact = run_ingestion(cfg, seed=101)
    score = run_scoring(artifact, cfg, seed=101)
    assert score.episode_count == 4
    text = Path(cfg.report_path(101)).read_text(encoding="utf-8")
    lines = text.splitlines()
    assert len(lines) == 5
    assert lines[-1].startswith("aggregate,")


def test_failed_report_write_keeps_earlier_report(tmp_path, monkeypatch):
    cfg = small_cfg(tmp_path)
    artifact = run_ingestion(cfg, seed=101)
    run_scoring(artifact, cfg, seed=101)
    before = Path(cfg.report_path(101)).read_bytes()
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
    with pytest.raises(ArgumentError, match="score_seed101.csv.*rename failed"):
        run_scoring(artifact, cfg, seed=101)
    monkeypatch.undo()
    assert Path(cfg.report_path(101)).read_bytes() == before
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
    board = Path(cfg.leaderboard_path).read_text(encoding="utf-8").splitlines()
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
    board = Path(cfg.leaderboard_path).read_text(encoding="utf-8").splitlines()
    assert parse_leaderboard_entry(board[0]).status == "timed_out"


def test_run_phase_failure_marks_failed(tmp_path):
    # 6 samples per class cannot fill a 7-shot episode: the pool check
    # fails before any meta-training
    cfg = small_cfg(tmp_path, **{"sampler.k_shot": "7"})
    result, entry = run_phase(cfg)
    assert result is None
    assert entry.status == "failed"
    assert entry.final is None
    assert entry.cause.startswith("SamplingError: ")
    # no artifact or score report: only the leaderboard entry
    assert os.listdir(cfg.workdir) == ["leaderboard.csv"]
    # the cause stays out of the 10-field leaderboard line
    board = Path(cfg.leaderboard_path).read_text(encoding="utf-8")
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
            Path(cfg.artifact_path(s)).read_text(encoding="utf-8") for s in cfg.seeds
        ])
        reports.append([
            Path(cfg.report_path(s)).read_text(encoding="utf-8") for s in cfg.seeds
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
        "proto,,,,,,,,2.0,completed",                      # completed, no final
        "proto,0.5,0.5,0.1,,,,,2.0,completed",             # one seed result
        "proto,,0.5,0.1,0.5,0.1,0.5,0.1,2.0,completed",    # three results, no final
        "proto,0.6,0.5,0.1,0.6,0.1,0.7,0.1,2.0,completed",  # final above the least mean
        "proto,0.5,,,,,,,2.0,failed",                      # failed with a final
        "proto,0.5,0.5,0.1,,,,,2.0,timed_out",             # timed out with a final
        "proto,nan,nan,0.1,nan,0.1,nan,0.1,2.0,completed",  # nan final and means
        "proto,0.5,0.5,inf,0.5,0.1,0.5,0.1,2.0,completed",  # infinite ci
        "proto,,,,,,,,-inf,failed",                        # infinite wallclock
        "qda,,,0.1,,,,,1.5,timed_out",                     # ci without its mean
        "qda,,,,0.5,0.1,,,1.5,timed_out",                  # a gap before a result
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


_FUZZ_KEYS = sorted(pipeline.CONFIG_KEYS) + [
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
