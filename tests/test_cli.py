"""Command-line surface: subcommands, overrides, and exit codes."""

import os
import subprocess
import sys

import pytest

import fewbench
from fewbench.cli import EXIT_CONFIG, EXIT_FAILED, EXIT_OK, EXIT_TIMED_OUT, main
from fewbench.dataset import load_feature_dataset


BASE_CONFIG = """\
# fast end-to-end phase over easy synthetic features
data.synthetic.num_classes = 12
data.synthetic.dim = 4
data.synthetic.samples_per_class = 6
data.synthetic.class_std = 0.1
data.synthetic.mean_scale = 3.0
data.synthetic.seed = 3
data.n_train_classes = 6
phase.episode_count = 4
phase.budget_seconds = 60
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "phase.cfg"
    path.write_text(BASE_CONFIG + f"paths.workdir = {tmp_path / 'work'}\n")
    return str(path)


def test_gen_synthetic_and_split_round_trip(tmp_path):
    raw = str(tmp_path / "all.csv")
    train = str(tmp_path / "train.csv")
    test = str(tmp_path / "test.csv")
    assert main(["gen-synthetic", "--classes", "6", "--dim", "3",
                 "--samples", "4", "--seed", "11", "--out", raw]) == EXIT_OK
    table = load_feature_dataset(raw)
    assert table.n_classes == 6 and table.dim == 3

    assert main(["split", "--input", raw, "--train-classes", "4",
                 "--seed", "2", "--out-train", train, "--out-test", test]) == EXIT_OK
    assert load_feature_dataset(train).n_classes == 4
    assert load_feature_dataset(test).n_classes == 2


@pytest.mark.parametrize("content", [None, b"dim=1\n0,1.0\n\xff\n"])
def test_split_of_an_unreadable_file_is_exit_2(content, tmp_path, capsys):
    """A missing file, or one that is not UTF-8, is one line on stderr."""
    raw = tmp_path / "all.csv"
    if content is not None:
        raw.write_bytes(content)
    assert main(["split", "--input", str(raw), "--train-classes", "1",
                 "--out-train", str(tmp_path / "a.csv"),
                 "--out-test", str(tmp_path / "b.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == (["all.csv"] if content else [])


def test_ingest_then_score(config_path, tmp_path, capsys):
    assert main(["ingest", "--config", config_path, "--seed", "101"]) == EXIT_OK
    assert os.path.exists(tmp_path / "work" / "learner_seed101.txt")
    assert main(["score", "--config", config_path, "--seed", "101"]) == EXIT_OK
    assert os.path.exists(tmp_path / "work" / "score_seed101.csv")
    out = capsys.readouterr().out
    assert "seed 101: mean" in out


def test_score_without_artifact_fails(config_path):
    assert main(["score", "--config", config_path, "--seed", "999"]) == EXIT_FAILED


def test_run_and_report(config_path, tmp_path, capsys):
    assert main(["run", "--config", config_path]) == EXIT_OK
    out = capsys.readouterr().out
    assert "final (worst of 3):" in out
    board = str(tmp_path / "work" / "leaderboard.csv")
    assert main(["report", "--leaderboard", board]) == EXIT_OK
    report = capsys.readouterr().out
    assert report.splitlines()[0] == "rank,method,final,wallclock,status"
    assert report.splitlines()[1].startswith("1,proto,")


def test_set_overrides_apply(config_path, tmp_path):
    assert main([
        "run", "--config", config_path,
        "--set", "method.name=qda",
        "--set", "method.qda.shrinkage=0.75",
        "--set", f"paths.leaderboard={tmp_path / 'alt.csv'}",
    ]) == EXIT_OK
    board = open(tmp_path / "alt.csv", encoding="utf-8").read()
    assert board.startswith("qda,")


def test_method_flag_overrides(config_path, capsys):
    assert main(["run", "--config", config_path, "--method", "rect",
                 "--episodes", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "final (worst of 3):" in out


def test_missing_config_file_is_config_error(tmp_path):
    code = main(["run", "--config", str(tmp_path / "absent.cfg")])
    assert code == EXIT_CONFIG


def test_malformed_config_is_config_error(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("this line has no equals sign\n")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG


def test_undecodable_config_is_config_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"method.name = proto\xff\n")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read config") and err.count("\n") == 1


def test_unknown_method_is_config_error(config_path):
    assert main(["run", "--config", config_path,
                 "--method", "mystery"]) == EXIT_CONFIG


def test_misspelt_method_parameter_is_config_error(config_path, capsys):
    assert main(["run", "--config", config_path, "--method", "ptmap",
                 "--set", "method.ptmap.n_iterz=3"]) == EXIT_CONFIG
    assert "n_iterz" in capsys.readouterr().err


def test_registry_outside_tests_holds_the_six_methods(config_path):
    # a fresh interpreter does not load this suite's conftest, so the
    # test-only sleeper method must be unknown there
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(fewbench.__file__)))
    listed = subprocess.run(
        [sys.executable, "-c",
         "from fewbench.api import METHODS; print(' '.join(sorted(METHODS)))"],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert listed.stdout.split() == ["fomaml", "linear", "proto", "ptmap", "qda", "rect"]
    run = subprocess.run(
        [sys.executable, "-m", "fewbench.cli", "run", "--config", config_path,
         "--method", "sleeper"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == EXIT_CONFIG
    assert "'sleeper'" in run.stderr


def test_bad_set_syntax_is_config_error(config_path):
    assert main(["run", "--config", config_path, "--set", "oops"]) == EXIT_CONFIG


def test_bad_usage_is_config_error(capsys):
    assert main(["score"]) == EXIT_CONFIG  # missing required flags
    assert main(["no-such-command"]) == EXIT_CONFIG
    capsys.readouterr()


def test_run_timeout_exit_code(config_path):
    code = main([
        "run", "--config", config_path,
        "--method", "sleeper",
        "--set", "method.sleeper.duration_seconds=30",
        "--budget-seconds", "0.2",
    ])
    assert code == EXIT_TIMED_OUT


def test_ingest_timeout_exit_code(config_path):
    code = main([
        "ingest", "--config", config_path, "--seed", "101",
        "--method", "sleeper",
        "--set", "method.sleeper.duration_seconds=30",
        "--budget-seconds", "0.2",
    ])
    assert code == EXIT_TIMED_OUT


def test_run_failure_exit_code(config_path, capsys):
    # 6 samples per class cannot fill a 7-shot episode: scoring fails
    code = main([
        "run", "--config", config_path,
        "--set", "sampler.k_shot=7",
    ])
    assert code == EXIT_FAILED
    assert "SamplingError" in capsys.readouterr().out


@pytest.mark.parametrize(
    "setting", ["phase.budget_seconds=nan", "phase.seeds=-1,2,3", "phase.seeds=1,2,18446744073709551616"]
)
def test_bad_budget_or_seed_is_config_error(config_path, tmp_path, capsys, setting):
    assert main(["run", "--config", config_path, "--set", setting]) == EXIT_CONFIG
    assert setting.partition("=")[0] in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "work")   # nothing trained or written


def test_unknown_metric_is_config_error(config_path, capsys):
    assert main(["run", "--config", config_path,
                 "--set", "method.proto.metric=bogus"]) == EXIT_CONFIG
    assert "bogus" in capsys.readouterr().err


def test_unknown_config_key_is_config_error(config_path, capsys):
    assert main(["run", "--config", config_path,
                 "--set", "phase.episode_cuont=5"]) == EXIT_CONFIG
    assert "phase.episode_cuont" in capsys.readouterr().err


def test_selftest_passes(capsys):
    assert main(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "ok" in out and "FAIL" not in out
