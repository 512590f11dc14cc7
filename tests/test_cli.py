"""Command-line surface: subcommands, overrides, and exit codes."""

import os
import subprocess
import sys

import pytest

import fewbench
from fewbench.cli import EXIT_CONFIG, EXIT_FAILED, EXIT_OK, EXIT_TIMED_OUT, build_parser, main
from fewbench.dataset import (SyntheticSpec, generate_synthetic, load_feature_dataset,
                              split_classes, write_feature_dataset)
from fewbench.pipeline import CONFIG_KEYS


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


def test_split_reads_piped_input(tmp_path):
    """A pipe cannot be rewound: valid text splits as from the file, and
    text with a bad last row is exit 2 naming that line."""
    raw = tmp_path / "all.csv"
    assert main(["gen-synthetic", "--classes", "6", "--dim", "3",
                 "--samples", "4", "--seed", "11", "--out", str(raw)]) == EXIT_OK
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(fewbench.__file__)))

    def split(source, tag, text):
        return subprocess.run(
            [sys.executable, "-m", "fewbench.cli", "split", "--input", source,
             "--train-classes", "4", "--seed", "2",
             "--out-train", str(tmp_path / f"train_{tag}.csv"),
             "--out-test", str(tmp_path / f"test_{tag}.csv")],
            input=text, env=env, capture_output=True, text=True, timeout=60,
        )

    text = raw.read_text(encoding="utf-8")
    assert split(str(raw), "file", None).returncode == EXIT_OK
    assert split("/dev/stdin", "pipe", text).returncode == EXIT_OK
    for name in ("train", "test"):
        assert ((tmp_path / f"{name}_pipe.csv").read_bytes()
                == (tmp_path / f"{name}_file.csv").read_bytes())
    bad = split("/dev/stdin", "bad", text + "5,1.0,nan,2.0\n")
    assert bad.returncode == EXIT_CONFIG
    assert f"line {text.count(chr(10)) + 1}: non-finite value" in bad.stderr
    assert not (tmp_path / "train_bad.csv").exists()


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
    board = (tmp_path / "alt.csv").read_text(encoding="utf-8")
    assert board.startswith("qda,")


def test_method_flag_overrides(config_path, capsys):
    assert main(["run", "--config", config_path, "--method", "rect",
                 "--episodes", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "final (worst of 3):" in out


@pytest.mark.parametrize("overrides,key", [
    (["--set", "phase.episode_count=3", "--set", "phase.episode_count=5"],
     "phase.episode_count"),
    (["--method", "qda", "--set", "method.name=rect"], "method.name"),
    (["--set", " phase.budget_seconds =9", "--budget-seconds", "9"], "phase.budget_seconds"),
    (["--episodes", "2", "--episodes", "2"], "phase.episode_count"),
])
def test_a_key_overridden_twice_is_config_error(config_path, tmp_path, capsys,
                                                 overrides, key):
    assert main(["run", "--config", config_path, *overrides]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"config error: {key!r} is overridden twice on the command line\n")
    assert not os.path.exists(tmp_path / "work")   # no seed run, no leaderboard line


def test_score_refuses_an_artifact_of_another_method(config_path, tmp_path, capsys):
    assert main(["ingest", "--config", config_path, "--seed", "101",
                 "--method", "ptmap"]) == EXIT_OK
    assert main(["score", "--config", config_path, "--seed", "101"]) == EXIT_FAILED
    err = capsys.readouterr().err
    assert err.startswith("error: artifact ") and "'ptmap' learner" in err
    assert "the config selects 'proto'" in err
    assert main(["score", "--config", config_path, "--seed", "101", "--method", "ptmap",
                 "--set", "method.ptmap.beta=0.25"]) == EXIT_FAILED
    assert sorted(os.listdir(tmp_path / "work")) == ["learner_seed101.txt"]   # no report


def test_gen_synthetic_defaults_are_the_spec_defaults(tmp_path):
    out, expected = tmp_path / "out.csv", tmp_path / "expected.csv"
    assert main(["gen-synthetic", "--out", str(out)]) == EXIT_OK
    write_feature_dataset(generate_synthetic(SyntheticSpec()), str(expected))
    assert out.read_bytes() == expected.read_bytes()


def test_split_seed_default_is_the_config_default(tmp_path):
    """``fewbench split`` without ``--seed`` splits as a phase does
    without ``data.split_seed``."""
    paths = [str(tmp_path / name) for name in ("pool.csv", "train.csv", "test.csv")]
    args = ["split", "--input", paths[0], "--train-classes", "3",
            "--out-train", paths[1], "--out-test", paths[2]]
    assert build_parser().parse_args(args).seed == CONFIG_KEYS["data.split_seed"] == 1234
    pool = generate_synthetic(SyntheticSpec(num_classes=5, dim=2, samples_per_class=2))
    write_feature_dataset(pool, paths[0])
    assert main(args) == EXIT_OK
    split = split_classes(pool, 3, CONFIG_KEYS["data.split_seed"])
    assert load_feature_dataset(paths[2]).class_ids() == split.meta_test.class_ids()


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


def test_run_failure_exit_code(config_path, tmp_path, capsys):
    # 6 samples per class cannot fill a 7-shot episode: the pool check
    # fails before any meta-training
    code = main([
        "run", "--config", config_path,
        "--set", "sampler.k_shot=7",
    ])
    assert code == EXIT_FAILED
    assert "SamplingError" in capsys.readouterr().out
    # no artifact or score report: only the leaderboard entry
    assert os.listdir(tmp_path / "work") == ["leaderboard.csv"]


def test_unwritable_outputs_are_exit_2(tmp_path, capsys):
    raw = str(tmp_path / "all.csv")
    absent = str(tmp_path / "absent" / "x.csv")
    assert main(["gen-synthetic", "--classes", "4", "--out", absent]) == EXIT_CONFIG
    assert main(["gen-synthetic", "--classes", "4", "--out", raw]) == EXIT_OK
    assert main(["split", "--input", raw, "--train-classes", "2",
                 "--out-train", absent, "--out-test", raw]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("config error: cannot write ") and absent in line
               for line in err)
    assert sorted(os.listdir(tmp_path)) == ["all.csv"]


def test_unwritable_train_log_fails_the_run(config_path, tmp_path, capsys):
    log = tmp_path / "absent" / "log_{seed}.csv"
    code = main(["run", "--config", config_path, "--method", "fomaml",
                 "--set", "method.fomaml.epochs=1", "--set", f"paths.train_log={log}"])
    assert code == EXIT_FAILED
    assert "failed (ArgumentError: cannot write " in capsys.readouterr().out
    board = (tmp_path / "work" / "leaderboard.csv").read_text(encoding="utf-8")
    assert board.startswith("fomaml,") and board.endswith(",failed\n")


def test_train_log_inside_a_fresh_workdir(config_path, tmp_path):
    """The workdir exists before meta-training writes its log into it."""
    work = tmp_path / "work"
    assert not work.exists()
    assert main(["run", "--config", config_path, "--method", "fomaml",
                 "--set", "method.fomaml.epochs=1",
                 "--set", f"paths.train_log={work / 'log{seed}.csv'}"]) == EXIT_OK
    board = (work / "leaderboard.csv").read_text(encoding="utf-8")
    assert board.startswith("fomaml,") and board.endswith(",completed\n")
    assert sorted(p.name for p in work.glob("log*.csv")) == [
        "log101.csv", "log202.csv", "log303.csv"]


def test_repeated_config_key_is_config_error(tmp_path, capsys):
    path = tmp_path / "phase.cfg"
    path.write_text(BASE_CONFIG + f"paths.workdir = {tmp_path / 'work'}\n"
                    "method.name = proto\nmethod.name = ptmap\n")
    assert main(["run", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: line 13: 'method.name' already set at line 12")
    assert not os.path.exists(tmp_path / "work")


@pytest.mark.parametrize("setting,values", [("mean_scale=inf", "0.1 and inf"),
                                            ("class_std=inf", "inf and 3.0")])
def test_infinite_synthetic_parameter_is_config_error(config_path, tmp_path, capsys,
                                                      setting, values):
    assert main(["run", "--config", config_path,
                 "--set", f"data.synthetic.{setting}"]) == EXIT_CONFIG
    # the message names one field; ``values`` stays so the test ids stay
    message = {"mean_scale=inf": "mean_scale must lie in [0, inf)",
               "class_std=inf": "class_std must lie in (0, inf)"}[setting]
    assert capsys.readouterr().err == f"config error: {message}, got inf\n"
    assert not os.path.exists(tmp_path / "work")   # no seed run, no leaderboard line


def test_python_m_fewbench_runs_the_cli():
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(fewbench.__file__)))
    run = subprocess.run([sys.executable, "-m", "fewbench", "selftest"], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == EXIT_OK
    assert run.stdout.rstrip().endswith("selftest passed")


def test_report_of_an_inconsistent_leaderboard_is_exit_3(tmp_path, capsys):
    board = tmp_path / "board.csv"
    board.write_text("proto,,,,,,,,2.0,completed\n", encoding="utf-8")
    assert main(["report", "--leaderboard", str(board)]) == EXIT_FAILED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: leaderboard line 1: ")
    assert captured.err.count("\n") == 1


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


def test_selftest_fails_a_broken_check_under_python_O():
    """``python -O`` strips ``assert`` statements; the selftest's checks
    still fail when the code they check is wrong."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(fewbench.__file__)))
    code = (
        "import dataclasses, sys\n"
        "from fewbench import selftest\n"
        "real = selftest.sinkhorn\n"
        "def doubled(*args, **kwargs):\n"
        "    plan = real(*args, **kwargs)\n"
        "    return dataclasses.replace(plan, matrix=2 * plan.matrix)\n"
        "selftest.sinkhorn = doubled\n"
        "print('optimize', sys.flags.optimize)\n"
        "sys.exit(0 if selftest.run_selftest() else 1)\n"
    )
    run = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.stdout.startswith("optimize 1\n")
    assert "FAIL sinkhorn marginals" in run.stdout
    assert run.stdout.rstrip().endswith("selftest FAILED")
    assert run.returncode == 1
