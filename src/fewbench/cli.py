"""Command-line entry point.

Subcommands cover the full flow: generate synthetic data, split it into
meta-train/meta-test class pools, run budgeted ingestion and scoring
separately or as a full three-seed phase, render the leaderboard report,
and run the built-in self-test.

Exit codes: 0 success, 2 configuration/argument error, 3 run failed,
4 run timed out.
"""

from __future__ import annotations

import argparse
import sys

from .dataset import (
    SyntheticSpec,
    generate_synthetic,
    load_feature_dataset,
    split_classes,
    write_feature_dataset,
)
from .errors import (
    ArgumentError,
    BenchError,
    BudgetExceededError,
    ConfigError,
    ParseError,
)
from .pipeline import (
    BudgetClock,
    leaderboard_report,
    load_config,
    parse_config_text,
    run_ingestion,
    run_phase,
    run_scoring,
)

__all__ = ["main", "build_parser"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FAILED = 3
EXIT_TIMED_OUT = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewbench",
        description="Few-shot learning benchmark: episodes, methods, budgeted scoring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="write a synthetic feature dataset")
    p.add_argument("--classes", type=int, default=20)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--class-std", type=float, default=1.0)
    p.add_argument("--mean-scale", type=float, default=2.0)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", required=True)

    p = sub.add_parser("split", help="split a dataset into train/test class pools")
    p.add_argument("--input", required=True)
    p.add_argument("--train-classes", type=int, required=True)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-test", required=True)

    for name, help_text in (
        ("ingest", "meta-train one seed and save the learner artifact"),
        ("score", "evaluate a saved learner artifact for one seed"),
        ("run", "full phase: 3 seeds, ingestion+scoring, leaderboard append"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--method", help="override method.name")
        p.add_argument("--budget-seconds", type=float, help="override phase.budget_seconds")
        p.add_argument("--episodes", type=int, help="override phase.episode_count")
        if name in ("ingest", "score"):
            p.add_argument("--seed", type=int, required=True)
        if name == "score":
            p.add_argument("--artifact", help="artifact path (default: workdir layout)")

    p = sub.add_parser("report", help="render the ranked leaderboard report")
    p.add_argument("--leaderboard", required=True)

    sub.add_parser("selftest", help="run quick built-in consistency checks")

    return parser


def _load_phase_config(args: argparse.Namespace):
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            cfg = parse_config_text(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        cfg[key.strip()] = value.strip()
    if args.method is not None:
        cfg["method.name"] = args.method
    if args.budget_seconds is not None:
        cfg["phase.budget_seconds"] = repr(args.budget_seconds)
    if args.episodes is not None:
        cfg["phase.episode_count"] = str(args.episodes)
    return load_config(cfg)


def _cmd_gen_synthetic(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        num_classes=args.classes,
        dim=args.dim,
        samples_per_class=args.samples,
        class_std=args.class_std,
        mean_scale=args.mean_scale,
        seed=args.seed,
    )
    spec.validate()
    write_feature_dataset(generate_synthetic(spec), args.out)
    print(f"wrote {args.classes} classes x {args.samples} samples to {args.out}")
    return EXIT_OK


def _cmd_split(args: argparse.Namespace) -> int:
    table = load_feature_dataset(args.input)
    split = split_classes(table, args.train_classes, args.seed)
    write_feature_dataset(split.meta_train, args.out_train)
    write_feature_dataset(split.meta_test, args.out_test)
    print(
        f"train: {split.meta_train.n_classes} classes -> {args.out_train}; "
        f"test: {split.meta_test.n_classes} classes -> {args.out_test}"
    )
    return EXIT_OK


def _cmd_ingest(args: argparse.Namespace) -> int:
    config = _load_phase_config(args)
    clock = BudgetClock(limit_seconds=config.budget_seconds)
    path = run_ingestion(config, args.seed, clock=clock)
    print(f"artifact: {path} ({clock.elapsed():.2f}s)")
    return EXIT_OK


def _cmd_score(args: argparse.Namespace) -> int:
    config = _load_phase_config(args)
    artifact = args.artifact or config.artifact_path(args.seed)
    clock = BudgetClock(limit_seconds=config.budget_seconds)
    score = run_scoring(artifact, config, args.seed, clock=clock)
    print(
        f"seed {args.seed}: mean {score.mean!r} "
        f"ci95 {score.ci95_halfwidth!r} over {score.episode_count} episodes"
    )
    print(f"report: {config.report_path(args.seed)}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load_phase_config(args)
    result, entry = run_phase(config)
    if entry.status == "timed_out":
        print(f"run timed out ({entry.cause}); leaderboard entry appended ({entry.status})")
        return EXIT_TIMED_OUT
    if entry.status == "failed":
        print(f"run failed ({entry.cause}); leaderboard entry appended ({entry.status})")
        return EXIT_FAILED
    for seed, agg in zip(config.seeds, result.per_seed):
        print(f"seed {seed}: mean {agg.mean!r} ci95 {agg.ci95_halfwidth!r}")
    print(f"final (worst of 3): {result.final!r}")
    print(f"leaderboard: {config.leaderboard_path}")
    return EXIT_OK


def _cmd_report(args: argparse.Namespace) -> int:
    sys.stdout.write(leaderboard_report(args.leaderboard))
    return EXIT_OK


def _cmd_selftest(_args: argparse.Namespace) -> int:
    from .selftest import run_selftest

    return EXIT_OK if run_selftest() else EXIT_FAILED


_COMMANDS = {
    "gen-synthetic": _cmd_gen_synthetic,
    "split": _cmd_split,
    "ingest": _cmd_ingest,
    "score": _cmd_score,
    "run": _cmd_run,
    "report": _cmd_report,
    "selftest": _cmd_selftest,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits with 2 on bad usage, which matches EXIT_CONFIG;
        # normalize anything else (e.g. --help exits 0).
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"timed out: {exc}", file=sys.stderr)
        return EXIT_TIMED_OUT
    except (ConfigError, ParseError, ArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
