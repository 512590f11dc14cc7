"""fewbench phase benchmark: end-to-end metrics, or per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload small --seed 1 --seconds 55 --trace 0

Each round is a fresh ``worker.py`` process in a fresh work directory under
``.perfbench_work/``: it sets up the workload's inputs, runs
``fewbench.pipeline.run_phase`` once per method, and checks and hashes the
outputs.  Rounds repeat until about ``--seconds`` have passed (three at
least) and the reported figures are medians over rounds.  Phase and set-up
times are scaled to a reference machine speed by a calibration loop timed
between the phases (``calibrate.py``), because the machine's own speed
drifts over stretches longer than a run.  With
``--trace 1`` rounds alternate untraced and traced; the traced ones give the
per-layer metrics and the difference gives the tracing overhead.

The last line of standard output is the result object.  Lines before it
give the environment, the output hashes and every metric by name with its
unit.  The exit status is non-zero, with no result, when a round cannot
run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

from calibrate import REFERENCE_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 3
DEADLINE_S = 160.0   # every run must end within 180 s, whatever --seconds says
END_TO_END_UNITS = {"phase_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_METRICS = ("trace.overhead_s", "trace.overhead_share", "trace.spans")


class RoundError(RuntimeError):
    pass


def run_worker(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """Run one round in a fresh process and work directory; return its result."""
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--workdir", workdir, "--trace", str(int(traced))]
    try:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            raise RoundError(f"round of {workload} timed out after {timeout:.0f}s") from None
        if proc.returncode != 0:
            raise RoundError(f"round of {workload} exited {proc.returncode}:\n"
                             f"{proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if traced:
            shutil.move(os.path.join(workdir, "spans.jsonl"),
                        WORK / f"spans-{workload}-seed{seed}.jsonl")
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Rounds until the next one would end after ``seconds`` (at least three);
    with ``trace`` they alternate untraced, traced, untraced, ..."""
    rounds: list[dict] = []
    start = time.monotonic()
    while True:
        traced = trace and len(rounds) % 2 == 1
        elapsed = time.monotonic() - start
        result = run_worker(workload, seed, traced, DEADLINE_S - elapsed)
        result["traced"] = traced
        rounds.append(result)
        elapsed = time.monotonic() - start
        per_round = elapsed / len(rounds)
        if elapsed + per_round > DEADLINE_S:
            break
        if len(rounds) >= MIN_ROUNDS and elapsed + per_round > seconds:
            break
    return rounds


def load_reference(workload: str, seed: int) -> dict[str, str] | None:
    path = HERE / "reference.json"
    if not path.exists():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def compare_outputs(rounds: list[dict], reference: dict[str, str] | None
                    ) -> tuple[int, int, set[tuple[int, str]]]:
    """Checked and mismatched output hashes, and the (round, method) phases
    with a mismatch.

    Against the stored reference when this seed has one; otherwise every
    round after the first is checked against the first, which still shows
    that the outputs depend neither on the process nor on tracing.
    """
    baseline = reference if reference is not None else rounds[0]["hashes"]
    checked = mismatched = 0
    bad: set[tuple[int, str]] = set()
    for i, r in enumerate(rounds):
        if reference is None and i == 0:
            continue
        for key in baseline.keys() | r["hashes"].keys():
            checked += 1
            if baseline.get(key) != r["hashes"].get(key):
                mismatched += 1
                bad.add((i, key.split("/", 1)[0]))
    return checked, mismatched, bad


def environment(versions: dict[str, str]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        **versions,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def scaled_times(r: dict) -> tuple[float, float]:
    """A round's set-up and phase seconds, scaled to the reference speed.

    Each phase's wall time is scaled by ``REFERENCE_S`` over the mean of the
    calibration loops timed just before and just after it, and set-up time
    by the loop timed right after set-up.  The machine's speed drifts by a
    third and more over stretches of seconds to minutes, longer than a
    round, so a median of wall times moves with the share of a run that
    fell in slow stretches; the scaled times do not.
    """
    loops = r["calibration_s"]
    setup = r["setup_s"] * REFERENCE_S / loops[0]
    phase = sum(t * REFERENCE_S / ((loops[i] + loops[i + 1]) / 2)
                for i, t in enumerate(r["method_s"].values()))
    return setup, phase


def scaled_median(rounds: list[dict], which: int) -> float:
    """Median over ``rounds`` of scaled set-up (0) or phase (1) seconds."""
    return statistics.median(scaled_times(r)[which] for r in rounds)


def summarize(workload: str, seed: int, rounds: list[dict], trace: bool) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    reference = load_reference(workload, seed)
    checked, mismatched, bad = compare_outputs(rounds, reference)
    phases = sum(len(r["statuses"]) for r in rounds)
    not_completed = {(i, m) for i, r in enumerate(rounds)
                     for m, status in r["statuses"].items() if status != "completed"}
    problems = sorted({p for r in rounds for p in r["problems"]})

    if trace:
        metrics = {}
        for name in traced[0]["layers"]:
            metrics[name] = statistics.median(r["layers"][name] for r in traced)
        counts = [k for k in metrics if unit_of(k) in ("count", "bytes")]
        if any(r["layers"][k] != traced[0]["layers"][k] for r in traced for k in counts):
            problems.append("per-layer counts differ between traced rounds")
        untraced_s = scaled_median(plain, 1)
        overhead = scaled_median(traced, 1) - untraced_s
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_share"] = overhead / untraced_s
        metrics["trace.spans"] = statistics.median(r["spans"] for r in traced)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "phase_s": scaled_median(plain, 1),
            "setup_s": scaled_median(plain, 0),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        units = END_TO_END_UNITS

    print(json.dumps({"environment": environment(rounds[0]["versions"])}))
    print(json.dumps({"workload": workload, "seed": seed,
                      "reference": "stored" if reference is not None else "none",
                      "hashes": rounds[0]["hashes"]}, sort_keys=True))
    print(json.dumps({"rounds": [{k: r[k] for k in ("traced", "setup_s", "phase_s",
                                                    "method_s", "calibration_s",
                                                    "peak_rss_mb")}
                                 for r in rounds]}))
    for p in problems:
        print(f"problem: {p}")
    for name, value in metrics.items():
        print(f"{workload:>16} {name:<40} {value:>16.6g} {units[name]}")
    if not trace:
        for name in ("phase_s", "setup_s"):
            wall = statistics.median(r[name] for r in plain)
            print(f"{workload:>16} {'wall.' + name:<40} {wall:>16.6g} s  (not scaled)")
    print(f"{workload:>16} {'failed_share':<40} {len(not_completed) / phases:>16.6g} share")
    print(f"{workload:>16} {'mismatch_share':<40} {mismatched / max(checked, 1):>16.6g} share"
          f"  ({checked} outputs checked, {len(rounds)} rounds)")
    return {
        "correct": not problems and not not_completed and not bad and checked > 0,
        "attempted": phases,
        "failed": len(not_completed | bad),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    stem = metric.rsplit(".", 1)[0] if metric.endswith((".p50", ".p99")) else metric
    for suffix, unit in (("_us", "us"), ("_ms", "ms"), ("_share", "share"),
                         ("_bytes", "bytes"), ("_s", "s")):
        if stem.endswith(suffix) or f"{suffix}." in stem:
            return unit
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SystemExit unwinds through subprocess.run, which kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "fewbench" / "__init__.py").is_file():
        print(f"perfbench: no fewbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        rounds = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
    except RoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summarize(args.workload, args.seed, rounds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
