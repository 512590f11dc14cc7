"""One benchmark round, run in a fresh process by ``run.py``.

A round imports fewbench from the checkout's ``src/``, builds the
workload's inputs from the seed (writing CSV files for ``large-query``),
loads one phase config per method, runs ``fewbench.pipeline.run_phase`` for
each, with a calibration loop timed before and after every phase, then
checks and hashes the score reports and leaderboard lines.  It
prints one JSON object.  With ``--trace 1`` the phases run under the span
tracer and the object also carries the per-layer metrics.

    python3 perfbench/worker.py --workload small --seed 1 --workdir DIR --trace 0
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent


def import_fewbench():
    """Import fewbench from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fewbench" / "__init__.py").is_file():
        raise SystemExit(f"no fewbench sources under {src}")
    sys.path.insert(0, str(src))
    import fewbench

    if Path(fewbench.__file__).resolve().parent != src / "fewbench":
        raise SystemExit(f"fewbench imported from {fewbench.__file__}, not {src}")
    return fewbench


def _setup(workload, seed: int, workdir: str):
    """Inputs and parsed phase configs; the set-up a user pays before a run."""
    from fewbench import dataset, pipeline
    from workloads import DATA_SEED, SPLIT_SEED, config_text

    data_paths = None
    if workload.csv:
        table = dataset.generate_synthetic(dataset.SyntheticSpec(
            num_classes=workload.num_classes, dim=16,
            samples_per_class=workload.samples_per_class,
            class_std=1.0, mean_scale=2.0, seed=DATA_SEED,
        ))
        split = dataset.split_classes(table, workload.n_train_classes, SPLIT_SEED)
        data_paths = (os.path.join(workdir, "train.csv"), os.path.join(workdir, "test.csv"))
        dataset.write_feature_dataset(split.meta_train, data_paths[0])
        dataset.write_feature_dataset(split.meta_test, data_paths[1])
    return [
        (method, pipeline.load_config(pipeline.parse_config_text(
            config_text(workload, method, episodes, seed, workdir, data_paths))))
        for method, episodes in workload.phases
    ]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check_outputs(configs, leaderboard_path: str) -> tuple[dict[str, str], list[str]]:
    """Hashes of every score report and wallclock-free leaderboard line, and
    the problems found in them.

    Beyond the hashes, each report must hold one line per episode with an
    accuracy in [0, 1], an aggregate mean equal to the mean of those lines
    and above chance, and the leaderboard line must restate the three means
    with the worst of them as the final.
    """
    import numpy as np
    from fewbench.pipeline import parse_leaderboard_entry
    from workloads import N_WAY

    hashes: dict[str, str] = {}
    problems: list[str] = []
    means: dict[str, list[float]] = {}
    for method, config in configs:
        means[method] = []
        for i, seed in enumerate(config.seeds):
            path = config.report_path(seed)
            if not os.path.exists(path):
                problems.append(f"{method}: no score report for seed {seed}")
                continue
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            hashes[f"{method}/score{i}"] = _sha(text)
            rows = [line.split(",") for line in text.splitlines()]
            accs = [float(r[2]) for r in rows if r[0] == "episode"]
            agg = rows[-1]
            mean = float(agg[1])
            means[method].append(mean)
            if len(accs) != config.episode_count or agg[0] != "aggregate":
                problems.append(f"{method}/{seed}: {len(accs)} episode lines, "
                                f"expected {config.episode_count}")
            elif not all(0.0 <= a <= 1.0 for a in accs) or mean != float(np.mean(accs)):
                problems.append(f"{method}/{seed}: aggregate does not match its episodes")
            elif int(agg[4]) != seed or not mean > 1.0 / N_WAY:
                problems.append(f"{method}/{seed}: seed {agg[4]} or mean {mean} is wrong")

    lines = []
    if os.path.exists(leaderboard_path):
        with open(leaderboard_path, encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln]
    if [ln.split(",")[0] for ln in lines] != [m for m, _ in configs]:
        problems.append(f"leaderboard lines {len(lines)} do not match the phases")
    for line in lines:
        entry = parse_leaderboard_entry(line)
        fields = line.split(",")
        fields[8] = ""  # wallclock, the one field that is not deterministic
        hashes[f"{entry.method}/leaderboard"] = _sha(",".join(fields))
        seed_means = [m for m, _ in entry.seed_results]
        if entry.status != "completed":
            problems.append(f"{entry.method}: phase {entry.status}")
        elif seed_means != means.get(entry.method) or entry.final != min(seed_means):
            problems.append(f"{entry.method}: leaderboard line disagrees with its reports")
    return hashes, problems


@contextlib.contextmanager
def calibrator():
    """Start ``calibrate.py --serve`` on this process's CPU and BLAS settings,
    which it inherits; yield a function that times one calibration loop
    there.  The helper is stopped and waited for on every way out."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve().parent / "calibrate.py"), "--serve"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def loop_s() -> float:
        proc.stdin.write("\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process exited {proc.wait()}")
        return float(line)

    try:
        yield loop_s
    finally:
        proc.stdin.close()  # ends the helper's loop
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def run_round(workload, seed: int, workdir: str, traced: bool, started: float) -> dict:
    """Set up, run every phase of the workload, check outputs; ``started`` is
    the ``perf_counter`` reading set-up time counts from."""
    from fewbench import pipeline

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer().install()
    try:
        configs = _setup(workload, seed, workdir)
        setup_s = time.perf_counter() - started
        phase_s: dict[str, float] = {}
        statuses: dict[str, str] = {}
        with calibrator() as loop_s:
            loops = [loop_s()]
            for method, config in configs:
                t0 = time.perf_counter()
                _, entry = pipeline.run_phase(config)
                phase_s[method] = time.perf_counter() - t0
                statuses[method] = entry.status
                loops.append(loop_s())
    finally:
        if tracer is not None:
            tracer.uninstall()

    hashes, problems = check_outputs(configs, os.path.join(workdir, "leaderboard.csv"))
    result = {
        "setup_s": setup_s,
        "phase_s": sum(phase_s.values()),
        "method_s": phase_s,
        "calibration_s": loops,
        "statuses": statuses,
        "hashes": hashes,
        "problems": problems,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        left = tracer.leftover_patches()
        if left:
            result["problems"].append(f"tracer left patched: {left}")
        result["layers"] = tracer.layer_metrics()
        result["spans"] = len(tracer.spans)
        tracer.write_jsonl(os.path.join(workdir, "spans.jsonl"))
    return result


def versions() -> dict[str, str]:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "?"),
    }


def main(argv=None) -> int:
    started = time.perf_counter()
    # one CPU for the whole round, which the calibration helper inherits, so
    # that its loops measure the speed of the CPU the phases ran on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for var in BLAS_VARIABLES:  # must precede the first numpy import
        os.environ[var] = BLAS_THREADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_fewbench()
    from workloads import WORKLOADS

    result = run_round(WORKLOADS[args.workload], args.seed, args.workdir,
                       bool(args.trace), started)
    result["versions"] = versions()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
