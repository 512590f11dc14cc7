"""Record the output hashes that ``run.py`` checks runs against.

    python3 perfbench/record_reference.py --seeds 0-12 [--workload small ...]

Runs one untraced round per workload and seed, and stores the sha256 of
every score report and wallclock-free leaderboard line in
``perfbench/reference.json``.  Re-record only for a change that alters
scores on purpose, or one that changes a workload's shape, and say so.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import HERE, RoundError, run_worker
from workloads import WORKLOADS


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-12", help="inclusive range, e.g. 0-12")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)

    path = HERE / "reference.json"
    reference = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for workload in args.workload or sorted(WORKLOADS):
        for seed in parse_seeds(args.seeds):
            try:
                result = run_worker(workload, seed, traced=False, timeout=170.0)
            except RoundError as exc:
                print(f"record_reference: {exc}", file=sys.stderr)
                return 1
            if result["problems"]:
                print(f"record_reference: {workload} seed {seed}: {result['problems']}",
                      file=sys.stderr)
                return 1
            reference.setdefault(workload, {})[str(seed)] = result["hashes"]
            print(f"{workload} seed {seed}: {len(result['hashes'])} outputs")
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
