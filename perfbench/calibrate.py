"""A fixed reference loop that measures how fast the machine runs right now.

The benchmark's machine is a few cores of a shared host, and their speed
drifts by a third and more over stretches of seconds to minutes.  The
worker times this loop before and after every phase; ``run.py`` scales
each phase's wall time by how much slower than ``REFERENCE_S`` the loop ran
around it.  The loop uses numpy and the Python interpreter the way
fewbench's phases do (episode-sized arrays drawn and scored one episode at a
time, query-pool-sized arrays, parsing a feature table into a heap larger
than the caches) but no fewbench code, so a change to fewbench cannot move
it.  The worker runs it in a helper process on its own CPU (``--serve``),
so that neither the loop's memory nor the worker's heap and garbage
collector can affect the other.

    python3 perfbench/calibrate.py           # prints five timings of the loop
    python3 perfbench/calibrate.py --serve   # one timing per line read from stdin
"""

from __future__ import annotations

import json
import sys
import time

# Seconds the loop takes on a 2-core Xeon (numpy 2.4.6, OpenBLAS on one
# thread) in its fast state: the machine speed that the benchmark's phase
# and set-up times are reported at.
REFERENCE_S = 0.07

_inputs = None


def _make_inputs():
    import numpy as np

    rng = np.random.default_rng(20220203)
    pool = rng.standard_normal((400, 16))
    labels = np.repeat(np.arange(20), 20)
    large = rng.standard_normal((3000, 16))
    centres = rng.standard_normal((5, 16))
    table = rng.standard_normal((6000, 16))
    text = "\n".join(f"{i % 50}," + ",".join(f"{v:.6f}" for v in row)
                     for i, row in enumerate(table))
    return pool, labels, large, centres, text


def _episodes(pool, labels, count: int) -> None:
    """Draw, fit and score ``count`` 5-way 1-shot episodes by nearest mean."""
    import numpy as np

    lines = []
    for ep in range(count):
        rng = np.random.default_rng(ep)
        classes = rng.choice(20, 5, replace=False)
        support, query, truth = [], [], []
        for j, c in enumerate(classes):
            idx = rng.permutation(np.flatnonzero(labels == c))
            support.append(pool[idx[:1]])
            query.append(pool[idx[1:]])
            truth += [j] * (len(idx) - 1)
        centres = np.stack([s.mean(0) for s in support])
        q = np.concatenate(query)
        dist = ((q[:, None, :] - centres[None]) ** 2).sum(-1)
        np.linalg.solve(np.cov(q.T) + np.eye(16), centres.T)
        acc = float((dist.argmin(1) == np.array(truth)).mean())
        lines.append(f"episode,{ep},{acc!r},{classes.tolist()}")
    json.loads(json.dumps(lines))


def _parse(text: str) -> None:
    """Parse a feature table into per-class row arrays, keeping every row
    in a set, as fewbench's CSV reader does: a heap larger than the caches."""
    import numpy as np

    rows: dict[int, list] = {}
    seen = set()
    for line in text.splitlines():
        parts = line.split(",")
        values = [float(p) for p in parts[1:]]
        seen.add(tuple(values))
        rows.setdefault(int(parts[0]), []).append(np.array(values))
    for class_rows in rows.values():
        np.stack(class_rows)


def loop_s() -> float:
    """Wall seconds of one pass of the reference loop."""
    import numpy as np

    global _inputs
    if _inputs is None:
        _inputs = _make_inputs()
        _episodes(*_inputs[:2], 5)  # warm-up: first calls into numpy are slower
    pool, labels, large, centres, text = _inputs
    t0 = time.perf_counter()
    _episodes(pool, labels, 80)
    for _ in range(12):  # query-pool shapes
        d = ((large[:, None, :] - centres[None]) ** 2).sum(-1)
        p = np.exp(-d / 16.0)
        p /= p.sum(1, keepdims=True)
        d.argmin(1)
        large.T @ large
    _parse(text)
    return time.perf_counter() - t0


if __name__ == "__main__":
    if sys.argv[1:] == ["--serve"]:
        for _ in sys.stdin:
            print(repr(loop_s()), flush=True)
    else:
        for _ in range(5):
            print(f"{loop_s():.4f}")
