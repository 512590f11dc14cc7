"""Benchmark workloads: what each runs, and the phase configs it derives from a seed.

Every workload is a list of ``(method, episode_count)`` phases over one
meta-train/meta-test split.  The workload seed picks the three phase seeds,
and so every episode drawn; the same seed gives the same inputs and
therefore byte-identical score reports.  The synthetic pool and its class
split are fewbench's defaults (data seed 7, split seed 1234) for every
workload seed: with 20 classes the meta-test pool holds just the five
classes every episode uses, so a seed-drawn pool made PT-MAP's Sinkhorn
work, and its phase time, vary by 50% between seeds.

Episode counts are sized so that one round (set-up plus all phases) takes
about six seconds on a 2-core Xeon with one BLAS thread, and about eleven
on large-query, whose four phases each parse a 15 MB CSV file.  A 55 s run
then holds four to ten rounds and reports their median.
"""

from __future__ import annotations

from dataclasses import dataclass

N_WAY = 5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    phases: tuple[tuple[str, int], ...]   # (method, phase.episode_count)
    k_shot: int = 1
    num_classes: int = 20
    samples_per_class: int = 20
    n_train_classes: int = 15
    csv: bool = False                     # write the split to CSV during set-up
    extra: tuple[tuple[str, str], ...] = ()

    @property
    def methods(self) -> tuple[str, ...]:
        return tuple(m for m, _ in self.phases)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="small",
            why="default 20-class preset, 5-way 1-shot, 95 queries, all six methods: "
                "per-episode overhead, small 95x5 Sinkhorn solves, fomaml training",
            phases=(("proto", 300), ("qda", 300), ("rect", 300), ("ptmap", 40),
                    ("fomaml", 100), ("linear", 100)),
            extra=(("method.fomaml.epochs", "15"),),
        ),
        Workload(
            name="large-query",
            why="feedback-like 100x600 pool loaded from CSV, 5-shot, 2975 queries: "
                "large-array heads, CSV parsing, one-iteration Sinkhorn",
            phases=(("proto", 60), ("qda", 60), ("rect", 60), ("ptmap", 4)),
            k_shot=5,
            num_classes=100,
            samples_per_class=600,
            n_train_classes=80,
            csv=True,
        ),
    )
}


DATA_SEED = 7      # fewbench's data.synthetic.seed default
SPLIT_SEED = 1234  # fewbench's data.split_seed default


def phase_seeds(seed: int) -> tuple[int, int, int]:
    """The three distinct phase seeds drawn from the workload seed."""
    import numpy as np

    state = np.random.SeedSequence(int(seed)).generate_state(3)
    return tuple(int(v) for v in state)


def config_text(workload: Workload, method: str, episodes: int, seed: int,
                workdir: str, data_paths: tuple[str, str] | None) -> str:
    """The ``key = value`` phase config a user would write for this phase."""
    lines = [
        f"method.name = {method}",
        f"phase.episode_count = {episodes}",
        f"phase.seeds = {','.join(str(s) for s in phase_seeds(seed))}",
        f"sampler.n_way = {N_WAY}",
        f"sampler.k_shot = {workload.k_shot}",
        f"paths.workdir = {workdir}/{method}",
        f"paths.leaderboard = {workdir}/leaderboard.csv",
    ]
    if data_paths is not None:
        lines += [f"data.train_path = {data_paths[0]}", f"data.test_path = {data_paths[1]}"]
    else:
        lines += [
            f"data.synthetic.num_classes = {workload.num_classes}",
            f"data.synthetic.samples_per_class = {workload.samples_per_class}",
            f"data.synthetic.seed = {DATA_SEED}",
            f"data.n_train_classes = {workload.n_train_classes}",
            f"data.split_seed = {SPLIT_SEED}",
        ]
    lines += [f"{k} = {v}" for k, v in workload.extra]
    return "\n".join(lines) + "\n"
