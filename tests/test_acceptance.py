"""Acceptance gate: eleven published criteria, one test and verdict line each;
criterion 04 also has a harder case, 04b.

Every test prints ``criterion NN [PASS|FAIL] <name> (detail)`` before
asserting, so a plain ``pytest -v`` shows one outcome line per criterion and
``-s`` additionally shows the measured numbers.  All data recipes and seeds
used here are published constants of this repository.
"""

import os
import time

import numpy as np

from fewbench.api import MethodConfig, meta_fit
from fewbench.cli import EXIT_OK, main
from fewbench.dataset import (
    SyntheticSpec,
    bayes_oracle_accuracy,
    generate_synthetic,
    split_classes,
)
from fewbench.evaluation import AggregateScore, evaluate_learner, final_score
from fewbench.fomaml import MlpParams, init_mlp, loss_and_grad
from fewbench.heads import SinkhornConfig, sinkhorn
from fewbench.pipeline import load_config, run_phase
from fewbench.rng import RngState
from fewbench.sampler import EpisodeSpec, episode_stream

FIVE_ONE = EpisodeSpec(n_way=5, k_shot=1)

# Moderate overlap: class-mean scale twice the class std (16-dim features).
OVERLAP_SPEC = SyntheticSpec(num_classes=20, dim=16, samples_per_class=20,
                             class_std=0.6, mean_scale=1.2, seed=3)

# Heavy overlap: class-mean scale equal to the class std.  Prototypes score
# about 0.80 here, so the PT-MAP margin rests on many queries.
HARD_OVERLAP_SPEC = SyntheticSpec(num_classes=20, dim=16, samples_per_class=20,
                                  class_std=0.6, mean_scale=0.6, seed=3)

# Near-complete separation: mean scale one hundred times the class std.
SEPARATED_SPEC = SyntheticSpec(num_classes=20, dim=16, samples_per_class=20,
                               class_std=0.02, mean_scale=2.0, seed=5)


def verdict(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} [{tag}] {name}{extra}")
    assert ok, f"criterion {num} failed: {name}{extra}"


def episode_learner(name, **params):
    method = MethodConfig(name=name, params={k: str(v) for k, v in params.items()})
    return meta_fit(method, FIVE_ONE, generate_synthetic(OVERLAP_SPEC), 0)


# ---------------------------------------------------------------------------


class UniformRandomLearner:
    """Ignores the support set and guesses labels uniformly at random."""

    def __init__(self, seed=0):
        self.gen = np.random.default_rng(seed)

    def fit(self, support_x, support_y):
        return self

    def predict(self, query_x):
        return self.gen.integers(0, 5, size=len(query_x))


def test_criterion_01_chance_calibration():
    pool = generate_synthetic(SyntheticSpec(
        num_classes=20, dim=16, samples_per_class=20,
        class_std=1.0, mean_scale=2.0, seed=7,
    ))
    t0 = time.monotonic()
    agg = evaluate_learner(UniformRandomLearner(), pool, FIVE_ONE, 600, seed=1)
    took = time.monotonic() - t0
    ok = abs(agg.mean - 0.200) <= 0.010 and took < 5.0
    verdict(1, "chance-level calibration",
            ok, f"mean={agg.mean:.4f}, {took:.2f}s")


def test_criterion_02_separation_limit():
    split = split_classes(generate_synthetic(SEPARATED_SPEC), 10, seed=6)
    t0 = time.monotonic()
    means = {}
    for name in ("proto", "ptmap", "qda", "linear", "rect"):
        learner = meta_fit(MethodConfig(name=name), FIVE_ONE, split.meta_train, 0)
        means[name] = evaluate_learner(
            learner, split.meta_test, FIVE_ONE, 600, seed=11
        ).mean
    took = time.monotonic() - t0
    ok = all(m >= 0.99 for m in means.values()) and took < 60.0
    detail = ", ".join(f"{k}={v:.4f}" for k, v in means.items())
    verdict(2, "separation limit", ok, f"{detail}, {took:.1f}s")


def test_criterion_03_oracle_gap():
    pool = generate_synthetic(OVERLAP_SPEC)
    proto = evaluate_learner(episode_learner("proto"), pool, FIVE_ONE,
                             600, seed=42).mean
    bayes = bayes_oracle_accuracy(OVERLAP_SPEC, FIVE_ONE, 600, 42)
    gap = abs(proto - bayes)
    verdict(3, "nearest-prototype within 0.05 of the Bayes oracle",
            gap < 0.05, f"proto={proto:.4f}, bayes={bayes:.4f}, gap={gap:.4f}")


def test_criterion_04_method_ordering():
    pool = generate_synthetic(OVERLAP_SPEC)
    proto = episode_learner("proto")
    ptmap = episode_learner("ptmap")
    margins = []
    for seed in range(42, 62):
        p = evaluate_learner(proto, pool, FIVE_ONE, 600, seed=seed).mean
        q = evaluate_learner(ptmap, pool, FIVE_ONE, 600, seed=seed).mean
        margins.append(q - p)
    strict = sum(m > 0 for m in margins)
    ok = margins[0] >= 0 and strict >= 19
    verdict(4, "transductive head beats nearest prototype",
            ok, f"margin@42={margins[0]:+.4f}, strict {strict}/20")


def test_criterion_04b_method_ordering_under_heavy_overlap():
    pool = generate_synthetic(HARD_OVERLAP_SPEC)
    proto = episode_learner("proto")
    ptmap = episode_learner("ptmap")
    margins = []
    for seed in range(42, 47):
        p = evaluate_learner(proto, pool, FIVE_ONE, 600, seed=seed).mean
        q = evaluate_learner(ptmap, pool, FIVE_ONE, 600, seed=seed).mean
        margins.append(q - p)
    verdict(4, "transductive head beats nearest prototype under heavy overlap",
            all(m > 0 for m in margins),
            f"margins {min(margins):+.4f} to {max(margins):+.4f} over 5 seeds")


def scaling_oracle(cost, a, b, reg):
    """Probability-domain Sinkhorn scaling, written independently.

    Mirrors the published contract: the cost is normalized by its median
    before the Gibbs kernel is formed.
    """
    scaled = cost / np.median(cost)
    K = np.exp(-scaled / reg)
    u = np.ones(len(a))
    v = np.ones(len(b))
    for _ in range(50000):
        u = a / (K @ v)
        v = b / (K.T @ u)
        plan = u[:, None] * K * v[None, :]
        err = max(np.abs(plan.sum(axis=1) - a).max(),
                  np.abs(plan.sum(axis=0) - b).max())
        if err < 1e-14:
            break
    return u[:, None] * K * v[None, :]


def test_criterion_05_sinkhorn_against_oracle():
    gen = np.random.default_rng(55)
    a = np.full(10, 0.1)
    b = np.full(5, 0.2)
    config = SinkhornConfig(reg=0.1, max_iters=20000, tol=1e-13)
    worst_plan = 0.0
    worst_marginal = 0.0
    for _ in range(100):
        cost = gen.uniform(0.05, 4.0, size=(10, 5))
        plan = sinkhorn(cost, a, b, config)
        want = scaling_oracle(cost, a, b, reg=0.1)
        worst_plan = max(worst_plan, np.abs(plan.matrix - want).max())
        residual = max(np.abs(plan.matrix.sum(axis=1) - a).max(),
                       np.abs(plan.matrix.sum(axis=0) - b).max())
        worst_marginal = max(worst_marginal, residual)
    ok = worst_plan < 1e-9 and worst_marginal <= 1e-6
    verdict(5, "transport plans match an independent fixed-point oracle",
            ok, f"plan err={worst_plan:.2e}, marginal err={worst_marginal:.2e}")


def _flatten(p):
    return np.concatenate([p.W1.ravel(), p.b1.ravel(),
                           p.W2.ravel(), p.b2.ravel()])


def _rebuild(vec, like):
    parts = []
    i = 0
    for arr in (like.W1, like.b1, like.W2, like.b2):
        parts.append(vec[i:i + arr.size].reshape(arr.shape))
        i += arr.size
    return MlpParams(*parts)


def test_criterion_06_gradient_exactness():
    gen = np.random.default_rng(66)
    dim, hidden, n_way = 4, 6, 3
    h = 1e-6
    worst = 0.0
    for point in range(200):
        params = init_mlp(dim, hidden, n_way, RngState(600 + point))
        x = gen.normal(size=(8, dim))
        y = gen.integers(0, n_way, size=8)
        _, grads = loss_and_grad(params, x, y)
        theta = _flatten(params)
        fd = np.empty_like(theta)
        for j in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            fd[j] = (loss_and_grad(_rebuild(up, params), x, y)[0]
                     - loss_and_grad(_rebuild(down, params), x, y)[0]) / (2 * h)
        g = _flatten(grads)
        rel = np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1e-12)
        worst = max(worst, rel)
    verdict(6, "analytic gradients match central differences",
            worst < 1e-4, f"worst rel err={worst:.2e} over 200 points")


def test_criterion_07_meta_learning_effect():
    split = split_classes(generate_synthetic(OVERLAP_SPEC), 15, seed=4)
    t0 = time.monotonic()

    def fomaml_mean(epochs):
        method = MethodConfig(name="fomaml", params={
            "epochs": str(epochs), "outer_lr": "0.04",
        })
        learner = meta_fit(method, FIVE_ONE, split.meta_train, 9)
        return evaluate_learner(learner, split.meta_test, FIVE_ONE,
                                600, seed=42).mean

    trained = fomaml_mean(300)
    baseline = fomaml_mean(0)  # same init stream, no outer updates
    took = time.monotonic() - t0
    margin = trained - baseline
    ok = margin > 0.15 and took < 120.0
    verdict(7, "meta-training beats its random initialization",
            ok, f"trained={trained:.4f}, init={baseline:.4f}, "
                f"margin={margin:+.4f}, {took:.1f}s")


def test_criterion_08_protocol_determinism(tmp_path):
    workdir = tmp_path / "work"
    config = tmp_path / "phase.cfg"
    config.write_text(
        "data.synthetic.num_classes = 12\n"
        "data.synthetic.dim = 4\n"
        "data.synthetic.samples_per_class = 6\n"
        "data.synthetic.class_std = 0.3\n"
        "data.synthetic.mean_scale = 2.0\n"
        "data.synthetic.seed = 3\n"
        "data.n_train_classes = 6\n"
        "phase.episode_count = 20\n"
        "phase.budget_seconds = 60\n"
        f"paths.workdir = {workdir}\n"
    )

    def snapshot():
        assert main(["run", "--config", str(config)]) == EXIT_OK
        return {
            name: (workdir / name).read_text(encoding="utf-8")
            for name in sorted(os.listdir(workdir))
            if name.startswith("score_seed")
        }

    first = snapshot()
    second = snapshot()
    board = (workdir / "leaderboard.csv").read_text(encoding="utf-8").splitlines()
    entries = [line.split(",") for line in board]
    wallclock_free = [e[:8] + e[9:] for e in entries]
    ok = (first == second
          and len(entries) == 2
          and wallclock_free[0] == wallclock_free[1])
    verdict(8, "repeated runs reproduce reports and leaderboard entries",
            ok, f"{len(first)} reports byte-identical")


def test_criterion_09_worst_of_three_rule():
    gen = np.random.default_rng(99)
    failures = 0
    for _ in range(1000):
        means = gen.uniform(size=3)
        scores = [
            AggregateScore(mean=float(m), ci95_halfwidth=0.01,
                           episode_count=10, seed=i)
            for i, m in enumerate(means)
        ]
        if final_score(scores).final != means.min():
            failures += 1
    verdict(9, "final score is the worst of the three seed means",
            failures == 0, f"{failures}/1000 mismatches")


def test_criterion_10_budget_enforcement(tmp_path):
    cfg = load_config({
        "data.synthetic.num_classes": "12",
        "data.synthetic.dim": "4",
        "data.synthetic.samples_per_class": "6",
        "data.n_train_classes": "6",
        "method.name": "sleeper",
        "method.sleeper.duration_seconds": "30",
        "phase.budget_seconds": "2",
        "paths.workdir": str(tmp_path / "work"),
    })
    t0 = time.monotonic()
    result, entry = run_phase(cfg)
    took = time.monotonic() - t0
    ok = result is None and entry.status == "timed_out" and took < 3.0
    verdict(10, "sleeper is cut off and reported timed_out",
            ok, f"status={entry.status}, {took:.2f}s")


def test_criterion_11_episode_structure_invariants():
    pool = generate_synthetic(SyntheticSpec(
        num_classes=30, dim=8, samples_per_class=20,
        class_std=1.0, mean_scale=2.0, seed=13,
    ))
    bad = 0
    for episode in episode_stream(pool, FIVE_ONE, 10000, seed=21):
        support = {row.tobytes() for row in episode.support_x}
        query = {row.tobytes() for row in episode.query_x}
        good = (
            len(episode.support_x) == 5
            and sorted(episode.support_y) == [0, 1, 2, 3, 4]
            and len(episode.query_x) == 95
            and np.bincount(episode.query_y, minlength=5).tolist() == [19] * 5
            and support.isdisjoint(query)
        )
        bad += not good
    verdict(11, "episode invariants over 10,000 samples",
            bad == 0, f"{bad} violations; 5 support + 95 query per episode")
