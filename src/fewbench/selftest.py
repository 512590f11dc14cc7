"""Quick built-in consistency checks, runnable via ``fewbench selftest``.

These are smoke tests for a fresh install, not the full test suite: each
check exercises one load-bearing numeric contract end to end and prints a
single ok/FAIL line.
"""

from __future__ import annotations

import io
import math
import os
import tempfile
import traceback
from dataclasses import replace

import numpy as np

from .api import MethodConfig, load_learner, meta_fit, parse_learner, render_learner
from .dataset import (
    ClassRecord,
    DatasetTable,
    SyntheticSpec,
    generate_synthetic,
    load_feature_dataset,
    parse_feature_dataset,
    render_feature_dataset,
    split_classes,
    write_feature_dataset,
)
from .errors import ParseError
from .evaluation import cat_accuracy, ci95, evaluate_learner
from .fomaml import InnerConfig, MlpParams, fo_meta_step, init_mlp, loss_and_grad
from .heads import (SinkhornConfig, compute_prototypes, linear_head_fit, linear_head_predict,
                    proto_labels, sinkhorn)
from .rng import RngState, streams
from .sampler import EpisodeSpec, episode_stream, sample_block

__all__ = ["run_selftest"]


def _require(condition, *detail) -> None:
    """Fail the check unless ``condition`` holds.  Unlike ``assert``, this
    still checks under ``python -O``."""
    if not condition:
        raise AssertionError(*detail)


def _small_table() -> DatasetTable:
    """Eight classes of six 4-wide rows."""
    return generate_synthetic(SyntheticSpec(num_classes=8, dim=4, samples_per_class=6,
                                            class_std=1.0, mean_scale=2.0, seed=3))


def _check_sinkhorn_marginals() -> None:
    rng = np.random.default_rng(0)
    cost = rng.uniform(0.0, 2.0, size=(12, 4))
    a = np.full(12, 1.0 / 12)
    b = np.full(4, 1.0 / 4)
    plan = sinkhorn(cost, a, b, SinkhornConfig(reg=0.5, max_iters=500, tol=1e-9))
    _require(plan.converged)
    _require(np.max(np.abs(plan.matrix.sum(axis=1) - a)) < 1e-8)
    _require(np.max(np.abs(plan.matrix.sum(axis=0) - b)) < 1e-12)


def _check_sinkhorn_small_reg() -> None:
    # each row has one cheap column; at reg=0.01 the far row's kernel
    # entries all underflow to zero, so only the solver's log-domain
    # absorption step gets past the first iteration
    rng = np.random.default_rng(1)
    cost = rng.uniform(1.0, 2.0, size=(12, 4))
    cost[np.arange(12), np.arange(12) % 4] = rng.uniform(0.0, 0.2, size=12)
    cost[3] += 40.0
    a = np.full(12, 1.0 / 12)
    b = np.full(4, 1.0 / 4)
    config = SinkhornConfig(reg=0.01, max_iters=2000, tol=1e-9)
    plan = sinkhorn(cost, a, b, config)
    _require(plan.converged)
    _require(np.max(np.abs(plan.matrix.sum(axis=1) - a)) <= config.tol)
    _require(np.max(np.abs(plan.matrix.sum(axis=0) - b)) <= config.tol)


def _check_fomaml_gradient() -> None:
    # central differences against the hand-derived gradient of a 3x4x3 MLP
    rng = np.random.default_rng(2)
    params = MlpParams(W1=rng.normal(size=(4, 3)), b1=rng.normal(size=4),
                       W2=rng.normal(size=(3, 4)), b2=rng.normal(size=3))
    x, y = rng.normal(size=(6, 3)), np.array([0, 1, 2, 0, 1, 2])
    _, grads = loss_and_grad(params, x, y)
    for name in ("W1", "b1", "W2", "b2"):
        for idx in np.ndindex(getattr(params, name).shape):
            moved = []
            for step in (1e-6, -1e-6):
                arr = getattr(params, name).copy()
                arr[idx] += step
                moved.append(loss_and_grad(replace(params, **{name: arr}), x, y)[0])
            fd = (moved[0] - moved[1]) / 2e-6
            _require(abs(fd - getattr(grads, name)[idx]) < 1e-7, (name, idx, fd))


def _check_stacked_fomaml_step() -> None:
    # one meta-step over a block of three stacked tasks, against the step
    # over the same three tasks one at a time, summed in episode order
    block = sample_block(_small_table(), EpisodeSpec(n_way=3, k_shot=2),
                         [RngState(4).fork(i) for i in range(3)])
    params = init_mlp(4, 8, 3, RngState(5))
    inner = InnerConfig(steps=3, lr=0.1)
    stacked = fo_meta_step(params, [block], inner, outer_lr=0.01)
    serial = fo_meta_step(params, [block[i] for i in range(3)], inner, outer_lr=0.01)
    for name in ("W1", "b1", "W2", "b2"):
        _require(getattr(stacked, name).tobytes() == getattr(serial, name).tobytes(), name)


def _check_stacked_linear_head() -> None:
    # a block of three logistic heads trained at once, against the same
    # three episodes trained one at a time
    block = sample_block(_small_table(), EpisodeSpec(n_way=3, k_shot=2),
                         [RngState(6).fork(i) for i in range(3)])
    stacked = linear_head_fit(block.support_x, block.support_y, epochs=5, step_size=0.1)
    labels = linear_head_predict(stacked, block.query_x)
    for i in range(3):
        alone = linear_head_fit(block[i].support_x, block.support_y, epochs=5, step_size=0.1)
        got = (stacked.weights[i], stacked.bias[i], np.array(stacked.loss_history)[:, i],
               labels[i])
        want = (alone.weights, alone.bias, np.array(alone.loss_history),
                linear_head_predict(alone, block[i].query_x))
        _require([a.tobytes() for a in got] == [a.tobytes() for a in want], i)


def _check_keyed_streams() -> None:
    # the keys of the shared generator against numpy's SeedSequence at the
    # depths the harness forks to, and its draws against a fresh generator
    for rngs in ([RngState(2**64 - 1).fork(i) for i in (0, 1, 2**32 - 1)],
                 [RngState(7, (1, 12, j)) for j in range(4)]):
        for gen, rng in zip(streams(rngs), rngs):
            key = np.random.SeedSequence(rng.seed, spawn_key=rng.path).generate_state(2, np.uint64)
            _require(np.array_equal(gen.bit_generator.state["state"]["key"], key), rng)
            _require(np.array_equal(gen.permutation(9), rng.generator.permutation(9)), rng)


def _check_single_shot_prototypes() -> None:
    x = np.arange(10.0).reshape(5, 2)
    y = np.arange(5)
    protos = compute_prototypes(x, y)
    _require(np.array_equal(protos.centers, x))
    _require(np.array_equal(proto_labels(protos, x), y))


def _check_ci95_formula() -> None:
    acc = np.array([0.2, 0.4, 0.6, 0.8])
    expected = 1.96 * np.std(acc, ddof=1) / math.sqrt(4)
    _require(abs(ci95(acc) - expected) < 1e-15)
    _require(cat_accuracy(np.array([1, 2, 3]), np.array([1, 0, 3])) == 2.0 / 3.0)


def _check_episode_determinism() -> None:
    table = _small_table()
    spec = EpisodeSpec(n_way=5, k_shot=1)
    run1 = list(episode_stream(table, spec, 4, seed=11))
    run2 = list(episode_stream(table, spec, 4, seed=11))
    for e1, e2 in zip(run1, run2):
        _require(np.array_equal(e1.support_x, e2.support_x))
        _require(np.array_equal(e1.query_x, e2.query_x))
        _require(np.array_equal(e1.query_y, e2.query_y))


def _check_artifact_round_trip() -> None:
    learner = meta_fit(MethodConfig(name="proto"), EpisodeSpec(), _small_table(), seed=5)
    text = render_learner(learner)
    again = parse_learner(text)
    _require(render_learner(again) == text)


def _check_feature_table_round_trip() -> None:
    pool = generate_synthetic(
        SyntheticSpec(num_classes=3, dim=3, samples_per_class=4, class_std=1.0,
                      mean_scale=2.0, seed=5)
    )
    edge = ClassRecord(7, np.array([[-0.0, 5e-324, 1e308], [0.25, -1e-300, -1e308]]))
    table = DatasetTable(dim=3, classes=[pool.classes[1], edge, pool.classes[0]])
    text = render_feature_dataset(table)
    _require(render_feature_dataset(parse_feature_dataset(text)) == text)
    # the file path: the block writer and reader, past a replaced file
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "table.csv")
        write_feature_dataset(pool, path)
        write_feature_dataset(table, path)
        with open(path, "r", encoding="utf-8") as fh:
            _require(fh.read() == text)
        _require(render_feature_dataset(load_feature_dataset(path)) == text)
    # 0.0 and -0.0 compare equal, so the third line repeats the second
    try:
        parse_feature_dataset("dim=2\n0,0.0,1.5\n0,-0.0,1.5\n")
    except ParseError as exc:
        _require(exc.line_no == 3, exc.line_no)
    else:
        raise AssertionError("a 0.0/-0.0 duplicate row was accepted")


def _check_end_to_end_scoring() -> None:
    table = generate_synthetic(
        SyntheticSpec(num_classes=10, dim=8, samples_per_class=8, class_std=0.5,
                      mean_scale=2.0, seed=9)
    )
    split = split_classes(table, 5, seed=2)
    learner = meta_fit(MethodConfig(name="proto"), EpisodeSpec(), split.meta_train, seed=1)
    agg = evaluate_learner(
        learner, split.meta_test, EpisodeSpec(n_way=5, k_shot=1), 20, seed=1
    )
    _require(0.0 <= agg.mean <= 1.0)
    _require(agg.episode_count == 20)


_CHECKS = [
    ("sinkhorn marginals", _check_sinkhorn_marginals),
    ("sinkhorn small reg", _check_sinkhorn_small_reg),
    ("fo-MAML gradient", _check_fomaml_gradient),
    ("stacked fo-MAML step", _check_stacked_fomaml_step),
    ("stacked linear head", _check_stacked_linear_head),
    ("single-shot prototypes", _check_single_shot_prototypes),
    ("ci95 formula", _check_ci95_formula),
    ("episode determinism", _check_episode_determinism),
    ("keyed streams", _check_keyed_streams),
    ("artifact round trip", _check_artifact_round_trip),
    ("feature table round trip", _check_feature_table_round_trip),
    ("end-to-end scoring", _check_end_to_end_scoring),
]


def run_selftest(out: io.TextIOBase | None = None) -> bool:
    """Run all checks; print one line per check; return overall success."""
    import sys

    out = out or sys.stdout
    ok = True
    for name, check in _CHECKS:
        try:
            check()
        except Exception:
            ok = False
            print(f"FAIL {name}", file=out)
            traceback.print_exc(file=out)
        else:
            print(f"ok   {name}", file=out)
    print("selftest passed" if ok else "selftest FAILED", file=out)
    return ok
