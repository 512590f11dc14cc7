"""Hand-written MLP backprop and the first-order meta-training loop.

The gradient is the load-bearing piece: it is pinned by central finite
differences over every parameter block at many random points.  The meta
step is pinned by an equivalence: with zero inner steps the meta update
must coincide exactly with joint training on the pooled query batches.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewbench import fomaml
from fewbench.dataset import SyntheticSpec, generate_synthetic
from fewbench.errors import ArgumentError, NumericError
from fewbench.fomaml import (
    InnerConfig,
    MlpParams,
    OuterConfig,
    fo_meta_step,
    init_mlp,
    inner_adapt,
    loss_and_grad,
    meta_train,
    mlp_forward,
)
from fewbench.rng import RngState
from fewbench.sampler import ALL_REMAINING, Episode, EpisodeSpec, sample_episode


def random_params(gen, d=4, h=6, n=3, scale=1.0):
    return MlpParams(
        W1=gen.normal(scale=scale, size=(h, d)),
        b1=gen.normal(scale=scale, size=h),
        W2=gen.normal(scale=scale, size=(n, h)),
        b2=gen.normal(scale=scale, size=n),
    )


def random_batch(gen, b=8, d=4, n=3):
    return gen.normal(size=(b, d)), gen.integers(0, n, size=b)


def numeric_grad(params, x, y, name, idx, h=1e-6):
    def loss_at(value):
        arrays = {k: getattr(params, k).copy() for k in ("W1", "b1", "W2", "b2")}
        arrays[name][idx] = value
        return loss_and_grad(MlpParams(**arrays), x, y)[0]

    base = getattr(params, name)[idx]
    return (loss_at(base + h) - loss_at(base - h)) / (2 * h)


def test_gradients_match_central_differences_everywhere():
    """Every parameter block and coordinate at many random points.

    Central differences carry ~1e-10 absolute noise (roundoff/truncation),
    so coordinates accept on absolute closeness OR relative error; the
    per-point norm-wise relative error must still be tiny.
    """
    gen = np.random.default_rng(0)
    for trial in range(10):
        params = random_params(gen)
        x, y = random_batch(gen)
        _, grads = loss_and_grad(params, x, y)
        fd_all, an_all = [], []
        for name in ("W1", "b1", "W2", "b2"):
            arr = getattr(grads, name)
            for idx in np.ndindex(arr.shape):
                fd = numeric_grad(params, x, y, name, idx)
                fd_all.append(fd)
                an_all.append(arr[idx])
                rel = abs(fd - arr[idx]) / max(abs(fd), abs(arr[idx]), 1e-12)
                assert abs(fd - arr[idx]) < 5e-9 or rel < 1e-6, (trial, name, idx)
        fd_all = np.asarray(fd_all)
        an_all = np.asarray(an_all)
        norm_rel = np.linalg.norm(fd_all - an_all) / np.linalg.norm(an_all)
        assert norm_rel < 1e-7, trial


def test_loss_is_cross_entropy_of_forward_probs():
    gen = np.random.default_rng(1)
    params = random_params(gen)
    x, y = random_batch(gen)
    logits = mlp_forward(params, x)
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    want = -np.log(probs[np.arange(len(y)), y]).mean()
    got, _ = loss_and_grad(params, x, y)
    assert got == pytest.approx(want, rel=1e-12)


def test_relu_subgradient_zero_at_kink():
    """Units sitting exactly at pre-activation 0 must pass no gradient."""
    params = MlpParams(
        W1=np.zeros((2, 2)), b1=np.zeros(2),       # all pre-activations == 0
        W2=np.ones((3, 2)), b2=np.array([0.0, 1.0, -1.0]),
    )
    x = np.ones((4, 2))
    y = np.zeros(4, dtype=np.int64)
    _, grads = loss_and_grad(params, x, y)
    assert np.array_equal(grads.W1, np.zeros((2, 2)))
    assert np.array_equal(grads.b1, np.zeros(2))
    assert not np.array_equal(grads.b2, np.zeros(3))


def test_forward_single_matches_batch():
    gen = np.random.default_rng(2)
    params = random_params(gen)
    x, _ = random_batch(gen, b=5)
    batch_logits = mlp_forward(params, x)
    assert batch_logits.shape == (5, 3)
    for i in range(5):
        # single-row and batched matmuls may take different BLAS kernels,
        # so agreement is to rounding, not bitwise
        assert np.allclose(mlp_forward(params, x[i]), batch_logits[i],
                           rtol=1e-12, atol=1e-12)


def test_init_scaled_uniform_and_deterministic():
    p1 = init_mlp(16, 64, 5, RngState(3).fork(0))
    p2 = init_mlp(16, 64, 5, RngState(3).fork(0))
    assert np.array_equal(p1.W1, p2.W1) and np.array_equal(p1.b2, p2.b2)
    assert np.abs(p1.W1).max() <= 1.0 / np.sqrt(16)
    assert np.abs(p1.b1).max() <= 1.0 / np.sqrt(16)
    assert np.abs(p1.W2).max() <= 1.0 / np.sqrt(64)
    assert np.abs(p1.b2).max() <= 1.0 / np.sqrt(64)
    # the bounds are tight-ish: draws should fill most of the interval
    assert np.abs(p1.W1).max() > 0.8 / np.sqrt(16)
    with pytest.raises(ArgumentError):
        init_mlp(0, 4, 3, RngState(0))
    with pytest.raises(ArgumentError):
        init_mlp(4, 4, 1, RngState(0))


def test_inner_adapt_reduces_support_loss():
    gen = np.random.default_rng(4)
    params = random_params(gen, d=8, h=16, n=4, scale=0.2)
    x, y = random_batch(gen, b=12, d=8, n=4)
    adapted = inner_adapt(params, x, y, InnerConfig(steps=5, lr=0.05))
    before, _ = loss_and_grad(params, x, y)
    after, _ = loss_and_grad(adapted, x, y)
    assert after < before


def test_inner_adapt_zero_steps_is_identity():
    gen = np.random.default_rng(5)
    params = random_params(gen)
    x, y = random_batch(gen)
    adapted = inner_adapt(params, x, y, InnerConfig(steps=0, lr=0.05))
    assert adapted is params


def test_fo_step_zero_inner_equals_joint_training():
    """With no inner adaptation the first-order meta-gradient is exactly
    the average query-batch gradient, so the meta step must match a plain
    gradient step on each episode's query set, averaged in index order."""
    pool = generate_synthetic(
        SyntheticSpec(num_classes=8, dim=4, samples_per_class=6,
                      class_std=1.0, mean_scale=2.0, seed=6)
    )
    spec = EpisodeSpec(n_way=3, k_shot=1, query_per_class=4)
    root = RngState(7)
    episodes = [sample_episode(pool, spec, root.fork(i)) for i in range(4)]
    gen = np.random.default_rng(8)
    params = random_params(gen, d=4, h=5, n=3)

    stepped = fo_meta_step(params, episodes, InnerConfig(steps=0), outer_lr=0.01)

    grads = [loss_and_grad(params, ep.query_x, ep.query_y)[1] for ep in episodes]
    for name in ("W1", "b1", "W2", "b2"):
        avg = sum(getattr(g, name) for g in grads) / len(grads)
        want = getattr(params, name) - 0.01 * avg
        assert np.array_equal(getattr(stepped, name), want), name


def test_fo_step_uses_adapted_parameters():
    """The meta-gradient must be evaluated after inner adaptation: freezing
    adaptation (steps=0) has to give a different update."""
    pool = generate_synthetic(
        SyntheticSpec(num_classes=8, dim=4, samples_per_class=6,
                      class_std=1.0, mean_scale=2.0, seed=9)
    )
    spec = EpisodeSpec(n_way=3, k_shot=2, query_per_class=3)
    episodes = [sample_episode(pool, spec, RngState(10).fork(i)) for i in range(3)]
    params = random_params(np.random.default_rng(11), d=4, h=5, n=3)
    with_inner = fo_meta_step(params, episodes, InnerConfig(steps=3, lr=0.1))
    without = fo_meta_step(params, episodes, InnerConfig(steps=0, lr=0.1))
    assert not np.array_equal(with_inner.W1, without.W1)


def test_fo_step_rejects_empty_batch():
    params = random_params(np.random.default_rng(12))
    with pytest.raises(ArgumentError):
        fo_meta_step(params, [])


def test_config_validation():
    with pytest.raises(ArgumentError):
        InnerConfig(steps=-1).validate()
    with pytest.raises(ArgumentError):
        InnerConfig(lr=0.0).validate()
    with pytest.raises(ArgumentError):
        OuterConfig(lr=-0.1).validate()
    with pytest.raises(ArgumentError):
        OuterConfig(meta_batch=0).validate()
    with pytest.raises(ArgumentError):
        OuterConfig(epochs=-1).validate()


def test_check_finite():
    params = MlpParams(W1=np.array([[np.nan]]), b1=np.zeros(1),
                       W2=np.zeros((2, 1)), b2=np.zeros(2))
    with pytest.raises(NumericError):
        params.check_finite()


# ---------------------------------------------------------------------------
# Meta-training loop


def small_pool(seed=13):
    return generate_synthetic(
        SyntheticSpec(num_classes=10, dim=6, samples_per_class=8,
                      class_std=0.5, mean_scale=1.0, seed=seed)
    )


def test_meta_train_deterministic():
    pool = small_pool()
    spec = EpisodeSpec(n_way=5, k_shot=1)
    outer = OuterConfig(epochs=8, meta_batch=4)
    p1, log1 = meta_train(pool, spec, outer=outer, seed=14)
    p2, log2 = meta_train(pool, spec, outer=outer, seed=14)
    assert np.array_equal(p1.W1, p2.W1) and np.array_equal(p1.b2, p2.b2)
    assert log1 == log2
    p3, _ = meta_train(pool, spec, outer=outer, seed=15)
    assert not np.array_equal(p1.W1, p3.W1)


def test_meta_train_zero_epochs_returns_init():
    pool = small_pool()
    spec = EpisodeSpec(n_way=5, k_shot=1)
    params, log = meta_train(pool, spec, outer=OuterConfig(epochs=0), seed=16)
    init = init_mlp(pool.dim, 64, 5, RngState(16).fork(0))
    assert np.array_equal(params.W1, init.W1)
    assert np.array_equal(params.b2, init.b2)
    assert log == []


def test_meta_train_improves_query_accuracy():
    pool = small_pool()
    spec = EpisodeSpec(n_way=5, k_shot=1)
    _, log = meta_train(pool, spec, outer=OuterConfig(epochs=60, meta_batch=8),
                        seed=17)
    early = np.mean([acc for _, _, acc in log[:5]])
    late = np.mean([acc for _, _, acc in log[-5:]])
    assert late > early


def test_meta_train_log_file_format(tmp_path):
    pool = small_pool()
    spec = EpisodeSpec(n_way=5, k_shot=1)
    log_path = tmp_path / "train.log"
    _, log = meta_train(pool, spec, outer=OuterConfig(epochs=5, meta_batch=2),
                        seed=18, log_path=str(log_path))
    lines = log_path.read_text().splitlines()
    assert len(lines) == 5
    for line, (epoch, loss, acc) in zip(lines, log):
        e, l, a = line.split(",")
        assert int(e) == epoch
        assert float(l) == loss   # repr round-trips exactly
        assert float(a) == acc


def test_meta_train_epoch_draws_are_stream_indexed():
    """Epoch e, slot j uses substream seed->1->e->j: the same episodes
    appear whether or not earlier epochs consumed randomness."""
    pool = small_pool()
    spec = EpisodeSpec(n_way=5, k_shot=1)
    root = RngState(19)
    ep_direct = sample_episode(pool, spec, root.fork(1).fork(3).fork(2))
    # consuming other substreams must not disturb it
    sample_episode(pool, spec, root.fork(1).fork(0).fork(0))
    ep_again = sample_episode(pool, spec, root.fork(1).fork(3).fork(2))
    assert np.array_equal(ep_direct.support_x, ep_again.support_x)
    assert np.array_equal(ep_direct.query_x, ep_again.query_x)


# ---------------------------------------------------------------------------
# Bit-exactness of the array-level loops against the per-task MlpParams loop
#
# The oracle below is the straightforward form of the same arithmetic: one
# MlpParams and one full forward/backward per inner step, and a second
# forward pass over the query set for the accuracy.  The library must give
# the same bits.


def _oracle_loss_and_grad(params, x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    pre = x @ params.W1.T + params.b1
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ params.W2.T + params.b2
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    n = len(y)
    loss = float(-log_probs[np.arange(n), y].mean())
    if not np.isfinite(loss):
        raise NumericError("non-finite loss in MLP forward pass")
    d_logits = np.exp(log_probs)
    d_logits[np.arange(n), y] -= 1.0
    d_logits /= n
    d_w2 = d_logits.T @ hidden
    d_b2 = d_logits.sum(axis=0)
    d_hidden = d_logits @ params.W2
    d_pre = d_hidden * (pre > 0.0)
    d_w1 = d_pre.T @ x
    d_b1 = d_pre.sum(axis=0)
    return loss, MlpParams(W1=d_w1, b1=d_b1, W2=d_w2, b2=d_b2)


def _oracle_inner_adapt(params, support_x, support_y, config):
    for _ in range(config.steps):
        _, grads = _oracle_loss_and_grad(params, support_x, support_y)
        params = params.step(grads, config.lr)
    return params


def _oracle_fo_step_with_stats(params, episodes, inner, outer_lr):
    total = None
    loss_sum = 0.0
    acc_sum = 0.0
    for ep in episodes:
        adapted = _oracle_inner_adapt(params, ep.support_x, ep.support_y, inner)
        loss, grads = _oracle_loss_and_grad(adapted, ep.query_x, ep.query_y)
        pred = np.argmax(mlp_forward(adapted, ep.query_x), axis=1)
        loss_sum += loss
        acc_sum += float((pred == ep.query_y).mean())
        if total is None:
            total = grads
        else:
            total = MlpParams(
                W1=total.W1 + grads.W1, b1=total.b1 + grads.b1,
                W2=total.W2 + grads.W2, b2=total.b2 + grads.b2,
            )
    m = float(len(episodes))
    avg = MlpParams(W1=total.W1 / m, b1=total.b1 / m,
                    W2=total.W2 / m, b2=total.b2 / m)
    return params.step(avg, outer_lr), loss_sum / m, acc_sum / m


def assert_same_bits(got, want):
    for name in ("W1", "b1", "W2", "b2"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 3), h=st.integers(1, 3), n_way=st.integers(1, 3),
    k_shot=st.integers(1, 3),
    query=st.one_of(st.integers(1, 3), st.just(ALL_REMAINING)),
    steps=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
)
def test_loops_match_per_task_oracle_bitwise(d, h, n_way, k_shot, query, steps, seed):
    gen = np.random.default_rng(seed)
    inner = InnerConfig(steps=steps, lr=float(gen.choice([0.05, 0.5, 2.0])))
    params = random_params(gen, d=d, h=h, n=n_way)
    support_x = gen.normal(size=(n_way * k_shot, d))
    support_y = np.repeat(np.arange(n_way), k_shot)
    assert_same_bits(inner_adapt(params, support_x, support_y, inner),
                     _oracle_inner_adapt(params, support_x, support_y, inner))
    if n_way < 2:  # sampled episodes are at least 2-way
        return

    pool = generate_synthetic(SyntheticSpec(
        num_classes=n_way + 1, dim=d, samples_per_class=k_shot + 3,
        class_std=1.0, mean_scale=2.0, seed=seed % 1000))
    spec = EpisodeSpec(n_way=n_way, k_shot=k_shot, query_per_class=query)
    episodes = [sample_episode(pool, spec, RngState(seed).fork(i)) for i in range(3)]
    assert_same_bits(fo_meta_step(params, episodes, inner, outer_lr=0.1),
                     _oracle_fo_step_with_stats(params, episodes, inner, 0.1)[0])

    outer = OuterConfig(lr=0.1, meta_batch=2, epochs=3)
    got, got_log = meta_train(pool, spec, inner, outer, seed=seed, hidden=h)
    with mock.patch.object(fomaml, "_fo_step_with_stats", _oracle_fo_step_with_stats):
        want, want_log = meta_train(pool, spec, inner, outer, seed=seed, hidden=h)
    assert_same_bits(got, want)
    assert repr(got_log) == repr(want_log)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_raises_in_inner_step():
    params = random_params(np.random.default_rng(20))
    x = np.full((3, 4), 1e308)  # overflows the hidden layer to +-inf
    with pytest.raises(NumericError):
        inner_adapt(params, x, np.array([0, 1, 2]), InnerConfig(steps=1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_raises_in_query_pass():
    params = random_params(np.random.default_rng(21))
    episode = Episode(
        support_x=np.eye(3, 4), support_y=np.arange(3),
        query_x=np.full((3, 4), 1e308), query_y=np.arange(3),
        class_map=np.arange(3),
    )
    # the inner steps see only the finite support set
    inner_adapt(params, episode.support_x, episode.support_y, InnerConfig(steps=2))
    with pytest.raises(NumericError):
        fo_meta_step(params, [episode], InnerConfig(steps=2))
