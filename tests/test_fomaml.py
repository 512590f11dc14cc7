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

from fewbench import fomaml, sampler
from fewbench.dataset import ClassRecord, DatasetTable, SyntheticSpec, generate_synthetic
from fewbench.errors import (
    ArgumentError,
    EpisodeFormatError,
    NumericError,
    SamplingError,
    ShapeError,
)
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
from fewbench.sampler import (
    ALL_REMAINING,
    Episode,
    EpisodeSpec,
    episode_shape,
    sample_block,
    sample_episode,
)


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


ENTRY_POINTS = pytest.mark.parametrize("call", [
    loss_and_grad,
    lambda params, x, y: inner_adapt(params, x, y, InnerConfig(steps=1)),
    # a consistent support set, so only the query set is wrong
    lambda params, x, y: fo_meta_step(params, [Episode(
        support_x=np.zeros((3, 4)), support_y=np.arange(3),
        query_x=x, query_y=y, class_map=np.arange(3))]),
], ids=["loss_and_grad", "inner_adapt", "fo_meta_step"])


@pytest.mark.parametrize("shape,n_labels", [((6, 4), 3), ((8, 5), 8)],
                         ids=["rows-vs-labels", "width"])
@ENTRY_POINTS
def test_batch_shape_mismatch_is_shape_error(call, shape, n_labels):
    params = random_params(np.random.default_rng(22))  # d=4, n=3
    with pytest.raises(ShapeError):
        call(params, np.zeros(shape), np.arange(n_labels) % 3)


@pytest.mark.parametrize("labels", [[0, -1, 2], [0, 1, 3], [0.0, 1.0, 2.0]],
                         ids=["negative", "n_way", "float"])
@ENTRY_POINTS
def test_labels_outside_the_classes_are_episode_format_errors(call, labels):
    """Label -1 would train class n_way - 1 and label n_way would index
    past the one-hot: both, and float labels, are refused."""
    params = random_params(np.random.default_rng(23))  # d=4, n=3
    with pytest.raises(EpisodeFormatError, match=r"integers in \[0, 3\)"):
        call(params, np.zeros((3, 4)), np.array(labels))


@ENTRY_POINTS
def test_labels_of_any_integer_type_are_labels(call):
    params = random_params(np.random.default_rng(25))  # d=4, n=3
    x = np.random.default_rng(26).normal(size=(3, 4))
    want = call(params, x, np.array([2, 0, 1]))
    for dtype in (np.uint64, np.uint8, np.int32):
        got = call(params, x, np.array([2, 0, 1], dtype=dtype))
        assert repr(got) == repr(want), dtype


@ENTRY_POINTS
def test_bool_labels_are_the_integer_labels(call):
    """Bool labels pass the one label rule that the logistic head shares,
    and train exactly as the labels 0 and 1."""
    params = random_params(np.random.default_rng(27))  # d=4, n=3
    x = np.random.default_rng(28).normal(size=(3, 4))

    def bits(result):
        loss, grads = result if isinstance(result, tuple) else (None, result)
        return repr(loss), [getattr(grads, k).tobytes() for k in ("W1", "b1", "W2", "b2")]

    want = call(params, x, np.array([1, 0, 1]))
    assert bits(call(params, x, np.array([True, False, True]))) == bits(want)


def test_forward_of_the_wrong_width_is_shape_error():
    params = random_params(np.random.default_rng(24))  # d=4
    for x in (np.zeros(5), np.zeros((2, 5)), np.zeros((2, 3, 5)), np.zeros((1, 1, 1, 4))):
        with pytest.raises(ShapeError, match="4-wide MLP"):
            mlp_forward(params, x)
    per_task = inner_adapt(params, np.zeros((2, 3, 4)), np.arange(3),
                           InnerConfig(steps=1))
    assert mlp_forward(per_task, np.zeros((2, 5, 4))).shape == (2, 5, 3)
    for x in (np.zeros((3, 5, 4)), np.zeros((5, 4))):   # 2 tasks' parameters
        with pytest.raises(ShapeError):
            mlp_forward(per_task, x)


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
        InnerConfig(steps=-1)
    with pytest.raises(ArgumentError):
        InnerConfig(lr=0.0)
    with pytest.raises(ArgumentError):
        OuterConfig(lr=-0.1)
    with pytest.raises(ArgumentError):
        OuterConfig(meta_batch=0)
    with pytest.raises(ArgumentError):
        OuterConfig(epochs=-1)


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


def test_meta_train_checks_the_whole_pool_before_training(monkeypatch):
    *recs, last = small_pool().classes
    pool = DatasetTable(6, recs + [ClassRecord(last.class_id, last.examples[:1])])
    drawn = []
    monkeypatch.setattr(fomaml, "sample_block", lambda *args: drawn.append(args))
    with pytest.raises(SamplingError, match="has 1 examples, episode needs 2"):
        meta_train(pool, EpisodeSpec(n_way=5, k_shot=1),
                   outer=OuterConfig(epochs=1, meta_batch=1), seed=0)
    assert drawn == []


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
    assert log_path.read_bytes() == "".join(
        f"{epoch},{loss!r},{acc!r}\n" for epoch, loss, acc in log
    ).encode("utf-8")
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


def _oracle_meta_train(pool, spec, inner, outer, seed, hidden):
    """meta_train one task at a time: each task drawn by sample_episode
    under substream seed->1->epoch->slot, then the per-task oracle step."""
    root = RngState(seed)
    params = init_mlp(pool.dim, hidden, spec.n_way, root.fork(0))
    log = []
    for epoch in range(outer.epochs):
        epoch_rng = root.fork(1).fork(epoch)
        batch = [sample_episode(pool, spec, epoch_rng.fork(j))
                 for j in range(outer.meta_batch)]
        params, loss, acc = _oracle_fo_step_with_stats(params, batch, inner, outer.lr)
        log.append((epoch, loss, acc))
    return params, log


def tasks_per_chunk(tasks, pool, spec, hidden, inner):
    """The block budget at which meta_train stacks ``tasks`` tasks per chunk."""
    n, k, q = episode_shape(pool, spec)
    return mock.patch.object(
        sampler, "_BLOCK_BYTES",
        tasks * fomaml.task_bytes(n * k, q, n, hidden, pool.dim, inner.steps, train=True))


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 3), h=st.integers(1, 3), n_way=st.integers(1, 3),
    k_shot=st.integers(1, 3),
    query=st.one_of(st.integers(1, 3), st.just(ALL_REMAINING)),
    steps=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
    meta_batch=st.sampled_from([1, 3, 9, 32]), chunk=st.integers(1, 5),
)
def test_loops_match_per_task_oracle_bitwise(d, h, n_way, k_shot, query, steps, seed,
                                             meta_batch, chunk):
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

    # chunks of ``chunk`` tasks, the last one partial unless it divides
    outer = OuterConfig(lr=0.1, meta_batch=meta_batch, epochs=2)
    with tasks_per_chunk(chunk, pool, spec, h, inner):
        got, got_log = meta_train(pool, spec, inner, outer, seed=seed, hidden=h)
    want, want_log = _oracle_meta_train(pool, spec, inner, outer, seed, h)
    assert_same_bits(got, want)
    assert repr(got_log) == repr(want_log)


def test_meta_train_at_the_default_chunk_cap_matches_the_oracle():
    """9 tasks of 95 queries through 64 hidden units: chunks of 8 and 1."""
    data = generate_synthetic(SyntheticSpec(num_classes=15, dim=16, samples_per_class=20,
                                            class_std=1.0, mean_scale=1.0, seed=7))
    spec, inner = EpisodeSpec(5, 1), InnerConfig()
    outer = OuterConfig(meta_batch=9, epochs=3)
    sizes = []
    with mock.patch.object(fomaml, "sample_block",
                           lambda pool, spec, rngs: sizes.append(len(rngs))
                           or sample_block(pool, spec, rngs)):
        got, got_log = meta_train(data, spec, inner, outer, seed=5)
    assert sizes == [8, 1] * 3
    want, want_log = _oracle_meta_train(data, spec, inner, outer, 5, 64)
    assert_same_bits(got, want)
    assert repr(got_log) == repr(want_log)


def test_meta_train_over_unequal_classes_takes_one_task_per_chunk():
    """all-remaining over classes of unequal sizes: the query count varies
    from task to task, so every chunk holds one task."""
    gen = np.random.default_rng(31)
    data = DatasetTable(3, [ClassRecord(c, gen.normal(c, 1.0, size=(m, 3)))
                            for c, m in enumerate((4, 7, 5, 9, 6))])
    spec = EpisodeSpec(3, 1)
    assert episode_shape(data, spec) is None
    inner, outer = InnerConfig(steps=2), OuterConfig(lr=0.1, meta_batch=9, epochs=3)
    sizes = []
    with mock.patch.object(fomaml, "sample_block",
                           lambda pool, spec, rngs: sizes.append(len(rngs))
                           or sample_block(pool, spec, rngs)):
        got, got_log = meta_train(data, spec, inner, outer, seed=32, hidden=4)
    assert sizes == [1] * 27
    want, want_log = _oracle_meta_train(data, spec, inner, outer, 32, 4)
    assert_same_bits(got, want)
    assert repr(got_log) == repr(want_log)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_loss_inside_a_chunk_raises_as_the_oracle_does():
    """A class whose rows overflow the hidden layer, first drawn by a task
    that is not the first of its chunk: meta_train raises the per-task
    loop's NumericError."""
    data = small_pool()
    poisoned = data.classes[4].class_id
    data.classes[4].examples[:] = 1e308
    spec, chunk = EpisodeSpec(n_way=3, k_shot=1, query_per_class=2), 4
    outer = OuterConfig(meta_batch=12, epochs=1)
    for seed in range(100):
        epoch_rng = RngState(seed).fork(1).fork(0)
        first = next((j for j in range(outer.meta_batch) if poisoned in
                      sample_episode(data, spec, epoch_rng.fork(j)).class_map), None)
        if first is not None and first % chunk:
            break
    else:
        pytest.fail("no seed puts the poisoned class inside a chunk first")
    with pytest.raises(NumericError) as want:
        _oracle_meta_train(data, spec, InnerConfig(), outer, seed, 8)
    with tasks_per_chunk(chunk, data, spec, 8, InnerConfig()), \
            pytest.raises(NumericError) as got:
        meta_train(data, spec, InnerConfig(), outer, seed=seed, hidden=8)
    assert str(got.value) == str(want.value) == "non-finite loss in MLP forward pass"


def task(params, e):
    """Task ``e``'s parameters of per-task ``params``."""
    return MlpParams(params.W1[e], params.b1[e], params.W2[e], params.b2[e])


def test_stacked_calls_match_one_task_calls_bitwise():
    """Rows (E, S, d) under shared or per-task parameters: each task gets
    the bits of its own 2-d call."""
    gen = np.random.default_rng(33)
    params = random_params(gen, d=4, h=6, n=3)
    x = gen.normal(size=(5, 7, 4))
    y = gen.integers(0, 3, size=(5, 7))
    inner = InnerConfig(steps=3, lr=0.3)
    adapted = inner_adapt(params, x, y, inner)
    losses, grads = loss_and_grad(adapted, x, y)
    logits = mlp_forward(adapted, x)
    shared = mlp_forward(params, x)
    for e in range(5):
        one = inner_adapt(params, x[e], y[e], inner)
        assert_same_bits(task(adapted, e), one)
        loss, grad = loss_and_grad(one, x[e], y[e])
        assert losses[e] == loss
        assert_same_bits(task(grads, e), grad)
        assert logits[e].tobytes() == mlp_forward(one, x[e]).tobytes()
        assert shared[e].tobytes() == mlp_forward(params, x[e]).tobytes()
    # labels (S,) are shared by every task
    shared_y = inner_adapt(params, x, y[0], inner)
    assert shared_y.W1[3].tobytes() == inner_adapt(params, x[3], y[0], inner).W1.tobytes()


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
