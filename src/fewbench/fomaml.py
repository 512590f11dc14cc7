"""First-order MAML on a one-hidden-layer MLP with hand-derived gradients.

The meta-learner adapts a small relu MLP to each episode's support set by
a few full-batch gradient steps, then takes an outer step along the
query-loss gradient evaluated at the adapted parameters (the first-order
approximation: no second-order terms through the inner loop).  All
gradients are written out analytically; correctness is pinned by
finite-difference oracles in the test suite.  The loss and the label rule
are the logistic head's, ``heads.softmax_xent`` and ``heads.check_labels``,
and every step, inner or outer, is :meth:`MlpParams.step`.

Tasks stack along a leading axis: rows ``(E, S, d)`` with per-task
parameters ``W1 (E, h, d)``, ``b1 (E, h)``, ``W2 (E, n, h)`` and
``b2 (E, n)``, or with parameters that have no task axis and are shared by
every task.  A 2-d call is the one-task case of the same code, and each
task of a stack gets exactly the arithmetic of its own 2-d call.
Meta-training draws each meta-batch in chunks of tasks with
:func:`~fewbench.sampler.sample_block` and adapts a whole chunk at once.
A chunk holds as many tasks as the block budget of
:func:`~fewbench.sampler.block_episodes` takes at :func:`task_bytes` each
(8 at the default shape), or a single task when the query count depends on
the classes drawn.

Determinism: initialization and every episode draw come from named
substreams of the training seed, and the tasks' gradients, losses and
accuracies are added one task at a time in episode order, so runs are
bit-reproducible and do not depend on the chunk size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import heads
from .dataset import write_text_atomic
from .errors import ArgumentError, NumericError, ShapeError
from .evaluation import cat_accuracy
from .rng import RngState, check_count
from .sampler import (Episode, EpisodeSpec, block_episodes, check_pool, episode_shape,
                      sample_block)
# not called here: it stays bound for a run tracer that wraps
# ``fomaml.sample_episode`` (perfbench/tracer.py)
from .sampler import sample_episode  # noqa: F401

__all__ = [
    "MlpParams",
    "InnerConfig",
    "OuterConfig",
    "init_mlp",
    "mlp_forward",
    "loss_and_grad",
    "inner_adapt",
    "fo_meta_step",
    "meta_train",
]

# substream tags under the training seed
_INIT_STREAM = 0
_EPISODE_STREAM = 1

@dataclass(frozen=True)
class MlpParams:
    """Weights of logits = W2 @ relu(W1 @ x + b1) + b2, one MLP or one per
    task along a leading axis."""

    W1: np.ndarray  # (h, d) or (E, h, d)
    b1: np.ndarray  # (h,) or (E, h)
    W2: np.ndarray  # (n, h) or (E, n, h)
    b2: np.ndarray  # (n,) or (E, n)

    def check_finite(self) -> None:
        for name in ("W1", "b1", "W2", "b2"):
            if not np.isfinite(getattr(self, name)).all():
                raise NumericError(f"non-finite values in {name}")

    def step(self, grads: "MlpParams", lr: float) -> "MlpParams":
        """One gradient-descent update; returns new params."""
        return MlpParams(*_sgd(_arrays(self), _arrays(grads), lr))


@dataclass(frozen=True)
class InnerConfig:
    """Episode-time adaptation: full-batch gradient steps on the support loss."""

    steps: int = 5
    lr: float = 0.05

    def __post_init__(self) -> None:
        check_count("inner steps", self.steps, 0)
        if not self.lr > 0:
            raise ArgumentError(f"inner lr must be positive, got {self.lr}")


@dataclass(frozen=True)
class OuterConfig:
    """Meta-training loop: one averaged first-order step per epoch."""

    lr: float = 0.005
    meta_batch: int = 32
    epochs: int = 300

    def __post_init__(self) -> None:
        if not self.lr > 0:
            raise ArgumentError(f"outer lr must be positive, got {self.lr}")
        check_count("meta_batch", self.meta_batch)
        check_count("epochs", self.epochs, 0)


def init_mlp(dim: int, hidden: int, n_way: int, rng: RngState) -> MlpParams:
    """Scaled-uniform initialization, U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    try:
        check_count("d", dim), check_count("h", hidden), check_count("n", n_way, 2)
    except ArgumentError:
        raise ArgumentError(f"bad MLP shape d={dim} h={hidden} n={n_way}") from None
    gen = rng.generator
    s1 = 1.0 / np.sqrt(dim)
    s2 = 1.0 / np.sqrt(hidden)
    return MlpParams(
        W1=gen.uniform(-s1, s1, size=(hidden, dim)),
        b1=gen.uniform(-s1, s1, size=hidden),
        W2=gen.uniform(-s2, s2, size=(n_way, hidden)),
        b2=gen.uniform(-s2, s2, size=n_way),
    )


def task_bytes(support: int, queries: int, n_way: int, hidden: int, dim: int,
               steps: int, train: bool = False) -> int:
    """Bytes one task of ``support`` support and ``queries`` query rows holds
    at its peak: its rows and labels, its weights as ``steps`` inner steps
    replace them, and the hidden layer and logits of its larger pass.  A
    training task (``train``) also takes the query gradient, which holds the
    query pass's softmax temporaries and the adapted weights' gradients."""
    weights = hidden * (dim + n_way + 1)
    rows = (support + queries) * (dim + 2)
    adapt = 4 * weights + support * (hidden + 6 * n_way) if steps else 0
    if train:
        query = 2 * weights + queries * (hidden + hidden // 8 + 6 * n_way + 4)
    else:   # the weights adapted, or broadcast from the shared ones
        query = weights + queries * (hidden + 2 * n_way)
    return 8 * (rows + max(adapt, query))


def _arrays(params: MlpParams) -> tuple[np.ndarray, ...]:
    return params.W1, params.b1, params.W2, params.b2


def _sgd(weights, grads, lr: float) -> list[np.ndarray]:
    """One gradient-descent update of the bare arrays ``weights``."""
    return [w - lr * g for w, g in zip(weights, grads)]


def _stacked(params: MlpParams, x: np.ndarray) -> bool:
    """Whether ``params`` has a task axis that does not match the rows ``x``."""
    return params.W1.ndim == 3 and (x.ndim != 3 or len(x) != len(params.W1))


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Logits for a single vector (d,), a batch (B, d), or a batch per task
    (E, B, d); per-task parameters need the last."""
    x = np.asarray(x, dtype=np.float64)
    if not 1 <= x.ndim <= 3 or x.shape[-1] != params.W1.shape[-1] or _stacked(params, x):
        raise ShapeError(f"rows of shape {x.shape} for a {params.W1.shape[-1]}-wide "
                         f"MLP of weights {params.W1.shape}")
    single = x.ndim == 1
    if single:
        x = x[None, :]
    _, logits = _forward(*_arrays(params), x)
    return logits[0] if single else logits


def _check_batch(params, x, y):
    """Rows ``x`` as float64 ``(E, S, d)`` (a 2-d batch is one task), labels
    ``y`` as ``heads.check_labels`` gives them and their ``heads.label_picks``,
    checked: one row of the MLP's width per label (labels ``(S,)`` are
    shared by every task) and one task per set of parameters."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    shape = x.shape
    if x.ndim == 2:
        x = x[None]
    if (x.ndim != 3 or x.shape[2] != params.W1.shape[-1]
            or y.shape not in (x.shape[1:2], x.shape[:2]) or _stacked(params, x)):
        raise ShapeError(f"batch of shape {shape} with labels of shape {y.shape} "
                         f"for a {params.W1.shape[-1]}-wide MLP")
    y = heads.check_labels(y, params.b2.shape[-1])
    return x, y, heads.label_picks(y, x.shape[:2] + params.b2.shape[-1:])


def _forward(W1, b1, W2, b2, x):
    """The relu hidden layer ``(..., S, h)`` and the logits ``(..., S, n)``
    of rows ``x`` ``(..., S, d)``."""
    hidden = x @ W1.swapaxes(-1, -2)   # each task's matrix transposed
    hidden += b1[..., None, :]
    # in place, here and for the gradient of the pre-activations:
    # relu(pre) > 0 exactly where pre > 0, so no copy of pre is kept
    np.maximum(hidden, 0.0, out=hidden)
    logits = hidden @ W2.swapaxes(-1, -2)
    logits += b2[..., None, :]
    return hidden, logits


def _loss_grad(W1, b1, W2, b2, x, picks):
    """Per-task losses ``(E,)``, gradients of (W1, b1, W2, b2) and logits
    of float64 rows ``x`` ``(E, S, d)`` with the label positions
    ``picks``, as ``heads.softmax_xent`` takes them, under parameters with
    or without the task axis.  A non-finite loss raises :class:`NumericError`."""
    hidden, logits = _forward(W1, b1, W2, b2, x)
    loss, d_logits = heads.softmax_xent(logits, picks)
    if not np.isfinite(loss).all():
        raise NumericError("non-finite loss in MLP forward pass")
    d_w2 = d_logits.swapaxes(-1, -2) @ hidden
    d_b2 = np.add.reduce(d_logits, axis=1)   # ndarray.sum without its Python wrapper
    active = hidden > 0.0
    d_pre = np.matmul(d_logits, W2, out=hidden)
    d_pre *= active
    return loss, d_pre.swapaxes(-1, -2) @ x, np.add.reduce(d_pre, axis=1), d_w2, d_b2, logits


def loss_and_grad(
    params: MlpParams, x: np.ndarray, y: np.ndarray
) -> tuple[float, MlpParams]:
    """Mean softmax cross-entropy over the batch and its exact gradient.

    The relu subgradient at exactly 0 is taken as 0.  Rows ``(E, S, d)``
    give each task's loss as an ``(E,)`` array and gradients with a task
    axis.  Labels that are not bools or integers in ``[0, n_way)`` raise
    :class:`EpisodeFormatError`.
    """
    rows, _, picks = _check_batch(params, x, y)
    loss, *grads, _ = _loss_grad(*_arrays(params), rows, picks)
    if np.ndim(x) == 3:
        return loss, MlpParams(*grads)
    return float(loss[0]), MlpParams(*(g[0] for g in grads))


def inner_adapt(
    params: MlpParams,
    support_x: np.ndarray,
    support_y: np.ndarray,
    config: InnerConfig | None = None,
) -> MlpParams:
    """``config.steps`` full-batch gradient steps on the support loss.

    Support rows ``(E, S, d)`` adapt E tasks at once and return parameters
    with a task axis; ``(S, d)`` is one task.  Zero steps return ``params``
    itself.  Labels that are not bools or integers in ``[0, n_way)`` raise
    :class:`EpisodeFormatError`.
    """
    config = config or InnerConfig()
    x, _, picks = _check_batch(params, support_x, support_y)
    if config.steps == 0:
        return params
    weights = _arrays(params)   # stepped as bare arrays
    for _ in range(config.steps):
        _, *grads, _ = _loss_grad(*weights, x, picks)
        weights = _sgd(weights, grads, config.lr)
    return MlpParams(*(weights if np.ndim(support_x) == 3 else [w[0] for w in weights]))


def _fo_step_with_stats(
    params: MlpParams,
    chunks,
    inner: InnerConfig,
    outer_lr: float,
) -> tuple[MlpParams, float, float]:
    """One first-order meta-step over the tasks of ``chunks``: episodes, or
    blocks of them stacked as :func:`~fewbench.sampler.sample_block` does.
    Also reports mean query loss/accuracy at the adapted parameters (the
    quantities worth logging per epoch).

    Each chunk is adapted and takes its query gradients at once; the
    gradients, losses and accuracies are then added one task at a time in
    episode order, so the step does not depend on how tasks are chunked.
    """
    total = None
    loss_sum = 0.0
    acc_sum = 0.0
    m = 0
    for chunk in chunks:
        adapted = inner_adapt(params, chunk.support_x, chunk.support_y, inner)
        query_x, query_y, picks = _check_batch(params, chunk.query_x, chunk.query_y)
        losses, *grads, logits = _loss_grad(*_arrays(adapted), query_x, picks)
        accs = cat_accuracy(np.argmax(logits, axis=2), np.broadcast_to(query_y, logits.shape[:2]))
        for b in range(len(losses)):
            loss_sum += float(losses[b])
            acc_sum += float(accs[b])
            if total is None:
                total = [g[b].copy() for g in grads]
            else:
                for t, g in zip(total, grads):
                    t += g[b]
        m += len(losses)
        # nothing of a chunk outlives it: the next chunk's peak holds only its own
        del chunk, adapted, query_x, query_y, grads, logits
    if total is None:
        raise ArgumentError("meta-batch must contain at least one episode")
    avg = MlpParams(*(t / m for t in total))
    return params.step(avg, outer_lr), loss_sum / m, acc_sum / m


def fo_meta_step(
    params: MlpParams,
    episodes: list[Episode],
    inner: InnerConfig | None = None,
    outer_lr: float = 0.005,
) -> MlpParams:
    """First-order meta-update over one meta-batch.

    Per episode: adapt on the support set, take the query-loss gradient at
    the adapted parameters.  The gradients are averaged in episode index
    order and applied once to ``params``.  ``episodes`` may also hold
    blocks stacked by :func:`~fewbench.sampler.sample_block`, each adapted
    at once, with the bits of its episodes one by one.  A query set whose
    rows do not match its labels or the MLP's input width raises
    :class:`ShapeError`, and labels that are not bools or integers in
    ``[0, n_way)`` raise :class:`EpisodeFormatError`.
    """
    new_params, _, _ = _fo_step_with_stats(params, episodes, inner or InnerConfig(),
                                           outer_lr)
    return new_params


def meta_train(
    pool,
    episode_spec: EpisodeSpec,
    inner: InnerConfig | None = None,
    outer: OuterConfig | None = None,
    seed: int = 0,
    hidden: int = 64,
    log_path: str | None = None,
    clock=None,
) -> tuple[MlpParams, list[tuple[int, float, float]]]:
    """Meta-train the MLP episodically; returns final params and the log.

    Each epoch draws one fresh meta-batch of episodes from named
    substreams of ``seed``, in chunks of stacked tasks, and applies one
    first-order meta-step.  The log holds one ``(epoch, query_loss,
    query_acc)`` row per epoch, mirroring what is written to ``log_path``
    as ``epoch,<loss>,<acc>`` lines.  A budget ``clock`` is checked once
    per epoch.  A pool that cannot serve every episode of ``episode_spec``
    raises :class:`SamplingError` before any training.
    """
    check_pool(pool, episode_spec)
    inner = inner or InnerConfig()
    outer = outer or OuterConfig()
    root = RngState(seed)
    params = init_mlp(pool.dim, hidden, episode_spec.n_way, root.fork(_INIT_STREAM))
    episodes_rng = root.fork(_EPISODE_STREAM)
    shape = episode_shape(pool, episode_spec)
    size = 1 if shape is None else block_episodes(task_bytes(
        shape[0] * shape[1], shape[2], shape[0], hidden, pool.dim, inner.steps,
        train=True))

    log: list[tuple[int, float, float]] = []
    for epoch in range(outer.epochs):
        if clock is not None:
            clock.check()
        epoch_rng = episodes_rng.fork(epoch)
        rngs = [epoch_rng.fork(j) for j in range(outer.meta_batch)]
        chunks = (sample_block(pool, episode_spec, rngs[j:j + size])
                  for j in range(0, len(rngs), size))
        params, q_loss, q_acc = _fo_step_with_stats(params, chunks, inner, outer.lr)
        log.append((epoch, q_loss, q_acc))
    params.check_finite()

    if log_path is not None:
        write_text_atomic(log_path, "".join(
            f"{epoch},{q_loss!r},{q_acc!r}\n" for epoch, q_loss, q_acc in log
        ))
    return params, log
