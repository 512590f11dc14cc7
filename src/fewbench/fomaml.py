"""First-order MAML on a one-hidden-layer MLP with hand-derived gradients.

The meta-learner adapts a small relu MLP to each episode's support set by
a few full-batch gradient steps, then takes an outer step along the
query-loss gradient evaluated at the adapted parameters (the first-order
approximation: no second-order terms through the inner loop).  All
gradients are written out analytically; correctness is pinned by
finite-difference oracles in the test suite.

Determinism: initialization and every episode draw come from named
substreams of the training seed, and meta-batch gradients are reduced in
index order, so runs are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NumericError
from .rng import RngState
from .sampler import Episode, EpisodeSpec, sample_episode

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

# the reductions that ndarray.sum and ndarray.max wrap, called directly:
# the same arithmetic without a Python wrapper per call
_sum = np.add.reduce
_max = np.maximum.reduce

# substream tags under the training seed
_INIT_STREAM = 0
_EPISODE_STREAM = 1


@dataclass(frozen=True)
class MlpParams:
    """Weights of logits = W2 @ relu(W1 @ x + b1) + b2."""

    W1: np.ndarray  # (h, d)
    b1: np.ndarray  # (h,)
    W2: np.ndarray  # (n, h)
    b2: np.ndarray  # (n,)

    def check_finite(self) -> None:
        for name in ("W1", "b1", "W2", "b2"):
            if not np.isfinite(getattr(self, name)).all():
                raise NumericError(f"non-finite values in {name}")

    def step(self, grads: "MlpParams", lr: float) -> "MlpParams":
        """One gradient-descent update; returns new params."""
        return MlpParams(
            W1=self.W1 - lr * grads.W1,
            b1=self.b1 - lr * grads.b1,
            W2=self.W2 - lr * grads.W2,
            b2=self.b2 - lr * grads.b2,
        )


@dataclass(frozen=True)
class InnerConfig:
    """Episode-time adaptation: full-batch gradient steps on the support loss."""

    steps: int = 5
    lr: float = 0.05

    def validate(self) -> None:
        if self.steps < 0:
            raise ArgumentError(f"inner steps must be >= 0, got {self.steps}")
        if not self.lr > 0:
            raise ArgumentError(f"inner lr must be positive, got {self.lr}")


@dataclass(frozen=True)
class OuterConfig:
    """Meta-training loop: one averaged first-order step per epoch."""

    lr: float = 0.005
    meta_batch: int = 32
    epochs: int = 300

    def validate(self) -> None:
        if not self.lr > 0:
            raise ArgumentError(f"outer lr must be positive, got {self.lr}")
        if self.meta_batch < 1:
            raise ArgumentError(f"meta_batch must be >= 1, got {self.meta_batch}")
        if self.epochs < 0:
            raise ArgumentError(f"epochs must be >= 0, got {self.epochs}")


def init_mlp(dim: int, hidden: int, n_way: int, rng: RngState) -> MlpParams:
    """Scaled-uniform initialization, U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    if dim < 1 or hidden < 1 or n_way < 2:
        raise ArgumentError(f"bad MLP shape d={dim} h={hidden} n={n_way}")
    gen = rng.generator
    s1 = 1.0 / np.sqrt(dim)
    s2 = 1.0 / np.sqrt(hidden)
    return MlpParams(
        W1=gen.uniform(-s1, s1, size=(hidden, dim)),
        b1=gen.uniform(-s1, s1, size=hidden),
        W2=gen.uniform(-s2, s2, size=(n_way, hidden)),
        b2=gen.uniform(-s2, s2, size=n_way),
    )


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Logits for a single vector (d,) or a batch (B, d)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    hidden = np.maximum(x @ params.W1.T + params.b1, 0.0)
    logits = hidden @ params.W2.T + params.b2
    return logits[0] if single else logits


def _one_hot(y, n_way):
    """The (B, n_way) one-hot of labels ``y`` and the flat positions of its
    ones, row by row; a label >= ``n_way`` raises ``IndexError``."""
    onehot = np.zeros((len(y), n_way))
    onehot[np.arange(len(y)), y] = 1.0
    return onehot, np.flatnonzero(onehot)


def _loss_grad(W1, b1, W2, b2, x, onehot, picks):
    """Loss, gradients of (W1, b1, W2, b2) and logits of a float64 batch
    ``x`` with labels given by ``_one_hot``."""
    pre = x @ W1.T
    pre += b1                                  # (B, h)
    hidden = np.maximum(pre, 0.0)
    logits = hidden @ W2.T
    logits += b2                               # (B, n)
    shifted = logits - _max(logits, axis=1, keepdims=True)
    log_probs = shifted - np.log(_sum(np.exp(shifted), axis=1, keepdims=True))
    n = len(onehot)
    loss = float(-(_sum(log_probs.take(picks)) / n))
    if not math.isfinite(loss):
        raise NumericError("non-finite loss in MLP forward pass")

    d_logits = np.exp(log_probs)
    d_logits -= onehot
    d_logits /= n
    d_w2 = d_logits.T @ hidden
    d_b2 = _sum(d_logits, axis=0)
    d_pre = d_logits @ W2
    d_pre *= pre > 0.0
    return loss, d_pre.T @ x, _sum(d_pre, axis=0), d_w2, d_b2, logits


def loss_and_grad(
    params: MlpParams, x: np.ndarray, y: np.ndarray
) -> tuple[float, MlpParams]:
    """Mean softmax cross-entropy over the batch and its exact gradient.

    The relu subgradient at exactly 0 is taken as 0.
    """
    loss, *grads, _ = _loss_grad(params.W1, params.b1, params.W2, params.b2,
                                 np.asarray(x, dtype=np.float64),
                                 *_one_hot(y, len(params.b2)))
    return loss, MlpParams(*grads)


def inner_adapt(
    params: MlpParams,
    support_x: np.ndarray,
    support_y: np.ndarray,
    config: InnerConfig | None = None,
) -> MlpParams:
    """``config.steps`` full-batch gradient steps on the support loss."""
    config = config or InnerConfig()
    config.validate()
    if config.steps == 0:
        return params
    x = np.asarray(support_x, dtype=np.float64)
    onehot, picks = _one_hot(support_y, len(params.b2))
    lr = config.lr
    W1, b1, W2, b2 = params.W1, params.b1, params.W2, params.b2
    for _ in range(config.steps):
        _, g1, gb1, g2, gb2, _ = _loss_grad(W1, b1, W2, b2, x, onehot, picks)
        W1 = W1 - lr * g1
        b1 = b1 - lr * gb1
        W2 = W2 - lr * g2
        b2 = b2 - lr * gb2
    return MlpParams(W1=W1, b1=b1, W2=W2, b2=b2)


def _fo_step_with_stats(
    params: MlpParams,
    episodes: list[Episode],
    inner: InnerConfig,
    outer_lr: float,
) -> tuple[MlpParams, float, float]:
    """One first-order meta-step; also reports mean query loss/accuracy
    at the adapted parameters (the quantities worth logging per epoch)."""
    total = None
    loss_sum = 0.0
    acc_sum = 0.0
    for ep in episodes:
        adapted = inner_adapt(params, ep.support_x, ep.support_y, inner)
        loss, *grads, logits = _loss_grad(
            adapted.W1, adapted.b1, adapted.W2, adapted.b2,
            np.asarray(ep.query_x, dtype=np.float64),
            *_one_hot(ep.query_y, len(params.b2)),
        )
        loss_sum += loss
        acc_sum += float((np.argmax(logits, axis=1) == ep.query_y).mean())
        if total is None:
            total = grads
        else:
            for t, g in zip(total, grads):
                t += g
    m = float(len(episodes))
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
    order and applied once to ``params``.
    """
    if not episodes:
        raise ArgumentError("meta-batch must contain at least one episode")
    inner = inner or InnerConfig()
    inner.validate()
    new_params, _, _ = _fo_step_with_stats(params, episodes, inner, outer_lr)
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
    substreams of ``seed`` and applies one first-order meta-step.  The log
    holds one ``(epoch, query_loss, query_acc)`` row per epoch, mirroring
    what is written to ``log_path`` as ``epoch,<loss>,<acc>`` lines.  A
    budget ``clock`` is checked once per epoch.
    """
    inner = inner or InnerConfig()
    outer = outer or OuterConfig()
    inner.validate()
    outer.validate()
    episode_spec.validate()
    root = RngState(int(seed))
    params = init_mlp(pool.dim, hidden, episode_spec.n_way, root.fork(_INIT_STREAM))
    episodes_rng = root.fork(_EPISODE_STREAM)

    log: list[tuple[int, float, float]] = []
    for epoch in range(outer.epochs):
        if clock is not None:
            clock.check()
        epoch_rng = episodes_rng.fork(epoch)
        batch = [
            sample_episode(pool, episode_spec, epoch_rng.fork(j))
            for j in range(outer.meta_batch)
        ]
        params, q_loss, q_acc = _fo_step_with_stats(params, batch, inner, outer.lr)
        log.append((epoch, q_loss, q_acc))
    params.check_finite()

    if log_path is not None:
        with open(log_path, "w", encoding="utf-8") as fh:
            for epoch, q_loss, q_acc in log:
                fh.write(f"{epoch},{q_loss!r},{q_acc!r}\n")
    return params, log
