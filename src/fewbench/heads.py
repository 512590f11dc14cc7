"""Episode-time classification heads on feature embeddings.

Five methods operate directly on support/query feature vectors:

* nearest-prototype with a softmax over negative squared distances;
* a transductive center-estimation head combining a power transform with
  entropic optimal transport (Sinkhorn by stabilized scaling with
  log-domain absorption);
* quadratic discriminant analysis with covariance shrinkage;
* a multinomial logistic head trained full-batch with Adam, whose loss
  (:func:`softmax_xent`) and label rule (:func:`check_labels`) fo-MAML shares;
* a rectified-prototype decoder that refines prototypes once with
  confidence-weighted query features.

All heads break exact ties toward the lowest episode label, are
label-permutation equivariant, and are pure functions of their inputs.

The prototype, QDA, rectified-prototype, transport and logistic heads also
take a block of E episodes stacked along a leading axis: support rows
``(E, N*K, d)`` that share one label vector ``(N*K,)``, and query rows
``(E, Q, d)``.  A 2-d call is the E = 1 case of the same code, and each
episode of a block gets exactly the arithmetic of its own 2-d call.

Class statistics come from array passes over all of an episode's classes
at once, not from a loop over classes: the support check counts labels
with one ``bincount``, class means sum an (N, K, d) block of the
label-sorted support rows, and QDA inverts all Cholesky factors in one
batched call, then scores every query against every class with one
matrix product against those whitening factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArgumentError,
    ConditioningError,
    DivergenceError,
    EpisodeFormatError,
    NumericError,
    ShapeError,
)
from .rng import check_count

__all__ = [
    "METRICS",
    "Prototypes",
    "PowerTransformParams",
    "SinkhornConfig",
    "TransportPlan",
    "QdaModel",
    "LinearHead",
    "PTMAP_SINKHORN",
    "check_query",
    "compute_prototypes",
    "proto_predict",
    "proto_labels",
    "power_transform",
    "sinkhorn",
    "ptmap_fit_predict",
    "qda_fit",
    "qda_predict",
    "linear_loss_and_grad",
    "linear_head_fit",
    "linear_head_predict",
    "rectified_proto_predict",
]


def support_structure(support_x: np.ndarray, support_y: np.ndarray) -> tuple[int, int]:
    """Validate N-way K-shot structure; return (n_way, k_shot).

    Labels must be exactly 0..N-1, each appearing the same number of times.
    ``support_x`` is ``(N*K, d)``, or ``(E, N*K, d)`` for a block of
    episodes that all carry the labels ``support_y``.
    """
    support_x = np.asarray(support_x, dtype=np.float64)
    support_y = np.asarray(support_y)
    if (support_x.ndim not in (2, 3) or support_y.ndim != 1
            or support_x.shape[-2] != len(support_y)):
        raise EpisodeFormatError(
            f"support shapes {support_x.shape} / {support_y.shape} inconsistent"
        )
    if len(support_y) == 0:
        raise EpisodeFormatError("empty support set")
    if (support_y.dtype.kind in "iu"
            and np.can_cast(support_y.dtype, np.intp)
            and 0 <= support_y.min() and support_y.max() < len(support_y)):
        # the bounds keep bincount small; equal counts that sum to the
        # support size are all positive, so every label 0..max is present
        counts = np.bincount(support_y)
        if (counts == counts[0]).all():
            return len(counts), int(counts[0])
    # labels that are not integers (bool or float 0..N-1 pass here), or
    # that the pass above refused: count each value to name what is wrong
    labels, counts = np.unique(support_y, return_counts=True)
    n = len(labels)
    if not np.array_equal(labels, np.arange(n)):
        raise EpisodeFormatError(f"support labels {labels.tolist()} are not 0..{n - 1}")
    if not (counts == counts[0]).all():
        raise EpisodeFormatError(f"unbalanced support counts {counts.tolist()}")
    return n, int(counts[0])


def check_labels(y: np.ndarray, n_way: int) -> np.ndarray:
    """Labels ``y`` as int64, refused with :class:`EpisodeFormatError`
    unless they are bools or integers in ``[0, n_way)``."""
    y = np.asarray(y)
    if y.dtype.kind not in "biu" or (y.size and not 0 <= y.min() <= y.max() < n_way):
        raise EpisodeFormatError(f"labels must be integers in [0, {n_way}), got "
                                 f"{y.dtype} labels {np.unique(y)[:8].tolist()}")
    # int64 + uint64 is float64 in numpy, which could not index the logits
    return y.astype(np.int64, copy=False)


def _class_blocks(x: np.ndarray, support_y: np.ndarray, n: int, k: int) -> np.ndarray:
    """The support rows as an (..., N, K, d) block: class c's rows in
    support order.  Summing a block over its K axis and dividing by K is
    bitwise ``x[y == c].mean(axis=0)``."""
    order = np.argsort(support_y, kind="stable")
    # take, not x[..., order, :]: fancy indexing may lay a block out with
    # the episode axis innermost, and the products that follow would then
    # sum in another order than a 2-d call does
    return x.take(order, axis=-2).reshape(x.shape[:-2] + (n, k, x.shape[-1]))


def check_query(query_x: np.ndarray, dim: int, episodes: tuple[int, ...]) -> np.ndarray:
    """The query rows as float64, refused with :class:`ShapeError` unless
    they are ``episodes + (Q, dim)``: ``episodes`` is ``()`` for one episode,
    ``(E,)`` for a block.  Every head and ``PredictorState.predict`` use it."""
    query_x = np.asarray(query_x, dtype=np.float64)
    if (query_x.ndim != len(episodes) + 2 or query_x.shape[-1] != dim
            or query_x.shape[:-2] != episodes):
        raise ShapeError(f"query shape {query_x.shape} does not match feature dimension {dim}"
                         + (f" over {episodes[0]} episodes" if episodes else ""))
    return query_x


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return x / norms


# ---------------------------------------------------------------------------
# Prototypes


#: Distances the prototype heads measure with.
METRICS = ("euclidean", "cosine")


@dataclass(frozen=True)
class Prototypes:
    centers: np.ndarray  # (N, d), or (E, N, d) for a block
    metric: str = "euclidean"


def compute_prototypes(
    support_x: np.ndarray,
    support_y: np.ndarray,
    metric: str = "euclidean",
) -> Prototypes:
    """Per-class arithmetic means of the support vectors.

    With ``metric="cosine"`` the support vectors are unit-normalized before
    averaging, and queries are normalized at predict time.
    """
    if metric not in METRICS:
        raise ArgumentError(f"unknown metric {metric!r}")
    n, k = support_structure(support_x, support_y)
    x = np.asarray(support_x, dtype=np.float64)
    if metric == "cosine":
        x = _unit_rows(x)
    centers = _class_blocks(x, np.asarray(support_y), n, k).sum(axis=-2) / k
    return Prototypes(centers=centers, metric=metric)


def _sq_norms(query_x: np.ndarray) -> np.ndarray:
    """Squared row norms as a column, (..., Q, 1)."""
    return (query_x ** 2).sum(axis=-1)[..., None]


def _sq_dists(
    query_x: np.ndarray, centers: np.ndarray, q_sq: np.ndarray | None = None
) -> np.ndarray:
    """Squared Euclidean distances, (..., Q, N).  ``q_sq`` is
    ``_sq_norms(query_x)`` when the caller already holds it."""
    if q_sq is None:
        q_sq = _sq_norms(query_x)
    c_sq = (centers ** 2).sum(axis=-1)[..., None, :]
    d2 = q_sq - 2.0 * (query_x @ centers.swapaxes(-1, -2)) + c_sq
    return np.maximum(d2, 0.0)


def proto_predict(prototypes: Prototypes, query_x: np.ndarray) -> np.ndarray:
    """Per-query probability vectors: softmax(-distance^2).

    The argmax of each row is the nearest-center label.
    """
    query_x = check_query(query_x, prototypes.centers.shape[-1], prototypes.centers.shape[:-2])
    if prototypes.metric == "cosine":
        query_x = _unit_rows(query_x)
    d2 = _sq_dists(query_x, prototypes.centers)
    logits = -d2
    logits -= logits.max(axis=-1, keepdims=True)
    probs = np.exp(logits)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def proto_labels(prototypes: Prototypes, query_x: np.ndarray) -> np.ndarray:
    """Nearest-center labels (ties to the lowest label)."""
    query_x = check_query(query_x, prototypes.centers.shape[-1], prototypes.centers.shape[:-2])
    if prototypes.metric == "cosine":
        query_x = _unit_rows(query_x)
    return np.argmin(_sq_dists(query_x, prototypes.centers), axis=-1)


# ---------------------------------------------------------------------------
# Power transform


@dataclass(frozen=True)
class PowerTransformParams:
    beta: float = 0.5
    epsilon: float = 1e-6
    unit_normalize: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.beta < np.inf:
            raise ArgumentError(f"beta must be positive and finite, got {self.beta}")
        if self.epsilon < 0:
            raise ArgumentError(f"epsilon must be non-negative, got {self.epsilon}")


def power_transform(
    features: np.ndarray, params: PowerTransformParams | None = None
) -> np.ndarray:
    """Coordinate-wise power map pushing features toward a Gaussian shape.

    Each coordinate j becomes ``(v_j - min_shift_j + epsilon) ** beta``
    where ``min_shift_j = min(0, column_minimum_j)``: signed inputs are
    shifted up to be non-negative, while already non-negative inputs pass
    through unshifted.  Rows are then unit-normalized when requested.  A
    ``(E, rows, dim)`` block takes its column minima per episode.
    """
    params = params or PowerTransformParams()
    x = np.asarray(features, dtype=np.float64)
    if x.ndim not in (2, 3):
        raise ShapeError(f"expected a (rows, dim) array, got shape {x.shape}")
    shift = np.minimum(x.min(axis=-2, keepdims=True), 0.0) if x.shape[-2] else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        out = (x - shift + params.epsilon) ** params.beta
    if not np.isfinite(out).all():
        raise NumericError(
            "power transform produced non-finite values; "
            "increase epsilon or adjust beta"
        )
    if params.unit_normalize:
        out = _unit_rows(out)
    return out


# ---------------------------------------------------------------------------
# Entropic optimal transport (stabilized scaling Sinkhorn)


@dataclass(frozen=True)
class SinkhornConfig:
    """Entropic regularization strength and stopping rule.

    ``reg`` applies to the cost matrix after normalization by its median,
    so its scale is data-independent.  Iteration stops when the largest
    absolute marginal deviation falls below ``tol``, or at ``max_iters``.
    """

    reg: float = 0.1
    max_iters: int = 200
    tol: float = 1e-6

    def __post_init__(self) -> None:
        if not self.reg > 0:
            raise ArgumentError(f"reg must be positive, got {self.reg}")
        check_count("max_iters", self.max_iters)
        if not self.tol > 0:
            raise ArgumentError(f"tol must be positive, got {self.tol}")


#: Stopping rule used by the transductive center-estimation head.  Its
#: center updates are damped (step 0.2), so marginal precision beyond 1e-4
#: never changes the final labels (checked against deep-converged runs),
#: while the looser tolerance cuts iteration counts several-fold.
PTMAP_SINKHORN = SinkhornConfig(reg=0.1, max_iters=200, tol=1e-4)


@dataclass(frozen=True)
class TransportPlan:
    """Converged (or max-iteration) entropic transport plan plus diagnostics."""

    matrix: np.ndarray          # (R, C), non-negative, couples rows to columns
    row_marginals: np.ndarray   # (R,) target row sums
    col_marginals: np.ndarray   # (C,) target column sums
    iterations: int
    marginal_error: float       # max abs deviation of plan marginals from targets
    converged: bool
    log_potentials: tuple[np.ndarray, np.ndarray] = field(repr=False, default=None)


def _check_marginal(m: np.ndarray, size: int, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (size,):
        raise ShapeError(f"{name} shape {m.shape} does not match cost axis {size}")
    if not (m >= 0).all() or abs(m.sum() - 1.0) > 1e-9:  # NaN entries fail `>= 0`
        raise ArgumentError(f"{name} is not a probability vector")
    return m


def _median(x: np.ndarray) -> np.ndarray:
    """``np.median`` of each problem of a finite (E, R, C) array, bit for
    bit, as an (E, 1, 1) array, without its generic overhead.  Like its
    mean, the sums start from +0.0, so a zero median comes out as +0.0."""
    flat = x.reshape(len(x), -1)
    half = flat.shape[1] // 2
    if flat.shape[1] % 2:
        return 0.0 + np.partition(flat, half, axis=1)[:, half:half + 1, None]
    part = np.partition(flat, (half - 1, half), axis=1)[:, half - 1:half + 1, None]
    return (0.0 + part[:, :1] + part[:, 1:]) / 2


def _log_sweep(
    log_kernel: np.ndarray, g: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One Sinkhorn iteration in the log domain: f against the row
    marginals given g, then g against the column marginals given f."""
    m = log_kernel + g
    row_max = m.max(axis=1)
    f = np.log(a) - row_max - np.log(np.exp(m - row_max[:, None]).sum(axis=1))
    m = log_kernel + f[:, None]
    col_max = m.max(axis=0)
    g = np.log(b) - col_max - np.log(np.exp(m - col_max[None, :]).sum(axis=0))
    return f, g


#: Scaling vectors whose largest entry exceeds this are folded into the log
#: potentials.  Kernel entries are at most 1, so the bound also keeps every
#: scaling entry above (smallest marginal) / (size * bound): a kernel entry
#: lost to underflow never carries more than ~1e-240 of mass.
_SCALING_BOUND = 1e30


def sinkhorn(
    cost: np.ndarray,
    row_marginals: np.ndarray,
    col_marginals: np.ndarray,
    config: SinkhornConfig | None = None,
    init_potentials: tuple[np.ndarray, np.ndarray] | None = None,
) -> TransportPlan:
    """Entropic-regularized optimal transport by stabilized scaling.

    The plan is ``exp(f + logK + g)`` for log potentials f, g.  The
    potentials (zeros, or ``init_potentials`` as a warm start) are absorbed
    once into a kernel ``K = exp(logK + f + g)``, and each iteration then
    updates scaling vectors ``u = a / (K v)`` and ``v = b / (u K)``.  When
    ``u`` or ``v`` leaves a safe range, or goes non-finite, they are folded
    back into f, g by one log-domain iteration and K is rebuilt
    (Schmitzer 2019), so small ``reg`` neither overflows nor underflows.
    The plan is built once, at the end.  A warm start changes the arrival
    speed, not the answer: the fixed point is unique.  Warm potentials
    other than finite ``(R,)`` and ``(C,)`` vectors raise
    :class:`ShapeError` or :class:`ArgumentError`.
    """
    config = config or SinkhornConfig()
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise ShapeError(f"cost must be 2-d, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise ArgumentError("cost matrix contains non-finite values")
    n_rows, n_cols = cost.shape
    a = _check_marginal(row_marginals, n_rows, "row_marginals")
    b = _check_marginal(col_marginals, n_cols, "col_marginals")
    if init_potentials is not None:
        init_potentials = [np.asarray(p, dtype=np.float64) for p in init_potentials]
        shapes = [p.shape for p in init_potentials]
        if shapes != [(n_rows,), (n_cols,)]:
            raise ShapeError(f"init_potentials of shapes {shapes} for a "
                             f"{n_rows}x{n_cols} cost; a warm start is "
                             f"({n_rows},) and ({n_cols},)")
        if not all(np.isfinite(p).all() for p in init_potentials):
            raise ArgumentError("init_potentials hold non-finite values")
        init_potentials = tuple(p[None] for p in init_potentials)
    plan, f, g, iterations, err = _sinkhorn_block(cost[None], a, b, config,
                                                  init_potentials)
    return TransportPlan(
        matrix=plan[0],
        row_marginals=a,
        col_marginals=b,
        iterations=int(iterations[0]),
        marginal_error=float(err[0]),
        converged=bool(err[0] <= config.tol),
        log_potentials=(f[0], g[0]),
    )


def _sinkhorn_block(
    cost: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    config: SinkhornConfig,
    init_potentials: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`sinkhorn` over a block of E problems that share the marginals
    ``a`` (R,) and ``b`` (C,): finite costs (E, R, C) and optional warm
    potentials ((E, R), (E, C)).  Returns the plans, the log potentials f
    and g, and each problem's iteration count and row-marginal error.

    Every problem runs the serial loop's arithmetic: each stops at its own
    ``tol`` and leaves the block, and each absorbs its own scaling vectors
    when they leave the safe range.  Raises :class:`NumericError` when any
    plan is not finite.
    """
    med = _median(cost)
    med[med <= 0] = 1.0    # a problem whose median is not positive keeps its cost
    # divide by -reg rather than multiply by its rounded reciprocal: the log
    # kernel is then bit for bit -(C / median) / reg.  exp(logK + f + g) from the
    # returned potentials is this plan only up to rounding: at reg ~1e-3 with a
    # far column, logK and g near 3e4 cancel to O(1), leaving ~1e-12 on an entry
    log_kernel = cost / med / -config.reg
    # row quantities are (E, R, 1) columns and column quantities (E, 1, C)
    # rows, the shapes the matrix-vector products take and give
    n, rows, cols = cost.shape
    a = a.reshape(1, rows, 1)
    b = b.reshape(1, 1, cols)
    if init_potentials is not None:
        f = init_potentials[0].reshape(n, rows, 1)
        g = init_potentials[1].reshape(n, 1, cols)
    else:
        f = np.zeros((n, rows, 1))
        g = np.zeros((n, 1, cols))

    done = []   # (block positions, plan, f, g, iterations) of problems that stopped
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kernel = log_kernel + g
        kernel += f
        shift = kernel.max(axis=(1, 2), keepdims=True)  # the largest entry is exactly 1
        f = f - shift
        kernel -= shift
        np.exp(kernel, out=kernel)
        v = np.ones(g.shape)
        kv = kernel.sum(axis=2, keepdims=True)
        at = np.arange(n)                   # block position of each working problem
        for it in range(1, config.max_iters + 1):
            u_next = a / kv
            v_next = b / (u_next.swapaxes(1, 2) @ kernel)
            if not (u_next.max() <= _SCALING_BOUND and v_next.max() <= _SCALING_BOUND):
                # absorb each unsafe problem's last safe v; redo its
                # iteration in the log domain
                unsafe = ~((u_next.max(axis=(1, 2)) <= _SCALING_BOUND)
                           & (v_next.max(axis=(1, 2)) <= _SCALING_BOUND))
                g = g.copy()                # never write to a caller's warm start
                for j in np.flatnonzero(unsafe):
                    f[j, :, 0], g[j, 0] = _log_sweep(log_kernel[j], g[j, 0] + np.log(v[j, 0]),
                                                     a[0, :, 0], b[0, 0])
                    kernel[j] = np.exp(log_kernel[j] + f[j] + g[j])
                    u_next[j] = 1.0
                    v_next[j] = 1.0
            u, v = u_next, v_next
            kv = kernel @ v.swapaxes(1, 2)
            # the v update fits the columns; u * (K v) carries the row error
            deviation = np.abs(u * kv - a)
            if it == config.max_iters or deviation.max() <= config.tol:
                break                       # every problem in the block stops here
            if len(u) > 1:
                stop = deviation.max(axis=(1, 2)) <= config.tol
                if stop.any():              # some stop here: they leave the block
                    done.append((at[stop], u[stop] * kernel[stop] * v[stop],
                                 f[stop] + np.log(u[stop]), g[stop] + np.log(v[stop]), it))
                    go = ~stop
                    at, u, v, kv = at[go], u[go], v[go], kv[go]
                    kernel, log_kernel, f, g = kernel[go], log_kernel[go], f[go], g[go]
        plan = u * kernel * v
        f, g = f + np.log(u), g + np.log(v)

    if done:   # put the problems that stopped early back in their places
        done.append((at, plan, f, g, it))
        plan = np.empty_like(cost)
        f = np.empty((n, rows, 1))
        g = np.empty((n, 1, cols))
        iterations = np.empty(n, dtype=np.int64)
        for positions, *parts, stopped in done:
            plan[positions], f[positions], g[positions] = parts
            iterations[positions] = stopped
    else:
        iterations = np.full(n, it)
    # u, v <= 1e30 and K <= 1 bound every entry, so the row sums cannot
    # overflow: the error is finite exactly when the plan is
    err = np.abs(plan.sum(axis=2) - a[:, :, 0]).max(axis=1)
    if not np.isfinite(plan).all():
        raise NumericError(
            "transport kernel underflowed; increase reg (entropic regularization)"
        )
    return plan, f[:, :, 0], g[:, 0], iterations, err


# ---------------------------------------------------------------------------
# Power-transform + transport center estimation (transductive)


def ptmap_fit_predict(
    support_x: np.ndarray,
    support_y: np.ndarray,
    query_x: np.ndarray,
    pt_params: PowerTransformParams | None = None,
    sinkhorn_config: SinkhornConfig | None = None,
    n_iters: int = 20,
    step_size: float = 0.2,
) -> np.ndarray:
    """Transductive episode labels via iterated transport-based centers.

    Support and query are power-transformed jointly; class centers start
    at the support means and are repeatedly pulled toward the
    transport-plan-weighted query mass (uniform row marginals over
    queries, class-balanced column marginals).  Labels are nearest final
    center.  ``n_iters=0`` reduces to nearest-prototype on transformed
    features.  A block of episodes solves its transport problems together.
    """
    check_count("n_iters", n_iters, 0)
    if not 0 < step_size <= 1:
        raise ArgumentError(f"step_size must be in (0, 1], got {step_size}")
    n, _ = support_structure(support_x, support_y)
    pt_params = pt_params or PowerTransformParams()
    sinkhorn_config = sinkhorn_config or PTMAP_SINKHORN
    support_x = np.asarray(support_x, dtype=np.float64)
    query_x = check_query(query_x, support_x.shape[-1], support_x.shape[:-2])
    n_query = query_x.shape[-2]
    if n_query == 0:
        return np.zeros(query_x.shape[:-1], dtype=np.int64)
    one = support_x.ndim == 2      # one episode: a block of one
    if one:
        support_x, query_x = support_x[None], query_x[None]

    n_support = support_x.shape[1]
    both = power_transform(np.concatenate([support_x, query_x], axis=1), pt_params)
    t_sup, t_qry = both[:, :n_support], both[:, n_support:]

    onehot = np.eye(n)[np.asarray(support_y).astype(np.intp)]   # 0..N-1, checked above
    counts = onehot.sum(axis=0)                  # (N,) = K per class
    support_sums = onehot.T @ t_sup              # (E, N, d)
    centers = support_sums / counts[:, None]

    row_m = np.full(n_query, 1.0 / n_query)
    col_m = np.full(n, 1.0 / n)
    q_sq = _sq_norms(t_qry)
    potentials = None
    for _ in range(n_iters):
        cost = _sq_dists(t_qry, centers, q_sq)
        plan, f, g, _, _ = _sinkhorn_block(cost, row_m, col_m, sinkhorn_config,
                                           potentials)
        potentials = (f, g)
        weights = plan * n_query                 # rows now sum to 1
        weighted = (weights.swapaxes(1, 2) @ t_qry + support_sums)
        mass = weights.sum(axis=1) + counts
        target = weighted / mass[:, :, None]
        centers = centers + step_size * (target - centers)

    labels = np.argmin(_sq_dists(t_qry, centers, q_sq), axis=-1)
    return labels[0] if one else labels


# ---------------------------------------------------------------------------
# Quadratic discriminant analysis with shrinkage


@dataclass(frozen=True)
class QdaModel:
    """Per-class Gaussians, with the factors ``qda_log_density`` uses.

    ``whitening[c]`` is the inverse of the lower Cholesky factor of
    ``covariances[c]``: it maps ``x - means[c]`` to a vector whose squared
    norm is the Mahalanobis distance of ``x`` under class ``c``.  A model
    fitted to a block of E episodes has a leading E axis on every array
    but ``priors``.
    """

    means: np.ndarray        # (N, d)
    covariances: np.ndarray  # (N, d, d) after shrinkage
    shrinkage: float
    priors: np.ndarray       # (N,)
    whitening: np.ndarray = field(repr=False, default=None)  # (N, d, d)
    log_dets: np.ndarray = field(repr=False, default=None)   # (N,)


def qda_fit(
    support_x: np.ndarray, support_y: np.ndarray, shrinkage: float = 0.5
) -> QdaModel:
    """Per-class Gaussian fit with covariance shrinkage toward a shared scale.

    Each class covariance is ``(1 - lambda) * empirical + lambda * s * I``
    where ``s`` is the trace-per-dimension of the empirical covariances
    averaged over classes — a single shared scale, so ``lambda=1`` with
    equal priors degenerates exactly to nearest-prototype.  One-shot
    support forces identity covariances (the empirical one is undefined),
    which are their own whitening factors.  Otherwise all classes are
    fitted together: their Cholesky factors and the inverses of those (the
    whitening factors) come from one batched call each.
    """
    if not 0.0 <= shrinkage <= 1.0:
        raise ArgumentError(f"shrinkage must be in [0, 1], got {shrinkage}")
    n, k = support_structure(support_x, support_y)
    x = np.asarray(support_x, dtype=np.float64)
    d = x.shape[-1]
    blocks = _class_blocks(x, np.asarray(support_y), n, k)   # (..., N, K, d)
    means = blocks.sum(axis=-2) / k
    priors = np.full(n, 1.0 / n)   # balanced support: K / (N K), bit for bit

    if k == 1:
        # each identity covariance is its own Cholesky factor and inverse,
        # and has log-determinant 0, so nothing is factorized
        covs = np.broadcast_to(np.eye(d), means.shape + (d,)).copy()
        whitening, log_dets = covs.copy(), np.zeros(means.shape[:-1])
    else:
        centered = blocks - means[..., None, :]
        empirical = centered.swapaxes(-1, -2) @ centered / k
        # one shared scale per episode, broadcast over its classes and cells
        shared_scale = np.trace(empirical, axis1=-2, axis2=-1).mean(axis=-1) / d
        covs = ((1.0 - shrinkage) * empirical
                + shrinkage * shared_scale[..., None, None, None] * np.eye(d))
        try:
            chol = np.linalg.cholesky(covs)
        except np.linalg.LinAlgError:
            raise ConditioningError(
                "class covariance is singular after shrinkage; "
                "increase lambda (shrinkage > 0)"
            ) from None
        log_dets = 2.0 * np.log(np.diagonal(chol, axis1=-2, axis2=-1)).sum(axis=-1)
        whitening = np.linalg.inv(chol)
    return QdaModel(
        means=means,
        covariances=covs,
        shrinkage=shrinkage,
        priors=priors,
        whitening=whitening,
        log_dets=log_dets,
    )


def qda_log_density(model: QdaModel, query_x: np.ndarray) -> np.ndarray:
    """Per-class Gaussian log density plus log prior, (..., Q, N).

    One product of the queries with all whitening factors stacked as an
    (N d, d) matrix; subtracting the whitened means and summing squares
    over each class's d columns gives the Mahalanobis distances.
    """
    query_x = check_query(query_x, model.means.shape[-1], model.means.shape[:-2])
    n, d = model.means.shape[-2:]
    episodes = model.means.shape[:-2]
    factors = model.whitening.reshape(episodes + (n * d, d))
    delta = query_x @ factors.swapaxes(-1, -2)    # (..., Q, N d)
    # in place: a fresh (Q, N d) temporary costs more than the arithmetic
    delta -= (model.whitening @ model.means[..., None]).reshape(episodes + (1, n * d))
    delta = delta.reshape(query_x.shape[:-1] + (n, d))
    quad = np.einsum("...qnd,...qnd->...qn", delta, delta)
    return (
        -0.5 * (quad + model.log_dets[..., None, :] + d * np.log(2.0 * np.pi))
        + np.log(model.priors)
    )


def qda_predict(model: QdaModel, query_x: np.ndarray) -> np.ndarray:
    """Labels by highest Gaussian log density plus log prior."""
    return np.argmax(qda_log_density(model, query_x), axis=-1)


# ---------------------------------------------------------------------------
# Logistic transfer head (full-batch Adam)


@dataclass(frozen=True)
class LinearHead:
    weights: np.ndarray   # (N, d), or (E, N, d) for a block
    bias: np.ndarray      # (N,), or (E, N)
    epochs: int
    step_size: float
    loss_history: tuple = ()   # per epoch: a float, or an (E,) array


def label_picks(y: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """The flat positions ``(E, S)`` of int64 labels ``y`` in ``[0, N)``,
    ``(S,)``, shared by every task, or ``(E, S)``, in logits of ``shape``
    ``(E, S, N)``: what :func:`softmax_xent` takes."""
    tasks, rows, n_way = shape
    return np.arange(0, tasks * rows * n_way, n_way).reshape(tasks, rows) + y


def softmax_xent(logits: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each task's mean softmax cross-entropy ``(E,)`` over logits
    ``(E, S, N)`` and its gradient in the logits, for the flat positions
    ``picks`` ``(E, S)`` of the true labels (see :func:`label_picks`)."""
    # ufunc reductions, not ndarray.max/.sum/.mean: no Python wrapper per call
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.add.reduce(np.exp(shifted), axis=-1, keepdims=True))
    rows = logits.shape[1]
    loss = -(np.add.reduce(log_probs.take(picks), axis=-1) / rows)
    grad = np.exp(log_probs)
    grad.reshape(-1)[picks] -= 1.0
    grad /= rows
    return loss, grad


def _loss_grad(w, b, x, picks):
    """Losses ``(E,)`` and gradients of heads ``w`` (E, N, d), ``b`` (E, N)
    on rows ``x`` (E, S, d) with the label positions ``picks`` (see
    :func:`label_picks`)."""
    loss, dz = softmax_xent(x @ w.swapaxes(-1, -2) + b[:, None, :], picks)
    return loss, dz.swapaxes(-1, -2) @ x, dz.sum(axis=1)


def linear_loss_and_grad(
    weights: np.ndarray, bias: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean softmax cross-entropy and its exact gradients.  Rows
    ``(E, S, d)`` under heads ``(E, N, d)``, ``(E, N)`` give each episode's
    loss as an ``(E,)`` array and gradients with an episode axis."""
    one = np.ndim(x) == 2
    w, b, x = (np.asarray(a) for a in (weights, bias, x))
    y = check_labels(y, w.shape[-2])
    if one:
        w, b, x = w[None], b[None], x[None]
    loss, g_w, g_b = _loss_grad(w, b, x, label_picks(y, x.shape[:2] + w.shape[-2:-1]))
    return (float(loss[0]), g_w[0], g_b[0]) if one else (loss, g_w, g_b)


def linear_head_fit(
    support_x: np.ndarray,
    support_y: np.ndarray,
    epochs: int = 10,
    step_size: float = 0.001,
) -> LinearHead:
    """Multinomial logistic regression on the support set.

    Zero-initialized, trained full-batch with the adaptive-moment
    optimizer (beta1=0.9, beta2=0.999, eps=1e-8) for ``epochs`` steps.
    Deterministic: no randomness enters training.  A block of E episodes
    trains E heads at once; each entry of its ``loss_history`` is then an
    ``(E,)`` array, and a loss that is not finite in any episode raises
    :class:`DivergenceError`.
    """
    check_count("epochs", epochs)
    if not step_size > 0:
        raise ArgumentError(f"step_size must be positive, got {step_size}")
    n, _ = support_structure(support_x, support_y)
    x = np.asarray(support_x, dtype=np.float64)
    one = x.ndim == 2
    if one:
        x = x[None]
    y = np.asarray(support_y).astype(np.int64)   # labels 0..N-1, checked above
    picks = label_picks(y, (len(x), len(y), n))

    w = np.zeros((len(x), n, x.shape[-1]))
    b = np.zeros((len(x), n))
    m_w = np.zeros_like(w); v_w = np.zeros_like(w)
    m_b = np.zeros_like(b); v_b = np.zeros_like(b)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    losses = []
    for t in range(1, epochs + 1):
        loss, g_w, g_b = _loss_grad(w, b, x, picks)
        if not np.isfinite(loss).all():
            raise DivergenceError(f"loss diverged at epoch {t}; reduce step_size")
        losses.append(float(loss[0]) if one else loss)
        m_w = beta1 * m_w + (1 - beta1) * g_w
        v_w = beta2 * v_w + (1 - beta2) * g_w ** 2
        m_b = beta1 * m_b + (1 - beta1) * g_b
        v_b = beta2 * v_b + (1 - beta2) * g_b ** 2
        scale = step_size * np.sqrt(1 - beta2 ** t) / (1 - beta1 ** t)
        w = w - scale * m_w / (np.sqrt(v_w) + eps)
        b = b - scale * m_b / (np.sqrt(v_b) + eps)
    return LinearHead(
        weights=w[0] if one else w, bias=b[0] if one else b, epochs=epochs,
        step_size=step_size, loss_history=tuple(losses),
    )


def linear_head_predict(head: LinearHead, query_x: np.ndarray) -> np.ndarray:
    """Argmax of logits; the all-zero head predicts label 0 everywhere."""
    query_x = check_query(query_x, head.weights.shape[-1], head.weights.shape[:-2])
    return np.argmax(query_x @ head.weights.swapaxes(-1, -2) + head.bias[..., None, :],
                     axis=-1)


# ---------------------------------------------------------------------------
# Rectified prototypes (transductive)


def rectified_proto_predict(
    support_x: np.ndarray,
    support_y: np.ndarray,
    query_x: np.ndarray,
    metric: str = "euclidean",
) -> np.ndarray:
    """One round of confidence-weighted prototype rectification.

    Queries are soft-assigned to the initial prototypes; each prototype is
    then recomputed as the weighted mean of its support vectors (weight 1)
    and all queries (weighted by assignment confidence), and labels come
    from the rectified prototypes.  With no queries the prototypes are
    untouched.
    """
    protos = compute_prototypes(support_x, support_y, metric=metric)
    n = protos.centers.shape[-2]
    support_x = np.asarray(support_x, dtype=np.float64)
    query_x = check_query(query_x, support_x.shape[-1], support_x.shape[:-2])
    if query_x.shape[-2] == 0:
        return np.zeros(query_x.shape[:-1], dtype=np.int64)
    x_sup = _unit_rows(support_x) if metric == "cosine" else support_x
    x_qry = _unit_rows(query_x) if metric == "cosine" else query_x

    confidence = proto_predict(protos, query_x)      # (..., Q, N)
    onehot = np.eye(n)[np.asarray(support_y).astype(np.intp)]   # 0..N-1, checked above
    sums = onehot.T @ x_sup + confidence.swapaxes(-1, -2) @ x_qry   # (..., N, d)
    mass = onehot.sum(axis=0) + confidence.sum(axis=-2)
    rectified = sums / mass[..., None]
    return np.argmin(_sq_dists(x_qry, rectified), axis=-1)
