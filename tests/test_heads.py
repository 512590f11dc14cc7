"""Episode-time heads: prototypes, power transform, QDA, logistic, rectified.

Numeric contracts are pinned two ways: hand-computed frozen values for
small inputs, and independent-route equivalences (nearest-prototype vs
fully-shrunk QDA, scipy densities vs the hand-rolled ones, finite
differences vs analytic gradients).  The array passes over an episode's
classes are also checked against the per-class loops they replaced.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats
from scipy.linalg import solve_triangular

from fewbench.errors import (
    ArgumentError,
    ConditioningError,
    EpisodeFormatError,
    NumericError,
    ShapeError,
)
from fewbench.heads import (
    LinearHead,
    PowerTransformParams,
    _unit_rows,
    check_labels,
    compute_prototypes,
    label_picks,
    linear_head_fit,
    linear_head_predict,
    linear_loss_and_grad,
    power_transform,
    proto_labels,
    proto_predict,
    ptmap_fit_predict,
    qda_fit,
    qda_log_density,
    qda_predict,
    rectified_proto_predict,
    softmax_xent,
    support_structure,
)


def make_episode(n=5, k=3, q=8, dim=6, seed=0, spread=4.0):
    gen = np.random.default_rng(seed)
    means = gen.normal(scale=spread, size=(n, dim))
    sx = np.repeat(means, k, axis=0) + gen.normal(size=(n * k, dim))
    sy = np.repeat(np.arange(n), k)
    qy = gen.integers(0, n, size=q)
    qx = means[qy] + gen.normal(size=(q, dim))
    return sx, sy, qx, qy


# ---------------------------------------------------------------------------
# Support structure


def test_support_structure_shape():
    sx, sy, _, _ = make_episode(n=4, k=2)
    assert support_structure(sx, sy) == (4, 2)


def test_support_structure_rejects_bad_labelings():
    x = np.zeros((4, 3))
    with pytest.raises(EpisodeFormatError):
        support_structure(np.zeros((4, 3, 1)), np.zeros(4, dtype=int))
    with pytest.raises(EpisodeFormatError):
        support_structure(x, np.array([0, 0, 1, 3]))   # not 0..N-1
    with pytest.raises(EpisodeFormatError):
        support_structure(x, np.array([0, 0, 0, 1]))   # unbalanced
    with pytest.raises(EpisodeFormatError):
        support_structure(x, np.array([1, 1, 2, 2]))   # missing label 0
    with pytest.raises(EpisodeFormatError):
        support_structure(x, np.zeros(3, dtype=int))   # length mismatch
    with pytest.raises(EpisodeFormatError):
        support_structure(np.zeros((0, 3)), np.zeros(0, dtype=int))


# ---------------------------------------------------------------------------
# Prototypes


def test_prototype_centers_are_class_means():
    sx = np.array([[0.0, 0.0], [2.0, 2.0], [10.0, 0.0], [12.0, 2.0]])
    sy = np.array([0, 0, 1, 1])
    protos = compute_prototypes(sx, sy)
    assert np.array_equal(protos.centers, [[1.0, 1.0], [11.0, 1.0]])


def test_one_shot_centers_are_the_support():
    sx, sy, _, _ = make_episode(n=5, k=1)
    assert np.array_equal(compute_prototypes(sx, sy).centers, sx)


def test_proto_predict_rows_are_distributions():
    sx, sy, qx, _ = make_episode()
    probs = proto_predict(compute_prototypes(sx, sy), qx)
    assert probs.shape == (len(qx), 5)
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_proto_labels_match_argmax_of_probabilities():
    sx, sy, qx, _ = make_episode(seed=3)
    protos = compute_prototypes(sx, sy)
    assert np.array_equal(
        proto_labels(protos, qx), np.argmax(proto_predict(protos, qx), axis=1)
    )


def test_proto_recovers_labels_when_separated():
    sx, sy, qx, qy = make_episode(spread=50.0, q=40)
    assert np.array_equal(proto_labels(compute_prototypes(sx, sy), qx), qy)


def test_proto_tie_breaks_to_lowest_label():
    centers_x = np.array([[0.0], [2.0], [0.0]])   # classes 0 and 2 coincide
    sy = np.array([0, 1, 2])
    labels = proto_labels(compute_prototypes(centers_x, sy), np.array([[0.0], [1.0]]))
    assert labels.tolist() == [0, 0]


def test_cosine_metric_ignores_magnitude():
    sx = np.array([[1.0, 0.0], [0.0, 1.0]])
    sy = np.array([0, 1])
    protos = compute_prototypes(sx, sy, metric="cosine")
    labels = proto_labels(protos, np.array([[100.0, 1.0], [0.5, 80.0]]))
    assert labels.tolist() == [0, 1]


def test_unknown_metric_rejected():
    sx, sy, _, _ = make_episode()
    with pytest.raises(ArgumentError):
        compute_prototypes(sx, sy, metric="manhattan")


# ---------------------------------------------------------------------------
# Power transform


def test_power_transform_frozen_values():
    v = np.array([[4.0, -1.0], [0.0, 3.0]])
    # column 0 min is 0 (no shift); column 1 min is -1 (shift by -1);
    # u = (v - shift + 1e-6) ** 0.5, computed independently
    expected = np.array(
        [[2.0000002499999843, 0.001], [0.001, 2.0000002499999843]]
    )
    got = power_transform(v, PowerTransformParams(unit_normalize=False))
    assert np.array_equal(got, expected)


def test_power_transform_unit_normalization():
    v = np.array([[4.0, -1.0], [0.0, 3.0]])
    got = power_transform(v, PowerTransformParams())
    assert np.allclose(np.linalg.norm(got, axis=1), 1.0)
    assert got[0, 0] == pytest.approx(0.9999998750000546, abs=0)


def test_power_transform_identity_case():
    x = np.abs(np.random.default_rng(0).normal(size=(6, 3)))
    out = power_transform(x, PowerTransformParams(beta=1.0, epsilon=0.0,
                                                  unit_normalize=False))
    assert np.allclose(out, x)


def test_power_transform_nonnegative_columns_not_shifted():
    x = np.array([[1.0, 5.0], [3.0, 2.0]])
    out = power_transform(x, PowerTransformParams(beta=0.5, epsilon=0.0,
                                                  unit_normalize=False))
    assert np.allclose(out, np.sqrt(x))


def test_power_transform_errors():
    with pytest.raises(ShapeError):
        power_transform(np.zeros(4))
    with pytest.raises(ArgumentError):
        power_transform(np.zeros((2, 2)), PowerTransformParams(epsilon=-1.0))
    with pytest.raises(NumericError):
        # overflow to inf under a large exponent
        power_transform(np.array([[1e200], [0.0]]),
                        PowerTransformParams(beta=2.0, epsilon=0.0,
                                             unit_normalize=False))


def test_power_transform_output_finite_on_wide_range():
    gen = np.random.default_rng(1)
    x = gen.normal(size=(50, 8)) * 10.0 ** gen.integers(-6, 6, size=(50, 8))
    out = power_transform(x)
    assert np.isfinite(out).all()


# ---------------------------------------------------------------------------
# Transductive transport head


def test_ptmap_zero_iters_is_nearest_transformed_prototype():
    sx, sy, qx, _ = make_episode(seed=6, q=20)
    got = ptmap_fit_predict(sx, sy, qx, n_iters=0)
    both = power_transform(np.concatenate([sx, qx]))
    t_sup, t_qry = both[: len(sx)], both[len(sx):]
    protos = compute_prototypes(t_sup, sy)
    assert np.array_equal(got, proto_labels(protos, t_qry))


def test_ptmap_recovers_labels_when_separated():
    sx, sy, qx, qy = make_episode(spread=50.0, q=40, seed=7)
    assert np.array_equal(ptmap_fit_predict(sx, sy, qx), qy)


def test_ptmap_deterministic():
    sx, sy, qx, _ = make_episode(seed=8, q=25)
    assert np.array_equal(ptmap_fit_predict(sx, sy, qx),
                          ptmap_fit_predict(sx, sy, qx))


def test_ptmap_empty_query():
    sx, sy, _, _ = make_episode()
    assert len(ptmap_fit_predict(sx, sy, np.zeros((0, sx.shape[1])))) == 0


def test_ptmap_argument_validation():
    sx, sy, qx, _ = make_episode()
    with pytest.raises(ArgumentError):
        ptmap_fit_predict(sx, sy, qx, n_iters=-1)
    with pytest.raises(ArgumentError):
        ptmap_fit_predict(sx, sy, qx, step_size=0.0)
    with pytest.raises(ArgumentError):
        ptmap_fit_predict(sx, sy, qx, step_size=1.5)


def test_ptmap_uses_query_structure():
    """Transduction must beat plain prototypes on noisy 1-shot episodes.

    A single support point is an unreliable center; the balanced query
    mass pulls the estimate toward the true class mean.  Over 30 random
    moderate-overlap episodes the transport head should never lose to the
    nearest-transformed-prototype baseline and should win most of them.
    """
    def episode(seed, n=5, dim=16, q=19, spread=1.2, noise=0.6):
        gen = np.random.default_rng(seed)
        means = gen.normal(scale=spread, size=(n, dim))
        sx = means + gen.normal(scale=noise, size=(n, dim))
        qy = np.repeat(np.arange(n), q)
        qx = means[qy] + gen.normal(scale=noise, size=(n * q, dim))
        return sx, np.arange(n), qx, qy

    wins = losses = 0
    for seed in range(30):
        sx, sy, qx, qy = episode(seed)
        both = power_transform(np.concatenate([sx, qx]))
        proto_acc = (proto_labels(compute_prototypes(both[:5], sy), both[5:])
                     == qy).mean()
        ptmap_acc = (ptmap_fit_predict(sx, sy, qx) == qy).mean()
        wins += ptmap_acc > proto_acc
        losses += ptmap_acc < proto_acc
    assert losses == 0
    assert wins >= 15


# ---------------------------------------------------------------------------
# Quadratic discriminant head


def test_qda_one_shot_uses_identity_covariance():
    sx, sy, qx, _ = make_episode(n=4, k=1, q=10, seed=9)
    model = qda_fit(sx, sy)
    assert np.array_equal(model.covariances,
                          np.broadcast_to(np.eye(sx.shape[1]), (4, 6, 6)))
    protos = compute_prototypes(sx, sy)
    assert np.array_equal(qda_predict(model, qx), proto_labels(protos, qx))


def test_qda_full_shrinkage_equals_nearest_prototype():
    """lambda=1 with balanced support must reduce to nearest class mean.

    The shrinkage target is one shared scale pooled over classes, so the
    per-class Gaussians differ only by their means; with equal priors the
    density argmax is the distance argmin.  Checked label-by-label on many
    random episodes against the independently computed prototype route.
    """
    for seed in range(20):
        sx, sy, qx, _ = make_episode(n=5, k=4, q=30, seed=seed, spread=2.0)
        model = qda_fit(sx, sy, shrinkage=1.0)
        protos = compute_prototypes(sx, sy)
        assert np.array_equal(qda_predict(model, qx), proto_labels(protos, qx))


def test_qda_log_density_matches_scipy():
    sx, sy, qx, _ = make_episode(n=3, k=6, q=12, seed=10)
    model = qda_fit(sx, sy, shrinkage=0.3)
    got = qda_log_density(model, qx)
    for c in range(3):
        want = stats.multivariate_normal(
            mean=model.means[c], cov=model.covariances[c]
        ).logpdf(qx) + np.log(model.priors[c])
        assert np.allclose(got[:, c], want, rtol=0, atol=1e-10)


def test_qda_covariance_formula():
    sx, sy, _, _ = make_episode(n=3, k=5, seed=11)
    x = np.asarray(sx, dtype=np.float64)
    lam = 0.25
    model = qda_fit(sx, sy, shrinkage=lam)
    emp = []
    for c in range(3):
        rows = x[sy == c]
        centered = rows - rows.mean(axis=0)
        emp.append(centered.T @ centered / len(rows))
    shared = np.mean([np.trace(e) for e in emp]) / x.shape[1]
    for c in range(3):
        want = (1 - lam) * emp[c] + lam * shared * np.eye(x.shape[1])
        assert np.allclose(model.covariances[c], want, atol=1e-12)


def test_qda_singular_without_shrinkage():
    # class 0 has duplicated support points (rank-0 empirical covariance);
    # class 1 carries real variance so the pooled ridge target is positive
    sx = np.array([[1.0, 2.0], [1.0, 2.0], [5.0, 0.0], [6.0, 2.0]])
    sy = np.array([0, 0, 1, 1])
    with pytest.raises(ConditioningError):
        qda_fit(sx, sy, shrinkage=0.0)
    qda_fit(sx, sy, shrinkage=0.5)   # the shared ridge restores rank


def test_qda_shrinkage_bounds():
    sx, sy, _, _ = make_episode()
    with pytest.raises(ArgumentError):
        qda_fit(sx, sy, shrinkage=-0.1)
    with pytest.raises(ArgumentError):
        qda_fit(sx, sy, shrinkage=1.1)


def test_qda_separated_classes():
    sx, sy, qx, qy = make_episode(n=4, k=5, q=30, spread=40.0, seed=12)
    assert np.array_equal(qda_predict(qda_fit(sx, sy), qx), qy)


# ---------------------------------------------------------------------------
# Logistic transfer head


def test_linear_gradients_match_finite_differences():
    gen = np.random.default_rng(13)
    n, d, b = 4, 5, 12
    w = gen.normal(size=(n, d))
    bias = gen.normal(size=n)
    x = gen.normal(size=(b, d))
    y = gen.integers(0, n, size=b)
    loss, dw, db = linear_loss_and_grad(w, bias, x, y)
    h = 1e-6
    for idx in [(0, 0), (1, 3), (3, 4), (2, 2)]:
        wp = w.copy(); wp[idx] += h
        wm = w.copy(); wm[idx] -= h
        fd = (linear_loss_and_grad(wp, bias, x, y)[0]
              - linear_loss_and_grad(wm, bias, x, y)[0]) / (2 * h)
        assert abs(fd - dw[idx]) / max(abs(fd), 1e-12) < 1e-6
    for j in range(n):
        bp = bias.copy(); bp[j] += h
        bm = bias.copy(); bm[j] -= h
        fd = (linear_loss_and_grad(w, bp, x, y)[0]
              - linear_loss_and_grad(w, bm, x, y)[0]) / (2 * h)
        assert abs(fd - db[j]) / max(abs(fd), 1e-12) < 1e-6


def test_linear_zero_head_predicts_lowest_label():
    head = LinearHead(weights=np.zeros((4, 3)), bias=np.zeros(4),
                      epochs=0, step_size=0.001)
    assert np.array_equal(linear_head_predict(head, np.ones((5, 3))), np.zeros(5))


def test_linear_fit_reduces_loss_and_records_history():
    sx, sy, _, _ = make_episode(n=3, k=6, seed=14)
    head = linear_head_fit(sx, sy, epochs=10, step_size=0.01)
    assert len(head.loss_history) == 10
    assert head.loss_history[0] == pytest.approx(np.log(3.0))  # zero-init CE
    assert head.loss_history[-1] < head.loss_history[0]


def test_linear_fit_learns_separable_support():
    sx, sy, qx, qy = make_episode(n=4, k=6, q=30, spread=10.0, seed=15)
    head = linear_head_fit(sx, sy, epochs=300, step_size=0.05)
    assert (linear_head_predict(head, sx) == sy).mean() == 1.0
    assert (linear_head_predict(head, qx) == qy).mean() >= 0.9


def test_linear_fit_deterministic():
    sx, sy, _, _ = make_episode(seed=16)
    h1 = linear_head_fit(sx, sy)
    h2 = linear_head_fit(sx, sy)
    assert np.array_equal(h1.weights, h2.weights)
    assert h1.loss_history == h2.loss_history


def test_linear_fit_validation():
    sx, sy, _, _ = make_episode()
    with pytest.raises(ArgumentError):
        linear_head_fit(sx, sy, epochs=0)
    with pytest.raises(ArgumentError):
        linear_head_fit(sx, sy, step_size=0.0)


# ---------------------------------------------------------------------------
# Rectified prototypes


def test_rect_equals_proto_when_separated():
    sx, sy, qx, qy = make_episode(spread=50.0, q=25, seed=17)
    got = rectified_proto_predict(sx, sy, qx)
    assert np.array_equal(got, qy)


def test_rect_empty_query():
    sx, sy, _, _ = make_episode()
    assert len(rectified_proto_predict(sx, sy, np.zeros((0, sx.shape[1])))) == 0


def test_rect_deterministic_and_in_range():
    sx, sy, qx, _ = make_episode(seed=18, q=30, spread=1.5)
    a = rectified_proto_predict(sx, sy, qx)
    b = rectified_proto_predict(sx, sy, qx)
    assert np.array_equal(a, b)
    assert set(a.tolist()) <= set(range(5))


def test_rect_moves_centers_toward_query_mass():
    """Off-center 1-shot supports, clean query clusters: rectification
    must label the borderline queries better than raw prototypes."""
    gen = np.random.default_rng(19)
    m0, m1 = np.zeros(4), np.full(4, 3.0)
    sx = np.stack([m0 + 1.1, m1 - 1.1])
    sy = np.array([0, 1])
    qx = np.concatenate([
        m0 + gen.normal(scale=0.3, size=(15, 4)),
        m1 + gen.normal(scale=0.3, size=(15, 4)),
    ])
    qy = np.repeat([0, 1], 15)
    proto_acc = (proto_labels(compute_prototypes(sx, sy), qx) == qy).mean()
    rect_acc = (rectified_proto_predict(sx, sy, qx) == qy).mean()
    assert rect_acc >= proto_acc


# ---------------------------------------------------------------------------
# The array passes over an episode's classes against the per-class loops
# they replaced, kept here as references


def support_structure_oracle(support_x, support_y):
    """The ``np.unique`` check that the ``bincount`` pass replaced."""
    support_x = np.asarray(support_x, dtype=np.float64)
    support_y = np.asarray(support_y)
    if support_x.ndim != 2 or len(support_x) != len(support_y):
        raise EpisodeFormatError(
            f"support shapes {support_x.shape} / {support_y.shape} inconsistent"
        )
    if len(support_y) == 0:
        raise EpisodeFormatError("empty support set")
    labels, counts = np.unique(support_y, return_counts=True)
    n = len(labels)
    if not np.array_equal(labels, np.arange(n)):
        raise EpisodeFormatError(f"support labels {labels.tolist()} are not 0..{n - 1}")
    if not (counts == counts[0]).all():
        raise EpisodeFormatError(f"unbalanced support counts {counts.tolist()}")
    return n, int(counts[0])


def class_means_oracle(x, y, n):
    """Per-class means as the prototype and QDA fits computed them."""
    return np.stack([x[y == c].mean(axis=0) for c in range(n)])


def qda_log_density_oracle(model, query_x):
    """One triangular solve per class against the Cholesky factor."""
    n, d = model.means.shape
    chol = np.linalg.cholesky(model.covariances)
    log_dets = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    out = np.empty((len(query_x), n))
    for c in range(n):
        delta = (query_x - model.means[c]).T            # (d, Q)
        sol = solve_triangular(chol[c], delta, lower=True)
        quad = (sol ** 2).sum(axis=0)
        out[:, c] = (
            -0.5 * (quad + log_dets[c] + d * np.log(2.0 * np.pi))
            + np.log(model.priors[c])
        )
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and the message are compared
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "labels",
    [
        np.array([0, 0, 1, 1]),
        np.array([1, 0, 1, 0]),
        np.array([0, 1, 2, 3]),
        np.array([0, 0, 0, 0]),
        np.array([0, 0, 1, 1], dtype=np.int32),
        np.array([0, 0, 1, 1], dtype=np.uint8),
        np.array([0, 0, 1, 1], dtype=np.uint64),
        np.array([0, 0, 0, 1]),                       # unbalanced
        np.array([0, 1, 1, 1]),                       # unbalanced
        np.array([0, 0, 1, 3]),                       # a gap
        np.array([1, 1, 2, 2]),                       # no label 0
        np.array([-1, -1, 0, 0]),                     # negative
        np.array([0, 1, 2, -1]),
        np.array([0, 1, 2, 4]),                       # max == len
        np.array([0, 1, 2, 2**40]),                   # far past len
        np.array([0, 0, 1, 2**63 - 1]),
        np.array([False, True, True, False]),
        np.array([True, True, True, True]),
        np.array([False, False, False, False]),
        np.array([0.0, 1.0, 0.0, 1.0]),
        np.array([0.0, 0.5, 0.0, 0.5]),
        np.array([0.0, 1.0, 1.0, np.nan]),
        np.array(["0", "0", "1", "1"]),
        np.array([0, 0, 1]),                          # length mismatch
    ],
    ids=lambda a: f"{a.dtype}{list(a.shape)}:{','.join(map(str, a.ravel().tolist()))}",
)
def test_support_structure_matches_oracle(labels):
    x = np.zeros((4, 3))
    assert _outcome(support_structure, x, labels) == _outcome(support_structure_oracle, x, labels)


@pytest.mark.parametrize(
    "fit",
    [support_structure, compute_prototypes, qda_fit, rectified_proto_predict],
    ids=lambda f: f.__name__,
)
def test_column_labels_are_refused(fit):
    # the oracle flattens a column of labels; the label sort would not, so
    # every class statistic would come from the first support row
    x = np.arange(8.0).reshape(4, 2)
    y = np.array([[0], [0], [1], [1]])
    args = (x, y, x) if fit is rectified_proto_predict else (x, y)
    with pytest.raises(EpisodeFormatError, match="inconsistent"):
        fit(*args)


#: each head's result, as arrays, from support rows, labels and queries
HEAD_RESULTS = {
    "proto": lambda sx, sy, qx: proto_predict(compute_prototypes(sx, sy, "cosine"), qx),
    "qda": lambda sx, sy, qx: qda_log_density(qda_fit(sx, sy, shrinkage=0.3), qx),
    "linear": lambda sx, sy, qx: linear_head_fit(sx, sy, epochs=4, step_size=0.1).weights,
    "rect": rectified_proto_predict,
    "ptmap": ptmap_fit_predict,
}


@pytest.mark.parametrize("head", sorted(HEAD_RESULTS))
@pytest.mark.parametrize("n", [2, 3])
def test_bool_and_float_labels_give_the_integer_label_result(head, n):
    """``support_structure`` accepts bool and float labels 0..N-1, so every
    head gives them the result of the integer labels, bit for bit."""
    sx, sy, qx, _ = make_episode(n=n, k=3, q=7, dim=4, seed=n, spread=1.0)
    order = np.random.default_rng(n).permutation(len(sy))
    sx, sy = sx[order], sy[order]
    want = HEAD_RESULTS[head](sx, sy, qx)
    kinds = [sy.astype(np.float64), sy.astype(np.float32)] + [sy.astype(bool)] * (n == 2)
    for labels in kinds:
        got = HEAD_RESULTS[head](sx, labels, qx)
        assert got.tobytes() == want.tobytes(), labels.dtype


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 8), min_size=0, max_size=12))
def test_support_structure_matches_oracle_on_random_labels(labels):
    y = np.asarray(labels, dtype=np.int64)
    x = np.zeros((len(y), 2))
    assert _outcome(support_structure, x, y) == _outcome(support_structure_oracle, x, y)


def _shuffled_support(seed, n, k, d, scale):
    gen = np.random.default_rng(seed)
    x = gen.normal(scale=scale, size=(n * k, d)) + gen.normal(size=(1, d)) * scale
    x[gen.random(x.shape) < 0.1] = -0.0
    y = np.repeat(np.arange(n), k)
    order = gen.permutation(n * k)
    return x[order], y[order]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    k=st.integers(1, 20),
    d=st.integers(1, 40),
    scale=st.sampled_from([1e-300, 1e-3, 1.0, 1e6, 1e300]),
)
@example(seed=0, n=3, k=9, d=1, scale=1.0)          # a reduction over one column
def test_class_means_bitwise_equal_oracle(seed, n, k, d, scale):
    x, y = _shuffled_support(seed, n, k, d, scale)
    with np.errstate(over="ignore"):
        want = class_means_oracle(x, y, n)
        assert compute_prototypes(x, y).centers.tobytes() == want.tobytes()
        assert (compute_prototypes(x, y, metric="cosine").centers.tobytes()
                == class_means_oracle(_unit_rows(x), y, n).tobytes())
    if scale in (1e-3, 1.0, 1e6):   # covariances neither underflow nor overflow
        assert qda_fit(x, y, shrinkage=0.5).means.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    k=st.integers(1, 8),
    d=st.integers(1, 8),
    shrinkage=st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)),
    spread=st.sampled_from([0.1, 1.0, 30.0]),
)
def test_qda_log_density_matches_triangular_solve_oracle(seed, n, k, d, shrinkage, spread):
    """Within 1e-10 of the per-class solves, relative to the density's size
    once that exceeds 1: singular covariances (shrinkage 0, K <= d) give
    densities near 1e20 whose rounding scales with them.  Labels agree
    wherever the oracle's top two classes are more than 1e-9 apart on the
    same scale."""
    gen = np.random.default_rng(seed)
    means = gen.normal(scale=spread, size=(n, d))
    sx = np.repeat(means, k, axis=0) + gen.normal(size=(n * k, d))
    sy = np.repeat(np.arange(n), k)
    order = gen.permutation(n * k)
    qx = means[gen.integers(0, n, size=25)] + gen.normal(scale=2.0, size=(25, d))
    try:
        model = qda_fit(sx[order], sy[order], shrinkage=shrinkage)
    except ConditioningError:
        return
    want = qda_log_density_oracle(model, qx)
    got = qda_log_density(model, qx)
    scale = np.maximum(1.0, np.abs(want))
    assert (np.abs(got - want) <= 1e-10 * scale).all()
    top2 = np.sort(want, axis=1)[:, -2:]
    clear = top2[:, 1] - top2[:, 0] > 1e-9 * scale.max(axis=1)
    assert np.array_equal(qda_predict(model, qx)[clear], np.argmax(want, axis=1)[clear])


def test_qda_whitening_inverts_the_cholesky_factor():
    sx, sy, _, _ = make_episode(n=4, k=6, seed=13)
    model = qda_fit(sx, sy, shrinkage=0.2)
    chol = np.linalg.cholesky(model.covariances)
    eye = np.broadcast_to(np.eye(sx.shape[1]), chol.shape)
    assert np.allclose(model.whitening @ chol, eye, rtol=0, atol=1e-12)


def test_qda_empty_query_gives_empty_densities():
    sx, sy, _, _ = make_episode(n=3, k=4)
    model = qda_fit(sx, sy)
    assert qda_log_density(model, np.zeros((0, sx.shape[1]))).shape == (0, 3)
    assert qda_predict(model, np.zeros((0, sx.shape[1]))).shape == (0,)


@pytest.mark.parametrize("head", [
    lambda sx, sy, qx: proto_labels(compute_prototypes(sx, sy), qx),
    lambda sx, sy, qx: proto_predict(compute_prototypes(sx, sy), qx),
    lambda sx, sy, qx: qda_predict(qda_fit(sx, sy), qx),
    lambda sx, sy, qx: qda_log_density(qda_fit(sx, sy), qx),
    lambda sx, sy, qx: ptmap_fit_predict(sx, sy, qx),
    lambda sx, sy, qx: rectified_proto_predict(sx, sy, qx),
], ids=["proto_labels", "proto_predict", "qda_predict", "qda_log_density", "ptmap", "rect"])
def test_empty_query_of_the_wrong_width_is_a_shape_error(head):
    sx, sy, _, _ = make_episode(n=3, k=4)
    assert sx.shape[1] != 2
    with pytest.raises(ShapeError):
        head(sx, sy, np.zeros((0, 2)))
    assert len(head(sx, sy, np.zeros((0, sx.shape[1])))) == 0


# ---------------------------------------------------------------------------
# Blocks of episodes


def _same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape \
        and got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    k=st.integers(1, 4),
    q=st.integers(1, 40),
    dim=st.integers(1, 19),
    episodes=st.integers(1, 7),
)
def test_block_of_episodes_is_each_episode_alone(seed, n, k, q, dim, episodes):
    """Each head given E stacked episodes returns, for episode e, exactly
    what its 2-d call on episode e returns.  Odd widths and counts put the
    episodes' rows at every alignment inside the block."""
    gen = np.random.default_rng(seed)
    sy = gen.permutation(np.repeat(np.arange(n), k))
    sx = gen.normal(size=(episodes, n * k, dim)) + 2.0 * sy[:, None]
    qx = gen.normal(size=(episodes, q, dim)) + 2.0 * gen.integers(0, n, size=(q, 1))
    heads = {
        "prototypes": lambda s, x: compute_prototypes(s, sy).centers,
        "cosine prototypes": lambda s, x: compute_prototypes(s, sy, "cosine").centers,
        "proto_predict": lambda s, x: proto_predict(compute_prototypes(s, sy), x),
        "proto_labels": lambda s, x: proto_labels(compute_prototypes(s, sy, "cosine"), x),
        "qda_log_density": lambda s, x: qda_log_density(qda_fit(s, sy, 0.4), x),
        "qda_predict": lambda s, x: qda_predict(qda_fit(s, sy, 0.7), x),
        "qda whitening": lambda s, x: qda_fit(s, sy).whitening,
        "rect": lambda s, x: rectified_proto_predict(s, sy, x),
        "cosine rect": lambda s, x: rectified_proto_predict(s, sy, x, "cosine"),
        "power_transform": lambda s, x: power_transform(np.concatenate([s, x], axis=-2)),
        "ptmap": lambda s, x: ptmap_fit_predict(s, sy, x, n_iters=4),
        "linear": lambda s, x: linear_head_predict(linear_head_fit(s, sy, 4, 0.1), x),
    }
    for name, head in heads.items():
        block = head(sx, qx)
        for e in range(episodes):
            assert _same(block[e], head(sx[e], qx[e])), name


def linear_head_fit_oracle(x, y, epochs, step_size):
    """One episode's Adam loop written out with fancy indexing: the
    arithmetic that each head of a block must reproduce bit for bit."""
    n, rows = y.max() + 1, np.arange(len(y))
    w, b = np.zeros((n, x.shape[1])), np.zeros(n)
    m_w, v_w, m_b, v_b = np.zeros_like(w), np.zeros_like(w), np.zeros(n), np.zeros(n)
    losses = []
    for t in range(1, epochs + 1):
        logits = x @ w.T + b
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        losses.append(float(-log_probs[rows, y].mean()))
        dz = np.exp(log_probs)
        dz[rows, y] -= 1.0
        dz /= len(y)
        g_w, g_b = dz.T @ x, dz.sum(axis=0)
        m_w = 0.9 * m_w + (1 - 0.9) * g_w
        v_w = 0.999 * v_w + (1 - 0.999) * g_w ** 2
        m_b = 0.9 * m_b + (1 - 0.9) * g_b
        v_b = 0.999 * v_b + (1 - 0.999) * g_b ** 2
        scale = step_size * np.sqrt(1 - 0.999 ** t) / (1 - 0.9 ** t)
        w = w - scale * m_w / (np.sqrt(v_w) + 1e-8)
        b = b - scale * m_b / (np.sqrt(v_b) + 1e-8)
    return w, b, tuple(losses)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 6),
    k=st.integers(1, 4),
    dim=st.integers(1, 19),
    episodes=st.integers(1, 7),
    epochs=st.integers(1, 12),
    step_size=st.floats(1e-4, 1.0),
    spread=st.floats(0.1, 100.0),
)
def test_stacked_linear_head_is_each_head_alone(seed, n, k, dim, episodes, epochs,
                                                step_size, spread):
    """The logistic heads of E stacked episodes, trained at once, hold the
    weights, bias and per-epoch losses of each head trained alone, and of
    the written-out oracle, bit for bit; so do the stacked loss and
    gradients."""
    gen = np.random.default_rng(seed)
    sy = gen.permutation(np.repeat(np.arange(n), k))
    sx = spread * gen.normal(size=(episodes, n * k, dim)) + sy[:, None]
    block = linear_head_fit(sx, sy, epochs, step_size)
    losses = np.array(block.loss_history)
    assert losses.shape == (epochs, episodes)
    grads = linear_loss_and_grad(block.weights, block.bias, sx, sy)
    for e in range(episodes):
        alone = linear_head_fit(sx[e], sy, epochs, step_size)
        assert all(type(loss) is float for loss in alone.loss_history)
        w, b, oracle_losses = linear_head_fit_oracle(sx[e], sy, epochs, step_size)
        assert _same(alone.weights, w) and _same(alone.bias, b)
        assert _same(alone.loss_history, oracle_losses)
        assert _same(block.weights[e], alone.weights)
        assert _same(block.bias[e], alone.bias)
        assert _same(losses[:, e], alone.loss_history)
        loss, g_w, g_b = linear_loss_and_grad(alone.weights, alone.bias, sx[e], sy)
        assert type(loss) is float and _same(grads[0][e], loss)
        assert _same(grads[1][e], g_w) and _same(grads[2][e], g_b)


def test_linear_loss_refuses_labels_outside_the_head():
    w, b, x = np.zeros((3, 2)), np.zeros(3), np.ones((4, 2))
    for y in ([0, 1, 2, 3], [0, -1, 2, 1], [0.0, 1.0, 2.0, 1.0]):
        with pytest.raises(EpisodeFormatError, match=r"integers in \[0, 3\)"):
            linear_loss_and_grad(w, b, x, np.array(y))


def one_hot_xent(logits, y):
    """The cross-entropy that fo-MAML carried before the shared core: the
    softmax less an (E, S, N) one-hot, the loss summed and divided."""
    tasks, rows, n_way = logits.shape
    shifted = logits - np.maximum.reduce(logits, axis=2, keepdims=True)
    log_probs = shifted - np.log(np.add.reduce(np.exp(shifted), axis=2, keepdims=True))
    picks = np.arange(0, logits.size, n_way).reshape(tasks, rows) + y
    onehot = np.zeros(logits.shape)
    onehot.reshape(-1)[picks] = 1.0
    loss = -(np.add.reduce(log_probs.take(picks), axis=1) / rows)
    grad = np.exp(log_probs)
    grad -= onehot
    grad /= rows
    return loss, grad


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    tasks=st.integers(1, 4),
    rows=st.integers(1, 9),
    n_way=st.integers(2, 6),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 700.0]),
    shared=st.booleans(),
)
def test_softmax_xent_matches_one_hot_and_scipy(seed, tasks, rows, n_way, scale, shared):
    """Labels ``(S,)`` shared by every task or ``(E, S)``: bit for bit the
    one-hot formula, and to rounding ``scipy.special.log_softmax``."""
    gen = np.random.default_rng(seed)
    logits = scale * gen.normal(size=(tasks, rows, n_way))
    y = gen.integers(0, n_way, size=rows if shared else (tasks, rows))
    loss, grad = softmax_xent(logits, label_picks(y, logits.shape))
    want_loss, want_grad = one_hot_xent(logits, y)
    assert _same(loss, want_loss) and _same(grad, want_grad)

    log_probs = special.log_softmax(logits, axis=-1)
    labels = np.broadcast_to(y, (tasks, rows))
    true = np.take_along_axis(log_probs, labels[..., None], axis=-1)[..., 0]
    np.testing.assert_allclose(loss, -true.mean(axis=-1), rtol=1e-12,
                               atol=1e-12 * (1.0 + scale))
    onehot = labels[..., None] == np.arange(n_way)
    np.testing.assert_allclose(grad, (np.exp(log_probs) - onehot) / rows,
                               rtol=1e-9, atol=1e-15)


def test_check_labels_is_one_rule_for_both_softmax_methods():
    for y in ([True, False], np.array([1, 0], dtype=np.uint64), [1, 0]):
        labels = check_labels(y, 2)
        assert labels.dtype == np.int64 and labels.tolist() == [1, 0]
    for y in ([0, 2], [-1, 0], [0.0, 1.0]):
        with pytest.raises(EpisodeFormatError,
                           match=r"^labels must be integers in \[0, 2\), got "):
            check_labels(np.array(y), 2)


def test_block_query_must_match_the_support_episodes():
    sx, sy, qx, _ = make_episode()
    with pytest.raises(ShapeError, match="over 2 episodes"):
        proto_labels(compute_prototypes(np.stack([sx, sx]), sy), np.stack([qx] * 3))
    with pytest.raises(ShapeError):
        ptmap_fit_predict(np.stack([sx, sx]), sy, qx)
    with pytest.raises(ShapeError):
        qda_predict(qda_fit(sx, sy), np.stack([qx]))
    with pytest.raises(EpisodeFormatError, match="inconsistent"):
        support_structure(np.stack([sx, sx]), np.stack([sy, sy]))
