"""Entropic optimal transport: oracle equivalence and iteration behavior.

The production solver iterates scaling vectors against a kernel that holds
the log potentials, and folds the vectors back into the potentials by a
log-domain sweep whenever they leave a safe range (stabilized scaling).
Two oracles pin it down:

* probability-domain diagonal scaling run to near machine precision, a
  deliberately different implementation, so agreement pins the fixed
  point, not the code path;
* the plain log-domain solver the stabilized one replaced, run with the
  same stopping rule, so agreement pins the iterates, the stopping
  decision and the behavior at small ``reg`` where naive scaling fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewbench import heads
from fewbench.errors import ArgumentError, ShapeError
from fewbench.heads import SinkhornConfig, TransportPlan, sinkhorn
from fewbench.pipeline import load_config, load_split
from fewbench.sampler import EpisodeSpec, episode_stream


def scaling_oracle(cost, a, b, reg, sweeps=20000, stop=1e-15):
    """Reference fixed point by explicit u/v diagonal scaling.

    Mirrors the production solver's median normalization of the cost (the
    contract says reg applies to the normalized cost) but shares no other
    structure with it.
    """
    med = np.median(cost)
    kernel = np.exp(-(cost / med if med > 0 else cost) / reg)
    u = np.ones(len(a))
    v = np.ones(len(b))
    for _ in range(sweeps):
        u_new = a / (kernel @ v)
        v_new = b / (kernel.T @ u_new)
        delta = max(np.abs(u_new - u).max(), np.abs(v_new - v).max())
        u, v = u_new, v_new
        if delta < stop:
            break
    return u[:, None] * kernel * v[None, :]


def log_domain_oracle(cost, row_marginals, col_marginals, config=None,
                      init_potentials=None):
    """The plain log-domain Sinkhorn solver, one log-sum-exp per marginal
    per iteration, with the production stopping rule and plan contract."""
    config = config or SinkhornConfig()
    cost = np.asarray(cost, dtype=np.float64)
    a = np.asarray(row_marginals, dtype=np.float64)
    b = np.asarray(col_marginals, dtype=np.float64)
    med = float(np.median(cost))
    log_kernel = (cost / med if med > 0 else cost) * (-1.0 / config.reg)
    if init_potentials is not None:
        f = np.asarray(init_potentials[0], dtype=np.float64).copy()
        g = np.asarray(init_potentials[1], dtype=np.float64).copy()
    else:
        f = np.zeros(len(a))
        g = np.zeros(len(b))
    for it in range(1, config.max_iters + 1):
        m = log_kernel + g
        row_max = m.max(axis=1)
        f = np.log(a) - row_max - np.log(np.exp(m - row_max[:, None]).sum(axis=1))
        m = log_kernel + f[:, None]
        col_max = m.max(axis=0)
        g = np.log(b) - col_max - np.log(np.exp(m - col_max[None, :]).sum(axis=0))
        plan = np.exp(m + g[None, :])
        err = float(np.abs(plan.sum(axis=1) - a).max())
        if err <= config.tol:
            break
    return TransportPlan(
        matrix=plan, row_marginals=a, col_marginals=b, iterations=it,
        marginal_error=err, converged=err <= config.tol, log_potentials=(f, g),
    )


def random_problem(gen, rows=10, cols=5):
    cost = gen.uniform(0.1, 3.0, size=(rows, cols))
    a = np.full(rows, 1.0 / rows)
    b = np.full(cols, 1.0 / cols)
    return cost, a, b


def test_frozen_two_by_two_plan():
    """Symmetric 2x2 case solved analytically.

    cost [[0,1],[1,0]], uniform marginals, reg=1: after normalization by
    the median (0.5) the kernel is [[1,e^-2],[e^-2,1]] and symmetry gives
    diagonal 0.5/(1+e^-2), off-diagonal 0.5 e^-2/(1+e^-2).
    """
    plan = sinkhorn(
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        np.array([0.5, 0.5]),
        np.array([0.5, 0.5]),
        SinkhornConfig(reg=1.0, max_iters=2000, tol=1e-14),
    )
    diag = 0.44039853898894116
    off = 0.05960146101105877
    expected = np.array([[diag, off], [off, diag]])
    assert np.allclose(plan.matrix, expected, rtol=0, atol=1e-12)
    assert plan.converged


def test_matches_scaling_oracle():
    gen = np.random.default_rng(0)
    cfg = SinkhornConfig(reg=0.3, max_iters=5000, tol=1e-13)
    for _ in range(25):
        cost, a, b = random_problem(gen)
        plan = sinkhorn(cost, a, b, cfg)
        oracle = scaling_oracle(cost, a, b, reg=0.3)
        assert np.max(np.abs(plan.matrix - oracle)) < 1e-9


def test_matches_oracle_with_nonuniform_marginals():
    gen = np.random.default_rng(1)
    cfg = SinkhornConfig(reg=0.5, max_iters=5000, tol=1e-13)
    for _ in range(10):
        cost = gen.uniform(0.1, 2.0, size=(8, 6))
        a = gen.uniform(0.2, 1.0, size=8)
        a /= a.sum()
        b = gen.uniform(0.2, 1.0, size=6)
        b /= b.sum()
        plan = sinkhorn(cost, a, b, cfg)
        oracle = scaling_oracle(cost, a, b, reg=0.5)
        assert np.max(np.abs(plan.matrix - oracle)) < 1e-9
        assert np.max(np.abs(plan.matrix.sum(axis=1) - a)) < 1e-12
        assert np.max(np.abs(plan.matrix.sum(axis=0) - b)) < 1e-12


def test_column_marginals_exact_rows_carry_error():
    """The iteration ends on a column update, so columns match to machine
    precision at any stopping point; the row deviation is the reported
    marginal error."""
    gen = np.random.default_rng(2)
    cost, a, b = random_problem(gen)
    plan = sinkhorn(cost, a, b, SinkhornConfig(reg=0.1, max_iters=3, tol=1e-16))
    assert not plan.converged
    assert np.max(np.abs(plan.matrix.sum(axis=0) - b)) < 1e-15
    row_err = np.max(np.abs(plan.matrix.sum(axis=1) - a))
    assert plan.marginal_error == pytest.approx(row_err, abs=0)
    assert plan.iterations == 3


def test_marginal_error_decreases_with_iterations():
    gen = np.random.default_rng(3)
    cost, a, b = random_problem(gen)
    # tol at the smallest subnormal float: the loop always runs to max_iters
    errs = [
        sinkhorn(cost, a, b,
                 SinkhornConfig(reg=0.1, max_iters=k, tol=5e-324)).marginal_error
        for k in range(1, 12)
    ]
    for earlier, later in zip(errs, errs[1:]):
        assert later <= earlier * (1 + 1e-12)


def test_warm_start_reaches_same_plan_faster():
    gen = np.random.default_rng(4)
    cost, a, b = random_problem(gen)
    cfg = SinkhornConfig(reg=0.2, max_iters=5000, tol=1e-12)
    cold = sinkhorn(cost, a, b, cfg)
    warm = sinkhorn(cost, a, b, cfg, init_potentials=cold.log_potentials)
    assert warm.iterations <= cold.iterations
    assert warm.iterations == 1
    assert np.max(np.abs(warm.matrix - cold.matrix)) < 1e-11


def test_warm_start_from_neighbor_problem():
    """Warm-starting from a perturbed problem's potentials must not change
    the answer (unique fixed point), only the arrival speed."""
    gen = np.random.default_rng(5)
    cost, a, b = random_problem(gen)
    cfg = SinkhornConfig(reg=0.2, max_iters=5000, tol=1e-12)
    near = sinkhorn(cost + gen.uniform(0, 0.05, size=cost.shape), a, b, cfg)
    cold = sinkhorn(cost, a, b, cfg)
    warm = sinkhorn(cost, a, b, cfg, init_potentials=near.log_potentials)
    assert np.max(np.abs(warm.matrix - cold.matrix)) < 1e-10
    assert warm.iterations <= cold.iterations


def test_median_normalization_makes_plan_scale_invariant():
    gen = np.random.default_rng(6)
    cost, a, b = random_problem(gen)
    cfg = SinkhornConfig(reg=0.1, max_iters=500, tol=1e-10)
    p1 = sinkhorn(cost, a, b, cfg)
    # power-of-two scaling is exact in floating point: bitwise-equal plans
    p2 = sinkhorn(cost * 32.0, a, b, cfg)
    assert np.array_equal(p1.matrix, p2.matrix)
    # arbitrary scaling agrees up to rounding in the normalization itself
    p3 = sinkhorn(cost * 37.5, a, b, cfg)
    assert np.allclose(p1.matrix, p3.matrix, rtol=0, atol=1e-12)


def test_all_zero_cost_gives_product_plan():
    a = np.array([0.3, 0.7])
    b = np.array([0.5, 0.25, 0.25])
    plan = sinkhorn(np.zeros((2, 3)), a, b, SinkhornConfig(reg=0.5, max_iters=50,
                                                           tol=1e-12))
    assert np.allclose(plan.matrix, np.outer(a, b), atol=1e-12)


def test_input_validation():
    cost = np.ones((3, 2))
    a3 = np.full(3, 1 / 3)
    b2 = np.full(2, 1 / 2)
    with pytest.raises(ShapeError):
        sinkhorn(np.ones(3), a3, b2)
    with pytest.raises(ShapeError):
        sinkhorn(cost, np.full(2, 0.5), b2)
    with pytest.raises(ArgumentError):
        sinkhorn(cost, np.array([0.5, 0.4, 0.2]), b2)   # sums to 1.1
    with pytest.raises(ArgumentError):
        sinkhorn(cost, np.array([-0.1, 0.6, 0.5]), b2)  # negative mass
    with pytest.raises(ArgumentError):
        sinkhorn(cost, np.array([np.nan, 0.5, 0.5]), b2)  # NaN mass
    with pytest.raises(ArgumentError):
        sinkhorn(cost, a3, np.array([0.5, np.nan]))
    with pytest.raises(ArgumentError):
        sinkhorn(np.array([[np.inf, 1], [1, 1], [1, 1]]), a3, b2)
    with pytest.raises(ArgumentError):
        sinkhorn(cost, a3, b2, SinkhornConfig(reg=0.0))
    with pytest.raises(ArgumentError):
        sinkhorn(cost, a3, b2, SinkhornConfig(max_iters=0))
    with pytest.raises(ArgumentError):
        sinkhorn(cost, a3, b2, SinkhornConfig(tol=0.0))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    rows=st.integers(min_value=2, max_value=12),
    cols=st.integers(min_value=2, max_value=6),
    reg=st.floats(min_value=0.1, max_value=2.0),
)
def test_converged_plans_satisfy_both_marginals(seed, rows, cols, reg):
    gen = np.random.default_rng(seed)
    cost = gen.uniform(0.05, 4.0, size=(rows, cols))
    a = gen.uniform(0.1, 1.0, size=rows)
    a /= a.sum()
    b = gen.uniform(0.1, 1.0, size=cols)
    b /= b.sum()
    plan = sinkhorn(cost, a, b, SinkhornConfig(reg=reg, max_iters=20000, tol=1e-10))
    assert plan.converged
    assert np.max(np.abs(plan.matrix.sum(axis=1) - a)) <= 1e-10
    assert np.max(np.abs(plan.matrix.sum(axis=0) - b)) < 1e-12
    assert (plan.matrix >= 0).all()


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    size=st.integers(min_value=1, max_value=500),
    round_to=st.sampled_from([None, 1, 0]),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_median_is_bitwise_numpy_median(seed, size, round_to, sign):
    """The solver normalizes by a one-partition median; it must equal
    ``np.median`` bit for bit (ties and signed zeros included), or a plan
    changes."""
    gen = np.random.default_rng(seed)
    x = sign * gen.standard_normal(size) * 10.0 ** gen.uniform(-5, 5, size)
    if round_to is not None:
        x = np.round(x, round_to)   # ties, and zeros of either sign
    got = np.float64(heads._median(x.reshape(1, -1)))
    assert got.tobytes() == np.float64(np.median(x)).tobytes()


def outlier_problem(seed, rows, cols, far_row, far_col):
    """Random costs with, optionally, one row and one column pushed far
    from the rest, so that at small reg their kernel entries underflow."""
    gen = np.random.default_rng(seed)
    cost = gen.uniform(0.05, 4.0, size=(rows, cols))
    if far_row:
        cost[gen.integers(rows)] += gen.uniform(10.0, 100.0)
    if far_col:
        cost[:, gen.integers(cols)] += gen.uniform(10.0, 100.0)
    a = gen.uniform(0.1, 1.0, size=rows)
    b = gen.uniform(0.1, 1.0, size=cols)
    return cost, a / a.sum(), b / b.sum(), gen


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    rows=st.integers(min_value=2, max_value=95),
    cols=st.integers(min_value=2, max_value=5),
    far_row=st.booleans(),
    far_col=st.booleans(),
    log_reg=st.floats(min_value=np.log(1e-3), max_value=np.log(2.0)),
    log10_tol=st.floats(min_value=-10.0, max_value=-4.0),
    max_iters=st.integers(min_value=1, max_value=1500),
    warm=st.booleans(),
)
def test_matches_log_domain_oracle(seed, rows, cols, far_row, far_col, log_reg,
                                   log10_tol, max_iters, warm):
    cost, a, b, gen = outlier_problem(seed, rows, cols, far_row, far_col)
    cfg = SinkhornConfig(reg=float(np.exp(log_reg)), max_iters=max_iters,
                         tol=10.0 ** log10_tol)
    init = None
    if warm:
        # potentials of a perturbed problem, as PT-MAP passes between updates
        near = cost + gen.uniform(0.0, 0.3, size=cost.shape)
        init = log_domain_oracle(near, a, b, SinkhornConfig(
            reg=cfg.reg, max_iters=50, tol=1e-6)).log_potentials
    with np.errstate(all="ignore"):
        expected = log_domain_oracle(cost, a, b, cfg, init_potentials=init)
    plan = sinkhorn(cost, a, b, cfg, init_potentials=init)  # must not raise
    assert plan.converged == expected.converged
    assert np.max(np.abs(plan.matrix - expected.matrix)) <= 1e-9
    assert plan.matrix.shape == (rows, cols)
    assert np.max(np.abs(plan.matrix.sum(axis=0) - b)) < 1e-12
    # the returned potentials reproduce the plan, so they warm-start exactly
    f, g = plan.log_potentials
    log_kernel = -(cost / np.median(cost)) / cfg.reg
    with np.errstate(under="ignore"):
        rebuilt = np.exp(log_kernel + f[:, None] + g[None, :])
    assert np.max(np.abs(rebuilt - plan.matrix)) <= 1e-12


def test_small_reg_with_outlier_row_converges():
    """At reg=0.01 the far row's kernel entries underflow to zero, which
    stops plain scaling; absorbing into the log potentials carries on."""
    cost, a, b, _ = outlier_problem(7, 95, 5, far_row=True, far_col=True)
    cfg = SinkhornConfig(reg=0.01, max_iters=5000, tol=1e-9)
    assert (np.exp(-cost / np.median(cost) / cfg.reg) == 0.0).all(axis=1).any()
    plan = sinkhorn(cost, a, b, cfg)
    expected = log_domain_oracle(cost, a, b, cfg)
    assert plan.converged and expected.converged
    assert plan.iterations == expected.iterations
    assert np.max(np.abs(plan.matrix - expected.matrix)) <= 1e-9


def log_domain_block_oracle(cost, a, b, config, init_potentials=None):
    """``heads._sinkhorn_block``'s contract, one log-domain oracle solve
    per problem of the block."""
    plans = [log_domain_oracle(c, a, b, config, None if init_potentials is None
                               else (init_potentials[0][e], init_potentials[1][e]))
             for e, c in enumerate(cost)]
    return (np.stack([p.matrix for p in plans]),
            np.stack([p.log_potentials[0] for p in plans]),
            np.stack([p.log_potentials[1] for p in plans]),
            np.array([p.iterations for p in plans]),
            np.array([p.marginal_error for p in plans]))


def test_ptmap_labels_match_log_domain_oracle(monkeypatch):
    """PT-MAP on 20 default-preset episodes gives the same labels, and the
    same iteration count per Sinkhorn solve, with the oracle patched in.
    One block of all 20 episodes gives each episode the same labels and
    the same iteration counts again."""
    split = load_split(load_config({}))
    episodes = list(episode_stream(
        split.meta_test, EpisodeSpec(n_way=5, k_shot=1), 20, seed=5
    ))

    def run(solver, block=False):
        iterations = []

        def counted(*args, **kwargs):
            out = solver(*args, **kwargs)
            iterations.append(out[3].tolist())
            return out

        monkeypatch.setattr(heads, "_sinkhorn_block", counted)
        if block:
            labels = heads.ptmap_fit_predict(
                np.stack([ep.support_x for ep in episodes]), episodes[0].support_y,
                np.stack([ep.query_x for ep in episodes]))
        else:
            labels = [heads.ptmap_fit_predict(ep.support_x, ep.support_y, ep.query_x)
                      for ep in episodes]
        return labels, iterations

    solver = heads._sinkhorn_block
    labels, iterations = run(solver)
    oracle_labels, oracle_iterations = run(log_domain_block_oracle)
    assert len(iterations) == 20 * 20
    assert iterations == oracle_iterations
    for got, want in zip(labels, oracle_labels):
        assert np.array_equal(got, want)

    block_labels, block_iterations = run(solver, block=True)
    assert len(block_iterations) == 20
    # solve i of episode e is entry e of the block's solve i
    assert [[it] for per_episode in zip(*block_iterations) for it in per_episode] \
        == iterations
    for got, want in zip(block_labels, labels):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("warm", [False, True])
def test_block_solver_gives_each_problem_its_serial_solve(warm, monkeypatch):
    """Every problem of a block gets its own serial solve bit for bit: the
    plan, the potentials and the iteration count.  The block mixes problems
    that stop at different iterations, run out of iterations, and absorb
    their scaling vectors (small reg with far rows and columns)."""
    gen = np.random.default_rng(8)
    rows, cols = 40, 5
    a = gen.uniform(0.1, 1.0, rows)
    b = gen.uniform(0.1, 1.0, cols)
    a, b = a / a.sum(), b / b.sum()
    costs = gen.uniform(0.05, 4.0, size=(12, rows, cols))
    for e in range(0, 12, 3):
        costs[e, gen.integers(rows)] += gen.uniform(10.0, 100.0)
    for e in range(0, 12, 4):
        costs[e, :, gen.integers(cols)] += gen.uniform(10.0, 100.0)
    cfg = SinkhornConfig(reg=0.01, max_iters=900, tol=1e-6)
    init = None
    if warm:
        near = [sinkhorn(c + gen.uniform(0.0, 0.3, c.shape), a, b, cfg) for c in costs]
        init = (np.stack([p.log_potentials[0] for p in near]),
                np.stack([p.log_potentials[1] for p in near]))
    sweeps = []
    log_sweep = heads._log_sweep
    monkeypatch.setattr(heads, "_log_sweep",
                        lambda *args: sweeps.append(1) or log_sweep(*args))
    given = None if init is None else tuple(x.copy() for x in init)
    plan, f, g, iterations, err = heads._sinkhorn_block(costs, a, b, cfg, init)
    assert sweeps, "no problem absorbed its scaling vectors"
    if warm:   # the warm start is read, never written
        assert all(np.array_equal(x, y) for x, y in zip(init, given))
    assert 900 in iterations and len(set(iterations.tolist())) > 2

    serial = [sinkhorn(c, a, b, cfg, None if init is None else (init[0][e], init[1][e]))
              for e, c in enumerate(costs)]
    assert iterations.tolist() == [p.iterations for p in serial]
    for e, p in enumerate(serial):
        assert plan[e].tobytes() == p.matrix.tobytes()
        assert f[e].tobytes() == p.log_potentials[0].tobytes()
        assert g[e].tobytes() == p.log_potentials[1].tobytes()
        assert err[e] == p.marginal_error
