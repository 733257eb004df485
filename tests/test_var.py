import dataclasses
import math
import re

import numpy as np
import pytest

from driftless.errors import FitError, InputError, SimulationError
from driftless.market import read_json, write_json
from driftless.surface import DlvGrid, prices_from_dlv_batch
from driftless.var_model import (
    DESK_DLV_LEVELS,
    DT,
    MAX_RETRIES,
    SIGMA_MAX,
    SPOT_VOL,
    VarParams,
    _BLOCK_PATHS,
    desk_grid,
    desk_params,
    fit_var,
    iterate_var,
    read_history_csv,
    simulate,
    stationary_init,
    step_normals,
)

from oracles import synthetic_history, write_history_csv


def oscillator_params():
    """d=2 params whose noiseless recursion is two undamped oscillations at
    distinct frequencies; the orbit excites all five regressor directions."""
    theta1, theta2 = 0.7, 1.3
    m1 = np.diag([2 * np.cos(theta1), 2 * np.cos(theta2)])
    m2 = -np.eye(2)
    a1 = -m1 / DT
    a2 = -m2 / DT
    b = np.array([0.02, -0.01]) / DT
    return VarParams(a1=a1, a2=a2, b=b, chol=np.eye(2) * 1e-8)


class TestFitVar:
    def test_noiseless_exact_recovery(self):
        p = oscillator_params()
        init = (np.array([0.4, -0.2]), np.array([-0.1, 0.5]))
        ys = iterate_var(p, init, np.zeros((1, 400, 2)))[0]
        history = np.vstack([init[0], init[1], ys])
        fitted, _ = fit_var(history)
        assert np.allclose(fitted.a1, p.a1, atol=1e-8)
        assert np.allclose(fitted.a2, p.a2, atol=1e-8)
        assert np.allclose(fitted.b, p.b, atol=1e-8)

    def test_coverage_d4(self):
        # 3-standard-error coverage of every coefficient over many seeds
        rng_master = np.random.default_rng(100)
        d = 4
        a1 = -np.eye(d) * 0.9 / DT
        a2 = -np.eye(d) * 0.05 / DT
        b = rng_master.normal(size=d) / DT * 0.01
        chol = np.linalg.cholesky(
            0.04 * (np.eye(d) * 0.8 + 0.2 * np.ones((d, d)))
        )
        true = VarParams(a1=a1, a2=a2, b=b, chol=chol)
        n_seeds = 100
        hits = np.zeros(3)
        totals = np.zeros(3)
        for s in range(n_seeds):
            hist = synthetic_history(true, 10_000, seed=s)
            f, se = fit_var(hist)
            for k, (est, tru, name) in enumerate([(f.b, b, "b"), (f.a1, a1, "a1"),
                                                  (f.a2, a2, "a2")]):
                ok = np.abs(est - tru) <= 3 * se[name]
                hits[k] += ok.sum()
                totals[k] += ok.size
        coverage = hits / totals
        assert np.all(coverage >= 0.99)

    def test_constant_history_rank_deficient(self):
        with pytest.raises(FitError):
            fit_var(np.ones((100, 3)))

    def test_short_history_rejected(self):
        with pytest.raises(FitError):
            fit_var(np.zeros((10, 3)))

    def test_non_finite_rejected(self):
        h = np.zeros((200, 2))
        h[5, 1] = np.nan
        with pytest.raises(FitError):
            fit_var(h)

    @pytest.mark.parametrize("shape", [(200,), (200, 0)], ids=["1d", "no_y_columns"])
    def test_bad_shape_rejected(self, shape):
        with pytest.raises(FitError, match="2-d array"):
            fit_var(np.zeros(shape))


def fresh_step_normals(seed, path, step, dim, retry=0):
    """Reference for ``step_normals``: a new Philox and Generator per draw."""
    bg = np.random.Philox(
        key=np.array([seed & 0xFFFFFFFFFFFFFFFF, retry], dtype=np.uint64),
        counter=np.array([0, 0, path, step], dtype=np.uint64),
    )
    return np.random.Generator(bg).standard_normal(dim)


class TestStepNormals:
    def test_matches_fresh_construction(self):
        """The reset generator draws what a fresh one per key draws, with
        keys interleaved so each call follows a different stream."""
        rng = np.random.default_rng(3)
        keys = [(-7, 0), (7, 0), (-7, 3), (2029, 100), (-(2**62) - 1, 1)]
        for n in range(400):
            seed, retry = keys[n % len(keys)]
            path, step = int(rng.integers(0, 10**6)), int(rng.integers(0, 200))
            dim = int(rng.integers(1, 41))
            got = step_normals(seed, path, step, dim, retry)
            assert np.array_equal(got, fresh_step_normals(seed, path, step, dim, retry))
        # a draw longer than one Philox block, then a short one on a new key
        assert np.array_equal(step_normals(-1, 9, 2, 37, 5), fresh_step_normals(-1, 9, 2, 37, 5))
        assert np.array_equal(step_normals(-1, 9, 2, 1, 6), fresh_step_normals(-1, 9, 2, 1, 6))

    def test_deterministic_per_key(self):
        a = step_normals(7, path=3, step=5, dim=4)
        b = step_normals(7, path=3, step=5, dim=4)
        assert np.array_equal(a, b)

    def test_distinct_across_paths_steps_retries(self):
        base = step_normals(7, 3, 5, 4)
        assert not np.array_equal(base, step_normals(7, 4, 5, 4))
        assert not np.array_equal(base, step_normals(7, 3, 6, 4))
        assert not np.array_equal(base, step_normals(7, 3, 5, 4, retry=1))

    def test_moment_match(self):
        # sqrt(dt) chol g must reproduce Sigma dt in mean and covariance
        d = 3
        cov = 0.1 * (np.eye(d) * 0.7 + 0.3)
        chol = np.linalg.cholesky(cov)
        n = 100_000
        g = np.vstack([step_normals(11, p, 0, d) for p in range(n)])
        z = np.sqrt(DT) * g @ chol.T
        target = cov * DT
        sample_cov = np.cov(z.T, ddof=1)
        # 4-standard-error bands for mean and covariance entries
        se_mean = np.sqrt(np.diag(target) / n)
        assert np.all(np.abs(z.mean(axis=0)) <= 4 * se_mean)
        for i in range(d):
            for j in range(d):
                se = np.sqrt(
                    (target[i, i] * target[j, j] + target[i, j] ** 2) / n
                )
                assert abs(sample_cov[i, j] - target[i, j]) <= 4 * se


class TestStationaryInit:
    def test_desk_init_unchanged(self):
        """On the diagonal desk parametrization the linear solve gives the
        per-equation stationary mean bit for bit."""
        p = desk_params(desk_grid())
        y = np.zeros(p.dim)
        y[1:] = p.b[1:] * DT / (1.0 + (np.diag(p.a1)[1:] + np.diag(p.a2)[1:]) * DT)
        for seed_vector in stationary_init(p):
            assert seed_vector.tobytes() == y.tobytes()


class TestDeskCalibration:
    def test_atm_prices_match_black_scholes(self):
        """Each maturity row's ATM call under DESK_DLV_LEVELS is the
        Black-Scholes ATM call at SPOT_VOL (S = K = 1, zero rates)."""
        grid = desk_grid()
        sigma = np.repeat(np.asarray(DESK_DLV_LEVELS)[:, None], grid.n_strikes, axis=1)
        prices = prices_from_dlv_batch(grid, sigma)
        i_atm = 1 + grid.strikes.index(1.0)
        for j, tau in enumerate(grid.maturities):
            # N(d) - N(-d) = erf(d / sqrt 2) with d = SPOT_VOL sqrt(tau) / 2
            bs_atm = math.erf(0.5 * SPOT_VOL * math.sqrt(tau / 2.0))
            assert abs(prices[j + 1, i_atm] - bs_atm) <= 1e-9

    def test_foreign_grid_raises(self):
        """DESK_DLV_LEVELS hold for desk_grid() only: any other grid, such
        as one node with boundaries 1% from spot at a 5-year maturity, is
        an InputError rather than a market on the wrong levels."""
        grid = DlvGrid(strikes=(1.0,), maturities=(5.0,), boundary_lo=0.99, boundary_hi=1.01)
        with pytest.raises(InputError, match=r"desk_params needs desk_grid\(\)"):
            desk_params(grid)


class TestDeskParams:
    @pytest.mark.parametrize("value", [-0.02, float("nan"), float("inf"), "0.02"],
                             ids=["negative", "nan", "inf", "string"])
    def test_bad_vol_of_vol_refused(self, value):
        """A negative vol_of_vol would flip the spot-vol correlation's sign
        in chol @ chol.T; it and a non-finite or non-numeric one raise
        InputError naming it."""
        with pytest.raises(InputError, match="vol_of_vol"):
            desk_params(desk_grid(), vol_of_vol=value)

    def test_zero_vol_of_vol_simulates(self):
        """vol_of_vol 0 gives a singular Sigma; the ridge in the Cholesky
        repair makes it a valid chol, on which simulate runs."""
        grid = desk_grid()
        p = desk_params(grid, vol_of_vol=0.0)
        b = simulate(p, stationary_init(p), 5, 3, seed=0, grid=grid)
        assert np.all(np.isfinite(b.prices))


class TestSimulate:
    def test_deterministic_given_seed(self):
        grid = desk_grid()
        p = desk_params(grid)
        init = stationary_init(p)
        b1 = simulate(p, init, 20, 5, seed=3, grid=grid)
        b2 = simulate(p, init, 20, 5, seed=3, grid=grid)
        assert np.array_equal(b1.spots, b2.spots)
        assert np.array_equal(b1.sigmas, b2.sigmas)
        assert np.array_equal(b1.prices, b2.prices)

    def test_zero_noise_paths_identical(self):
        grid = desk_grid()
        p = desk_params(grid)
        frozen = VarParams(a1=p.a1, a2=p.a2, b=p.b, chol=np.eye(p.dim) * 1e-300)
        init = stationary_init(p)
        b = simulate(frozen, init, 3, 4, seed=0, grid=grid)
        assert np.allclose(b.spots[0], b.spots[1])
        assert np.allclose(b.sigmas[0], b.sigmas[2])

    def test_states_valid(self):
        grid = desk_grid()
        p = desk_params(grid)
        b = simulate(p, stationary_init(p), 50, 5, seed=9, grid=grid)
        assert np.all(b.spots > 0)
        assert np.all(np.isfinite(b.prices))
        assert np.all(b.sigmas >= 0)
        # calendar monotonicity of every reconstructed grid
        assert np.all(np.diff(b.prices, axis=2) >= -1e-12)

    def test_vol_ceiling_exhausts_retries(self):
        grid = desk_grid()
        p = desk_params(grid)
        d = p.dim
        exploding = VarParams(
            a1=-np.eye(d) * 300.0 / DT * (1 / 252),
            a2=np.zeros((d, d)),
            b=np.full(d, 5000.0),
            chol=np.eye(d) * 1e-6,
        )
        init = stationary_init(p)
        # every path breaches; the error names the lowest-index one pending
        match = rf"^path 0: vol ceiling {SIGMA_MAX} still breached after {MAX_RETRIES} resamples$"
        with pytest.raises(SimulationError, match=match):
            simulate(exploding, init, 3, 10, seed=0, grid=grid)


def iterate_var_per_path(params, init, n_steps, noise):
    """Reference for ``iterate_var``: the recursion on one path, as a
    matrix-vector product per step.  ``noise`` is (n_steps, d)."""
    y_prev2, y_prev1 = np.asarray(init[0], float), np.asarray(init[1], float)
    out = np.empty((n_steps, params.dim))
    for r in range(n_steps):
        y = (params.b - params.a1 @ y_prev1 - params.a2 @ y_prev2) * DT + noise[r]
        out[r] = y
        y_prev2, y_prev1 = y_prev1, y
    return out


def _simulate_path_y(params, init, n_steps, seed, path, retry):
    d = params.dim
    g = np.stack(
        [step_normals(seed, path, r, d, retry) for r in range(n_steps)]
    )
    noise = np.sqrt(DT) * g @ params.chol.T
    return iterate_var_per_path(params, init, n_steps, noise)


def simulate_per_path(params, init, n_paths, n_steps, seed, grid):
    """Reference for ``simulate``: one path at a time, each redrawn with the
    next retry until its vols stay within the ceiling.  Returns spots,
    sigmas and the number of redraws."""
    m, n = grid.n_maturities, grid.n_strikes
    spots = np.empty((n_paths, n_steps + 1))
    sigmas = np.empty((n_paths, n_steps + 1, m, n))
    spots[:, 0] = 1.0
    sigmas[:, 0] = np.exp(np.asarray(init[1], float)[1:]).reshape(m, n)
    redraws = 0
    for p in range(n_paths):
        for retry in range(MAX_RETRIES + 1):
            ys = _simulate_path_y(params, init, n_steps, seed, p, retry)
            vols = np.exp(ys[:, 1:])
            if np.all(vols <= SIGMA_MAX):
                break
            redraws += 1
        else:
            raise AssertionError(f"path {p} exhausted its retries")
        spots[p, 1:] = np.cumprod(np.exp(ys[:, 0]))
        sigmas[p, 1:] = vols.reshape(n_steps, m, n)
    return spots, sigmas, redraws


class TestBatchedSimulate:
    """The batched retry rounds equal the per-path reference bit for bit."""

    def check(self, params, n_paths, seed):
        grid = desk_grid()
        init = stationary_init(params)
        bundle = simulate(params, init, n_paths, 10, seed=seed, grid=grid)
        spots, sigmas, redraws = simulate_per_path(params, init, n_paths, 10, seed, grid)
        assert bundle.spots.tobytes() == spots.tobytes()
        assert bundle.sigmas.tobytes() == sigmas.tobytes()
        return redraws

    def test_desk_more_than_one_block(self):
        n_paths = 2500
        assert n_paths > _BLOCK_PATHS and n_paths % _BLOCK_PATHS
        assert self.check(desk_params(desk_grid()), n_paths, seed=7) == 0

    def test_resampled_paths(self):
        # about 0.7% of the paths breach the ceiling at least once
        redraws = self.check(desk_params(desk_grid(), vol_of_vol=0.2), 3000, seed=7)
        assert redraws > 0

    def test_non_diagonal_params(self):
        # fitted coefficients are dense, so each product has many terms
        p = desk_params(desk_grid())
        fitted, _ = fit_var(synthetic_history(p, 4000, seed=1))
        assert np.count_nonzero(fitted.a1) == fitted.dim**2
        self.check(fitted, 300, seed=2029)

    def test_synthetic_history_is_one_path(self):
        p = desk_params(desk_grid())
        init = stationary_init(p)
        hist = synthetic_history(p, 500, seed=4)
        assert hist.tobytes() == _simulate_path_y(p, init, 500, 4, 0, 0).tobytes()


class TestFitSimulateConsistency:
    def test_long_path_recovery(self):
        grid = desk_grid()
        p = desk_params(grid)
        hist = synthetic_history(p, 100_000, seed=21)
        f, se = fit_var(hist)
        within = 0
        total = 0
        for est, tru, name in [(f.b, p.b, "b"), (f.a1, p.a1, "a1"), (f.a2, p.a2, "a2")]:
            ok = np.abs(est - tru) <= 3 * se[name]
            within += ok.sum()
            total += ok.size
        assert within / total >= 0.95


class TestHistoryCsv:
    def test_round_trip(self, tmp_path):
        grid = desk_grid()
        p = desk_params(grid)
        hist = synthetic_history(p, 200, seed=2)
        path = tmp_path / "hist.csv"
        write_history_csv(path, hist, grid)
        back = read_history_csv(path)
        assert np.array_equal(back, hist)
        header = path.read_text().splitlines()[0]
        assert header.startswith("r,dlogS,logdlv_1_1")

    def test_rows_placed_by_index(self, tmp_path):
        grid = desk_grid()
        hist = synthetic_history(desk_params(grid), 50, seed=3)
        path = tmp_path / "hist.csv"
        write_history_csv(path, hist, grid)
        header, *rows = path.read_text().splitlines()
        order = np.random.default_rng(0).permutation(len(rows))
        path.write_text("\n".join([header, *(rows[i] for i in order)]) + "\n")
        assert np.array_equal(read_history_csv(path), hist)


class TestVarParamsJson:
    def test_round_trip(self, tmp_path):
        p = desk_params(desk_grid())
        f = tmp_path / "params.json"
        write_json(f, p.to_dict())
        back = VarParams.from_dict(read_json(f))
        assert back.dim == p.dim
        assert np.array_equal(back.a1, p.a1)
        assert np.array_equal(back.chol, p.chol)

    def test_fitted_round_trip_bit_for_bit(self, tmp_path):
        """A fitted VarParams written and read back is the fitted object:
        every field, bit for bit, and nothing the file leaves out."""
        fitted, _ = fit_var(synthetic_history(desk_params(desk_grid()), 600, seed=5))
        f = tmp_path / "params.json"
        write_json(f, fitted.to_dict())
        back = VarParams.from_dict(read_json(f))
        assert [f.name for f in dataclasses.fields(back)] == ["a1", "a2", "b", "chol"]
        for field in dataclasses.fields(fitted):
            assert getattr(back, field.name).tobytes() == getattr(fitted, field.name).tobytes()

    @pytest.mark.parametrize("stale", [["dim"], ["dt"], ["dim", "dt"]],
                             ids=["dim", "dt", "dim_and_dt"])
    def test_stale_key_refused(self, tmp_path, stale):
        """A params document that still holds ``dim`` or ``dt``, with the
        values every writer used to give them, is refused with an
        InputError naming each such key: the step is the constant DT and
        the dimension is read from ``b``."""
        p = desk_params(desk_grid())
        f = tmp_path / "params.json"
        write_json(f, p.to_dict())
        doc = {**read_json(f), **{k: {"dim": p.dim, "dt": DT}[k] for k in stale}}
        with pytest.raises(InputError, match=re.escape(f"unknown VAR params key(s) {stale}")):
            VarParams.from_dict(doc)

    def test_chol_must_be_lower_triangular(self):
        with pytest.raises(ValueError):
            VarParams(
                a1=np.zeros((2, 2)),
                a2=np.zeros((2, 2)),
                b=np.zeros(2),
                chol=np.array([[1.0, 0.5], [0.0, 1.0]]),
            )
