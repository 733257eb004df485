"""VAR(2) model for joint log spot returns and log local volatilities.

The state vector is Y_r = (log S_r/S_{r-1}, log sigma^{1,1}_r, ...,
log sigma^{m,n}_r)' and evolves as

    Y_r = (B - A_1 Y_{r-1} - A_2 Y_{r-2}) dt + sqrt(dt) Z_r,  Z_r ~ N(0, Sigma).

Fitting is per-equation OLS; simulation uses a counter-based generator
keyed per (seed, path, step) so results are independent of scheduling.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import FitError, SimulationError, check_keys, check_number
from .market import bundle_from_sigmas, read_csv, read_json, write_csv, write_text

SIGMA_MAX = 5.0  # vol ceiling; paths breaching it are resampled
MAX_RETRIES = 100
RIDGE = 1e-10


@dataclass
class VarParams:
    dim: int
    a1: np.ndarray
    a2: np.ndarray
    b: np.ndarray
    chol: np.ndarray  # lower-triangular Cholesky factor of Sigma
    dt: float
    se_b: np.ndarray | None = None
    se_a1: np.ndarray | None = None
    se_a2: np.ndarray | None = None

    def __post_init__(self):
        for name in ("a1", "a2", "b", "chol"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        d = self.dim
        if self.a1.shape != (d, d) or self.a2.shape != (d, d):
            raise ValueError("coefficient matrices must be d x d")
        if self.b.shape != (d,):
            raise ValueError("intercept must be a d-vector")
        if self.chol.shape != (d, d):
            raise ValueError("chol must be d x d")
        if np.any(np.diag(self.chol) <= 0) or np.any(np.triu(self.chol, 1) != 0):
            raise ValueError("chol must be lower-triangular with positive diagonal")
        if not all(
            np.all(np.isfinite(getattr(self, n))) for n in ("a1", "a2", "b", "chol")
        ):
            raise ValueError("parameters must be finite")

    @property
    def sigma_cov(self):
        return self.chol @ self.chol.T

    def to_json(self, path):
        doc = {
            "dim": self.dim,
            "dt": self.dt,
            "a1": self.a1.tolist(),
            "a2": self.a2.tolist(),
            "b": self.b.tolist(),
            "chol": self.chol.tolist(),
        }
        write_text(path, json.dumps(doc, indent=2, sort_keys=True))

    @classmethod
    def from_json(cls, path):
        doc = read_json(path)
        keys = ("dim", "dt", "a1", "a2", "b", "chol")
        check_keys(doc, keys, "VAR params", required=keys)
        return cls(
            dim=check_number(doc["dim"], "VAR params 'dim'", integer=True),
            a1=doc["a1"],
            a2=doc["a2"],
            b=doc["b"],
            chol=doc["chol"],
            dt=check_number(doc["dt"], "VAR params 'dt'"),
        )


def _spd_cholesky(cov):
    """Cholesky with a small ridge repair for numerically non-SPD inputs."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return np.linalg.cholesky(cov + RIDGE * np.eye(cov.shape[0]))


def fit_var(history, dt):
    """Per-equation OLS fit of the VAR(2) recursion.

    ``history`` is an (N, d) array of Y_r observations.  Residual
    covariance uses denominator (N - 2) - (2d + 1); standard errors for
    every coefficient are stored on the returned params.
    """
    Y = np.asarray(history, dtype=float)
    if Y.ndim != 2:
        raise ValueError("history must be a 2-d array")
    N, d = Y.shape
    if N < 10 * d + 2:
        raise FitError(f"history too short: need at least {10 * d + 2} rows, got {N}")
    if not np.all(np.isfinite(Y)):
        raise FitError("history contains non-finite entries")

    # regression: Y_r = [1, Y_{r-1}, Y_{r-2}] beta + e_r
    resp = Y[2:]
    X = np.column_stack([np.ones(N - 2), Y[1:-1], Y[:-2]])
    n_reg = 2 * d + 1
    rank = np.linalg.matrix_rank(X)
    if rank < n_reg:
        raise FitError(f"rank-deficient regressor matrix (rank {rank} < {n_reg})")

    beta, *_ = np.linalg.lstsq(X, resp, rcond=None)
    resid = resp - X @ beta
    dof = (N - 2) - n_reg
    if dof <= 0:
        raise FitError("not enough observations for residual covariance")
    cov_e = resid.T @ resid / dof
    sigma = cov_e / dt

    b = beta[0] / dt
    a1 = -beta[1 : 1 + d].T / dt
    a2 = -beta[1 + d :].T / dt

    xtx_inv = np.linalg.inv(X.T @ X)
    s2 = np.diag(cov_e)  # per-equation residual variance
    se_beta = np.sqrt(np.outer(np.diag(xtx_inv), s2))  # (n_reg, d)
    se_b = se_beta[0] / dt
    se_a1 = se_beta[1 : 1 + d].T / dt
    se_a2 = se_beta[1 + d :].T / dt

    return VarParams(
        dim=d,
        a1=a1,
        a2=a2,
        b=b,
        chol=_spd_cholesky(sigma),
        dt=dt,
        se_b=se_b,
        se_a1=se_a1,
        se_a2=se_a2,
    )


def step_normals(seed, path, step, dim, retry=0):
    """Standard normals from a Philox stream keyed by (seed, retry) with the
    counter set from (path, step)."""
    bg = np.random.Philox(
        key=np.array([seed & 0xFFFFFFFFFFFFFFFF, retry], dtype=np.uint64),
        counter=np.array([0, 0, path, step], dtype=np.uint64),
    )
    return np.random.Generator(bg).standard_normal(dim)


def iterate_var(params, init, n_steps, noise):
    """Run the VAR recursion from two seed vectors with supplied noise.

    ``noise`` is (n_steps, d) of sqrt(dt) * chol * g terms (may be zeros).
    Returns (n_steps, d) of Y_1..Y_{n_steps}.
    """
    y_prev2, y_prev1 = np.asarray(init[0], float), np.asarray(init[1], float)
    out = np.empty((n_steps, params.dim))
    for r in range(n_steps):
        y = (params.b - params.a1 @ y_prev1 - params.a2 @ y_prev2) * params.dt + noise[r]
        out[r] = y
        y_prev2, y_prev1 = y_prev1, y
    return out


def _simulate_path_y(params, init, n_steps, seed, path, retry):
    d = params.dim
    g = np.stack(
        [step_normals(seed, path, r, d, retry) for r in range(n_steps)]
    )
    noise = np.sqrt(params.dt) * g @ params.chol.T
    return iterate_var(params, init, n_steps, noise)


def simulate(params, init, n_paths, n_steps, seed, grid):
    """Simulate a PathBundle under the statistical measure.

    ``init`` is (Y_{-1}, Y_0): the two seed vectors; the step-0 state uses
    Y_0's log-vols with spot normalized to 1.  Paths whose DLVs breach
    SIGMA_MAX are resampled on a fresh stream, up to MAX_RETRIES times.
    """
    if n_paths < 1 or n_steps < 1:
        raise ValueError("n_paths and n_steps must be >= 1")
    d = params.dim
    m, n = grid.n_maturities, grid.n_strikes
    if d != 1 + m * n:
        raise ValueError(f"params dim {d} inconsistent with grid ({1 + m * n})")

    init = (np.asarray(init[0], float), np.asarray(init[1], float))
    log_vol0 = init[1][1:]
    if np.any(np.exp(log_vol0) > SIGMA_MAX):
        raise SimulationError("initial state breaches the vol ceiling")

    spots = np.empty((n_paths, n_steps + 1))
    sigmas = np.empty((n_paths, n_steps + 1, m, n))
    spots[:, 0] = 1.0
    sigmas[:, 0] = np.exp(log_vol0).reshape(m, n)

    for p in range(n_paths):
        for retry in range(MAX_RETRIES + 1):
            ys = _simulate_path_y(params, init, n_steps, seed, p, retry)
            vols = np.exp(ys[:, 1:])
            if np.all(vols <= SIGMA_MAX):
                break
        else:
            raise SimulationError(
                f"path {p}: vol ceiling {SIGMA_MAX} still breached after "
                f"{MAX_RETRIES} resamples"
            )
        spots[p, 1:] = np.cumprod(np.exp(ys[:, 0]))
        sigmas[p, 1:] = vols.reshape(n_steps, m, n)

    return bundle_from_sigmas(
        grid,
        spots,
        sigmas,
        seed=seed,
        provenance=f"var(seed={seed},paths={n_paths},steps={n_steps})",
    )


# ---------------------------------------------------------------------------
# Synthetic history / parameter helpers.  Tests and the demo run on a
# synthetic equity-index-like parametrization with a controllable spot
# drift, so no market data is needed.
# ---------------------------------------------------------------------------

def desk_grid():
    """3 maturities x 3 strikes demo grid: {20, 40, 60} days, 0.95..1.05."""
    from .surface import DlvGrid

    return DlvGrid(
        strikes=(0.95, 1.0, 1.05),
        maturities=(20 / 252, 40 / 252, 60 / 252),
        boundary_lo=0.5,
        boundary_hi=1.6,
    )


def calibrated_base_vols(grid, spot_vol=0.20):
    """Flat-in-strike DLV level per maturity matching Black-Scholes ATM.

    DLVs are defined by the grid finite differences, so the level that
    reproduces a given implied vol depends on the grid; this keeps the
    simulated option prices consistent with the realized spot vol.
    """
    from scipy.optimize import brentq
    from scipy.stats import norm

    from .surface import prices_from_dlv_batch

    def bs_atm(vol, tau):
        st = vol * np.sqrt(tau)
        d1 = 0.5 * st
        return norm.cdf(d1) - norm.cdf(d1 - st)

    m, n = grid.n_maturities, grid.n_strikes
    i_atm = int(np.argmin(np.abs(np.asarray(grid.strikes) - 1.0))) + 1
    levels = []
    for j in range(m):
        def err(s):
            sig = np.ones((m, n)) * 0.2
            for k, lv in enumerate(levels):
                sig[k] = lv
            sig[j] = s
            p = prices_from_dlv_batch(grid, sig)
            return p[j + 1, i_atm] - bs_atm(spot_vol, grid.maturities[j])

        levels.append(brentq(err, 1e-4, 5.0, xtol=1e-12))
    return np.repeat(np.asarray(levels)[:, None], n, axis=1)


def desk_params(
    grid,
    annual_drift=0.20,
    spot_vol=0.20,
    base_vols=None,
    vol_of_vol=0.02,
    persistence=0.95,
    spot_vol_corr=-0.5,
    dt=1.0 / 252.0,
):
    """Stylized VAR(2) parameters for the demo market.

    Log vols mean-revert around the calibrated base levels with daily AR
    coefficient ``persistence``; the spot return has constant drift
    ``annual_drift``.
    """
    d = 1 + grid.n_maturities * grid.n_strikes
    nv = d - 1
    if base_vols is None:
        base_vols = calibrated_base_vols(grid, spot_vol)
    mu_log = np.log(np.asarray(base_vols)).ravel()

    a1 = np.zeros((d, d))
    a2 = np.zeros((d, d))
    b = np.zeros(d)
    b[0] = annual_drift - 0.5 * spot_vol**2
    c1, c2 = persistence, 0.02
    for k in range(1, d):
        a1[k, k] = -c1 / dt
        a2[k, k] = -c2 / dt
        b[k] = (1.0 - c1 - c2) * mu_log[k - 1] / dt

    corr = np.full((nv, nv), 0.8)
    np.fill_diagonal(corr, 1.0)
    R = np.empty((d, d))
    R[0, 0] = 1.0
    R[0, 1:] = spot_vol_corr
    R[1:, 0] = spot_vol_corr
    R[1:, 1:] = corr
    stds = np.concatenate(([spot_vol], np.full(nv, vol_of_vol / np.sqrt(dt))))
    sigma = R * np.outer(stds, stds)
    return VarParams(dim=d, a1=a1, a2=a2, b=b, chol=_spd_cholesky(sigma), dt=dt)


def stationary_init(params, grid=None, base_vols=None, spot_vol=0.20):
    """Seed vectors (Y_{-1}, Y_0) at the log-vol mean with zero spot return.

    The log-vol mean is recovered from the fitted intercepts, so this
    works for any diagonal-AR parametrization produced by desk_params.
    """
    y = np.zeros(params.dim)
    if base_vols is not None:
        y[1:] = np.log(np.asarray(base_vols)).ravel()
    else:
        # invert the stationary mean of the per-equation AR recursion
        diag1 = np.diag(params.a1)[1:]
        diag2 = np.diag(params.a2)[1:]
        denom = 1.0 + (diag1 + diag2) * params.dt
        y[1:] = params.b[1:] * params.dt / denom
    return y.copy(), y.copy()


def synthetic_history(params, n_obs, seed, init=None):
    """One long simulated Y trajectory, for fitting tests and the demo."""
    if init is None:
        init = stationary_init(params)
    return _simulate_path_y(params, init, n_obs, seed, 0, 0)


def write_history_csv(path, history, grid):
    m, n = grid.n_maturities, grid.n_strikes
    header = ["r", "dlogS"] + [
        f"logdlv_{j + 1}_{i + 1}" for j in range(m) for i in range(n)
    ]
    write_csv(path, header, [np.arange(len(history)), *np.asarray(history, dtype=float).T])


def read_history_csv(path):
    """Read a Y history written by ``write_history_csv``: a header, then one
    row per observation (an index column, then the Y components)."""
    return np.concatenate(list(read_csv(path, "history CSV")))[:, 1:]
