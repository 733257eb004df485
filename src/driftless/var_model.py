"""VAR(2) model for joint log spot returns and log local volatilities.

The state vector is Y_r = (log S_r/S_{r-1}, log sigma^{1,1}_r, ...,
log sigma^{m,n}_r)' and evolves as

    Y_r = (B - A_1 Y_{r-1} - A_2 Y_{r-2}) DT + sqrt(DT) Z_r,  Z_r ~ N(0, Sigma),

where one step DT is one business day, 1/DAYS_PER_YEAR years.  Fitting is
per-equation OLS.  Simulation draws its noise from a
counter-based generator keyed per (seed, retry, path, step), and runs the
recursion once per step over a block of paths.  Paths whose vols breach
the ceiling are redrawn in retry rounds with the next retry.  Every draw
equals that of a fresh generator for its (seed, retry, path, step), so the
output does not depend on the blocking or the order of the rounds.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import (FitError, InputError, SimulationError, check_array, check_number,
                     check_seed, from_config)
from .market import bundle_from_sigmas, read_keyed_csv
from .surface import DAYS_PER_YEAR, SIGMA_MAX, DlvGrid

MAX_RETRIES = 100
RIDGE = 1e-10

# the desk market of desk_params: annual spot drift and vol, daily AR
# coefficient of the log vols and their correlation with the spot return
ANNUAL_DRIFT = 0.20
SPOT_VOL = 0.20
PERSISTENCE = 0.95
SPOT_VOL_CORR = -0.5
DT = 1.0 / DAYS_PER_YEAR  # the step of every VAR: one business day


@dataclasses.dataclass
class VarParams:
    """The arrays of the recursion; ``dim`` is read from ``b``."""

    a1: np.ndarray
    a2: np.ndarray
    b: np.ndarray
    chol: np.ndarray  # lower-triangular Cholesky factor of Sigma

    def __post_init__(self):
        self.b = check_array(self.b, "VAR params 'b'")
        if self.b.ndim != 1:
            raise InputError(f"VAR params 'b' must be a vector, got shape {self.b.shape}")
        shape = (self.dim, self.dim)
        for name in ("a1", "a2", "chol"):
            value = check_array(getattr(self, name), f"VAR params {name!r}")
            if value.shape != shape:
                raise InputError(f"VAR params {name!r} must have shape {shape}, one row and "
                                 f"column per entry of 'b', got {value.shape}")
            setattr(self, name, value)
        if np.any(np.diag(self.chol) <= 0) or np.any(np.triu(self.chol, 1) != 0):
            raise InputError("VAR params 'chol' must be lower-triangular with positive diagonal")

    @property
    def dim(self):
        return len(self.b)

    def to_dict(self):
        return {f.name: getattr(self, f.name).tolist() for f in dataclasses.fields(self)}

    @classmethod
    def from_dict(cls, d):
        return from_config(cls, d, "VAR params")


def _spd_cholesky(cov):
    """Cholesky with a small ridge repair for numerically non-SPD inputs."""
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        return np.linalg.cholesky(cov + RIDGE * np.eye(cov.shape[0]))


def fit_var(history):
    """Per-equation OLS fit of the VAR(2) recursion.

    ``history`` is an (N, d) array of Y_r observations, one step DT apart.
    Residual covariance uses denominator (N - 2) - (2d + 1).  Returns
    ``(params, se)``: the fitted VarParams, and a dict mapping "b", "a1"
    and "a2" to the standard errors of those coefficients.
    """
    Y = np.asarray(history, dtype=float)
    if Y.ndim != 2 or Y.shape[1] < 1:
        raise FitError(f"history must be a 2-d array with at least one Y column, "
                       f"got shape {Y.shape}")
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
    cov_e = resid.T @ resid / ((N - 2) - n_reg)  # at least 8d - 1 degrees of freedom
    params = VarParams(
        a1=-beta[1 : 1 + d].T / DT,
        a2=-beta[1 + d :].T / DT,
        b=beta[0] / DT,
        chol=_spd_cholesky(cov_e / DT),
    )

    xtx_inv = np.linalg.inv(X.T @ X)
    s2 = np.diag(cov_e)  # per-equation residual variance
    se_beta = np.sqrt(np.outer(np.diag(xtx_inv), s2))  # (n_reg, d)
    se = {"b": se_beta[0] / DT, "a1": se_beta[1 : 1 + d].T / DT, "a2": se_beta[1 + d :].T / DT}
    return params, se


# the one generator behind step_normals; every call resets its whole state,
# so no draw depends on an earlier one (not safe to share between threads).
# The state setter copies what it is given, so one state dict, with its
# counter and key arrays, is updated in place for every draw.
_PHILOX = np.random.Philox(0)
_GENERATOR = np.random.Generator(_PHILOX)
_COUNTER = np.zeros(4, dtype=np.uint64)
_KEY = np.zeros(2, dtype=np.uint64)
_STATE = {
    "bit_generator": "Philox",
    "state": {"counter": _COUNTER, "key": _KEY},
    "buffer": np.zeros(4, dtype=np.uint64),
    "buffer_pos": 4,
    "has_uint32": 0,
    "uinteger": 0,
}

# paths per block of retry rounds in simulate; bounds its working set
_BLOCK_PATHS = 2048


def step_normals(seed, path, step, dim, retry=0):
    """Standard normals from a Philox stream keyed by (seed, retry) with the
    counter set from (path, step).

    The draws equal those of a fresh ``Philox(key=..., counter=...)``: the
    state set here is the one that constructor leaves, with an empty
    output buffer.
    """
    _COUNTER[2] = path
    _COUNTER[3] = step
    _KEY[0] = seed & 0xFFFFFFFFFFFFFFFF
    _KEY[1] = retry
    _PHILOX.state = _STATE
    return _GENERATOR.standard_normal(dim)


def iterate_var(params, init, noise):
    """Run the VAR recursion from two seed vectors with supplied noise, one
    step at a time over a whole stack of paths.

    ``noise`` is (n, T, d) of sqrt(DT) * chol * g terms (may be zeros), one
    (T, d) slice per path, all started from the same ``init``.  Returns
    (n, T, d) of Y_1..Y_T per path.
    """
    a1, a2, b = params.a1, params.a2, params.b[:, None]
    # column vectors, so a1 @ y is one matrix-vector product per path, as
    # when each path ran alone; a matrix product over the stack can differ
    # from it in the last bit when a1 or a2 is not diagonal
    y_prev2 = np.asarray(init[0], float)[:, None]
    y_prev1 = np.asarray(init[1], float)[:, None]
    out = np.empty(noise.shape + (1,))
    for r in range(noise.shape[1]):
        y = out[:, r]
        np.multiply(b - a1 @ y_prev1 - a2 @ y_prev2, DT, out=y)
        y += noise[:, r, :, None]
        y_prev2, y_prev1 = y_prev1, y
    return out[..., 0]


def _noise(params, n_steps, seed, paths, retry):
    """sqrt(DT) * chol * g for each of ``paths``: an (n, n_steps, d) stack
    whose draws come from ``step_normals`` at this ``retry``."""
    d = params.dim
    g = np.empty((len(paths), n_steps, d))
    for i, path in enumerate(paths):
        for r in range(n_steps):
            g[i, r] = step_normals(seed, path, r, d, retry)
    # a stacked product, one (n_steps, d) matrix per path as drawn alone
    return np.sqrt(DT) * g @ params.chol.T


def simulate(params, init, n_paths, n_steps, seed, grid):
    """Simulate a PathBundle under the statistical measure.

    ``init`` is (Y_{-1}, Y_0): the two seed vectors; the step-0 state uses
    Y_0's log-vols with spot normalized to 1.  Paths run in blocks of
    retry rounds: a round draws and iterates every pending path of the
    block, keeps the ones whose DLVs stay within SIGMA_MAX, and redraws the
    rest on the stream of the next retry, up to MAX_RETRIES times.  Every
    draw depends only on (seed, retry, path, step), so the bundle does not
    depend on the blocking.  Raises InputError on a size that is not an
    integer >= 1, or a ``seed`` outside [0, 2**64).
    """
    for name, size in (("n_paths", n_paths), ("n_steps", n_steps)):
        if check_number(size, f"simulate {name}", integer=True) < 1:
            raise InputError(f"n_paths and n_steps must be >= 1, got {n_paths} and {n_steps}")
    check_seed(seed, "simulate seed")
    d = params.dim
    m, n = grid.n_maturities, grid.n_strikes
    if d != 1 + m * n:
        raise InputError(f"params dim {d} inconsistent with the {m}x{n} grid ({1 + m * n})")

    init = (np.asarray(init[0], float), np.asarray(init[1], float))
    log_vol0 = init[1][1:]
    if np.any(np.exp(log_vol0) > SIGMA_MAX):
        raise SimulationError("initial state breaches the vol ceiling")

    spots = np.empty((n_paths, n_steps + 1))
    sigmas = np.empty((n_paths, n_steps + 1, m, n))
    spots[:, 0] = 1.0
    sigmas[:, 0] = np.exp(log_vol0).reshape(m, n)

    for start in range(0, n_paths, _BLOCK_PATHS):
        pending = np.arange(start, min(start + _BLOCK_PATHS, n_paths))
        for retry in range(MAX_RETRIES + 1):
            ys = iterate_var(params, init, _noise(params, n_steps, seed, pending.tolist(), retry))
            vols = np.exp(ys[:, :, 1:])
            ok = np.all(vols <= SIGMA_MAX, axis=(1, 2))
            done = pending[ok]
            spots[done, 1:] = np.cumprod(np.exp(ys[ok, :, 0]), axis=1)
            sigmas[done, 1:] = vols[ok].reshape(-1, n_steps, m, n)
            pending = pending[~ok]
            if not pending.size:
                break
        else:
            raise SimulationError(
                f"path {pending[0]}: vol ceiling {SIGMA_MAX} still breached after "
                f"{MAX_RETRIES} resamples"
            )

    return bundle_from_sigmas(
        grid,
        spots,
        sigmas,
        seed=seed,
        provenance=f"var(seed={seed},paths={n_paths},steps={n_steps})",
    )


# ---------------------------------------------------------------------------
# Desk parameter helpers and the history reader.  Tests and the demo run on a
# synthetic equity-index-like parametrization with a controllable spot
# drift, so no market data is needed.
# ---------------------------------------------------------------------------

def desk_grid():
    """3 maturities x 3 strikes demo grid: {20, 40, 60} days, 0.95..1.05."""
    return DlvGrid(
        strikes=(0.95, 1.0, 1.05),
        maturities=(20 / DAYS_PER_YEAR, 40 / DAYS_PER_YEAR, 60 / DAYS_PER_YEAR),
        boundary_lo=0.5,
        boundary_hi=1.6,
    )


# the base DLV level per maturity of desk_grid(), flat in strike: the level
# at which each maturity row's ATM call equals the Black-Scholes ATM call at
# SPOT_VOL (S = K = 1, zero rates).  DLVs are defined by the grid's finite
# differences, so the level that reproduces a given implied vol depends on
# the grid; tests/oracles.py holds the root search that derives these.
DESK_DLV_LEVELS = (1.0591410529030905, 0.7748403704791065, 0.7256578424968061)


def desk_params(grid, vol_of_vol=0.02):
    """Stylized VAR(2) parameters for the demo market on ``grid``, which
    must be desk_grid(): raises InputError otherwise.

    Log vols mean-revert around DESK_DLV_LEVELS with daily AR coefficient
    PERSISTENCE; the spot return has constant drift ANNUAL_DRIFT.  Raises
    InputError unless ``vol_of_vol`` is a finite number >= 0.
    """
    if not check_number(vol_of_vol, "desk_params 'vol_of_vol'") >= 0:
        raise InputError(f"desk_params 'vol_of_vol' must be >= 0, got {vol_of_vol!r}")
    if grid != desk_grid():
        raise InputError(f"desk_params needs desk_grid(), whose DLV levels are "
                         f"DESK_DLV_LEVELS; got {grid}")
    d = 1 + grid.n_maturities * grid.n_strikes
    nv = d - 1
    mu_log = np.log(np.repeat(DESK_DLV_LEVELS, grid.n_strikes))

    a1 = np.zeros((d, d))
    a2 = np.zeros((d, d))
    b = np.zeros(d)
    b[0] = ANNUAL_DRIFT - 0.5 * SPOT_VOL**2
    c1, c2 = PERSISTENCE, 0.02
    for k in range(1, d):
        a1[k, k] = -c1 / DT
        a2[k, k] = -c2 / DT
        b[k] = (1.0 - c1 - c2) * mu_log[k - 1] / DT

    corr = np.full((nv, nv), 0.8)
    np.fill_diagonal(corr, 1.0)
    R = np.empty((d, d))
    R[0, 0] = 1.0
    R[0, 1:] = SPOT_VOL_CORR
    R[1:, 0] = SPOT_VOL_CORR
    R[1:, 1:] = corr
    stds = np.concatenate(([SPOT_VOL], np.full(nv, vol_of_vol / np.sqrt(DT))))
    sigma = R * np.outer(stds, stds)
    return VarParams(a1=a1, a2=a2, b=b, chol=_spd_cholesky(sigma))


def stationary_init(params):
    """Seed vectors (Y_{-1}, Y_0) at the log-vol mean with zero spot return.

    The log-vol mean is the stationary mean of the log-vol block of the
    recursion, (I + (a1 + a2) DT) y = b DT, so this holds for any fitted
    parametrization, not only the diagonal one of desk_params.
    """
    y = np.zeros(params.dim)
    lhs = np.eye(params.dim - 1) + (params.a1 + params.a2)[1:, 1:] * DT
    y[1:] = np.linalg.solve(lhs, params.b[1:] * DT)
    return y.copy(), y.copy()


def read_history_csv(path):
    """Read an (N, d) Y history from a CSV: a header, then one row per
    observation, each the observation index ``r`` and the d components of
    Y_r (dlogS, then the log DLVs), as in
    ``r,dlogS,logdlv_1_1,...,logdlv_m_n``.  Rows are placed by ``r`` as
    read_keyed_csv places them."""
    return read_keyed_csv(path, "history CSV", "r")
