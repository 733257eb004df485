"""VAR(2) model for joint log spot returns and log local volatilities.

The state vector is Y_r = (log S_r/S_{r-1}, log sigma^{1,1}_r, ...,
log sigma^{m,n}_r)' and evolves as

    Y_r = (B - A_1 Y_{r-1} - A_2 Y_{r-2}) dt + sqrt(dt) Z_r,  Z_r ~ N(0, Sigma).

Fitting is per-equation OLS.  Simulation draws its noise from a
counter-based generator keyed per (seed, retry, path, step), and runs the
recursion once per step over a block of paths.  Paths whose vols breach
the ceiling are redrawn in retry rounds with the next retry.  Every draw
equals that of a fresh generator for its (seed, retry, path, step), so the
output does not depend on the blocking or the order of the rounds.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import FitError, InputError, SimulationError, check_keys, check_number
from .market import bundle_from_sigmas, place_rows, read_csv, write_text
from .surface import DAYS_PER_YEAR, DlvGrid, prices_from_dlv_batch

SIGMA_MAX = 5.0  # vol ceiling; paths breaching it are resampled
MAX_RETRIES = 100
RIDGE = 1e-10

# the desk market of desk_params: annual spot drift and vol, daily AR
# coefficient of the log vols, their correlation with the spot return, and
# a one-day step
ANNUAL_DRIFT = 0.20
SPOT_VOL = 0.20
PERSISTENCE = 0.95
SPOT_VOL_CORR = -0.5
DT = 1.0 / DAYS_PER_YEAR


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
        d = self.dim
        for name in ("a1", "a2", "b", "chol"):
            try:
                value = np.asarray(getattr(self, name), dtype=float)
            except (TypeError, ValueError) as exc:
                raise InputError(f"VAR params {name!r} must be a numeric array: {exc}") from None
            shape = (d,) if name == "b" else (d, d)
            if value.shape != shape:
                raise InputError(f"VAR params {name!r} must have shape {shape} for dim {d}, "
                                 f"got {value.shape}")
            if not np.all(np.isfinite(value)):
                raise InputError(f"VAR params {name!r} must be finite")
            setattr(self, name, value)
        if not self.dt > 0:
            raise InputError(f"VAR params 'dt' must be positive, got {self.dt!r}")
        if np.any(np.diag(self.chol) <= 0) or np.any(np.triu(self.chol, 1) != 0):
            raise InputError("VAR params 'chol' must be lower-triangular with positive diagonal")

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
    def from_dict(cls, doc):
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

    ``noise`` is (n, T, d) of sqrt(dt) * chol * g terms (may be zeros), one
    (T, d) slice per path, all started from the same ``init``.  Returns
    (n, T, d) of Y_1..Y_T per path.
    """
    a1, a2, b, dt = params.a1, params.a2, params.b[:, None], params.dt
    # column vectors, so a1 @ y is one matrix-vector product per path, as
    # when each path ran alone; a matrix product over the stack can differ
    # from it in the last bit when a1 or a2 is not diagonal
    y_prev2 = np.asarray(init[0], float)[:, None]
    y_prev1 = np.asarray(init[1], float)[:, None]
    out = np.empty(noise.shape + (1,))
    for r in range(noise.shape[1]):
        y = out[:, r]
        np.multiply(b - a1 @ y_prev1 - a2 @ y_prev2, dt, out=y)
        y += noise[:, r, :, None]
        y_prev2, y_prev1 = y_prev1, y
    return out[..., 0]


def _noise(params, n_steps, seed, paths, retry):
    """sqrt(dt) * chol * g for each of ``paths``: an (n, n_steps, d) stack
    whose draws come from ``step_normals`` at this ``retry``."""
    d = params.dim
    g = np.empty((len(paths), n_steps, d))
    for i, path in enumerate(paths):
        for r in range(n_steps):
            g[i, r] = step_normals(seed, path, r, d, retry)
    # a stacked product, one (n_steps, d) matrix per path as drawn alone
    return np.sqrt(params.dt) * g @ params.chol.T


def simulate(params, init, n_paths, n_steps, seed, grid):
    """Simulate a PathBundle under the statistical measure.

    ``init`` is (Y_{-1}, Y_0): the two seed vectors; the step-0 state uses
    Y_0's log-vols with spot normalized to 1.  Paths run in blocks of
    retry rounds: a round draws and iterates every pending path of the
    block, keeps the ones whose DLVs stay within SIGMA_MAX, and redraws the
    rest on the stream of the next retry, up to MAX_RETRIES times.  Every
    draw depends only on (seed, retry, path, step), so the bundle does not
    depend on the blocking.
    """
    if n_paths < 1 or n_steps < 1:
        raise InputError(f"n_paths and n_steps must be >= 1, got {n_paths} and {n_steps}")
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


# the calibration's root search stops at these tolerances, or fails after
# ROOT_MAXITER steps; ROOT_RTOL is the smallest relative tolerance Brent's
# method accepts
ROOT_XTOL = 1e-12
ROOT_RTOL = 4 * np.finfo(float).eps
ROOT_MAXITER = 100


def _brentq(f, xa, xb):
    """A root of ``f`` in [xa, xb] by Brent's method, to ROOT_XTOL +
    ROOT_RTOL |x|.

    A port of scipy's ``brentq`` (the loop of scipy/optimize/Zeros/brentq.c,
    with the NaN check of scipy/optimize/_zeros_py.py), step for step, so it
    returns the same float.  Raises ``InputError`` when f(xa) and f(xb)
    have the same sign, and ``FitError`` when f is NaN or the search has not
    converged after ROOT_MAXITER steps.
    """
    def call(x):
        fx = f(x)
        if np.isnan(fx):
            raise FitError(f"root search: the function is NaN at x={x}")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise InputError(f"root search: f({xa}) = {fpre} and f({xb}) = {fcur} "
                         "have the same sign")
    for _ in range(ROOT_MAXITER):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (ROOT_XTOL + ROOT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise FitError(f"root search: no convergence after {ROOT_MAXITER} steps, x={xcur}")


# cephes' rational approximations of erf and erfc (scipy's vendored xsf,
# cephes/ndtr.h): erf(x) = x T(x^2) / U(x^2) for |x| <= 1, and
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8, R(x) / S(x) beyond
_NDTR_T = (9.60497373987051638749E0, 9.00260197203842689217E1, 2.23200534594684319226E3,
           7.00332514112805075473E3, 5.55923013010394962768E4)
_NDTR_U = (3.35617141647503099647E1, 5.21357949780152679795E2, 4.59432382970980127987E3,
           2.26290000613890934246E4, 4.92673942608635921086E4)
_NDTR_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1, 7.46321056442269912687E0,
           4.86371970985681366614E1, 1.96520832956077098242E2, 5.26445194995477358631E2,
           9.34528527171957607540E2, 1.02755188689515710272E3, 5.57535335369399327526E2)
_NDTR_Q = (1.32281951154744992508E1, 8.67072140885989742329E1, 3.54937778887819891062E2,
           9.75708501743205489753E2, 1.82390916687909736289E3, 2.24633760818710981792E3,
           1.65666309194161350182E3, 5.57535340817727675546E2)
_NDTR_R = (5.64189583547755073984E-1, 1.27536670759978104416E0, 5.01905042251180477414E0,
           6.16021097993053585195E0, 7.40974269950448939160E0, 2.97886665372100240670E0)
_NDTR_S = (2.26052863220117276590E0, 9.39603524938001434673E0, 1.20489539808096656605E1,
           1.70814450747565897222E1, 9.60896809063285878198E0, 3.36907645100081516050E0)
_MAXLOG = 7.09782712893383996843E2  # log of the largest double
_SQRT1_2 = 0.70710678118654752440


def _poly(x, coef, monic=False):
    """Horner's rule on ``coef`` (highest power first), with a leading 1
    when ``monic``: cephes' polevl and p1evl."""
    acc = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        acc = acc * x + c
    return acc


def _erf(x):
    """cephes erf for |x| <= 1."""
    z = x * x
    return x * _poly(z, _NDTR_T) / _poly(z, _NDTR_U, monic=True)


def _ndtr(a):
    """The standard normal CDF of the float ``a``: a port of cephes ndtr,
    with the erfc it calls for z >= 0, as vendored in scipy (xsf,
    cephes/ndtr.h), operation for operation, so it equals
    ``scipy.special.ndtr`` bit for bit."""
    if math.isnan(a):
        return math.nan
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    if z < 1.0:
        y = 1.0 - _erf(z)
    elif z * z > _MAXLOG:  # exp(-z^2) underflows
        y = 0.0
    elif z < 8.0:
        y = math.exp(-z * z) * _poly(z, _NDTR_P) / _poly(z, _NDTR_Q, monic=True)
    else:
        y = math.exp(-z * z) * _poly(z, _NDTR_R) / _poly(z, _NDTR_S, monic=True)
    y = 0.5 * y
    return 1.0 - y if x > 0 else y


def calibrated_base_vols(grid):
    """Flat-in-strike DLV level per maturity matching Black-Scholes ATM at
    SPOT_VOL.

    DLVs are defined by the grid finite differences, so the level that
    reproduces a given implied vol depends on the grid; this keeps the
    simulated option prices consistent with the realized spot vol.
    """
    # the normal CDF and the root search are ports of scipy's, so a
    # process that calibrates imports no scipy
    def bs_atm(vol, tau):
        st = vol * np.sqrt(tau)
        d1 = 0.5 * st
        return _ndtr(d1) - _ndtr(d1 - st)

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
            return p[j + 1, i_atm] - bs_atm(SPOT_VOL, grid.maturities[j])

        levels.append(_brentq(err, 1e-4, 5.0))
    return np.repeat(np.asarray(levels)[:, None], n, axis=1)


def desk_params(grid, vol_of_vol=0.02):
    """Stylized VAR(2) parameters for the demo market.

    Log vols mean-revert around the calibrated base levels with daily AR
    coefficient PERSISTENCE; the spot return has constant drift
    ANNUAL_DRIFT.
    """
    d = 1 + grid.n_maturities * grid.n_strikes
    nv = d - 1
    mu_log = np.log(calibrated_base_vols(grid)).ravel()

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
    return VarParams(dim=d, a1=a1, a2=a2, b=b, chol=_spd_cholesky(sigma), dt=DT)


def stationary_init(params):
    """Seed vectors (Y_{-1}, Y_0) at the log-vol mean with zero spot return.

    The log-vol mean is the stationary mean of the log-vol block of the
    recursion, (I + (a1 + a2) dt) y = b dt, so this holds for any fitted
    parametrization, not only the diagonal one of desk_params.
    """
    y = np.zeros(params.dim)
    lhs = np.eye(params.dim - 1) + (params.a1 + params.a2)[1:, 1:] * params.dt
    y[1:] = np.linalg.solve(lhs, params.b[1:] * params.dt)
    return y.copy(), y.copy()


def read_history_csv(path):
    """Read an (N, d) Y history from a CSV: a header, then one row per
    observation, each the observation index ``r`` and the d components of
    Y_r (dlogS, then the log DLVs), as in
    ``r,dlogS,logdlv_1_1,...,logdlv_m_n``.  Rows are placed by ``r``, which
    must hold each of 0..N-1 exactly once for N data rows; raises InputError
    otherwise."""
    blocks = list(read_csv(path, "history CSV"))
    history = np.empty((sum(len(b) for b in blocks), blocks[0].shape[1] - 1))
    for index, block in place_rows(path, blocks, {"r": len(history)}):
        history[index] = block[:, 1:]
    return history
