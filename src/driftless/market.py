"""Instruments, path bundles, hold-to-horizon returns, policy features and
the package's file IO.

Conventions: the spot is normalized to S_0 = 1 at path start; option
strikes are relative to the spot at trade time; one unit of an option
instrument is one contract on S_t notional, so all prices and gains are in
units of S_0.  Rates, dividends and repo are zero throughout.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import GridDomainError, InputError, check_keys, check_number, check_seed
from .surface import DAYS_PER_YEAR, SIGMA_MAX, DlvGrid, check_dlv_domain, prices_from_dlv_batch

SIGMA_FLOOR = 1e-6  # floor before log features; keeps sigma = 0 nodes finite


def check_per_path(values, n_paths, what, positive=False):
    """``values`` as a float array: one per path, finite, and > 0 when
    ``positive``.  Raises InputError naming ``what`` otherwise."""
    v = np.asarray(values, dtype=float)
    if v.shape != (n_paths,):
        raise InputError(f"{what} must be one per path: got shape {v.shape}, "
                         f"expected ({n_paths},)")
    if not np.all(np.isfinite(v)):
        raise InputError(f"{what} must be finite")
    if positive and np.any(v <= 0):
        raise InputError(f"{what} must be positive")
    return v


def check_weights(weights, n_paths):
    """Per-path weights as a float array: one per path, finite, positive,
    with mean 1 within 1e-9.  Raises InputError otherwise."""
    w = check_per_path(weights, n_paths, "weights", positive=True)
    if not abs(w.mean() - 1.0) <= 1e-9:
        raise InputError(f"weights must have mean 1, got {w.mean():.17g}")
    return w


def check_returns(bundle, returns):
    """Raises InputError unless ``returns`` has the (paths, steps) of
    ``bundle``."""
    if returns.dh.shape[:2] != (bundle.n_paths, bundle.n_steps):
        raise InputError(f"returns of (paths, steps) {returns.dh.shape[:2]} are not from "
                         f"this bundle's {(bundle.n_paths, bundle.n_steps)}")


@dataclass(frozen=True)
class InstrumentSpec:
    """A tradable instrument: the spot, or a call/put at a relative strike
    and a time-to-maturity in business days."""

    kind: str  # "spot" | "call" | "put"
    rel_strike: float = 0.0
    ttm_days: int = 0

    def __post_init__(self):
        check_number(self.rel_strike, "instrument rel_strike")
        check_number(self.ttm_days, "instrument ttm_days", integer=True)
        if self.kind not in ("spot", "call", "put"):
            raise InputError(f"unknown instrument kind {self.kind!r}")
        if self.kind == "spot":
            if self.rel_strike or self.ttm_days:
                raise InputError("instrument kind 'spot' takes no rel_strike or ttm_days")
        elif self.rel_strike <= 0:
            raise InputError("options need a positive relative strike")
        elif self.ttm_days <= 0:
            raise InputError("options need a positive time to maturity")

    def label(self):
        if self.kind == "spot":
            return "spot"
        return f"{self.kind}_{self.rel_strike:g}_{self.ttm_days}d"


@dataclass
class PathBundle:
    """A simulated market sample: what the simulator draws for every path
    and step, the spots (P, T+1), finite and > 0, and the DLVs sigmas (P,
    T+1, m, n), each in [0, SIGMA_MAX].  The call grids, a function of the
    DLVs, are not stored; nor are path weights, which travel as a CSV."""

    grid: DlvGrid
    spots: np.ndarray
    sigmas: np.ndarray
    seed: int = 0
    provenance: str = ""

    def __post_init__(self):
        self.spots = np.asarray(self.spots, dtype=float)
        self.sigmas = np.asarray(self.sigmas, dtype=float)
        if self.spots.ndim != 2 or not np.all((self.spots > 0) & (self.spots < np.inf)):
            raise InputError(f"spots must be a 2-d array of finite numbers > 0, "
                             f"got shape {self.spots.shape}")
        p, t1 = self.spots.shape
        m, n = self.grid.n_maturities, self.grid.n_strikes
        if self.sigmas.shape != (p, t1, m, n):
            raise InputError(f"sigmas shape {self.sigmas.shape} inconsistent with spots/grid "
                             f"{(p, t1, m, n)}")
        check_dlv_domain(self.sigmas)

    @property
    def prices(self):
        """The call grids (P, T+1, m+1, n+2) of every path and step, solved
        from the DLVs by prices_from_dlv_batch on every access."""
        return prices_from_dlv_batch(self.grid, self.sigmas)

    @property
    def n_paths(self):
        return self.spots.shape[0]

    @property
    def n_steps(self):
        return self.spots.shape[1] - 1


@dataclass
class InstrumentReturn:
    """Per (path, step, instrument) hold-to-horizon returns DH and the
    trade-time mid prices used for cost accounting."""

    instruments: tuple
    dh: np.ndarray  # (P, T, I)
    mids: np.ndarray  # (P, T, I)


def bundle_from_sigmas(grid, spots, sigmas, seed=0, provenance=""):
    """The PathBundle of drawn spots and DLVs; simulate and read_bundle
    build theirs here."""
    return PathBundle(grid=grid, spots=spots, sigmas=sigmas, seed=seed, provenance=provenance)


def _interp_price(grid, prices, steps, x, tau):
    """Spot-relative call prices from the call grids ``prices`` (P, T+1,
    m+1, n+2) as a (P, K) array: at steps ``steps`` and maturities ``tau``,
    scalars or (K,), and relative strikes ``x``, a scalar or (P, K), all
    inside the grid span.  Linear in strike along the full strike axis and
    in maturity between grid rows (row 0 is tau = 0 intrinsic)."""
    xs, taus = grid.all_strikes, grid.all_taus
    ix = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    wx = (x - xs[ix]) / (xs[ix + 1] - xs[ix])
    it = np.clip(np.searchsorted(taus, tau, side="right") - 1, 0, len(taus) - 2)
    wt = (tau - taus[it]) / (taus[it + 1] - taus[it])
    p = np.arange(len(prices))[:, None]
    p00, p01, p10, p11 = (prices[p, steps, it + i, ix + j] for i in (0, 1) for j in (0, 1))
    return (1 - wt) * ((1 - wx) * p00 + wx * p01) + wt * ((1 - wx) * p10 + wx * p11)


def build_returns(bundle, instruments):
    """Hold-to-horizon returns DH = H_T - H_t for each instrument.

    Each option is valued over all steps at once.  Bought at step t, its
    mid is the time-t surface at its relative strike and maturity.  If it
    expires by T it settles at payoff from the spot at expiry; otherwise it
    is valued at the time-T surface at its strike relative to S_T (clipped
    to the grid span) and its remaining maturity.  Surfaces interpolate
    linearly in strike and maturity, and puts price via parity
    P = C - S (1 - k) at zero rates.  The call grids are solved once, for
    options only.  A strike outside the grid span or a maturity beyond the
    grid's last raises GridDomainError.
    """
    grid, spots, T = bundle.grid, bundle.spots, bundle.n_steps
    instruments = tuple(instruments)
    prices = bundle.prices if any(i.kind != "spot" for i in instruments) else None
    s_t, s_T = spots[:, :T], spots[:, T:]
    dh = np.empty(s_t.shape + (len(instruments),))
    mids = np.empty_like(dh)
    for k, inst in enumerate(instruments):
        if inst.kind == "spot":
            mids[:, :, k] = s_t
            dh[:, :, k] = s_T - s_t
            continue
        x, days, put = inst.rel_strike, inst.ttm_days, inst.kind == "put"
        if not (grid.boundary_lo <= x <= grid.boundary_hi):
            raise GridDomainError(f"strike {x} outside [{grid.boundary_lo}, {grid.boundary_hi}]")
        if days / DAYS_PER_YEAR > grid.maturities[-1] + 1e-12:
            raise GridDomainError(f"maturity {days}d beyond the grid span")
        c = _interp_price(grid, prices, np.arange(T), x, days / DAYS_PER_YEAR)
        mids[:, :, k] = s_t * (c - (1.0 - x) if put else c)
        n = max(T - days + 1, 0)  # the steps whose option expires by T
        ratio = spots[:, days:days + n] / s_t[:, :n]
        dh[:, :n, k] = s_t[:, :n] * np.maximum(x - ratio if put else ratio - x, 0.0)
        x_T = np.clip(x * s_t[:, n:] / s_T, grid.boundary_lo, grid.boundary_hi)
        rem_tau = (np.arange(n, T) + days - T) / DAYS_PER_YEAR
        c_T = _interp_price(grid, prices, T, x_T, rem_tau)
        dh[:, n:, k] = s_T * (c_T - (1.0 - x_T) if put else c_T)
        dh[:, :, k] -= mids[:, :, k]
    return InstrumentReturn(instruments=instruments, dh=dh, mids=mids)


def feature_matrix(bundle):
    """Policy features of every (path, trading step): [t/T, log spot, log
    DLV nodes floored at SIGMA_FLOOR], shape (P, T, 2 + m*n)."""
    P, T = bundle.n_paths, bundle.n_steps
    m, n = bundle.grid.n_maturities, bundle.grid.n_strikes
    out = np.empty((P, T, 2 + m * n))
    t_axis = np.arange(T) / T
    out[:, :, 0] = t_axis[None, :]
    out[:, :, 1] = np.log(bundle.spots[:, :T])
    out[:, :, 2:] = np.log(
        np.maximum(bundle.sigmas[:, :T].reshape(P, T, m * n), SIGMA_FLOOR)
    )
    return out


# ---------------------------------------------------------------------------
# File IO.  Every file the package writes goes through write_text, every JSON
# file through write_json (indented by two, keys sorted) / read_json, every
# CSV through write_csv / read_csv.  CSV layout: a header row, then rows of
# ","-joined fields with no quoting or comments, "\r\n" line ends, floats as
# shortest round-trip decimals (repr), so a read returns the written floats
# bit for bit.  Rows move in blocks of _BLOCK_ROWS: no whole-file text is
# held, and a bundle read fills its arrays block by block.
# ---------------------------------------------------------------------------

_BLOCK_ROWS = 10_000


def write_text(path, text):
    """Write ``text`` (a str or an iterable of str chunks) to ``path``
    atomically: into a temp file in the target directory, renamed over the
    target with os.replace; the temp file is removed on failure.  The file
    gets the mode ``open(path, "w")`` would give it: 0o666 less the umask."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        umask = os.umask(0)  # the umask can only be read by setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates the file 0o600
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, doc):
    """Write the JSON document ``doc`` to ``path`` in the layout above."""
    write_text(path, json.dumps(doc, indent=2, sort_keys=True))


def read_json(path):
    """The JSON document in ``path``; InputError naming the file when it
    does not parse."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InputError(f"{path}: {exc}") from None


def write_csv(path, header, columns):
    """Write equal-length columns under ``header``: floats as repr, ints and
    strings as str."""
    columns = [np.asarray(c) for c in columns]
    formats = [repr if c.dtype.kind == "f" else str for c in columns]

    def chunks():
        yield ",".join(header) + "\r\n"
        for lo in range(0, len(columns[0]), _BLOCK_ROWS):
            fields = [list(map(f, c[lo:lo + _BLOCK_ROWS].tolist()))
                      for f, c in zip(formats, columns)]
            yield "\r\n".join(map(",".join, zip(*fields, strict=True))) + "\r\n"

    write_text(path, chunks())


def read_csv(path, what, width=None):
    """Yield ``(line, block)`` for each float row block, of at most
    _BLOCK_ROWS rows, of a CSV in the layout above; ``line`` is the file
    line of its first row.  Raises InputError naming ``what`` and the file
    on an empty file, a header with no rows, a blank or ragged row, a
    non-numeric field, or a column count other than ``width`` when given."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header == [""]:
            raise InputError(f"{what} {path} is empty")
        if width is not None and len(header) != width:
            raise InputError(f"{what} {path}: {len(header)} columns, expected {width}")
        line = 2
        while lines := list(itertools.islice(fh, _BLOCK_ROWS)):
            if "\n" in lines:
                blank = line + lines.index("\n")
                raise InputError(f"{what} {path} line {blank}: blank line")
            try:
                block = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            except ValueError as exc:
                raise InputError(f"{what} {path}, block from line {line}: {exc}") from None
            if block.shape[1] != len(header):
                raise InputError(f"{what} {path} line {line}: {block.shape[1]} fields, "
                                 f"header has {len(header)}")
            yield line, block
            line += len(lines)
    if line == 2:
        raise InputError(f"{what} {path} has a header but no rows")


def place_rows(path, blocks, keys):
    """Yield ``(line, index, block)`` for each read_csv ``(line, block)`` of
    ``path``, where ``index`` is the flat C-order position of each row's key:
    its leading columns, named and sized by the dict ``keys``.  The rows
    must hold each key exactly once: raises InputError on a key that is not
    a non-negative integer or is repeated, then on a missing key (naming the
    first, which a key beyond the size displaced when the row count sets the
    size), then on a key beyond its size."""
    names, shape = list(keys), tuple(keys.values())
    count = np.zeros(shape, dtype=int)
    beyond = None  # the error for the first key beyond its size
    for line, block in blocks:
        key = block[:, :len(shape)]
        bad = ~((key == np.floor(key)) & (key >= 0)).all(axis=1)
        if bad.any():
            r = int(np.argmax(bad))
            raise InputError(f"{path} line {line + r}: {names} {key[r].tolist()} are not "
                             "non-negative integers")
        inside = (key < shape).all(axis=1)
        if not inside.all():
            r = int(np.argmax(~inside))
            beyond = beyond or InputError(f"{path} line {line + r}: {names} "
                                          f"{key[r].tolist()} out of range {list(shape)}")
            key = key[inside]
        index = np.ravel_multi_index(tuple(key.T.astype(np.intp)), shape)
        np.add.at(count.reshape(-1), index, 1)
        if beyond is None:  # once a key is beyond, an error is certain: only count
            if (count.flat[index] > 1).any():
                # name the first row whose key an earlier row, in this block
                # or an earlier one, already holds
                _, first, n = np.unique(index, return_index=True, return_counts=True)
                repeat = np.ones(len(index), dtype=bool)
                repeat[first] = count.flat[index[first]] > n
                r = int(np.argmax(repeat))
                raise InputError(f"{path} line {line + r}: row {names} "
                                 f"{[int(k) for k in key[r]]} repeated")
            yield line, index, block
    if not count.all():
        first = [int(k) for k in np.argwhere(count == 0)[0]]
        raise InputError(f"{path} lacks row {names} {first}")
    if beyond is not None:
        raise beyond


# Bundle file format: a directory with paths.csv and meta.json, which is
# written last.  Weights are never part of a bundle.

def write_bundle(bundle, directory):
    """Write ``bundle`` into ``directory``; returns the two file paths."""
    csv_path, meta_path = (os.path.join(directory, f) for f in ("paths.csv", "meta.json"))
    m, n = bundle.grid.n_maturities, bundle.grid.n_strikes
    P, T1 = bundle.spots.shape
    header = ["path", "step", "spot"] + [
        f"dlv_{j + 1}_{i + 1}" for j in range(m) for i in range(n)
    ]
    write_csv(csv_path, header,
              [np.repeat(np.arange(P), T1), np.tile(np.arange(T1), P),
               bundle.spots.ravel(), *bundle.sigmas.reshape(P * T1, m * n).T])
    write_json(meta_path, {"grid": bundle.grid.to_dict(), "n_paths": bundle.n_paths,
                           "n_steps": bundle.n_steps, "seed": bundle.seed,
                           "provenance": bundle.provenance})
    return [csv_path, meta_path]


def read_bundle(directory):
    """Read a bundle directory.  Raises InputError when meta.json lacks a
    required key, has an unknown one, a size that is not a positive
    integer, a ``seed`` outside [0, 2**64), a ``provenance`` that is not a
    string, or a ``has_weights`` other than false (the key bundles once
    carried), or when paths.csv does not hold each (path, step) row of the
    declared sizes exactly once, with one finite spot > 0 and m*n DLVs in
    [0, SIGMA_MAX] per row.  Sizes that paths.csv is too small to hold are
    refused before any array is allocated."""
    meta = read_json(os.path.join(directory, "meta.json"))
    check_keys(meta, ("grid", "n_paths", "n_steps", "seed", "provenance", "has_weights"),
               "bundle meta", required=("grid", "n_paths", "n_steps"))
    grid = DlvGrid.from_dict(meta["grid"])
    P, T = (check_number(meta[k], f"bundle meta {k!r}", integer=True)
            for k in ("n_paths", "n_steps"))
    if P < 1 or T < 1:
        raise InputError(f"bundle meta sizes must be positive, got n_paths {P}, n_steps {T}")
    seed = check_seed(meta.get("seed", 0), "bundle meta 'seed'")
    provenance = meta.get("provenance", "")
    if not isinstance(provenance, str):
        raise InputError(f"bundle meta 'provenance' must be a string, got {provenance!r}")
    if meta.get("has_weights", False) is not False:
        raise InputError(f"bundle meta 'has_weights' is {meta['has_weights']!r}: a bundle "
                         "carries no weights; pass them as a weights CSV with --weights")

    m, n = grid.n_maturities, grid.n_strikes
    path = os.path.join(directory, "paths.csv")
    # each of a row's 3 + m*n fields takes a character and a separator at
    # least, so a file smaller than this cannot hold the declared rows
    size, least = os.path.getsize(path), P * (T + 1) * (3 + m * n) * 2
    if size < least:
        raise InputError(f"{path} has {size} bytes, fewer than the {least} that the "
                         f"{P} x {T + 1} (path, step) rows of bundle meta need")
    spots = np.empty((P, T + 1))
    sigmas = np.empty((P, T + 1, m, n))
    rows = read_csv(path, "bundle paths CSV", width=3 + m * n)
    for line, index, block in place_rows(path, rows, {"path": P, "step": T + 1}):
        dlvs = block[:, 3:]
        bad = ~(((dlvs >= 0) & (dlvs <= SIGMA_MAX)).all(axis=1)
                & (block[:, 2] > 0) & (block[:, 2] < np.inf))
        if bad.any():
            r = int(np.argmax(bad))
            raise InputError(f"{path} line {line + r}: the spot must be finite and > 0 and each "
                             f"DLV in [0, {SIGMA_MAX}], got spot {float(block[r, 2])!r}, "
                             f"least DLV {float(dlvs[r].min())!r}, "
                             f"largest DLV {float(dlvs[r].max())!r}")
        spots.flat[index] = block[:, 2]
        sigmas.reshape(P * (T + 1), m * n)[index] = block[:, 3:]

    return bundle_from_sigmas(grid, spots, sigmas, seed=seed, provenance=provenance)


def read_keyed_csv(path, what, key, width=None):
    """The value columns of a CSV, as an (n, columns - 1) array whose row r
    is the row keyed r, where the key column, named ``key``, must hold each
    of 0..n-1 exactly once for n data rows.  Raises InputError otherwise."""
    blocks = list(read_csv(path, what, width))
    values = np.empty((sum(len(b) for _, b in blocks), blocks[0][1].shape[1] - 1))
    for _, index, block in place_rows(path, blocks, {key: len(values)}):
        values[index] = block[:, 1:]
    return values


def read_weights_csv(path):
    """Weights placed by the path column as read_keyed_csv places rows."""
    return read_keyed_csv(path, "weights CSV", "path", width=2)[:, 0]


def write_weights_csv(path, weights):
    """Write per-path weights, validated by check_weights, as a weights CSV."""
    weights = check_weights(weights, np.size(weights))
    write_csv(path, ["path", "weight"], [np.arange(len(weights)), weights])
