import json
import os
import re
import stat

import numpy as np
import pytest

from driftless import market
from driftless.errors import GridDomainError, InputError, InvalidSurfaceError
from driftless.market import (
    InstrumentSpec,
    PathBundle,
    build_returns,
    bundle_from_sigmas,
    check_weights,
    feature_matrix,
    read_bundle,
    read_weights_csv,
    write_bundle,
    write_text,
    write_weights_csv,
)
from driftless.surface import DlvGrid, prices_from_dlv_batch
from driftless.var_model import desk_grid, desk_params, simulate, stationary_init

from oracles import build_returns_per_step


def flat_bundle(n_paths=4, n_steps=3, sigma=0.2, spot_path=None):
    grid = desk_grid()
    spots = np.ones((n_paths, n_steps + 1))
    if spot_path is not None:
        spots[:] = np.asarray(spot_path)
    sigmas = np.full((n_paths, n_steps + 1, 3, 3), sigma)
    return bundle_from_sigmas(grid, spots, sigmas)


def test_zero_vol_constant_spot_all_zero_returns():
    b = flat_bundle(sigma=0.0)
    rets = build_returns(
        b, [InstrumentSpec("spot"), InstrumentSpec("call", 1.0, 20)]
    )
    assert np.allclose(rets.dh, 0.0, atol=1e-15)


def test_one_step_call_payoff_arithmetic():
    # spot 1.0 -> 1.1; a one-day ATM call bought at the mid that the
    # bundle's own DLVs give, settled at its payoff 0.1
    grid = DlvGrid(strikes=(0.9, 1.0, 1.1), maturities=(1 / 252,),
                   boundary_lo=0.5, boundary_hi=1.6)
    sigmas = np.full((1, 2, 1, 3), 0.2)
    bundle = PathBundle(grid=grid, spots=np.array([[1.0, 1.1]]), sigmas=sigmas)
    mid = prices_from_dlv_batch(grid, sigmas)[0, 0, 1, 2]  # step 0, one day, strike 1.0
    assert 0.0 < mid < 0.1
    rets = build_returns(bundle, [InstrumentSpec("call", 1.0, 1)])
    assert rets.mids[0, 0, 0] == pytest.approx(mid)
    assert rets.dh[0, 0, 0] == pytest.approx((1.1 - 1.0) - mid)


@pytest.mark.parametrize("spots", [[1.0, 1.1], [[1.0, -1.1]], [[1.0, np.nan]]],
                         ids=["one_dimensional", "negative", "nan"])
def test_bundle_refuses_bad_spots(spots):
    with pytest.raises(InputError, match="spots"):
        bundle_from_sigmas(desk_grid(), np.array(spots), np.full((1, 2, 3, 3), 0.2))


@pytest.mark.parametrize("dlv, bad", [(-0.1, "negative"), (np.nan, "non-finite"),
                                      (5.5, "entries above SIGMA_MAX")])
def test_bundle_refuses_dlv_outside_domain(dlv, bad):
    """Construction refuses a DLV outside [0, SIGMA_MAX], although it
    solves no call grid."""
    sigmas = np.full((1, 2, 3, 3), 0.2)
    sigmas[0, 1, 2, 0] = dlv
    with pytest.raises(InvalidSurfaceError, match=f"local vol surface contains {bad}"):
        PathBundle(grid=desk_grid(), spots=np.ones((1, 2)), sigmas=sigmas)


def test_only_build_returns_solves_the_call_grids(tmp_path, monkeypatch):
    """simulate and read_bundle solve no call grid and build_returns solves
    them once; the returns of a written and read copy equal the original's
    bit for bit."""
    solve, solves = market.prices_from_dlv_batch, []
    monkeypatch.setattr(market, "prices_from_dlv_batch",
                        lambda grid, sigma: solves.append(sigma.shape) or solve(grid, sigma))
    grid = desk_grid()
    p = desk_params(grid)
    bundle = simulate(p, stationary_init(p), 30, 5, seed=3, grid=grid)
    write_bundle(bundle, tmp_path)
    back = read_bundle(tmp_path)
    assert solves == []
    got = build_returns(bundle, _pinned_instruments(5))
    assert solves == [(30, 6, 3, 3)]
    again = build_returns(back, _pinned_instruments(5))
    assert got.dh.tobytes() == again.dh.tobytes()
    assert got.mids.tobytes() == again.mids.tobytes()


def test_spot_only_returns_solve_no_call_grid(monkeypatch):
    """build_returns solves the call grids only for an option: the returns
    of a spot-only market read no price."""
    solves = []
    monkeypatch.setattr(market, "prices_from_dlv_batch",
                        lambda grid, sigma: solves.append(sigma.shape))
    grid = desk_grid()
    p = desk_params(grid)
    bundle = simulate(p, stationary_init(p), 30, 5, seed=3, grid=grid)
    rets = build_returns(bundle, [InstrumentSpec("spot")])
    assert solves == []
    assert np.array_equal(rets.dh[:, :, 0], bundle.spots[:, 5:] - bundle.spots[:, :5])


def test_deferred_option_bracketed_by_grid_maturities():
    grid = desk_grid()
    p = desk_params(grid)
    bundle = simulate(p, stationary_init(p), 30, 10, seed=5, grid=grid)
    # bought at t=2 with 40d: remaining maturity at T=10 is 32d,
    # between the 20d and 40d grid rows
    rets = build_returns(bundle, [InstrumentSpec("call", 1.0, 40)])
    t = 2
    s_t = bundle.spots[:, t]
    s_T = bundle.spots[:, 10]
    x_T = np.clip(1.0 * s_t / s_T, grid.boundary_lo, grid.boundary_hi)
    terminal = rets.dh[:, t, 0] + rets.mids[:, t, 0]
    from driftless.market import _interp_price

    prices = bundle.prices
    lo = s_T * _interp_price(grid, prices, 10, x_T[:, None], 20 / 252)[:, 0]
    hi = s_T * _interp_price(grid, prices, 10, x_T[:, None], 40 / 252)[:, 0]
    assert np.all(terminal >= np.minimum(lo, hi) - 1e-12)
    assert np.all(terminal <= np.maximum(lo, hi) + 1e-12)


def _pinned_instruments(T):
    """Spot; options that settle inside the horizon, two with ttm == T;
    deferred options whose remaining maturity at T lies below the first
    (20d) grid row or between rows; and strikes at the grid boundaries,
    where the strike relative to S_T clips."""
    return [
        InstrumentSpec("spot"),
        InstrumentSpec("call", 1.0, T), InstrumentSpec("put", 1.05, T),
        InstrumentSpec("call", 0.95, 1), InstrumentSpec("put", 1.0, 3),
        InstrumentSpec("call", 1.0, T + 5), InstrumentSpec("put", 0.95, T + 5),
        InstrumentSpec("call", 1.05, 59), InstrumentSpec("put", 1.0, 50),
        InstrumentSpec("call", 0.5, 45), InstrumentSpec("put", 1.6, 45),
    ]


@pytest.mark.parametrize("seed", [7, 2029])
@pytest.mark.parametrize("T", [5, 10, 30])
def test_build_returns_matches_per_step_oracle(seed, T):
    """All steps at once give the per-step reference's dh and mids bit for
    bit, on every kind of option valuation."""
    grid = desk_grid()
    p = desk_params(grid)
    bundle = simulate(p, stationary_init(p), 200, T, seed=seed, grid=grid)
    moves = bundle.spots[:, :T] / bundle.spots[:, T:]
    assert (0.5 * moves < grid.boundary_lo).any() and (1.6 * moves > grid.boundary_hi).any()
    got = build_returns(bundle, _pinned_instruments(T))
    ref = build_returns_per_step(bundle, _pinned_instruments(T))
    assert np.array_equal(got.dh, ref.dh)
    assert np.array_equal(got.mids, ref.mids)


def test_put_parity_and_nonnegativity():
    grid = desk_grid()
    p = desk_params(grid)
    bundle = simulate(p, stationary_init(p), 40, 5, seed=6, grid=grid)
    call = build_returns(bundle, [InstrumentSpec("call", 1.05, 40)])
    put = build_returns(bundle, [InstrumentSpec("put", 1.05, 40)])
    s_t = bundle.spots[:, :5]
    # parity at trade time: P = C - S (1 - k), exact
    assert np.allclose(
        put.mids[:, :, 0], call.mids[:, :, 0] - s_t * (1.0 - 1.05), atol=1e-12
    )
    # out-of-the-money puts have non-negative value
    assert np.all(put.mids[:, :, 0] >= -1e-12)


class TestGains:
    def test_zero_actions(self):
        b = flat_bundle()
        rets = build_returns(b, [InstrumentSpec("spot")])
        a = np.zeros_like(rets.dh)
        assert np.array_equal(np.einsum("pti,pti->p", a, rets.dh), np.zeros(4))

    def test_simple_sum(self):
        b = flat_bundle(n_paths=1, n_steps=2)
        rets = build_returns(b, [InstrumentSpec("spot")])
        rets.dh[0, :, 0] = [0.1, -0.2]
        a = np.ones((1, 2, 1))
        assert np.einsum("pti,pti->p", a, rets.dh)[0] == pytest.approx(-0.1)

    def test_linear_in_actions(self):
        grid = desk_grid()
        p = desk_params(grid)
        bundle = simulate(p, stationary_init(p), 10, 4, seed=8, grid=grid)
        rets = build_returns(bundle, [InstrumentSpec("spot"),
                                      InstrumentSpec("call", 1.0, 20)])
        rng = np.random.default_rng(0)
        a, b2 = rng.normal(size=(2,) + rets.dh.shape)
        lhs = np.einsum("pti,pti->p", 2.0 * a + 0.3 * b2, rets.dh)
        rhs = (2.0 * np.einsum("pti,pti->p", a, rets.dh)
               + 0.3 * np.einsum("pti,pti->p", b2, rets.dh))
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_delta_form_equivalence_for_fixed_instrument(self):
        # spot is the same instrument at every step, so holding-increment
        # accounting must agree: sum a_t DH_t = sum delta_t dH_t
        grid = desk_grid()
        p = desk_params(grid)
        bundle = simulate(p, stationary_init(p), 25, 6, seed=12, grid=grid)
        rets = build_returns(bundle, [InstrumentSpec("spot")])
        rng = np.random.default_rng(3)
        a = rng.normal(size=(25, 6, 1))
        lhs = np.einsum("pti,pti->p", a, rets.dh)
        delta = np.cumsum(a[:, :, 0], axis=1)
        dH = np.diff(bundle.spots, axis=1)
        rhs = (delta * dH).sum(axis=1)
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestFeatures:
    def test_flat_state_vector(self):
        b = flat_bundle(sigma=0.2)
        f = feature_matrix(b)[0, 0]
        expected = np.concatenate(([0.0, 0.0], np.full(9, np.log(0.2))))
        assert np.allclose(f, expected, atol=1e-15)

    def test_deterministic(self):
        b = flat_bundle()
        f1 = feature_matrix(b)[1, 2]
        f2 = feature_matrix(b)[1, 2]
        assert np.array_equal(f1, f2)

    def test_length(self):
        b = flat_bundle()
        assert feature_matrix(b).shape == (4, 3, 2 + 9)

    def test_zero_vol_floored(self):
        b = flat_bundle(sigma=0.0)
        f = feature_matrix(b)[0, 0]
        assert np.all(np.isfinite(f))
        assert f[2] == pytest.approx(np.log(1e-6))

    def test_matrix_matches_per_state(self):
        grid = desk_grid()
        p = desk_params(grid)
        bundle = simulate(p, stationary_init(p), 6, 4, seed=2, grid=grid)
        fm = feature_matrix(bundle)
        assert fm.shape == (6, 4, 11)
        for pth in range(6):
            for t in range(4):
                logsig = np.log(np.maximum(bundle.sigmas[pth, t], 1e-6)).ravel()
                expected = np.concatenate(([t / 4, np.log(bundle.spots[pth, t])], logsig))
                assert np.allclose(fm[pth, t], expected, atol=1e-15)


class TestGridDomainErrors:
    def test_strike_outside_span(self):
        b = flat_bundle()
        with pytest.raises(GridDomainError):
            build_returns(b, [InstrumentSpec("call", 2.5, 20)])

    def test_maturity_outside_span(self):
        b = flat_bundle()
        with pytest.raises(GridDomainError):
            build_returns(b, [InstrumentSpec("call", 1.0, 120)])


@pytest.mark.parametrize("kwargs, field", [
    ({"rel_strike": 1.0, "ttm_days": float("nan")}, "ttm_days"),
    ({"rel_strike": 1.0, "ttm_days": 2.5}, "ttm_days"),
    ({"rel_strike": 1.0, "ttm_days": True}, "ttm_days"),
    ({"rel_strike": float("nan"), "ttm_days": 20}, "rel_strike"),
    ({"rel_strike": float("inf"), "ttm_days": 20}, "rel_strike"),
    ({"rel_strike": "1.0", "ttm_days": 20}, "rel_strike"),
], ids=["nan_ttm", "fractional_ttm", "bool_ttm", "nan_strike", "inf_strike", "string_strike"])
def test_instrument_numeric_fields_checked(kwargs, field):
    """A non-numeric, non-finite or (for ttm_days) non-integer field is
    refused with an InputError that names it, before any returns are built."""
    with pytest.raises(InputError, match=field):
        InstrumentSpec("call", **kwargs)


class TestBundleIo:
    def test_round_trip_and_determinism(self, tmp_path):
        grid = desk_grid()
        p = desk_params(grid)
        bundle = simulate(p, stationary_init(p), 8, 3, seed=4, grid=grid)

        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_bundle(bundle, d1)
        write_bundle(bundle, d2)
        assert sorted(f.name for f in d1.iterdir()) == ["meta.json", "paths.csv"]
        for name in ("meta.json", "paths.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        assert "has_weights" not in json.loads((d1 / "meta.json").read_text())

        back = read_bundle(d1)
        assert np.array_equal(back.spots, bundle.spots)
        assert np.array_equal(back.sigmas, bundle.sigmas)
        assert back.seed == bundle.seed

    def test_weights_csv_round_trip(self, tmp_path):
        w = np.array([0.5, 1.5, 1.0])
        f = tmp_path / "w.csv"
        write_weights_csv(f, w)
        assert np.array_equal(read_weights_csv(f), w)

    @pytest.mark.parametrize(
        "rows, match",
        [
            (["0,0.5", "1,1.5", "1,1.0"], "line 4: row ['path'] [1] repeated"),  # duplicate
            (["0,0.5", "2,1.5"], "lacks row ['path'] [1]"),  # missing path 1
            (["0,0.5", "1,1.5", "7,1.0"], "lacks row ['path'] [2]"),  # out of range
            (["0,0.5", "-1,1.5"], "non-negative integers"),  # negative
            (["0,0.5", "1"], "block from line 2"),  # short row
            (["0,0.5,9", "1,1.5,9"], "line 2: 3 fields, header has 2"),  # rows wider than header
        ],
        ids=[f"rows{i}" for i in range(6)],
    )
    def test_weights_csv_bad_path_index_rejected(self, tmp_path, rows, match):
        f = tmp_path / "w.csv"
        f.write_text("\n".join(["path,weight"] + rows) + "\n")
        with pytest.raises(InputError, match=re.escape(match)):
            read_weights_csv(f)

    @pytest.mark.parametrize("block_rows, rows, line", [
        (10_000, ["1,0.5", "0,1.5", "2,1.0", "1,1.0"], 5),  # in one block, rows apart
        (2, ["1,0.5", "0,1.5", "2,1.0", "1,1.0"], 5),  # the original is in an earlier block
        (2, ["0,0.5", "1,1.5", "2,1.0", "2,1.0"], 5),  # both in the second block
    ], ids=["one_block", "across_blocks", "second_block"])
    def test_weights_csv_repeat_named_at_its_line(self, tmp_path, monkeypatch, block_rows,
                                                   rows, line):
        """A repeated path is named at the row that repeats it, not at the
        row it repeats, wherever the CSV's row blocks fall."""
        monkeypatch.setattr("driftless.market._BLOCK_ROWS", block_rows)
        f = tmp_path / "w.csv"
        f.write_text("\n".join(["path,weight"] + rows) + "\n")
        with pytest.raises(InputError, match=re.escape(f"line {line}: row ['path'] [")):
            read_weights_csv(f)

    @staticmethod
    def _bundle_dir(tmp_path):
        grid = desk_grid()
        p = desk_params(grid)
        bundle = simulate(p, stationary_init(p), 8, 3, seed=4, grid=grid)
        d = tmp_path / "b"
        write_bundle(bundle, d)
        return d

    @pytest.mark.parametrize("provenance", [None, 7, ["var"], {"seed": 4}],
                             ids=["null", "number", "list", "object"])
    def test_provenance_must_be_a_string(self, tmp_path, provenance):
        """write_bundle writes ``provenance`` back, so read_bundle takes only
        a string."""
        d = self._bundle_dir(tmp_path)
        f = d / "meta.json"
        f.write_text(json.dumps({**json.loads(f.read_text()), "provenance": provenance}))
        with pytest.raises(InputError, match="'provenance' must be a string"):
            read_bundle(d)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda lines: lines[:-20],  # truncated
            lambda lines: lines[:-1] + [lines[-2]],  # duplicated row
            lambda lines: lines + ["8" + lines[-1][1:]],  # path out of range
            lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0]],  # short row
            lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",abc"],  # non-numeric
            lambda lines: lines[:2] + ["# comment"] + lines[2:],  # comment row
            lambda lines: lines[:-1] + [lines[-1] + " # note"],  # trailing comment
            lambda lines: lines[:-1] + ['"' + lines[-1].replace(",", '","') + '"'],  # quoted
            lambda lines: lines[:2] + [""] + lines[2:],  # blank line
            lambda lines: lines[:1] + ["0.5" + lines[1][1:]] + lines[2:],  # fractional path
            lambda lines: [lines[0] + ",extra"] + lines[1:],  # header wider than the grid's
        ],
    )
    def test_bad_paths_csv_rejected(self, tmp_path, edit):
        d = self._bundle_dir(tmp_path)
        f = d / "paths.csv"
        f.write_text("\n".join(edit(f.read_text().splitlines())) + "\n")
        with pytest.raises(InputError):
            read_bundle(d)

    @pytest.mark.parametrize("seed", [-5, 2**64], ids=["negative", "two_to_64"])
    def test_seed_outside_key_range_rejected(self, tmp_path, seed):
        """A meta.json seed that no simulation could have used, as simulate
        refuses a seed outside [0, 2**64), is refused."""
        d = self._bundle_dir(tmp_path)
        f = d / "meta.json"
        f.write_text(json.dumps({**json.loads(f.read_text()), "seed": seed}))
        with pytest.raises(InputError, match=re.escape("bundle meta 'seed' must lie in "
                                                       "[0, 2**64)")):
            read_bundle(d)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda meta: {**meta, "has_weights": True},  # a bundle that claims weights
            lambda meta: {**meta, "has_weights": "no"},  # not a bool
            lambda meta: {**meta, "has_weights": 0},  # falsy, but not false
        ],
    )
    def test_bad_bundle_weights_rejected(self, tmp_path, edit):
        """A bundle carries no weights: meta.json may say "has_weights":
        false, as bundles written before weights left the format do, and
        anything else is rejected with a pointer to --weights."""
        d = self._bundle_dir(tmp_path)
        f = d / "meta.json"
        meta = json.loads(f.read_text())
        f.write_text(json.dumps({**meta, "has_weights": False}))
        assert read_bundle(d).n_paths == 8
        f.write_text(json.dumps(edit(meta)))
        with pytest.raises(InputError, match="--weights"):
            read_bundle(d)

    def test_sizes_the_file_cannot_hold_rejected_before_allocating(self, tmp_path):
        """A meta.json declaring 10^12 paths is refused from the size of
        paths.csv alone, before the 10^12-row arrays are allocated."""
        d = self._bundle_dir(tmp_path)
        f = d / "meta.json"
        f.write_text(json.dumps({**json.loads(f.read_text()), "n_paths": 10**12}))
        with pytest.raises(InputError, match=r"paths.csv has \d+ bytes, fewer than the "
                                             r"\d+ that the 1000000000000 x 4"):
            read_bundle(d)

    def test_exact_bytes(self, tmp_path):
        grid = DlvGrid(strikes=(0.9, 1.1), maturities=(0.1,))
        spots = np.array([[1.0, 1.1], [1.0, 1 / 3]])
        sigmas = np.array([0.2, 0.25, 1e-05, 0.3, 0.2, 0.2, 2.5e-16, 0.1]).reshape(2, 2, 1, 2)
        bundle = bundle_from_sigmas(grid, spots, sigmas)
        write_bundle(bundle, tmp_path)
        assert (tmp_path / "paths.csv").read_bytes() == (
            b"path,step,spot,dlv_1_1,dlv_1_2\r\n"
            b"0,0,1.0,0.2,0.25\r\n"
            b"0,1,1.1,1e-05,0.3\r\n"
            b"1,0,1.0,0.2,0.2\r\n"
            b"1,1,0.3333333333333333,2.5e-16,0.1\r\n"
        )
        back = read_bundle(tmp_path)
        assert back.spots.tobytes() == spots.tobytes()
        assert back.sigmas.tobytes() == sigmas.tobytes()
        write_weights_csv(tmp_path / "weights.csv", np.array([0.5, 1.5]))
        assert (tmp_path / "weights.csv").read_bytes() == b"path,weight\r\n0,0.5\r\n1,1.5\r\n"

    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
    def test_files_get_the_mode_open_would_give(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            d = self._bundle_dir(tmp_path)
            write_weights_csv(d / "weights.csv", np.ones(8))
        finally:
            os.umask(old)
        for name in ("paths.csv", "weights.csv", "meta.json"):
            assert stat.S_IMODE(os.stat(d / name).st_mode) == 0o666 & ~umask

    def test_failed_replace_keeps_old_target(self, tmp_path, monkeypatch):
        f = tmp_path / "w.csv"
        f.write_text("old")

        def fail(src, dst):
            raise OSError("replace failed")

        monkeypatch.setattr(market.os, "replace", fail)
        with pytest.raises(OSError, match="replace failed"):
            write_text(f, "new")
        assert f.read_text() == "old"
        assert list(tmp_path.glob("*.tmp")) == []


class TestBundleInvariants:
    def test_bad_weights_rejected(self):
        n = flat_bundle().n_paths
        with pytest.raises(InputError, match="mean 1"):
            check_weights(np.array([2.0, 2.0, 2.0, 2.0]), n)
        with pytest.raises(InputError, match="positive"):
            check_weights(np.array([0.0, 2.0, 1.0, 1.0]), n)
        with pytest.raises(InputError, match="finite"):
            check_weights(np.array([np.nan, 1.0, 1.0, 1.0]), n)
        with pytest.raises(InputError, match="one per path"):
            check_weights(np.ones(n + 1), n)
