import json

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from driftless.errors import InputError, UtilityDomainError
from driftless.oce import (
    Utility,
    closed_form_y,
    concave_argmax,
    legendre,
    oce_sup,
    oce_value,
    u_deriv,
    u_deriv_inverse,
    u_value,
)

from oracles import plain_bisection

FAMILIES = ("exponential", "adjusted_mean_vol")


@pytest.mark.parametrize("family", FAMILIES)
def test_normalization(family):
    u = Utility(family, 1.3)
    assert u_value(u, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert u_deriv(u, 0.0) == pytest.approx(1.0, abs=1e-15)


def test_exponential_point_value():
    u = Utility("exponential", 1.0)
    assert u_value(u, 1.0) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_deriv_matches_central_difference(family):
    u = Utility(family, 0.7)
    h = 1e-6
    for x in np.linspace(-5.0, 5.0, 41):
        fd = (u_value(u, x + h) - u_value(u, x - h)) / (2 * h)
        assert u_deriv(u, x) == pytest.approx(fd, abs=1e-8)


@pytest.mark.parametrize("family", FAMILIES)
def test_concave_increasing(family):
    u = Utility(family, 1.0)
    xs = np.linspace(-10, 10, 201)
    vals = u_value(u, xs)
    assert np.all(np.diff(vals) > 0)
    assert np.all(np.diff(np.diff(vals)) < 1e-12)


@pytest.mark.parametrize("family", FAMILIES)
def test_deriv_inverse_round_trip(family):
    u = Utility(family, 2.0)
    for x in np.linspace(-3, 3, 25):
        y = u_deriv(u, x)
        assert u_deriv_inverse(u, y) == pytest.approx(x, abs=1e-9)


def test_deriv_inverse_domain_errors():
    with pytest.raises(UtilityDomainError):
        u_deriv_inverse(Utility("exponential", 1.0), -0.5)
    with pytest.raises(UtilityDomainError):
        u_deriv_inverse(Utility("adjusted_mean_vol", 1.0), 2.5)


class TestLegendre:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_value_at_one_is_zero(self, family):
        assert legendre(Utility(family, 1.7), 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_exponential_closed_form(self):
        u = Utility("exponential", 1.0)
        assert legendre(u, 2.0) == pytest.approx(1 - 2 + 2 * np.log(2), rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_numeric_sup(self, family):
        u = Utility(family, 1.0)
        for y in (0.3, 0.8, 1.5):
            res = minimize_scalar(
                lambda x: -(u_value(u, x) - y * x), bounds=(-60, 60), method="bounded",
                options={"xatol": 1e-12},
            )
            assert legendre(u, y) == pytest.approx(-res.fun, abs=1e-7)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_fenchel_inequality(self, family):
        u = Utility(family, 1.0)
        rng = np.random.default_rng(8)
        ys = rng.uniform(0.05, 1.95, size=200)
        xs = rng.uniform(-5, 5, size=200)
        assert np.all(legendre(u, ys) >= u_value(u, xs) - ys * xs - 1e-12)


class TestClosedFormY:
    def test_zero_sample(self):
        u = Utility("exponential", 1.0)
        assert closed_form_y(u, np.zeros(10)) == pytest.approx(0.0)

    def test_two_point(self):
        u = Utility("exponential", 1.0)
        y = closed_form_y(u, np.array([1.0, -1.0]))
        assert y == pytest.approx(np.log((np.exp(-1) + np.exp(1)) / 2), rel=1e-12)

    def test_matches_numeric_sup(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=500)
        w = np.abs(rng.normal(size=500)) + 0.1
        w = w / w.mean()
        u = Utility("exponential", 1.4)
        y_cf = closed_form_y(u, x, w)

        def f(y):
            return float(np.mean(w * u_value(u, y + x)) - y)

        res = minimize_scalar(lambda y: -f(y), bounds=(-20, 20), method="bounded",
                              options={"xatol": 1e-12})
        assert y_cf == pytest.approx(res.x, abs=1e-7)
        assert f(y_cf) >= f(res.x) - 1e-10


class TestOceSup:
    def test_entropy_form(self):
        rng = np.random.default_rng(17)
        x = rng.normal(size=300)
        u = Utility("exponential", 2.0)
        val, y = oce_sup(x, None, u)
        lam = 2.0
        entropic = -np.log(np.mean(np.exp(-lam * x))) / lam
        assert val == pytest.approx(entropic, abs=1e-10)

    def test_adjusted_family_numeric(self):
        rng = np.random.default_rng(18)
        x = rng.normal(size=300)
        u = Utility("adjusted_mean_vol", 1.0)
        val, y_star = oce_sup(x, None, u)
        ys = np.linspace(y_star - 0.5, y_star + 0.5, 401)
        grid_best = max(float(np.mean(u_value(u, y + x)) - y) for y in ys)
        assert val >= grid_best - 1e-8

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pnl_raises(self, bad):
        """A NaN or infinite P&L makes the search bounds non-finite; the
        bounded search refuses them rather than return NaN."""
        x = np.array([0.1, -0.2, bad, 0.3])
        with pytest.raises(InputError, match=r"search bounds \(.*\) must be finite"):
            oce_sup(x, None, Utility("adjusted_mean_vol", 1.0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pnl_raises_exponential(self, bad):
        """The closed form of the exponential family refuses a NaN or
        infinite P&L rather than return NaN or an infinite y."""
        x = np.array([0.1, -0.2, bad, 0.3])
        with pytest.raises(InputError, match="P&L sample must be finite"):
            oce_sup(x, None, Utility("exponential", 1.0))


class TestConcaveArgmax:
    @pytest.mark.parametrize("root", [0.25, 5000.0, -3000.0])
    def test_widens_to_the_root(self, root):
        """From [0, 1] the bracket moves past whichever end the slope has
        yet to change sign at, until it holds the root."""
        assert concave_argmax(lambda y: root - y, 0.0, 1.0) == pytest.approx(root, abs=1e-12)

    @pytest.mark.parametrize("sign", [1.0, 0.0, -1.0], ids=["positive", "zero", "negative"])
    def test_one_signed_slope_raises(self, sign):
        """A slope that keeps its sign out to infinity has no finite
        maximizer (a zero slope counts as non-positive)."""
        with pytest.raises(InputError, match="no finite maximizer"):
            concave_argmax(lambda y: sign, 0.0, 1.0)

    def test_oce_sup_bracket_gives_plain_bisection(self):
        """oce_sup's bracket [-max x - 1, -min x + 1] holds the root, so its
        y is plain bisection on that bracket bit for bit: the widening only
        evaluates the two ends."""
        rng = np.random.default_rng(5)
        for scale, lam in ((0.01, 0.5), (1.0, 1.0), (30.0, 2.0)):
            x = scale * rng.standard_t(4, size=400)
            w = rng.uniform(0.2, 2.0, size=400)
            w /= w.mean()
            u = Utility("adjusted_mean_vol", lam)
            _, y = oce_sup(x, w, u)
            assert y == plain_bisection(lambda v: float(np.mean(w * u_deriv(u, v + x))) - 1.0,
                                        -x.max() - 1.0, -x.min() + 1.0)


class TestOceAxioms:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_monotone_cash_invariant_concave(self, family):
        rng = np.random.default_rng(23)
        u = Utility(family, 1.0)
        x = rng.normal(size=400)
        y = x - np.abs(rng.normal(size=400))  # y <= x pointwise
        ux, _ = oce_sup(x, None, u)
        uy, _ = oce_sup(y, None, u)
        assert ux >= uy - 1e-12
        # cash invariance
        c = 0.77
        shifted, _ = oce_sup(x + c, None, u)
        assert shifted == pytest.approx(ux + c, abs=1e-8)
        # midpoint concavity
        z = rng.normal(size=400)
        mid, _ = oce_sup(0.5 * (x + z), None, u)
        uz, _ = oce_sup(z, None, u)
        assert mid >= 0.5 * (ux + uz) - 1e-10

    @pytest.mark.parametrize("family", FAMILIES)
    def test_bounded_by_max(self, family):
        rng = np.random.default_rng(29)
        u = Utility(family, 1.0)
        x = rng.normal(size=200)
        val, _ = oce_sup(x, None, u)
        assert val <= x.max() + 1e-12


def test_objective_cash_invariance_form():
    rng = np.random.default_rng(31)
    u = Utility("exponential", 1.0)
    g = rng.normal(size=50)
    w = np.ones(50)
    c = 0.31
    # E[u(y + (G + c))] - y = (E[u((y + c) + G)] - (y + c)) + c
    lhs = oce_value(g + c, w, u, 0.2)
    rhs = oce_value(g, w, u, 0.2 + c) + c
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_two_path_objective_value():
    u = Utility("exponential", 1.0)
    g = np.array([1.0, -1.0])
    w = np.ones(2)
    val = oce_value(g, w, u, 0.0)
    assert val == pytest.approx(1 - (np.exp(-1) + np.exp(1)) / 2, rel=1e-12)


def test_utility_json_round_trip():
    """A utility JSON document as the README gives it parses to its utility."""
    doc = json.loads('{"family": "adjusted_mean_vol", "lambda": 0.5}')
    assert Utility.from_dict(doc) == Utility("adjusted_mean_vol", 0.5)


def test_utility_from_dict_rejects_bad_keys():
    with pytest.raises(InputError, match="lam"):
        Utility.from_dict({"family": "exponential", "lam": 5.0})
    with pytest.raises(InputError, match="family"):
        Utility.from_dict({"lambda": 5.0})
    assert Utility.from_dict({"family": "exponential", "lambda": 5.0}).lam == 5.0
