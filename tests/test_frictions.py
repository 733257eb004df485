import json

import numpy as np
import pytest

from driftless.errors import InputError
from driftless.frictions import CostSpec, marginal_rate

from oracles import marginal_cost


def test_zero_action_costs_nothing():
    spec = CostSpec(gamma_prop=0.001)
    assert marginal_cost(spec, np.zeros(3), np.full(3, 0.05)) == 0.0


def test_proportional_arithmetic():
    spec = CostSpec(gamma_prop=0.001)
    assert marginal_cost(spec, np.array([10.0]), np.array([0.05])) == pytest.approx(0.0005)
    assert marginal_cost(spec, np.array([-10.0]), np.array([0.05])) == pytest.approx(0.0005)


def test_marginal_rates_zero_spec():
    assert np.all(marginal_rate(CostSpec(gamma_prop=0.0), np.full(2, 0.05)) == 0)


def test_marginal_rates_value():
    assert np.allclose(marginal_rate(CostSpec(gamma_prop=0.001), np.full(4, 0.05)), 5e-5)
    assert np.allclose(marginal_rate(CostSpec(gamma_prop=0.001), np.full(4, -0.05)), 5e-5)


def test_one_sided_difference_matches_rate():
    spec = CostSpec(gamma_prop=0.001)
    mids = np.array([0.04, 0.07])
    rate = marginal_rate(spec, mids)
    for i in range(2):
        for eps in (1e-3, 1e-6, -1e-3, -1e-6):
            e = np.zeros(2)
            e[i] = eps
            assert (marginal_cost(spec, e, mids) - 0.0) / abs(eps) == pytest.approx(rate[i])


def test_marginal_cost_zero():
    spec = CostSpec(gamma_prop=0.01)
    assert marginal_cost(spec, np.zeros(2), np.ones(2)) == 0.0


def test_marginal_cost_signed_legs():
    # gamma+ = gamma- = 0.01 and 0.02 per instrument via mids 1 and 2
    spec = CostSpec(gamma_prop=0.01)
    a = np.array([2.0, -3.0])
    mids = np.array([1.0, 2.0])
    assert marginal_cost(spec, a, mids) == pytest.approx(0.02 + 0.06)


def test_positive_homogeneity():
    rng = np.random.default_rng(6)
    spec = CostSpec(gamma_prop=0.003)
    a = rng.normal(size=4)
    mids = np.abs(rng.normal(size=4)) + 0.05
    for lam in (0.5, 2.0, 7.3):
        assert marginal_cost(spec, lam * a, mids) == pytest.approx(
            lam * marginal_cost(spec, a, mids), rel=1e-12
        )


def test_cost_convex_midpoint():
    rng = np.random.default_rng(7)
    spec = CostSpec(gamma_prop=0.001)
    mids = np.abs(rng.normal(size=3)) + 0.02
    for _ in range(200):
        a, b = rng.normal(size=(2, 3)) * 3
        ca = marginal_cost(spec, a, mids)
        cb = marginal_cost(spec, b, mids)
        cm = marginal_cost(spec, 0.5 * (a + b), mids)
        assert cm <= 0.5 * (ca + cb) + 1e-12


def test_json_round_trip():
    """A cost JSON document as the README gives it parses to its spec."""
    doc = json.loads('{"gamma": 0.001, "mode": "marginal"}')
    assert CostSpec.from_dict(doc) == CostSpec(gamma_prop=0.001, mode="marginal")
    assert CostSpec.from_dict({}) == CostSpec()


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        CostSpec(gamma_prop=-0.1)


def test_only_marginal_and_none_modes():
    with pytest.raises(InputError):
        CostSpec(gamma_prop=0.001, mode="full")
    with pytest.raises(InputError):
        CostSpec(gamma_prop=0.001, mode="none")
    assert CostSpec(gamma_prop=0.0, mode="none").mode == "none"


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(InputError, match="vega_cap"):
        CostSpec.from_dict({"gamma": 0.001, "vega_cap": 1.0})
    with pytest.raises(InputError):
        CostSpec.from_dict([0.001])
