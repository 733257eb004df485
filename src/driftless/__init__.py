"""Statistical market simulation, near-martingale reweighting and
drift-robust deep hedging."""

from .frictions import CostSpec
from .market import (
    InstrumentReturn,
    InstrumentSpec,
    MarketState,
    PathBundle,
    build_returns,
    features,
    gains,
)
from .measure import DensityWeights, density, memm_one_period, verify_drift
from .oce import Utility, closed_form_y, legendre, u_deriv, u_value
from .surface import CallGrid, DlvGrid, DlvSurface, dlv_from_prices, prices_from_dlv
from .trainer import Mlp, Solution, TrainConfig, train
from .var_model import VarParams, fit_var, simulate

__version__ = "0.1.0"

__all__ = [
    "CallGrid",
    "CostSpec",
    "DensityWeights",
    "DlvGrid",
    "DlvSurface",
    "InstrumentReturn",
    "InstrumentSpec",
    "MarketState",
    "Mlp",
    "PathBundle",
    "Solution",
    "TrainConfig",
    "Utility",
    "VarParams",
    "build_returns",
    "closed_form_y",
    "density",
    "dlv_from_prices",
    "features",
    "fit_var",
    "gains",
    "legendre",
    "memm_one_period",
    "prices_from_dlv",
    "simulate",
    "train",
    "u_deriv",
    "u_value",
    "verify_drift",
]
