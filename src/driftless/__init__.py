"""Statistical market simulation, near-martingale reweighting and
drift-robust deep hedging."""

from .frictions import CostSpec
from .market import InstrumentReturn, InstrumentSpec, PathBundle, build_returns
from .measure import DensityWeights, density, verify_drift
from .oce import Utility, closed_form_y, legendre, u_deriv, u_value
from .surface import DlvGrid, dlv_from_prices, prices_from_dlv_batch
from .trainer import Mlp, Solution, TrainConfig, train
from .var_model import VarParams, fit_var, simulate

__version__ = "0.1.0"

__all__ = [
    "CostSpec",
    "DensityWeights",
    "DlvGrid",
    "InstrumentReturn",
    "InstrumentSpec",
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
    "fit_var",
    "legendre",
    "prices_from_dlv_batch",
    "simulate",
    "train",
    "u_deriv",
    "u_value",
    "verify_drift",
]
