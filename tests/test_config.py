"""Each config dataclass is its own schema: its constructor refuses what its
JSON reader refuses, and a key left out of the JSON takes the field's
default."""

import copy

import pytest

from driftless.cli import _instruments
from driftless.errors import InputError
from driftless.frictions import CostSpec
from driftless.hedging import PayoffSpec
from driftless.market import InstrumentSpec
from driftless.oce import Utility
from driftless.surface import DAYS_PER_YEAR, DlvGrid
from driftless.trainer import Mlp, TrainConfig
from driftless.var_model import VarParams

_ZEROS = [[0.0, 0.0], [0.0, 0.0]]
_CHOL = [[0.2, 0.0], [0.0, 0.1]]

# class: (reader of a JSON document, valid constructor arguments, the same
# as a JSON document, and per numeric field (field, JSON key, integer, list))
CONFIGS = {
    CostSpec: (CostSpec.from_dict, {}, {}, [("gamma_prop", "gamma", False, False)]),
    Utility: (Utility.from_dict, {"family": "exponential"}, {"family": "exponential"},
              [("lam", "lambda", False, False)]),
    PayoffSpec: (PayoffSpec.from_dict, {"kind": "vanilla_call", "maturity_steps": 1},
                 {"kind": "vanilla_call", "maturity_steps": 1},
                 [("rel_strike", "rel_strike", False, False),
                  ("maturity_steps", "maturity_steps", True, False),
                  ("side", "side", True, False)]),
    InstrumentSpec: (lambda d: _instruments([d])[0],
                     {"kind": "call", "rel_strike": 1.0, "ttm_days": 20},
                     {"kind": "call", "rel_strike": 1.0, "ttm_days": 20},
                     [("rel_strike", "rel_strike", False, False),
                      ("ttm_days", "ttm_days", True, False)]),
    TrainConfig: (TrainConfig.from_dict, {}, {},
                  [("epochs", "epochs", True, False), ("batch_size", "batch_size", True, False),
                   ("lr", "lr", False, False), ("lr_decay", "lr_decay", False, False),
                   ("seed", "seed", True, False), ("hidden", "hidden", True, True)]),
    DlvGrid: (DlvGrid.from_dict, {"strikes": (0.9, 1.1), "maturities": (20 / DAYS_PER_YEAR,)},
              {"strikes": [0.9, 1.1], "maturities_days": [20]},
              [("strikes", "strikes", False, True),
               ("maturities", "maturities_days", False, True),
               ("boundary_lo", "boundary_lo", False, False),
               ("boundary_hi", "boundary_hi", False, False)]),
    # no numeric scalar field: its arrays are checked below
    VarParams: (VarParams.from_dict,
                {"a1": _ZEROS, "a2": _ZEROS, "b": [0.0, 0.0], "chol": _CHOL},
                {"a1": _ZEROS, "a2": _ZEROS, "b": [0.0, 0.0], "chol": _CHOL}, []),
}

BAD = {"nan": float("nan"), "inf": float("inf"), "-inf": float("-inf"), "bool": True,
       "string": "1"}


def _cases():
    for cls, (_, _, _, fields) in CONFIGS.items():
        for field, key, integer, is_list in fields:
            bad = {**BAD, "2.5": 2.5} if integer else BAD
            for name, value in bad.items():
                yield pytest.param(cls, field, key, [8, value] if is_list else value,
                                   id=f"{cls.__name__}-{field}-{name}")


@pytest.mark.parametrize("cls, field, key, value", list(_cases()))
def test_constructor_and_reader_refuse_bad_number(cls, field, key, value):
    """For each numeric field, the constructor and the JSON reader both
    raise InputError on NaN, +-inf, a bool, a string, and for an integer
    field 2.5."""
    reader, kwargs, doc, _ = CONFIGS[cls]
    cls(**kwargs)
    reader(doc)
    with pytest.raises(InputError):
        cls(**{**kwargs, field: value})
    with pytest.raises(InputError):
        reader({**doc, key: value})


_HUGE = 10**400  # an integer beyond the float range, as a JSON literal can hold


@pytest.mark.parametrize("call", [
    lambda: TrainConfig(lr=_HUGE),
    lambda: TrainConfig.from_dict({"lr": _HUGE}),
    lambda: Utility(family="exponential", lam=_HUGE),
    lambda: Utility.from_dict({"family": "exponential", "lambda": _HUGE}),
    lambda: VarParams(**{**CONFIGS[VarParams][1], "b": [0.0, _HUGE]}),
    lambda: VarParams.from_dict({**CONFIGS[VarParams][2], "b": [0.0, _HUGE]}),
    lambda: _instruments([{"kind": "call", "rel_strike": 1.0, "ttm_days": _HUGE}]),
], ids=["train_lr", "train_lr_reader", "utility_lambda", "utility_lambda_reader",
        "var_b", "var_b_reader", "instrument_ttm_days"])
def test_integer_beyond_float_range_refused(call):
    """A numeric field or array entry holding an integer too large for a
    float raises InputError, not the OverflowError of its conversion to
    float, here or later in the pipeline (a ttm_days in days per year)."""
    with pytest.raises(InputError):
        call()


@pytest.mark.parametrize("cls", [c for c in CONFIGS if c is not VarParams])
def test_key_left_out_takes_the_field_default(cls):
    """Every key a JSON document leaves out takes its dataclass field's
    default: the reader and the constructor give equal configs.  (VarParams
    has no optional key, and its arrays do not compare with ==.)"""
    reader, kwargs, doc, _ = CONFIGS[cls]
    assert reader(doc) == cls(**kwargs)


_POLICY = {"weights": [[[1.0, 0.5]], [[1.0], [2.0]]], "biases": [[0.0, 0.0], [0.0]]}


def _with_first_entry(values, value):
    """A copy of the nested list ``values`` with its first number set to
    ``value``."""
    values = copy.deepcopy(values)
    inner = values
    while isinstance(inner[0], list):
        inner = inner[0]
    inner[0] = value
    return values


@pytest.mark.parametrize("value", [True, "0.1"], ids=["bool", "string"])
@pytest.mark.parametrize("cls, field", [*((VarParams, f) for f in ("a1", "a2", "b", "chol")),
                                        (Mlp, "weights"), (Mlp, "biases")])
def test_array_refuses_bool_or_string_entry(cls, field, value):
    """An array entry that a scalar field would refuse, a bool or a
    string, is refused inside VarParams' and the policy's arrays, through
    the constructor and the reader, with InputError naming the key."""
    if cls is VarParams:
        _, kwargs, doc, _ = CONFIGS[VarParams]
        calls = [lambda: VarParams(**{**kwargs, field: _with_first_entry(kwargs[field], value)}),
                 lambda: VarParams.from_dict({**doc, field: _with_first_entry(doc[field], value)})]
    else:
        Mlp.from_dict(_POLICY)
        calls = [lambda: Mlp.from_dict({**_POLICY, field: _with_first_entry(_POLICY[field], value)})]
    for call in calls:
        with pytest.raises(InputError, match=f"'{field}'"):
            call()
