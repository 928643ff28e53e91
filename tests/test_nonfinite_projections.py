"""A non-finite projection anywhere on the solve path ends the run as
`numerical_failure` at the iteration where it occurs, with the same message.

The solver checks finiteness once per stopping gap and once per step, not
after every projection.  Each case poisons one entry of the i-th projection
onto one set and compares the outcome with a reference run of the same solve
in which every projection is checked as it returns, as `geometry.project`
does.  On matrix completion the poisoned entry is a pinned one, which a later
EntryMask projection rewrites: a kernel that applies a projection after the
poisoned one must therefore check each of its projections itself.
"""
import math
import sys

import numpy as np
import pytest

from cfeas.errors import NonconvergedProjection
from cfeas.operators import KernelSpec
from cfeas.problems import generate
from cfeas.solver import STATUS_NUMERICAL_FAILURE, SolverConfig, solve

_MC = ("matrix_completion", 2, {"n": 12, "rank": 2, "obs_frac": 0.5})
_ELL = ("ellipsoids", 1, {"n": 20, "cond": 10.0})

# eps this small never stops a run; max_iter bounds it
_CFG = {"eps": 1e-300, "max_iter": 12}

_CONFIGS = {
    "mc-XY": (_MC, {"kernel": KernelSpec.from_string("XY")}),
    "mc-YXY": (_MC, {"kernel": KernelSpec.from_string("YXY")}),
    "mc-XYXY": (_MC, {"kernel": KernelSpec.from_string("XYXY")}),
    "mc-map": (_MC, {"method": "map"}),
    "ell-XY": (_ELL, {"kernel": KernelSpec.from_string("XY")}),
    "ell-YXY": (_ELL, {"kernel": KernelSpec.from_string("YXY")}),
    "ell-map": (_ELL, {"method": "map"}),
}

# the function that called the poisoned projection, by the name of its frame
_SITE_NAMES = {
    "stopping_gap": "gap",
    "project": "kernel",  # apply_kernel goes through the checked geometry.project
    "apply_kernel": "kernel",  # a kernel that called `_project` itself
    "centralize": "P_X t",
    "circumcentered_step": "P_Y n",
    "solve": "MAP P_X",
}

# first projection calls poisoned per set: several iterations of every config
_CALLS = range(12)


class _Poison:
    """Wraps one set's `_project`: sets entry `at` of the output of call
    `target` to `value`; with `check`, raises on any non-finite output."""

    def __init__(self, set_, target, value, at, check):
        self.project = set_._project
        self.target, self.value, self.at, self.check = target, value, at, check
        self.calls = 0
        self.site = None
        object.__setattr__(set_, "_project", self)

    def __call__(self, z):
        out = self.project(z)
        if self.calls == self.target:
            out = out.copy()
            out[self.at] = self.value
            self.site = _SITE_NAMES[sys._getframe(1).f_code.co_name]
        self.calls += 1
        if self.check and not np.isfinite(out).all():
            raise NonconvergedProjection("projection produced non-finite entries")
        return out


def _poisoned_outcome(config, which, target, value, check):
    (family, seed, params), options = _CONFIGS[config]
    pair = generate(family, seed, **params)
    at = int(pair.Y._flat[0]) if family == "matrix_completion" else 0
    poison = _Poison(getattr(pair, which), target, value, at, check)
    trace = solve(pair, SolverConfig(**_CFG, **options))
    return (trace.status, trace.iterations, trace.failure), poison.site


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("which", ["X", "Y"])
@pytest.mark.parametrize("config", list(_CONFIGS))
def test_nonfinite_projection_fails_at_the_same_iteration(config, which, value):
    sites = set()
    for target in _CALLS:
        expected, ref_site = _poisoned_outcome(config, which, target, value, check=True)
        got, site = _poisoned_outcome(config, which, target, value, check=False)
        assert site == ref_site is not None, (target, site, ref_site)
        assert expected[0] == STATUS_NUMERICAL_FAILURE
        assert got == expected, (target, site)
        sites.add(site)
    # every site on this set's side of the solve was poisoned at least once
    if config.endswith("-map"):
        # the gap at z0 projects onto X; a later MAP gap takes P_X z = z
        expected_sites = {"gap", "MAP P_X"} if which == "X" else {"gap"}
    else:
        expected_sites = {"gap", "kernel", "P_X t" if which == "X" else "P_Y n"}
        if config.endswith("-XY") and which == "X":
            expected_sites.discard("kernel")  # XY's P_X is the gap's
    assert sites == expected_sites


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("config", ["ell-XY", "mc-map"])
def test_failed_projection_at_z0_ends_with_a_status(config):
    (family, seed, params), options = _CONFIGS[config]
    pair = generate(family, seed, **params)
    _Poison(pair.X, 0, math.nan, 0, check=False)
    trace = solve(pair, SolverConfig(**_CFG, **options))
    assert (trace.status, trace.iterations, trace.records) == (STATUS_NUMERICAL_FAILURE, 0, [])
    assert trace.failure == "initial point: projection produced non-finite entries"
    assert math.isnan(trace.final_delta)
    assert trace.total_algorithmic_projections == 0
