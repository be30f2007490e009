"""The min-max theorem as a gate over the accepted domain.

`make_instance` accepts a scene only where kappa = pos_tol / (min(OA, OB)
sin omega), its position tolerance over the distance from the nearer
endpoint to the far tangent line, is at most KAPPA_MAX.  On every scene it
accepts, the optimum is in E, no competitor on the sweep's grid beats 1/R_a
by more than the slack kappa leaves, the competitors that close are in E,
and the sweep's closed form applies at every grid it accepts.  The draws
run towards both ends of the angle range, up to the bound itself; nearly
equal legs, whose short segments lose their direction to rounding, are
left out.
"""

import math

from hypothesis import given, settings, strategies as st

from arcline import (
    check_membership,
    composite_solve,
    dubins,
    dubins_curve,
    family_sweep,
    synthesize,
)
from arcline.geometry import KAPPA_MAX
from conftest import accepted_instances


def kappa(inst):
    return inst.pos_tol / (min(inst.oa, inst.ob) * math.sin(inst.omega))


#: legs nearer than this times the shorter leg, or times R_a, are left out:
#: the Dubins curve's segment then runs between two arc centers that nearly
#: coincide, R_a from the apex, and its direction, taken from their
#: difference, loses more than ANG_TOL to rounding
APART = 1e-3


@settings(deadline=None, max_examples=500)
@given(accepted_instances(APART), st.floats(-12.0, 0.0))
def test_theorem_holds_on_the_accepted_domain(inst, log_fraction):
    assert kappa(inst) <= KAPPA_MAX * (1.0 + 1e-9)
    sol = synthesize(inst)
    assert check_membership(sol.curve, inst).in_e
    ra = sol.radius
    for grid_n in (2, 60, 300):
        report = family_sweep(inst, grid_n)
        assert report.margin * report.ra >= -kappa(inst) * (1.0 + 1e-6)
    for f in (10.0 ** log_fraction, 1.0):
        assert check_membership(dubins_curve(inst, f * ra).curve, inst).in_e
    comp = composite_solve(inst, 0.6 * ra, 0.8 * ra)
    assert comp is None or check_membership(comp.curve, inst).in_e


@settings(deadline=None, max_examples=200)
@given(accepted_instances(), st.integers(2, dubins.MAX_GRID))
def test_closed_form_applies_on_the_accepted_domain(inst, drawn):
    # none of the three raises InternalError: the sweep has no other path
    for grid_n in (2, 3, 60, 10**3, 10**4, 10**5, 10**6, drawn):
        grid = dubins._CompositeGrid(inst, inst.pos_tol, grid_n, 0.2, 3.0)
        assert grid.half_width <= dubins._FRONTIER_CAP
        assert grid._single_window()[1] <= dubins._FRONTIER_CAP
        cell, single = grid.closed_form()
        assert single is not None
