"""The evidence path, bit for bit against its earlier forms.

On the theorem gate's domain, every competitor kind the benchmark's
`evidence` workload certifies (the optimum, Dubins curves at 0.5 and 0.9
R_a, the composites at (0.6, 0.8) and (0.9, 0.7) R_a and the s-curve)
gives the support minimum, the membership report, the certificate and
the stored end data of every primitive that the `Vec2` and earlier forms
in `oracles` give.  Unit vectors are checked where they enter, so the
instance constructor rejects tangents that are not unit.
"""

import math

import pytest
from hypothesis import given, settings

from arcline import (
    InternalError,
    InvalidInput,
    PathBuilder,
    ProblemInstance,
    UndefinedHeading,
    Vec2,
    check_membership,
    composite_solve,
    dubins_curve,
    make_certificate,
    support_min,
    synthesize,
)
from conftest import accepted_instances, float_bits
from oracles import (
    check_membership_vec,
    end_data,
    frame_gaps_pointwise,
    max_curvature_loop,
    meets_hypothesis,
    support_min_by_ends,
    tangent_intercepts_vec,
    theta_phi_bound_vec,
)
from test_theorem_gate import APART


def evidence_competitors(inst, sol):
    """The curves the `evidence` workload certifies, in its order."""
    ra = sol.radius
    curves = [sol.curve] + [dubins_curve(inst, f * ra).curve for f in (0.5, 0.9)]
    for f1, f2 in ((0.6, 0.8), (0.9, 0.7)):
        try:
            comp = composite_solve(inst, f1 * ra, f2 * ra)
        except InternalError:
            # near pi the composite at (0.9, 0.7) R_a can miss G1 by rounding
            # on this domain (ROADMAP item 3); the theorem gate holds the
            # one at (0.6, 0.8) to closing
            assert (f1, f2) == (0.9, 0.7)
            continue
        if comp is not None:
            curves.append(comp.curve)
    s_curve = PathBuilder(inst.A, inst.alpha.angle()).arc(ra, 0.5 * math.pi)
    curves.append(s_curve.arc(ra, -0.5 * math.pi).build())
    return curves


def certificate_oracle(inst, sol, z):
    """make_certificate's fields from the oracles."""
    try:
        u0v0 = tangent_intercepts_vec(z, inst, z.length)
    except UndefinedHeading:
        u0v0 = (None, None)
    zeta0 = excess = None
    if meets_hypothesis(inst, sol, z):
        zeta0 = frame_gaps_pointwise(inst, sol, z, 1)[-1][0]
        excess = theta_phi_bound_vec(inst, sol, z)
    return (zeta0, support_min_by_ends(z), excess, *u0v0, max_curvature_loop(z))


@settings(deadline=None, max_examples=200)
@given(accepted_instances(APART))
def test_evidence_path_matches_oracles(inst):
    sol = synthesize(inst)
    for z in evidence_competitors(inst, sol):
        assert float_bits(support_min(z)) == float_bits(support_min_by_ends(z))
        assert float_bits(check_membership(z, inst)) == \
            float_bits(check_membership_vec(z, inst))
        assert float_bits(make_certificate(inst, sol, z)) == \
            float_bits(certificate_oracle(inst, sol, z))
        for p in z.primitives:
            stored = [(p.start_point, p.start_tangent), (p.end_point, p.end_tangent)]
            assert float_bits([[a.x, a.y, t.x, t.y] for a, t in stored]) == \
                float_bits([[a.x, a.y, t.x, t.y] for a, t in end_data(p)])


def test_instance_rejects_tangents_that_are_not_unit(worked_instance):
    inst = worked_instance
    for alpha, beta in ((Vec2(2.0, 0.0), inst.beta), (inst.alpha, inst.beta * (1.0 + 1e-8))):
        with pytest.raises(InvalidInput, match="unit length"):
            ProblemInstance(inst.A, inst.B, inst.O, alpha, beta, inst.omega,
                            inst.symmetric, inst.reversed)
