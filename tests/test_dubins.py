import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from arcline import (
    Arc,
    IllPosedAngle,
    InternalError,
    InvalidInput,
    RadiusNotAdmissible,
    Vec2,
    arc_radius,
    check_membership,
    composite_solve,
    dubins_curve,
    family_sweep,
    max_curvature,
    synthesize,
)
from arcline.dubins import MAX_GRID
from arcline.geometry import KAPPA_MAX, POS_REL
from conftest import instances, sampled_hausdorff, symmetric_instances
from oracles import canonical_frame, is_feasible_radius, random_instance, similarity_transform


def test_limit_curve_equals_optimal(worked_instance):
    sol = synthesize(worked_instance)
    g = dubins_curve(worked_instance, sol.radius)
    assert g.radius == sol.radius and max_curvature(g.curve) == pytest.approx(1.0 / sol.radius)
    assert sampled_hausdorff(g.curve, sol.curve) <= 1e-9 * worked_instance.diameter


def test_interior_curve_membership(worked_instance):
    ra = arc_radius(worked_instance)
    g = dubins_curve(worked_instance, ra / 2.0)
    assert g.radius < ra
    assert check_membership(g.curve, worked_instance).in_e
    assert max_curvature(g.curve) == pytest.approx(2.0 / ra)
    # two arcs joined by one segment, total turning omega
    sweeps = [p.sweep_angle for p in g.curve.primitives]
    assert sum(sweeps) == pytest.approx(worked_instance.omega, abs=1e-12)
    assert sum(1 for s in sweeps if s > 0) == 2


def test_radius_above_limit_rejected(worked_instance):
    ra = arc_radius(worked_instance)
    with pytest.raises(RadiusNotAdmissible):
        dubins_curve(worked_instance, 1.01 * ra)
    with pytest.raises(InvalidInput):
        dubins_curve(worked_instance, 0.0)


def test_feasible_radius_boundary(worked_instance):
    ra = arc_radius(worked_instance)
    assert is_feasible_radius(worked_instance, ra)
    assert is_feasible_radius(worked_instance, ra * (1.0 - 1e-6))
    assert not is_feasible_radius(worked_instance, ra * (1.0 + 1e-6))
    assert not is_feasible_radius(worked_instance, 0.0)


def test_membership_across_radii_randomized():
    for inst in instances(seed=21, count=20):
        ra = arc_radius(inst)
        for frac in (0.1, 0.35, 0.7, 0.95, 1.0):
            g = dubins_curve(inst, frac * ra)
            assert check_membership(g.curve, inst).in_e, (inst, frac)


@settings(deadline=None, max_examples=300)
@given(st.integers(0, 2**32), st.floats(-4.0, -1.0))
def test_limit_curve_at_small_omega_is_in_e_or_internal_error(seed, log_omega):
    # at radius R_a one arc degenerates; a short arc that remains is kept,
    # so the curve still starts on A and ends on B
    inst = random_instance(random.Random(seed), omega=10.0 ** log_omega)
    try:
        g = dubins_curve(inst, arc_radius(inst))
    except InternalError:
        return
    assert check_membership(g.curve, inst).in_e


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2**32), st.floats(-8.0, -2.0), st.sampled_from([0.7, 0.999]))
def test_curve_near_pi_is_in_e(seed, log_gap, frac):
    # near omega = pi one arc turns by about pi - omega, over a length that
    # can fall below the rounding slack; it is kept all the same, so the
    # segment that follows leaves in the right direction.  Closer to pi
    # than the scene's tolerance allows, validation rejects the instance:
    # with legs in [0.5, 2], kappa lies within [1, 4] * POS_REL / gap
    gap = 10.0 ** log_gap
    try:
        inst = random_instance(random.Random(seed), omega=math.pi - gap)
    except IllPosedAngle:
        assert gap < 4.0 * POS_REL / KAPPA_MAX * (1.0 + 1e-6)
        return
    assert gap > POS_REL / KAPPA_MAX * (1.0 - 1e-6)
    g = dubins_curve(inst, frac * arc_radius(inst))
    assert check_membership(g.curve, inst).in_e


def test_continuity_at_the_limit():
    for inst in instances(seed=22, count=5):
        sol = synthesize(inst)
        near = dubins_curve(inst, sol.radius * (1.0 - 1e-6))
        assert sampled_hausdorff(near.curve, sol.curve, n=600) <= 1e-4 * inst.diameter


def test_symmetric_limit_single_arc(symmetric_instance):
    sol = synthesize(symmetric_instance)
    g = dubins_curve(symmetric_instance, sol.radius)
    assert len(g.curve.primitives) == 1
    assert sampled_hausdorff(g.curve, sol.curve) <= 1e-12


def test_composite_at_optimum_is_optimal_curve(worked_instance, symmetric_instance,
                                               arc_first_instance):
    for inst in (worked_instance, symmetric_instance, arc_first_instance):
        sol = synthesize(inst)
        comp = composite_solve(inst, sol.radius, sol.radius)
        assert comp is not None
        assert comp.d1 == pytest.approx(0.0, abs=1e-12)
        assert comp.d2 == pytest.approx(0.0, abs=1e-12)
        assert comp.d3 == pytest.approx(sol.segment_length, abs=1e-12)
        assert sampled_hausdorff(comp.curve, sol.curve) <= 1e-9 * inst.diameter


def test_composite_below_optimum_feasible(worked_instance):
    ra = arc_radius(worked_instance)
    comp = composite_solve(worked_instance, 0.9 * ra, 0.9 * ra)
    assert comp is not None
    assert comp.d1 >= 0.0 and comp.d2 >= 0.0 and comp.d3 >= 0.0
    assert comp.d1 + comp.d2 > 1e-6
    assert max_curvature(comp.curve) == pytest.approx(1.0 / (0.9 * ra))
    assert check_membership(comp.curve, worked_instance).in_e


def test_composite_above_optimum_infeasible(worked_instance):
    ra = arc_radius(worked_instance)
    assert composite_solve(worked_instance, 1.5 * ra, 1.5 * ra) is None


def test_composite_membership_and_closure_randomized():
    for inst in instances(seed=23, count=15):
        ra = arc_radius(inst)
        for r1, r2 in ((0.5 * ra, 0.5 * ra), (0.3 * ra, 0.8 * ra), (0.9 * ra, 0.4 * ra)):
            comp = composite_solve(inst, r1, r2)
            assert comp is not None
            assert (comp.curve.end_point - inst.B).norm() <= 1e-9 * inst.diameter
            assert check_membership(comp.curve, inst).in_e, (inst, r1, r2)
            sweeps = [p.sweep for p in comp.curve.primitives if isinstance(p, Arc)]
            assert sweeps == pytest.approx([inst.omega / 2.0] * 2)


def test_composite_at_small_omega_is_in_e_or_rejected():
    # the composite closes at pos_tol, the tolerance membership demands;
    # where omega is small enough for that tolerance to swallow the turn,
    # validation rejects the instance: with legs in [0.5, 2] the diameter
    # is about OA + OB, so kappa lies within [2, 5] * POS_REL / omega
    rng = random.Random(5)
    accepted = 0
    for _ in range(300):
        omega = 10.0 ** rng.uniform(-6.0, -4.0)
        try:
            inst = random_instance(rng, omega=omega)
        except IllPosedAngle:
            assert omega < 5.0 * POS_REL / KAPPA_MAX * (1.0 + 1e-6)
            continue
        assert omega > 2.0 * POS_REL / KAPPA_MAX * (1.0 - 1e-6)
        accepted += 1
        assert check_membership(synthesize(inst).curve, inst).in_e
        ra = arc_radius(inst)
        comp = composite_solve(inst, 0.6 * ra, 0.8 * ra)
        assert comp is None or check_membership(comp.curve, inst).in_e, inst
    assert 50 < accepted < 250


def test_composite_mirrored_chain_runs_backwards(worked_instance):
    # OA > OB mirrors the frame, which reverses the chain: from A it runs
    # d3, the R2 arc, d2, the R1 arc, d1
    assert canonical_frame(worked_instance).mirrored
    ra = arc_radius(worked_instance)
    comp = composite_solve(worked_instance, 0.6 * ra, 0.8 * ra)
    first, second, third, fourth = comp.curve.primitives
    assert (comp.d1, comp.d2 > 0.0, comp.d3 > 0.0) == (0.0, True, True)
    assert first.start_point == worked_instance.A
    assert first.length == pytest.approx(comp.d3, rel=1e-12)
    assert (second.radius, fourth.radius) == (comp.r2, comp.r1)
    assert third.length == pytest.approx(comp.d2, rel=1e-12)
    assert (comp.curve.end_point - worked_instance.B).norm() <= 1e-9 * worked_instance.diameter


def test_composite_equal_radii_on_symmetric_instances():
    # at (0.5, 0.5) R_a the closing lengths d1, d3 can come out as rounding
    # noise; they must be snapped to zero instead of building a degenerate segment
    for inst in symmetric_instances(5, 300) + symmetric_instances(6, 300, exact=True):
        ra = arc_radius(inst)
        comp = composite_solve(inst, 0.5 * ra, 0.5 * ra)
        assert comp is not None
        assert check_membership(comp.curve, inst).in_e
        tol = 1e-9 * inst.diameter
        assert all(d == 0.0 or d > tol for d in (comp.d1, comp.d2, comp.d3))


def test_composite_bad_radii(worked_instance):
    with pytest.raises(InvalidInput):
        composite_solve(worked_instance, -1.0, 1.0)


def test_no_feasible_composite_beats_the_limit():
    # feasible composites with both radii above the optimum do not exist
    # (except the optimal curve itself at equality)
    for inst in instances(seed=24, count=10):
        ra = arc_radius(inst)
        for bump1 in (1.001, 1.05, 1.3):
            for bump2 in (1.001, 1.05, 1.3):
                assert composite_solve(inst, bump1 * ra, bump2 * ra) is None


def test_monotone_degeneration(worked_instance):
    # along r1 = r2 = r the straight runs d1 + d2 shrink to zero as r -> R_a
    ra = arc_radius(worked_instance)
    slacks = []
    for frac in (0.5, 0.7, 0.9, 0.99, 1.0):
        comp = composite_solve(worked_instance, frac * ra, frac * ra)
        assert comp is not None
        slacks.append(comp.d1 + comp.d2)
    assert all(a >= b - 1e-12 for a, b in zip(slacks, slacks[1:]))
    assert slacks[-1] == pytest.approx(0.0, abs=1e-12)


def test_family_sweep_worked_example(worked_instance):
    report = family_sweep(worked_instance, grid_n=60)
    ra = report.ra
    assert report.min_max_curvature >= (1.0 / ra) * (1.0 - 1e-9)
    delta = (3.0 - 0.2) * ra / 59
    assert abs(report.argmin["R1"] - ra) <= 2.0 * delta
    assert abs(report.argmin["R2"] - ra) <= 4.0 * delta
    assert report.feasible_count > 100
    assert report.margin >= -1e-9 / ra
    assert report.grid_size == (60, 60)
    payload = report.as_dict()
    assert set(payload) == {"minMaxCurvature", "argmin", "margin", "gridSize"}


def test_family_sweep_includes_single_arc_family(symmetric_instance):
    report = family_sweep(symmetric_instance, grid_n=25)
    assert report.min_max_curvature >= (1.0 / report.ra) * (1.0 - 1e-9)


def test_family_sweep_validation(worked_instance):
    for grid_n in (1, MAX_GRID + 1):
        with pytest.raises(InvalidInput, match=rf"\[2, {MAX_GRID}\], got {grid_n}"):
            family_sweep(worked_instance, grid_n=grid_n)


def test_family_sweep_scale_equivariance(worked_instance):
    base = family_sweep(worked_instance, grid_n=30)
    scaled = family_sweep(
        similarity_transform(worked_instance, 0.0, 4.0, Vec2(1.0, 2.0)), grid_n=30)
    assert scaled.min_max_curvature == pytest.approx(base.min_max_curvature / 4.0,
                                                     rel=1e-9)
    assert scaled.argmin["R1"] == pytest.approx(4.0 * base.argmin["R1"], rel=1e-9)
    assert scaled.feasible_count == base.feasible_count


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 2**32), st.floats(0.1, math.pi - 0.1))
def test_sweep_argmin_is_the_composite_solve_builds(seed, omega):
    # the sweep and composite_solve close the composite from one record of
    # the frame: at a composite argmin (R1, R2), composite_solve finds the
    # same segment lengths bit for bit, and its curve is admissible
    inst = random_instance(random.Random(seed), omega=omega)
    for grid_n in (2, 3, 60, 300):
        argmin = family_sweep(inst, grid_n).argmin
        if argmin["family"] != "p4":
            continue
        comp = composite_solve(inst, argmin["R1"], argmin["R2"])
        assert [v.hex() for v in (comp.d1, comp.d2, comp.d3)] == \
            [argmin[k].hex() for k in ("d1", "d2", "d3")]
        assert check_membership(comp.curve, inst).in_e


def test_single_arc_family_infeasible_above_limit():
    # p2 probe: d1 turns negative as soon as the radius exceeds R_a
    from arcline.dubins import _p2_params

    for inst in instances(seed=25, count=10):
        view = canonical_frame(inst)
        assert _p2_params(view.closing, view.ra * 1.01, 0.0) is None
        assert _p2_params(view.closing, view.ra * 0.99, 0.0) is not None
