"""arcline: planar curve synthesis maximizing the minimum turn radius.

Given two endpoints with prescribed tangent directions meeting at an
apex, construct the unique positive-curvature curve (one circular arc
plus one line segment) whose smallest radius of curvature is as large
as possible, together with the bounded-radius curve families, numerical
optimality certificates, a parabola baseline, constant-distance offsets
and SVG export.

The package is pure Python, with no dependencies, and importing it is
cheap: each public name is loaded from its submodule on first access
(PEP 562).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

#: public name -> submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("ComparisonReport", "QuadraticBezier", "bezier_min_radius", "compare_report"),
        "baselines"),
    **dict.fromkeys(
        ("Certificate", "make_certificate", "support_min", "tangent_intercepts",
         "theta_phi_bound", "zeta0_closed_form", "zeta0_coefficients", "zeta_profile"),
        "certificates"),
    **dict.fromkeys(
        ("Arc", "MembershipReport", "PathBuilder", "PiecewiseCurve", "Segment",
         "check_membership", "curve_from_json", "curve_to_json", "heading",
         "max_curvature"),
        "curves"),
    **dict.fromkeys(
        ("CompositeCurve", "DubinsCurve", "SweepReport", "composite_solve",
         "dubins_curve", "family_sweep", "is_feasible_radius"),
        "dubins"),
    **dict.fromkeys(
        ("ArclineError", "DegenerateInput", "HypothesisViolated", "IllPosedAngle",
         "InternalError", "InvalidInput", "NoAdmissibleCurve", "OutOfRange",
         "RadiusNotAdmissible", "UndefinedHeading"),
        "errors"),
    **dict.fromkeys(
        ("Point2", "Vec2", "oriented_angle", "principal_angle", "rot90"),
        "geometry"),
    **dict.fromkeys(
        ("ProblemInstance", "instance_from_json", "instance_from_tangents",
         "instance_to_json", "make_instance", "random_instance", "similarity_transform"),
        "instance"),
    **dict.fromkeys(("OffsetResult", "offset"), "offsets"),
    **dict.fromkeys(("to_svg",), "svg"),
    **dict.fromkeys(
        ("OptimalSolution", "arc_radius", "illposed_demo", "synthesize"),
        "synthesis"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
