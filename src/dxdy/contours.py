"""Assembling residue data into integral values.

Closed contours are circles (any closed curve around isolated poles deforms
to circles without changing the integral), and real-line improper integrals
close through a half-plane semicircle whose contribution vanishes under the
degree-gap decay rules.

The real value of a counterclockwise contour integral is -2*pi times the sum
of the v-parts of the enclosed residues.  The u-parts are surfaced as an
``imaginary_defect``: a nonzero defect means the classical integral carries
an imaginary component that this real formalism deliberately does not fold
into the contour value, and a warning is attached.
"""

from __future__ import annotations

import math

from .algebra import EvenElement, _Frozen
from .errors import ComputationError, UsageError
from .functions import MeromorphicFunction, Pole, find_poles
from .residues import residue

#: fraction of the radius around the contour treated as "on" it
DEFAULT_CLEARANCE = 1e-6

#: pole v-parts at most this close to the axis block real-line integration
AXIS_TOL = 1e-9

#: bounded on the axis: a scale part below this share of the scale is zero
AXIS_DIRECTION_TOL = 1e-12

#: an imaginary defect above this times (1 + residue scale) is warned of
DEFECT_WARN_TOL = 1e-10

COUNTERCLOCKWISE = "counterclockwise"
CLOCKWISE = "clockwise"


class PoleOnContourError(ComputationError, ValueError):
    """A pole sits inside the contour's clearance band."""


class DecayError(ComputationError, ValueError):
    """The integrand does not decay on the closing semicircle."""


class AxisPoleError(ComputationError, ValueError):
    """A pole lies on the real axis (principal values are out of scope)."""


class CircleContour(_Frozen):
    """A circle; clearance is absolute, None for DEFAULT_CLEARANCE*radius."""

    __slots__ = ("center", "radius", "orientation", "clearance")

    def __init__(self, center: EvenElement, radius: float,
                 orientation: str = COUNTERCLOCKWISE,
                 clearance: float | None = None) -> None:
        if not radius > 0:
            raise UsageError("radius must be positive")
        if orientation not in (COUNTERCLOCKWISE, CLOCKWISE):
            raise UsageError(f"unknown orientation {orientation!r}")
        if clearance is not None and not clearance > 0:
            raise UsageError("clearance must be positive")
        self._fill_slots(center, radius, orientation, clearance)

    @property
    def band(self) -> float:
        if self.clearance is not None:
            return self.clearance
        return DEFAULT_CLEARANCE * self.radius


class IntegralResult(_Frozen, unshown=("half_plane",),
                     defaults={"residues": (), "warnings": (),
                               "half_plane": None}):
    """A contour or real-line value with the residues behind it.

    ``half_plane`` is the half-plane a real-line integral closed through;
    None for a circle.
    """

    __slots__ = ("real_value", "imaginary_defect", "enclosed", "residues",
                 "warnings", "half_plane")


def enclosed_poles(contour: CircleContour,
                   poles: tuple[Pole, ...]) -> tuple[Pole, ...]:
    """Poles strictly inside the circle; the clearance band is an error."""
    inside = []
    for p in poles:
        distance = abs(p.location - contour.center)
        if abs(distance - contour.radius) < contour.band:
            raise PoleOnContourError(
                f"pole at {p.location} lies on the contour (distance "
                f"{distance:.6g}, radius {contour.radius:.6g})")
        if distance < contour.radius:
            inside.append(p)
    return tuple(inside)


def _defect_warning(defect: float, residue_scale: float) -> tuple[str, ...]:
    if abs(defect) > DEFECT_WARN_TOL * (1.0 + residue_scale):
        return (f"imaginary defect {defect:.12g}: the classical integral has "
                f"an imaginary part this real formalism does not produce",)
    return ()


def _residue_sum(f: MeromorphicFunction, poles: tuple[Pole, ...],
                 sign: float, half_plane: str | None = None) -> IntegralResult:
    """Value and defect of a contour around these poles; sign is +1 for
    counterclockwise, -1 for clockwise."""
    residues = tuple(residue(f, p) for p in poles)
    real_value = sign * (-2.0 * math.pi) * sum(r.v for r in residues)
    defect = sign * 2.0 * math.pi * sum(r.u for r in residues)
    scale = 2.0 * math.pi * sum(abs(r) for r in residues)
    return IntegralResult(real_value, defect, poles, residues,
                          _defect_warning(defect, scale), half_plane)


def integrate_closed(f: MeromorphicFunction,
                     contour: CircleContour) -> IntegralResult:
    """Contour integral of f dx via the enclosed residues."""
    inside = enclosed_poles(contour, find_poles(f))
    sign = 1.0 if contour.orientation == COUNTERCLOCKWISE else -1.0
    return _residue_sum(f, inside, sign)


UPPER = "upper"
LOWER = "lower"
AUTO = "auto"


def closure_half_plane(f: MeromorphicFunction, half_plane: str = AUTO) -> str:
    """Validate decay and pick the closing half-plane."""
    if f.is_zero():
        return UPPER if half_plane == AUTO else half_plane
    if f.factor is not None and f.factor.kind in ("sin", "cos"):
        raise DecayError(
            "sin/cos factors grow on every closing semicircle; decompose "
            "the integrand into exp parts and integrate those separately")
    gap = f.degree_gap()
    t = 0.0
    if f.factor is not None:
        scale = f.factor.scale
        size = abs(scale.u) + abs(scale.v) + 1e-300
        if abs(scale.u) > AXIS_DIRECTION_TOL * size:
            raise DecayError(
                "exp factor scale must be a pure dxdy multiple to stay "
                "bounded on the real axis")
        t = scale.v
    if t == 0.0:
        if gap < 2:
            raise DecayError(
                f"rational integrand needs deg(den) >= deg(num) + 2 for the "
                f"closing semicircle to vanish (gap is {gap})")
        return UPPER if half_plane == AUTO else half_plane
    if gap < 1:
        raise DecayError(
            f"oscillatory integrand needs deg(den) >= deg(num) + 1 (gap "
            f"is {gap})")
    forced = UPPER if t > 0 else LOWER
    if half_plane not in (AUTO, forced):
        raise DecayError(
            f"exp factor with dxdy-scale {t:g} decays only on the {forced} "
            f"semicircle")
    return forced


def integrate_real_line(f: MeromorphicFunction,
                        half_plane: str = AUTO) -> IntegralResult:
    """Improper integral over the whole axis via half-plane closure.

    Closing upward keeps the counterclockwise orientation; closing downward
    traverses clockwise, which flips the sign of the residue sum.
    """
    if half_plane not in (AUTO, UPPER, LOWER):
        raise UsageError(f"unknown half plane {half_plane!r}")
    chosen = closure_half_plane(f, half_plane)
    poles = find_poles(f)
    for p in poles:
        if abs(p.location.v) <= AXIS_TOL:
            raise AxisPoleError(
                f"pole at {p.location} lies on the real axis; principal "
                f"values are out of scope")
    if chosen == UPPER:
        picked = tuple(p for p in poles if p.location.v > 0)
        sign = 1.0
    else:
        picked = tuple(p for p in poles if p.location.v < 0)
        sign = -1.0
    return _residue_sum(f, picked, sign, chosen)
