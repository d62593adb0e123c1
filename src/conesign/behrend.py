"""Behrend-function evaluation and the constancy falsifier.

The value at a point is the Euler obstruction of the signed support cycle
of the normal cone.  The falsifier checks, component by component, the
necessary conditions a constant Behrend function imposes: generic
reducedness, a reduced dominating cone, tangent dimension matching the
component dimension, and a single dimension parity across components.
Violations are certificates of non-constancy; anything resting on an
uncertified prime is reported as inconclusive rather than guessed.
"""

from __future__ import annotations

from collections import namedtuple

from .cones import cone_components
from .errors import PointNotOnVarietyError, PrimalityUndecidedError
from .euler import eu_point
from .ideals import (
    IdealPresentation,
    contains_ideal,
    generic_tangent_dimension,
    is_point_on,
    minimal_primes,
)


class BehrendEvaluation(namedtuple("BehrendEvaluation", [
        "point", "value",
        "breakdown",  # (ConeComponent, eu_value, signed contribution) triples
        "dominant_total", "contracted_total"])):
    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "point": [str(c) for c in self.point],
            "value": self.value,
            "split": {"dominant": self.dominant_total,
                      "contracted": self.contracted_total},
            "contributions": [{
                "component": comp.to_json_dict(),
                "eu": eu,
                "signed": signed,
            } for comp, eu, signed in self.breakdown],
        }


def behrend_value(J: IdealPresentation, point, seed: int = 0) -> BehrendEvaluation:
    """Behrend value at a rational point of V(J).

    Sums (-1)^(dim image) * multiplicity * Eu(image)(point) over the cone
    components whose image contains the point, and records the split into
    dominating and contracted contributions.
    """
    point = tuple(J.ring.coeff(c) for c in point)
    if not is_point_on(J, point):
        raise PointNotOnVarietyError("Behrend value requested off the scheme")
    breakdown = []
    total = dom = con = 0
    for comp in cone_components(J):
        if not is_point_on(comp.image, point):
            continue
        if comp.primality != "certified":
            raise PrimalityUndecidedError(
                "a contributing cone component has uncertified primality")
        verdict = eu_point(comp.image, point, primality="certified", seed=seed)
        signed = (-1) ** comp.image_dimension * comp.multiplicity * verdict.value
        breakdown.append((comp, verdict.value, signed))
        total += signed
        if comp.dominates:
            dom += signed
        else:
            con += signed
    return BehrendEvaluation(point, total, tuple(breakdown), dom, con)


def dominating_cone_multiplicity(J: IdealPresentation, Z: IdealPresentation) -> int:
    """Total multiplicity of the cone components of Z that dominate Z.

    Z is taken with its reduced structure: the cone is computed from the
    component's own prime, not from J.
    """
    if not contains_ideal(Z, J):
        raise ValueError("Z is not a component of the ideal")
    m = 0
    undecided = False
    for comp in cone_components(Z):
        if comp.dominates:
            if comp.primality != "certified":
                undecided = True
            m += comp.multiplicity
    if undecided:
        raise PrimalityUndecidedError(
            "dominating cone component with uncertified primality")
    if m < 1:
        raise ArithmeticError("no dominating cone component found")
    return m


class ComponentReport(namedtuple("ComponentReport", [
        "component", "generic_tangent_dim", "dominating_cone_mult", "reasons"])):
    __slots__ = ()

    @property
    def verdict(self) -> str:
        return "violation" if self.reasons else "pass"

    def to_json_dict(self) -> dict:
        c = self.component
        return {
            "component": c.to_json_dict(),
            "generically_reduced": c.multiplicity == 1,
            "dim_Z": c.dimension,
            "generic_tangent_dim": self.generic_tangent_dim,
            "sign_dim": (-1) ** c.dimension,
            "sign_tangent": (-1) ** self.generic_tangent_dim,
            "dominating_cone_mult": self.dominating_cone_mult,
            "verdict": self.verdict,
            "reasons": list(self.reasons),
        }


class ConstancyCertificate(namedtuple("ConstancyCertificate", [
        "sign", "sign_inferred", "reports",
        "overall"])):  # "necessary conditions hold" |
                       # "Behrend function is NOT constant" | "inconclusive"
    __slots__ = ()

    @property
    def witnesses(self) -> tuple:
        """One {"component", "reason"} dict per reason, report by report."""
        return tuple({"component": list(r.component.prime.signature()), "reason": reason}
                     for r in self.reports for reason in r.reasons)

    def to_json_dict(self) -> dict:
        return {
            "sign": self.sign,
            "sign_inferred": self.sign_inferred,
            "components": [r.to_json_dict() for r in self.reports],
            "overall": self.overall,
            "witnesses": list(self.witnesses),
        }


def constancy_falsifier(J: IdealPresentation,
                        sign: int | None = None) -> ConstancyCertificate:
    """Check the necessary conditions for a constant Behrend function.

    Each component must be generically reduced with a reduced dominating
    cone, its generic tangent dimension must equal its dimension, and all
    components must share the dimension parity of the target sign.  The
    sign is inferred from the first component when not supplied.  These
    conditions are necessary, not sufficient: "necessary conditions hold"
    is not a constancy proof (behrend_value can still refute pointwise).
    """
    inferred = sign is None
    if not inferred and sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    comps = minimal_primes(J)
    if not comps:
        return ConstancyCertificate(1 if inferred else sign, inferred, (),
                                    "necessary conditions hold")
    target = (-1) ** comps[0].dimension if inferred else sign
    reference_certified = (not inferred) or comps[0].primality == "certified"

    reports = []
    definite = False
    shaky = any(c.primality != "certified" for c in comps)
    for c in comps:
        reasons = []
        if c.multiplicity != 1:
            reasons.append(
                f"component is not generically reduced "
                f"(multiplicity {c.multiplicity})")
        try:
            m = dominating_cone_multiplicity(J, c.prime)
        except PrimalityUndecidedError:
            m = 0  # sentinel: computed values are always >= 1
            shaky = True
        if m > 1:
            reasons.append(f"dominating cone multiplicity is {m}, not 1")
        gtd = generic_tangent_dimension(J, c.prime)
        if gtd != c.dimension:
            reasons.append(
                f"generic tangent dimension {gtd} differs from the "
                f"component dimension {c.dimension}")
        sign_dim = (-1) ** c.dimension
        sign_violation = sign_dim != target
        if sign_violation:
            reasons.append(
                f"dimension parity sign {sign_dim:+d} differs from the "
                f"target sign {target:+d}")
        reports.append(ComponentReport(c, gtd, m, tuple(reasons)))
        # a certified component with a reason besides the sign, or
        # against a certified reference, settles the verdict
        if reasons and c.primality == "certified" and (
                len(reasons) > sign_violation or reference_certified):
            definite = True

    if definite:
        overall = "Behrend function is NOT constant"
    elif shaky or any(r.reasons for r in reports):
        overall = "inconclusive"
    else:
        overall = "necessary conditions hold"
    return ConstancyCertificate(target, inferred, tuple(reports), overall)
