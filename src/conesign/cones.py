"""Normal cones of affine embeddings and their signed support cycles.

The cone of V(J) inside affine space is presented in an extended ring with
one fresh variable per generator of J, through the Rees-algebra kernel.
Component data (multiplicities, images under the projection back to the
base, domination flags) feeds the Euler-obstruction and Behrend layers.

Both the images and the domination flags are read off the decomposition of
the cone, with no elimination and no radical test against J (Fulton,
Intersection Theory, ch. 4 and B.6):

- The cone ideal Rees(J) + J*R[e] is homogeneous in the e-grading, and so
  is each component the decomposition keeps: factors of homogeneous
  elements are homogeneous, and a zero-dimensional minimal polynomial in
  some e_i is a power of e_i.  The reduced degrevlex basis of an
  e-homogeneous ideal is e-homogeneous, so an e-free polynomial reduces
  only by e-free basis elements.  These are the reduced basis of the
  ideal's intersection with R, which is the image: the e's come last, so
  degrevlex compares e-free monomials as degrevlex of R does.
- The cone is conical over V(J) and holds V(J) as its zero section, so
  V(J) is the union of the images.  A component dominates exactly when its
  image lies in the radical of every other component's image, which is its
  own radical when the component is certified prime.
- The normal cone of a subscheme of a purely N-dimensional scheme is purely
  N-dimensional (B.6.6), and affine N-space is one.  So every component has
  dimension N, the arity of J's ring, and the decomposition runs with a
  floor there: a split candidate of lower dimension holds no component and
  is dropped as soon as its basis is known, neither certified nor split.
"""

from __future__ import annotations

from collections import namedtuple

from .ideals import (
    IdealPresentation,
    _fresh_name,
    _restricted,
    contains_ideal,
    dimension,
    eliminate,
    minimal_primes,
    radical_contains,
    transplant,
)
from .poly import Polynomial, RingDescriptor

_CONE_PREFIXES = ("e", "c", "w", "q")


def cone_variable_names(rng: RingDescriptor, k: int) -> tuple:
    """k fresh names e1..ek, falling back to other prefixes on collision."""
    for prefix in _CONE_PREFIXES:
        names = tuple(f"{prefix}{i}" for i in range(1, k + 1))
        if not set(names) & set(rng.variables):
            return names
    raise ValueError("could not pick collision-free cone variable names")


def rees_ideal(J: IdealPresentation) -> IdealPresentation:
    """Kernel of R[e1..ek] -> R[t], e_i -> t*g_i, one e_i per element g_i
    of J's reduced basis: the ideal's ring variables after R's.

    Computed by eliminating t from the graph ideal (e_i - t*g_i).  No
    saturation at t is needed: the quotient of R[e, t] by the graph ideal
    is R[t], a domain, so t is already a nonzerodivisor and saturating
    would return the graph ideal unchanged.  The presentation is rebuilt
    from the reduced basis of J, never from the raw generator list, so
    equal ideals always produce identical cone output.
    """
    basis = J.gb()
    names = cone_variable_names(J.ring, len(basis))
    ext = J.ring.extend(names)
    tname = _fresh_name("t", ext.variables)
    big = ext.extend((tname,))
    t = Polynomial.variable(big, tname)
    gens = []
    for name, g in zip(names, basis):
        e = Polynomial.variable(big, name)
        gens.append(e - t * transplant(g, big))
    return eliminate(IdealPresentation(big, gens), (tname,))


def normal_cone_ideal(J: IdealPresentation) -> IdealPresentation:
    """Presentation of the normal cone of V(J) in R[e], as `rees_ideal`."""
    R = rees_ideal(J)
    return R.with_extra(transplant(g, R.ring) for g in J.gb())


class ConeComponent(namedtuple("ConeComponent", [
        "cone_prime", "multiplicity", "image", "image_dimension", "dominates",
        "primality"])):
    """One irreducible component of a normal cone, with projection data."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {
            "cone_prime": list(self.cone_prime.signature()),
            "multiplicity": self.multiplicity,
            "image": list(self.image.signature()),
            "image_dim": self.image_dimension,
            "dominates": self.dominates,
            "primality_status": self.primality,
        }


def _inside_radical(small: IdealPresentation, big: IdealPresentation, prime: bool) -> bool:
    """Whether `small` lies in the radical of `big`, which is prime when
    `prime` holds and then is its own radical."""
    if prime:
        return contains_ideal(big, small)
    return all(radical_contains(big, g) for g in small.generators)


def cone_components(J: IdealPresentation) -> list:
    """Minimal primes of the normal cone with multiplicities and images.

    A component dominates when its image closure equals the support of J
    itself (radical equality).  Each component is homogeneous in the cone
    variables, so its image is the e-free part of its reduced basis; the
    images cover the zero section V(J), so a component dominates exactly
    when its image lies in the radical of every other image (Fulton,
    Intersection Theory, ch. 4 and B.6).  Inclusion decides against a
    certified component, whose image is prime, and a radical test against
    an undecided one.  Every component has the dimension N of J's ring
    (B.6.6), so no candidate of lower dimension is split.
    """
    C = normal_cone_ideal(J)
    comps = minimal_primes(C, J.ring.arity)
    images = [_restricted(comp.prime.gb(), J.ring) for comp in comps]
    out = []
    for i, (comp, image) in enumerate(zip(comps, images)):
        dominates = all(
            _inside_radical(image, other, other_comp.primality == "certified")
            for j, (other_comp, other) in enumerate(zip(comps, images)) if j != i)
        out.append(ConeComponent(
            cone_prime=comp.prime,
            multiplicity=comp.multiplicity,
            image=image,
            image_dimension=dimension(image),
            dominates=dominates,
            primality=comp.primality,
        ))
    return out


CycleTerm = namedtuple("CycleTerm", "prime coefficient dimension")


class Cycle(namedtuple("Cycle", "terms")):
    """Formal integer combination of prime ideals (pairwise distinct)."""

    __slots__ = ()

    def to_json_dict(self) -> dict:
        return {"terms": [{"prime": list(t.prime.signature()),
                           "coeff": t.coefficient} for t in self.terms]}


def signed_support_cycle(J: IdealPresentation) -> Cycle:
    """Sum of (-1)^(dim image) * multiplicity * [image] over cone components.

    Components sharing an image are merged into a single term.
    """
    coeffs = {}
    for comp in cone_components(J):
        # equal images have equal dimensions, so this keys on the image
        key = (comp.image, comp.image_dimension)
        coeffs[key] = coeffs.get(key, 0) + (-1) ** comp.image_dimension * comp.multiplicity
    terms = [CycleTerm(prime, coeff, dim) for (prime, dim), coeff in coeffs.items()]
    terms.sort(key=lambda t: (-t.dimension, t.prime.signature()))
    return Cycle(tuple(terms))
