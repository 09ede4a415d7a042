"""Helpers that only the tests use."""

from fractions import Fraction

from fano_delta.exactmath import ChamberFunction, Poly, integrate_chamber, integrate_univariate, interpolate_many, q
from fano_delta.surfzar import SurfaceModel, SurfDivisor
from fano_delta.toric3 import ToricDivisor


def random_pseudoeffective(model: SurfaceModel, rng) -> SurfDivisor:
    """A random divisor in the cone spanned by the basis curves."""
    coeffs = [
        Fraction(rng.randrange(0, 40), rng.randrange(1, 8)) for _ in range(model.n)
    ]
    if all(x == 0 for x in coeffs):
        coeffs[rng.randrange(model.n)] = Fraction(1)
    return SurfDivisor(model, coeffs)


def at_u(d: ToricDivisor, u0) -> ToricDivisor:
    """The divisor of a u-family at u = u0."""
    return ToricDivisor(d.fan, [co.subs(u=q(u0)) for co in d.coeffs])


def interpolate(samples, degree_bound, variables=None):
    """One-function `interpolate_many` on (point, value) pairs."""
    points = [point for point, _ in samples]
    return interpolate_many(points, [[value] for _, value in samples], degree_bound, variables)[0]


def evaluate(fn: ChamberFunction, u0, v0=None) -> Fraction:
    """The value of a chamber function at (u0, v0), from the first chamber
    that contains the point."""
    for ch, p in fn.pieces:
        if ch.contains(u0, v0):
            args = {"u": q(u0)}
            if v0 is not None:
                args["v"] = q(v0)
            return p(**args)
    raise ValueError(f"point ({u0}, {v0}) outside every chamber")


def integrate(fn: ChamberFunction) -> Fraction:
    """The integral of a chamber function: the sum over its pieces."""
    return sum((integrate_chamber(p, ch) for ch, p in fn.pieces), Fraction(0))


def reference_integrate_chamber(p: Poly, ch) -> Fraction:
    """Reference for the chamber-moment integration: the v-antiderivative of
    p between the affine bounds, then the u-integral."""
    if not ch.is_two_dimensional():
        return integrate_univariate(p, ch.u_lo, ch.u_hi, "u")
    anti = p.antiderivative("v")
    inner = anti.subs(v=ch.v_hi) - anti.subs(v=ch.v_lo)
    return integrate_univariate(inner, ch.u_lo, ch.u_hi, "u")
