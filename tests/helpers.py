"""Helpers that only the tests use."""

from fractions import Fraction

from fano_delta.exactmath import interpolate_many, q
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
