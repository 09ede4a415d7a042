"""Simplicial complete fans in a rank-3 lattice and their intersection theory.

A fan is a list of primitive integer ray generators plus a list of maximal
cones given as index triples.  A torus-invariant divisor of a one-parameter
family is one integer form (a, b), meaning (a + b*u)/den, per ray over one
positive den, in lowest terms; a constant divisor has every b = 0.
Pullback, restriction to a star surface, the curve intersections and the
cube are integer maps on these forms, and a curve intersection is a wall
(a, b, d), v = (a + b*u)/d, that the nef and forcing tests sign at the ends.

Triple intersection numbers are one table per fan (`Fan3.triple_table`),
made in three closed-form passes with no recursion: 1/|det| on each cone,
then each T_a^2.T_b from a principal divisor through the two cones of the
2-face {a, b}, then each T_a^3 from the same character and the squares.
Every other triple is 0, and the cube D^3 of a divisor affine in u reads
the table once, in integers.  The same character relations drive pullbacks
along toric morphisms and restriction to invariant surfaces (star
construction).  A star surface is built once with every choice of its
basis: the order of its curves and the self character that rewrites the
star ray, so restriction to it is one fixed linear map, and its Gram
matrix is read from the fan's table.

Divisor polytopes are handled by brute-force vertex enumeration (at most a
handful of facets here) and cut into tetrahedra from the least vertex, each
facet fanned from its own least vertex, giving exact volumes, moments and
minima for the lattice-polytope form of the S-invariant.

One Cramer helper, `_cramer`, solves the 3x3 systems of a facet triple's
vertex, in Fractions, and of a star surface's quotient map, in integers.
`_pairings` pairs a character with every ray, and gives a cone's
coordinates of many vectors at once (`_cone_coordinates`).
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import ceil, floor, gcd
from typing import Mapping, Sequence

from . import linalg, lp
from .exactmath import Form, Scalar, form_text, least, lowest, negative_end, numerators, q

Ray = tuple[int, int, int]
Cone = tuple[int, int, int]


# ---------------------------------------------------------------------------
# Fans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fan3:
    """A simplicial fan in Z^3 given by primitive rays and maximal cones."""

    rays: tuple[Ray, ...]
    cones: tuple[Cone, ...]

    def __init__(self, rays: Sequence[Sequence[int]], cones: Sequence[Sequence[int]]):
        object.__setattr__(self, "rays", tuple(tuple(int(x) for x in r) for r in rays))
        object.__setattr__(self, "cones", tuple(tuple(sorted(int(i) for i in c)) for c in cones))

    @cached_property
    def _faces(self) -> dict[tuple[int, int], list[Cone]]:
        """Each index pair of a maximal cone, with the maximal cones holding it."""
        faces: dict[tuple[int, int], list[Cone]] = {}
        for cone in self.cones:
            for pair in itertools.combinations(cone, 2):
                faces.setdefault(pair, []).append(cone)
        return faces

    @cached_property
    def two_cones(self) -> tuple[tuple[int, int], ...]:
        """Index pairs spanning a 2-dimensional cone of the fan, sorted."""
        return tuple(sorted(self._faces))

    @cached_property
    def triple_table(self) -> dict[Cone, Fraction]:
        """Every nonzero T_i.T_j.T_k, keyed by sorted ray indices, in three
        closed-form passes (Cox-Little-Schenck, Toric Varieties, 12.5).

        A cone (a, b, c) gives T_abc = 1/|det|.  A 2-face {a, b} of the cones
        (a, b, c) and (a, b, e) gives T_a^2.T_b = -<m, v_e> T_abe for the m
        with <m, v_a> = 1 and <m, v_b> = <m, v_c> = 0, since div(chi^m) =
        sum_r <m, v_r> T_r meets T_a.T_b in no other cone.  With the first
        such m of a, T_a^3 = -sum_r <m, v_r> T_a^2.T_r over its neighbours r.
        """
        rays, table, first_m = self.rays, {}, {}
        for cone in self.cones:
            table[cone] = Fraction(1, abs(linalg.det3(*(rays[i] for i in cone))))
        for (a, b), cones in self._faces.items():
            if len(cones) != 2:
                raise ValueError(f"face {[a, b]} lies in {len(cones)} maximal cone(s), expected 2")
            (c,), (e,) = (set(cone) - {a, b} for cone in cones)
            for x, y in ((a, b), (b, a)):
                nums, det = _pairings(rays, x, y, c)
                first_m.setdefault(x, (nums, det))
                if value := Fraction(-nums[e], det) * table[cones[1]]:
                    table[tuple(sorted((x, x, y)))] = value
        for a, (nums, det) in first_m.items():
            total = sum(nums[r] * table.get(tuple(sorted((a, a, r))), 0)
                        for r in range(len(rays)) if r != a)
            if total:
                table[(a, a, a)] = -total / det
        return table

    @cached_property
    def _curve_rows(self) -> dict[tuple[int, int], tuple[tuple[tuple[int, int], ...], int]]:
        """Per 2-cone {i, j}: the nonzero T_r.T_i.T_j as pairs (r, integer)
        over one positive denominator."""
        rows = {}
        for pair in self.two_cones:
            row = [(r, t) for r in range(len(self.rays)) if (t := triple_product(self, r, *pair))]
            nums, den = numerators(t for _, t in row)
            rows[pair] = tuple((r, x) for (r, _), x in zip(row, nums)), den
        return rows

    @cached_property
    def _pullbacks(self) -> dict[Fan3, tuple[tuple[tuple[tuple[int, int], ...], ...], int]]:
        """Pullback map from each coarse fan met so far (see `_pullback_map`)."""
        return {}


def validate_fan(fan: Fan3) -> list[str]:
    """The issues of a fan, none for a valid one: primitivity, simpliciality,
    the 2-face completeness criterion and a cone for every ray.

    Completeness here means: every index pair occurring in some maximal cone
    occurs in exactly two of them.  For the complete simplicial fans handled
    by this package that criterion is exact and cheap.
    """
    issues: list[str] = []
    for i, ray in enumerate(fan.rays):
        if len(ray) != 3:
            issues.append(f"ray {i} is not a 3-vector")
            continue
        g = gcd(gcd(abs(ray[0]), abs(ray[1])), abs(ray[2]))
        if g != 1:
            issues.append(f"ray {i}={ray} is not primitive (gcd {g})")
    seen = set()
    for cone in fan.cones:
        if len(set(cone)) != 3:
            issues.append(f"cone {cone} does not have three distinct rays")
            continue
        if cone in seen:
            issues.append(f"cone {cone} listed twice")
        seen.add(cone)
        if any(i >= len(fan.rays) or i < 0 for i in cone):
            issues.append(f"cone {cone} references a missing ray")
            continue
        det = linalg.det3(*(fan.rays[i] for i in cone))
        if det == 0:
            issues.append(f"cone {cone} is not simplicial (rays dependent)")
    for pair, cones in sorted(fan._faces.items()):
        if len(cones) != 2:
            issues.append(f"face {list(pair)} lies in {len(cones)} maximal cone(s), expected 2")
    covered = {i for cone in fan.cones for i in cone}
    issues += [f"ray {i} lies in no maximal cone" for i in range(len(fan.rays)) if i not in covered]
    return issues


# ---------------------------------------------------------------------------
# Divisors and intersection numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ToricDivisor:
    """sum_r (a_r + b_r*u)/den T_r: integer forms (a_r, b_r) in ray order
    over one positive den, in lowest terms, so == is equality."""

    fan: Fan3
    coeffs: tuple[tuple[int, int], ...]
    den: int = 1

    def __post_init__(self):
        if len(self.coeffs) != len(self.fan.rays):
            raise ValueError("coefficient list length must equal ray count")
        coeffs, den = least(self.coeffs, self.den)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "den", den)

    def __sub__(self, other: "ToricDivisor") -> "ToricDivisor":
        if self.fan != other.fan:
            raise ValueError("different fans")
        s, t = other.den, self.den
        return ToricDivisor(self.fan, tuple((a * s - c * t, b * s - d * t) for (a, b), (c, d)
                                            in zip(self.coeffs, other.coeffs)), s * t)


def _pairings(rays: Sequence[Ray], a: int, b: int, c: int) -> tuple[list[int], int]:
    """([<m, v_r> * det for every ray r], det) for the m with <m, v_a> = 1 and
    <m, v_b> = <m, v_c> = 0, by Cramer's rule in integers: <m, x> =
    det3(x, v_b, v_c) / det3(v_a, v_b, v_c)."""
    (b0, b1, b2), (c0, c1, c2) = rays[b], rays[c]
    m0, m1, m2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0  # v_b x v_c
    return [x * m0 + y * m1 + z * m2 for x, y, z in rays], linalg.det3(rays[a], rays[b], rays[c])


def _cramer(rows: Sequence[Sequence[int]], rhs: Sequence[int | Fraction]) -> list[int | Fraction]:
    """[det3 of rows with column t replaced by rhs, t = 0, 1, 2]: Cramer's
    rule by ring operations, exact on ints and Fractions, rows * x = rhs
    having x_t = that / det3(*rows)."""
    return [linalg.det3(*([b if s == t else row[s] for s in range(3)] for row, b in zip(rows, rhs)))
            for t in range(3)]


def triple_product(fan: Fan3, i: int, j: int, k: int) -> Fraction:
    """T_i.T_j.T_k of invariant divisors, exact: the fan's table entry, 0 off the table."""
    return fan.triple_table.get((i, j, k) if i <= j <= k else tuple(sorted((i, j, k))), Fraction(0))


def divisor_cube(d: ToricDivisor) -> tuple[list[int], int]:
    """D^3, a cubic in u, as its integer coefficients by rising degree over
    one positive denominator: each nonzero triple of the fan's table times
    its number of orderings, against D's integer forms a_r + b_r*u."""
    forms, den = d.coeffs, d.den
    table = d.fan.triple_table
    weights, tden = numerators((1, 3, 6)[len(set(key)) - 1] * x for key, x in table.items())
    out = [0, 0, 0, 0]
    for (i, j, k), w in zip(table, weights):
        (a0, a1), (b0, b1), (c0, c1) = forms[i], forms[j], forms[k]
        ab0, ab1, ab2 = w * a0 * b0, w * (a0 * b1 + a1 * b0), w * a1 * b1
        out[0] += ab0 * c0
        out[1] += ab0 * c1 + ab1 * c0
        out[2] += ab1 * c1 + ab2 * c0
        out[3] += ab2 * c1
    return out, tden * den**3


def curve_intersection(d: ToricDivisor, pair: Sequence[int]) -> Form:
    """D.C for the torus-invariant curve C of the 2-cone ``pair`` of d's
    fan, as the wall (a, b, e): (a + b*u)/e, e > 0, in lowest terms."""
    pair = tuple(sorted(int(x) for x in pair))
    if pair not in d.fan.two_cones:
        raise ValueError(f"pair {pair} is not a 2-cone of the fan")
    row, den = d.fan._curve_rows[pair]
    forms = d.coeffs
    return lowest((sum(w * forms[r][0] for r, w in row), sum(w * forms[r][1] for r, w in row), den * d.den))


def _values(d: ToricDivisor) -> list[Fraction]:
    """The coefficients of a constant divisor."""
    if any(b for _, b in d.coeffs):
        raise ValueError("divisor must be constant")
    return [Fraction(a, d.den) for a, _ in d.coeffs]


def principal_residual(d: ToricDivisor) -> Fraction:
    """0 if the constant divisor d = sum a_rho D_rho is div(chi^m), that is
    <m, rho> = a_rho on every ray for one m in Q^3 (Cox-Little-Schenck,
    Thm 4.1.3); else a_rho - <m, rho> at the first ray where they differ,
    with m solved by Cramer's rule (`_pairings`) on the first three independent rays."""
    rays, a = d.fan.rays, _values(d)
    basis = next(t for t in itertools.combinations(range(len(rays)), 3)
                 if linalg.det3(*(rays[i] for i in t)))
    duals = [(a[k], _pairings(rays, k, *(i for i in basis if i != k))) for k in basis]
    residuals = (a[r] - sum(a_k * Fraction(nums[r], det) for a_k, (nums, det) in duals)
                 for r in range(len(rays)))
    return next((x for x in residuals if x), Fraction(0))


def nef_on_interval(d: ToricDivisor, u_lo: Scalar, u_hi: Scalar) -> str | None:
    """Where a divisor affine in u fails to be nef on [u_lo, u_hi], as text;
    None when it is nef there.

    Every curve intersection is affine in u, so nonnegativity at the two
    endpoints certifies the whole interval.
    """
    u_lo, u_hi = q(u_lo), q(u_hi)
    for pair in d.fan.two_cones:
        val = curve_intersection(d, pair)
        u0 = negative_end(val, u_lo, u_hi)
        if u0 is not None:
            return f"curve {pair} meets the divisor in {form_text(val[:2], val[2])} < 0 at u={u0}"
    return None


# ---------------------------------------------------------------------------
# Pullbacks along toric morphisms
# ---------------------------------------------------------------------------


def _cone_coordinates(vecs: Sequence[Sequence[int]], rays: Sequence[Ray]
                      ) -> list[tuple[int, int, int, int] | None]:
    """For each vec, (det_0, det_1, det_2, det), det > 0, if it lies in the
    simplicial cone spanned by three rays, else None: its coordinates in the
    ray basis are det_k / det, each made for every vec at once by
    `_pairings` of the ray k against the other two."""
    points = [*rays, *vecs]
    (c0, det), (c1, _), (c2, _) = (_pairings(points, k, (k + 1) % 3, (k + 2) % 3) for k in range(3))
    sign, out = (1 if det > 0 else -1), []
    for xs in zip(c0[3:], c1[3:], c2[3:]):
        coords = [sign * x for x in xs]
        out.append((*coords, sign * det) if det and min(coords) >= 0 else None)
    return out


def _pullback_map(fine: Fan3, coarse: Fan3) -> tuple[tuple[tuple[tuple[int, int], ...], ...], int]:
    """(rows, den): per fine ray w, the pairs (coarse ray j, x) whose sum of
    x * a_j over den is the pulled-back coefficient at w; built once per fan
    pair, with one `_cone_coordinates` pass per coarse cone.

    With w = sum_t lambda_t v_t in a coarse cone sigma, lambda the Cramer
    coordinates, the support function is phi_D(w) = -sum_t lambda_t a_t.
    """
    table = fine._pullbacks.get(coarse)
    if table is not None:
        return table
    if not set(coarse.rays) <= set(fine.rays):
        raise ValueError("not a refinement")
    # The coarse cones containing each fine ray, in the coarse fan's order,
    # with the ray's coordinates in each.
    homes: list[list] = [[] for _ in fine.rays]
    for s in coarse.cones:
        for home, coords in zip(homes, _cone_coordinates(fine.rays, [coarse.rays[j] for j in s])):
            if coords is not None:
                home.append((s, coords))
    if not all(homes) or any(not set.intersection(*({s for s, _ in homes[i]} for i in cone))
                             for cone in fine.cones):
        raise ValueError("not a refinement")
    den = math.lcm(*(home[0][1][3] for home in homes))
    rows = tuple(tuple((j, x * (den // det)) for j, x in zip(sigma, nums) if x)
                 for (sigma, (*nums, det)), *_ in homes)
    table = fine._pullbacks[coarse] = rows, den
    return table


def pullback(fine: Fan3, coarse: Fan3, d: ToricDivisor) -> ToricDivisor:
    """Pull a divisor on the coarse fan back along the refinement map.

    The coefficient at a ray w of the fine fan is -phi_D(w), where phi_D is
    the support function of the divisor (linear on each coarse cone, taking
    value -a_r at ray r): a fixed rational combination of the a_r, one
    integer map on the forms.
    """
    if d.fan != coarse:
        raise ValueError("divisor does not live on the coarse fan")
    rows, den = _pullback_map(fine, coarse)
    forms = d.coeffs
    return ToricDivisor(fine, tuple((sum(x * forms[j][0] for j, x in row), sum(x * forms[j][1] for j, x in row))
                                    for row in rows), den * d.den)


# ---------------------------------------------------------------------------
# Star surfaces (restriction to an invariant surface)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StarSurface:
    """The invariant surface of a ray, as its curves plus restriction data.

    ``adjacent`` lists the 3D rays spanning a 2-cone with the star ray, in
    the order given to `star_surface`; curve k of the surface comes from
    r = ``adjacent[k]``.  ``images[k]`` is the primitive image of v_r
    under the quotient map, ``mults[k]`` the reciprocal lattice index of
    that image (the multiplier restricting T_r), and ``weights[k]`` =
    <m, v_r> / <m, v_0> the share of the star ray's divisor that
    div(chi^m) moves onto T_r, m the self character.
    """

    fan: Fan3
    ray_index: int
    adjacent: tuple[int, ...]
    images: tuple[tuple[int, int], ...]
    mults: tuple[Fraction, ...]
    weights: tuple[Fraction, ...]

    @cached_property
    def _restriction(self) -> tuple[tuple[tuple[int, int], ...], int]:
        """(mults[k], -weights[k] * mults[k]) per curve k as integers over
        one positive denominator: the factors of a_r and a_0 in the
        restricted coefficient."""
        flat, den = numerators(x for m, w in zip(self.mults, self.weights) for x in (m, -w * m))
        return tuple(zip(flat[::2], flat[1::2])), den

    @property
    def gram(self) -> list[list[Fraction]]:
        """C_k.C_l of the surface's curves, from the fan's triple table: T_r
        restricts to mults[k] C_k, so C_k.C_l = T_0.T_r.T_s / (mults[k]
        mults[l]), with T_0 the star ray's divisor, r = adjacent[k] and
        s = adjacent[l]."""
        return [[triple_product(self.fan, self.ray_index, r, s) / (a * b)
                 for s, b in zip(self.adjacent, self.mults)]
                for r, a in zip(self.adjacent, self.mults)]


def star_surface(
    fan: Fan3, ray_index: int, pinned: Mapping[int, Sequence[int]],
    order: Sequence[int], self_character: Sequence[int],
) -> StarSurface:
    """The invariant surface of a ray, its curves in ``order``.

    ``pinned`` fixes the images of two adjacent rays (e.g. {1: (1, 0),
    3: (0, 1)}), which pins the quotient lattice isomorphism Z^3/Z v_0 = Z^2.
    The map is validated to be integral and surjective; it is never chosen
    silently, so outputs are reproducible.  ``order`` lists each adjacent
    ray once, and the character ``self_character`` must pair nontrivially
    with the star ray.
    """
    adjacent = {r for cone in fan.cones if ray_index in cone for r in cone} - {ray_index}
    if not adjacent:
        raise ValueError("isolated ray")
    order = tuple(int(r) for r in order)
    if sorted(order) != sorted(adjacent):
        raise ValueError(f"order {list(order)} must list the adjacent rays "
                         f"{sorted(adjacent)} once each")
    if len(pinned) != 2 or not set(pinned) <= adjacent or any(
            not isinstance(v, (list, tuple)) or [type(x) for x in v] != [int, int] for v in pinned.values()):
        raise ValueError("exactly two pinned integer images of adjacent rays are required")
    (r1, img1), (r2, img2) = sorted(pinned.items())
    v0 = fan.rays[ray_index]
    m = tuple(int(x) for x in self_character)
    pairing = sum(a * b for a, b in zip(m, v0))
    if len(m) != 3 or pairing == 0:
        raise ValueError("self_character must pair nontrivially with the star ray")
    basis = (v0, fan.rays[r1], fan.rays[r2])
    det = linalg.det3(*basis)
    if det == 0:
        raise ValueError("the star ray and the pinned rays are linearly dependent")
    # Row t of the quotient map: v0 to 0, the pinned rays to their images' t-th coordinates.
    rows = [_cramer(basis, (0, img1[t], img2[t])) for t in range(2)]
    if any(x % det for row in rows for x in row):
        raise ValueError("pinned images do not define an integral quotient map")
    rows = [tuple(x // det for x in row) for row in rows]
    minors = [
        rows[0][a] * rows[1][b] - rows[0][b] * rows[1][a]
        for a, b in ((0, 1), (0, 2), (1, 2))
    ]
    if gcd(gcd(abs(minors[0]), abs(minors[1])), abs(minors[2])) != 1:
        raise ValueError("pinned images do not define a lattice basis of the quotient")

    images: list[tuple[int, int]] = []
    mults: list[Fraction] = []
    for r in order:
        img = tuple(sum(row[t] * fan.rays[r][t] for t in range(3)) for row in rows)
        g = gcd(abs(img[0]), abs(img[1]))
        if g == 0:
            raise ValueError(f"adjacent ray {r} maps to zero in the quotient")
        images.append((img[0] // g, img[1] // g))
        mults.append(Fraction(1, g))
    weights = tuple(Fraction(sum(a * b for a, b in zip(m, fan.rays[r])), pairing) for r in order)
    return StarSurface(fan, ray_index, order, tuple(images), tuple(mults), weights)


def restrict_to_star(star: StarSurface, d: ToricDivisor) -> tuple[tuple[tuple[int, int], ...], int]:
    """Coefficients of D restricted to the star surface, in its curve order,
    as integer forms (a, b) over their least positive denominator.

    The fixed linear map (a_r - a_0 * weights[k]) * mults[k] for curve k,
    r = adjacent[k]: adjacent rays restrict with their lattice-index
    multiplier, rays not adjacent to the star ray restrict to zero, and the
    star ray's own coefficient a_0 is first moved onto the adjacent rays
    through the self character.
    """
    if d.fan != star.fan:
        raise ValueError("different fans")
    rows, den = star._restriction
    forms = d.coeffs
    a0, b0 = forms[star.ray_index]
    return least(((x * forms[r][0] + y * a0, x * forms[r][1] + y * b0)
                  for r, (x, y) in zip(star.adjacent, rows)), den * d.den)


# ---------------------------------------------------------------------------
# Divisor polytopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HPolytope:
    """Intersection of half-spaces <x, normal> >= rhs in R^3.

    Its vertices and its triangulation are computed on first use and kept.
    """

    normals: tuple[Ray, ...]
    rhs: tuple[Fraction, ...]

    @cached_property
    def _vertices(self) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
        """All vertices, sorted, by exhaustive intersection of inequality
        triples, each solved by `_cramer` in Fractions."""
        n = len(self.normals)
        dets = {trio: linalg.det3(*(self.normals[i] for i in trio))
                for trio in itertools.combinations(range(n), 3)}
        # Boundedness: the normals must positively span R^3, i.e. have rank 3
        # and a strictly positive dependency sum lambda_i n_i = 0, lambda = 1
        # + mu with mu >= 0.
        if not any(dets.values()) or lp.solve_max(
                [0] * n, [[normal[t] for normal in self.normals] for t in range(3)],
                [-sum(normal[t] for normal in self.normals) for t in range(3)]).status != lp.OPTIMAL:
            raise ValueError("not a polytope")
        points = set()
        for trio, det in dets.items():
            if det == 0:
                continue
            x = tuple(Fraction(t, det)
                      for t in _cramer([self.normals[i] for i in trio], [self.rhs[i] for i in trio]))
            if all(sum(a * b for a, b in zip(normal, x)) >= r for normal, r in zip(self.normals, self.rhs)):
                points.add(x)
        if not points:
            raise ValueError("empty polytope")
        return tuple(sorted(points))

    @cached_property
    def _tetrahedra(self) -> list[tuple[Fraction, tuple[tuple[Fraction, ...], ...]]]:
        """(volume, tetrahedron) covering the polytope: apex + fan
        triangulation per facet."""
        apex = self._vertices[0]
        out = []
        for normal, rhs in zip(self.normals, self.rhs):
            on_facet = [v for v in self._vertices if sum(a * b for a, b in zip(normal, v)) == rhs]
            ordered = _order_facet(on_facet, normal) if len(on_facet) >= 3 else ()
            for k in range(1, len(ordered) - 1):
                tet = (apex, ordered[0], ordered[k], ordered[k + 1])
                edges = ([a - b for a, b in zip(v, apex)] for v in tet[1:])
                out.append((abs(linalg.det3(*edges)) / 6, tet))
        return out


def divisor_polytope(d: ToricDivisor) -> HPolytope:
    """H-polytope of a constant divisor: <m, v_r> >= -a_r."""
    return HPolytope(normals=d.fan.rays, rhs=tuple(-a for a in _values(d)))


def _order_facet(points: list[tuple[Fraction, ...]], normal: Ray) -> list[tuple[Fraction, ...]]:
    """The vertices of a facet, given sorted, in cyclic order from the least
    one: the others lie within a half-turn around it, so the sign of one
    cross product against the normal orders any two of them exactly."""
    first = points[0]
    edge = {pt: [a - b for a, b in zip(pt, first)] for pt in points[1:]}
    turn = functools.cmp_to_key(lambda x, y: linalg.det3(normal, edge[y], edge[x]))
    return [first, *sorted(points[1:], key=turn)]


def polytope_volume(p: HPolytope) -> Fraction:
    return sum((vol for vol, _ in p._tetrahedra), Fraction(0))


def polytope_min(p: HPolytope, w: Sequence[int]) -> Fraction:
    return min(sum(v[t] * w[t] for t in range(3)) for v in p._vertices)


def polytope_moment(p: HPolytope, w: Sequence[int]) -> Fraction:
    """Exact integral of <x, w> over the polytope.

    The integrand is linear, so on each tetrahedron the integral is the
    volume times the average of the vertex values.
    """
    return sum((vol * sum(sum(v[t] * w[t] for t in range(3)) for v in tet) / 4
                for vol, tet in p._tetrahedra), Fraction(0))


def lattice_min(p: HPolytope, w: Sequence[int]) -> Fraction:
    """Minimum of <x, w> over the lattice points of the polytope."""
    box = [range(ceil(min(v[t] for v in p._vertices)), floor(max(v[t] for v in p._vertices)) + 1)
           for t in range(3)]
    values = [x * w[0] + y * w[1] + z * w[2] for x, y, z in itertools.product(*box)
              if all(n[0] * x + n[1] * y + n[2] * z >= r for n, r in zip(p.normals, p.rhs))]
    if not values:
        raise ValueError("empty polytope")
    return Fraction(min(values))


def s_invariant_toric(p: HPolytope, w: Sequence[int]) -> Fraction:
    """Expected vanishing order along the valuation of the lattice vector w.

    Computed on the divisor polytope p as -min + (3!/L^3) * moment, with
    L^3 = 3! * volume.
    """
    vol = polytope_volume(p)
    if vol == 0:
        raise ValueError("empty polytope")
    l_cubed = 6 * vol
    return -polytope_min(p, w) + Fraction(6) / l_cubed * polytope_moment(p, w)


# ---------------------------------------------------------------------------
# 3-fold Zariski certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Zariski3Interval:
    """L_u = P + N on [u_lo, u_hi]: N, a divisor affine in u on the model
    where P is nef, and for each ray of N's support the 2-cone of its
    forcing curve."""

    u_lo: Fraction
    u_hi: Fraction
    model: Fan3
    negative: ToricDivisor
    forcing: tuple[tuple[int, tuple[int, int]], ...]  # (ray, forcing 2-cone)

    def positive(self, l_u: ToricDivisor) -> ToricDivisor:
        """P = L_u - N on the model.  Small modifications keep ray
        coefficients, so L_u has the same coefficient vector on every model."""
        return ToricDivisor(self.model, l_u.coeffs, l_u.den) - self.negative


def verify_zariski3(l_u: ToricDivisor, intervals: Sequence[Zariski3Interval]) -> list[str]:
    """One line per rejected interval of an interval-wise Zariski
    decomposition of the one-parameter divisor L_u, none when it holds.

    Each interval names the birational model on which the positive part is
    nef, the negative part, and, for every ray supporting it, a forcing
    curve along which positivity pins the negative coefficient.
    """
    return [f"[{iv.u_lo},{iv.u_hi}] on {len(iv.model.rays)}-ray model: REJECT ({failure})"
            for iv in intervals if (failure := _check_interval(l_u, iv))]


def _check_interval(l_u: ToricDivisor, iv: Zariski3Interval) -> str | None:
    # (a) negative part effective on the interval (affine coefficients: the
    # two endpoints certify it).
    for k, form in enumerate(iv.negative.coeffs):
        u0 = negative_end(form, iv.u_lo, iv.u_hi)
        if u0 is not None:
            return f"negative part not effective at ray {k}, u={u0}"
    # (b) positive part nef on the stated model.
    positive = iv.positive(l_u)
    not_nef = nef_on_interval(positive, iv.u_lo, iv.u_hi)
    if not_nef:
        return f"positive part not nef: {not_nef}"
    # (c) forcing certificates for every ray in the negative support.
    forcing = dict(iv.forcing)
    for k in (k for k, form in enumerate(iv.negative.coeffs) if any(form)):
        if k not in forcing:
            return f"no forcing curve for negative ray {k}"
        along = curve_intersection(positive, forcing[k])
        if any(along[:2]):
            return f"forcing curve {forcing[k]} not orthogonal to P (got {form_text(along[:2], along[2])})"
        self_int = triple_product(iv.model, k, *forcing[k])
        if self_int >= 0:
            return (
                f"forcing curve {forcing[k]} does not pin ray {k}: "
                f"T{k}.curve = {self_int} >= 0"
            )
    return None
