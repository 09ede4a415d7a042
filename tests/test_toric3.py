"""Fan validation, intersection numbers, pullbacks, stars and polytopes."""

import functools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from fano_delta import linalg
from fano_delta.exactmath import Poly
from fano_delta import cli, exactmath, flagdelta
from fano_delta.scenarios import builders, fixtures_dir, load_fan
from fano_delta.toric3 import (
    _cone_coordinates,
    _cramer,
    Fan3,
    ToricDivisor,
    curve_intersection,
    divisor_cube,
    divisor_polytope,
    lattice_min,
    nef_on_interval,
    polytope_min,
    polytope_moment,
    polytope_volume,
    pullback,
    restrict_to_star,
    s_invariant_toric,
    star_surface,
    triple_product,
    validate_fan,
    verify_zariski3,
)

from helpers import (at_u, constant, cube_poly, divisor, fraction_solve, intersection_number, poly_coeffs,
                     poly_curve_intersection, poly_positive, poly_restrict_to_star, polys_of,
                     reference_cone_coordinates, reference_pullback, reference_polytope_vertices, surface_gram,
                     wall_poly)

U = Poly.var("u")


@pytest.fixture(scope="module")
def w0():
    return load_fan("d4-w0")


@pytest.fixture(scope="module")
def y():
    return load_fan("y")


@pytest.fixture(scope="module")
def l_on_w0(w0):
    return divisor(w0, [7 - U, 1, 1, 2, 0, 0, 0])


# ---------------------------------------------------------------------------
# Fan validation
# ---------------------------------------------------------------------------


def test_validate_accepts_the_blowup_fan(w0):
    assert validate_fan(w0) == []


def test_validate_flags_missing_cone(w0):
    broken = Fan3(w0.rays, [c for c in w0.cones if c != (0, 1, 3)])
    issues = validate_fan(broken)
    assert issues
    assert any("face [0, 1]" in issue for issue in issues)


def test_validate_flags_nonprimitive_ray(w0):
    rays = [(2, 6, -2) if r == (1, 3, -1) else r for r in w0.rays]
    issues = validate_fan(Fan3(rays, w0.cones))
    assert issues
    assert any("not primitive" in issue for issue in issues)


def test_validate_flags_a_ray_in_no_cone(w0):
    # Its triples read 0 from the table, so the fan check names it.
    fan = Fan3(w0.rays + ((1, 1, 1),), w0.cones)
    assert validate_fan(fan) == ["ray 7 lies in no maximal cone"]
    assert triple_product(fan, 7, 7, 7) == 0


# ---------------------------------------------------------------------------
# Intersection numbers
# ---------------------------------------------------------------------------


def test_printed_triple_products(w0):
    assert triple_product(w0, 0, 1, 4) == F(1, 3)
    assert triple_product(w0, 2, 2, 6) == -1
    assert triple_product(w0, 3, 3, 6) == 0
    assert triple_product(w0, 1, 2, 6) == 0  # not a cone


def test_symmetry_and_multilinearity(w0):
    rng = random.Random(3)
    divs = [
        divisor(w0, [F(rng.randrange(-4, 5)) for _ in range(7)]) for _ in range(3)
    ]
    d1, d2, d3 = divs
    base = intersection_number(d1, d2, d3)
    assert base == intersection_number(d3, d1, d2) == intersection_number(d2, d3, d1)
    a, b = F(3, 2), F(-5, 3)
    combo = divisor(w0, [a * x + b * y for x, y in zip(poly_coeffs(d1), poly_coeffs(d2))])
    assert intersection_number(combo, d2, d3) == a * base + b * intersection_number(
        d2, d2, d3
    )


def reference_intersection_number(d1, d2, d3):
    """The n^3 loop that `intersection_number` replaced: one product per
    triple of rays, added into a new Poly each time."""
    fan = d1.fan
    n = len(fan.rays)
    total = Poly()
    for i in range(n):
        for j in range(n):
            for k in range(n):
                t = triple_product(fan, i, j, k)
                if t != 0:
                    total = total + poly_coeffs(d1)[i] * poly_coeffs(d2)[j] * poly_coeffs(d3)[k] * t
    return total


FAN_NAMES = ("d4-w0", "d4-wt", "a3-w0", "a3-wt", "y")

coefficient = st.one_of(
    st.just(Poly()),
    st.fractions(min_value=-4, max_value=4, max_denominator=3).map(Poly.const),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda ab: ab[0] + ab[1] * U),
)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(FAN_NAMES), st.data())
def test_intersection_number_matches_triple_loop(name, data):
    fan = load_fan(name)
    divisors = [divisor(fan, data.draw(st.lists(coefficient, min_size=len(fan.rays),
                                                     max_size=len(fan.rays))))
                for _ in range(3)]
    assert intersection_number(*divisors) == reference_intersection_number(*divisors)


ALL_FANS = sorted(path.stem for path in (fixtures_dir() / "fans").glob("*.json"))

affine_coefficient = st.one_of(
    st.just(Poly()),
    st.tuples(st.fractions(min_value=-4, max_value=4, max_denominator=3),
              st.fractions(min_value=-3, max_value=3, max_denominator=4)).map(lambda ab: ab[0] + ab[1] * U),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ALL_FANS), st.data())
def test_divisor_cube_matches_the_poly_cube(name, data):
    # 150 examples over the 10 fan fixtures: the integer cube from the fan's
    # nonzero triples equals the Poly trilinear oracle on a random divisor
    # affine in u.
    assert len(ALL_FANS) == 10
    fan = load_fan(name)
    d = divisor(fan, data.draw(st.lists(affine_coefficient, min_size=len(fan.rays),
                                             max_size=len(fan.rays))))
    assert cube_poly(d) == intersection_number(d, d, d)


def test_divisor_cube_of_the_zero_divisor_is_zero(w0):
    assert divisor_cube(divisor(w0, [0] * 7))[0] == [0, 0, 0, 0]


def test_triple_table_belongs_to_the_fan(w0):
    # An equal fan built afresh makes its own table, once, with the same
    # values; a triple off the table is 0.
    copy = Fan3(w0.rays, w0.cones)
    table = copy.triple_table
    assert copy == w0 and table is not w0.triple_table and table is copy.triple_table
    assert table == w0.triple_table
    assert triple_product(copy, 2, 2, 6) == triple_product(w0, 6, 2, 2) == table[(2, 2, 6)] == -1
    assert (3, 3, 6) not in table and triple_product(copy, 6, 3, 3) == 0


def test_triple_table_names_a_face_outside_two_cones(w0):
    broken = Fan3(w0.rays, [c for c in w0.cones if c != (0, 1, 3)])
    with pytest.raises(ValueError, match=r"face \[0, 1\] lies in 1 maximal cone\(s\), expected 2"):
        broken.triple_table


def reference_triple(fan, i, j, k):
    """The recursive, solve-based triple product that the fan's table
    replaced: a repeated ray is moved off by the m with <m, v_rep> = 1 and <m, .> = 0 on
    the other two rays of the lowest-index cone holding all three, found by
    a 3x3 Fraction solve."""
    i, j, k = sorted((i, j, k))
    if i != j and j != k:
        if (i, j, k) in fan.cones:
            return F(1, abs(linalg.det3(fan.rays[i], fan.rays[j], fan.rays[k])))
        return F(0)
    rep = i if i == j else k
    others = [i, j, k]
    others.remove(rep)
    required = {rep} | set(others)
    cone = next((c for c in sorted(fan.cones) if required <= set(c)), None)
    if cone is None:
        if len(required) > 1:
            return F(0)
        raise ValueError(f"ray {rep} lies in no maximal cone")
    other_rays = [r for r in cone if r != rep]
    m = fraction_solve([list(fan.rays[r]) for r in [rep] + other_rays], [F(1), F(0), F(0)])
    total = F(0)
    for r in range(len(fan.rays)):
        if r != rep:
            coef = -sum(m[t] * fan.rays[r][t] for t in range(3))
            if coef:
                total += coef * reference_triple(fan, r, others[0], others[1])
    return total


FIXTURE_FANS = sorted(path.stem for path in (fixtures_dir() / "fans").glob("*.json"))


@pytest.mark.parametrize("name", FIXTURE_FANS)
def test_repeated_ray_triples_match_solve_reference(name):
    # Every i <= j <= k, repeated rays or not; the table holds exactly the
    # nonzero ones.
    assert len(FIXTURE_FANS) == 10
    fan = load_fan(name)
    n = len(fan.rays)
    nonzero = set()
    for key in ((i, j, k) for i in range(n) for j in range(i, n) for k in range(j, n)):
        want = reference_triple(fan, *key)
        assert triple_product(fan, *key) == want, key
        if want:
            nonzero.add(key)
    assert set(fan.triple_table) == nonzero


def test_principal_divisors_annihilate(w0):
    rng = random.Random(4)
    relations = [
        [1, 1, 0, 0, 0, 0, -1],
        [3, 0, 0, 1, 0, -1, 0],
        [-1, 0, 1, 0, -1, 1, 0],
    ]
    for rel in relations:
        div_chi = divisor(w0, rel)
        for _ in range(5):
            d1 = divisor(w0, [F(rng.randrange(-5, 6)) for _ in range(7)])
            d2 = divisor(w0, [F(rng.randrange(-5, 6)) for _ in range(7)])
            assert intersection_number(div_chi, d1, d2) == 0


def test_curve_intersections(w0, l_on_w0):
    # Each value is a wall (a, b, d): (a + b*u)/d in lowest terms.
    assert curve_intersection(l_on_w0, (0, 1)) == (0, 1, 3)
    assert curve_intersection(at_u(l_on_w0, 1), (1, 0)) == (1, 0, 3)
    assert curve_intersection(at_u(l_on_w0, 2), (1, 3)) == (-1, 0, 1)
    zero = divisor(w0, [0] * 7)
    assert curve_intersection(zero, (0, 1)) == (0, 0, 1)


def test_nefness(w0, l_on_w0):
    half, three_halves = F(1, 2), F(3, 2)
    assert nef_on_interval(l_on_w0, half, half) is None
    bad = nef_on_interval(l_on_w0, three_halves, three_halves)
    assert bad is not None and bad.startswith("curve (1, 3) meets the divisor")
    assert nef_on_interval(divisor(w0, [0] * 7), 0, 0) is None
    assert nef_on_interval(l_on_w0, 0, 1) is None


def test_pair_that_is_no_two_cone_error(l_on_w0):
    with pytest.raises(ValueError, match=r"pair \(1, 6\) is not a 2-cone of the fan"):
        curve_intersection(l_on_w0, (6, 1))


# ---------------------------------------------------------------------------
# Pullbacks
# ---------------------------------------------------------------------------


def test_pullback_lists(w0):
    wt = load_fan("d4-wt")
    t0 = divisor(w0, [1, 0, 0, 0, 0, 0, 0])
    t2 = divisor(w0, [0, 0, 1, 0, 0, 0, 0])
    assert pullback(wt, w0, t0) == divisor(wt, [1] + [0] * 10)
    expected_t2 = [0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2]
    assert pullback(wt, w0, t2) == divisor(wt, expected_t2)
    w2 = load_fan("d4-w2")
    t0_w2 = divisor(w2, [1, 0, 0, 0, 0, 0, 0])
    expected = [1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1]
    assert pullback(wt, w2, t0_w2) == divisor(wt, expected)


def test_pullback_rejects_non_refinement(w0):
    w1 = load_fan("d4-w1")
    d = divisor(w1, [1, 0, 0, 0, 0, 0, 0])
    with pytest.raises(ValueError, match="not a refinement"):
        pullback(w0, w1, d)  # W0 does not refine W1


E1, E2, E3, E0 = (1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)
P3 = Fan3([E1, E2, E3, E0], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


def test_pullback_rejects_missing_coarse_ray():
    d = divisor(P3, [1, 0, 0, 0])
    # Every fine cone lies in a coarse cone, but E3 is not a fine ray.
    fine = Fan3([E1, E2, (1, 1, 1), E0], [(0, 1, 2)])
    with pytest.raises(ValueError, match="not a refinement"):
        pullback(fine, P3, d)


def test_pullback_rejects_straddling_cone():
    d = divisor(P3, [1, 0, 0, 0])
    # Each fine ray lies in a coarse cone, but the cone (E1, E2, w) does not:
    # w = 2*E3 + E0 is outside both coarse cones containing E1 and E2.
    fine = Fan3([E1, E2, E3, E0, (-1, -1, 1)], [(0, 1, 4), (0, 2, 3)])
    with pytest.raises(ValueError, match="not a refinement"):
        pullback(fine, P3, d)
    # The same rays with cones inside coarse cones pull back.
    ok = Fan3([E1, E2, E3, E0, (-1, -1, 1)], [(0, 1, 2), (2, 3, 4), (0, 3, 4)])
    assert pullback(ok, P3, d).coeffs[4] == (0, 0)


small_vectors = st.tuples(*[st.integers(-3, 3)] * 3)


@settings(max_examples=400, deadline=None)
@given(small_vectors, st.tuples(small_vectors, small_vectors, small_vectors))
def test_integer_in_cone_matches_fraction_solve(vec, rays):
    (coords,) = _cone_coordinates([vec], rays)
    reference = reference_cone_coordinates(vec, rays)
    assert (coords is None) == (reference is None)
    if coords is not None:
        assert coords[3] > 0 and [F(x, coords[3]) for x in coords[:3]] == reference


@settings(max_examples=300, deadline=None)
@given(st.tuples(small_vectors, small_vectors, small_vectors).filter(lambda rows: linalg.det3(*rows)),
       small_vectors)
def test_cramer_matches_fraction_solve(rows, rhs):
    det = linalg.det3(*rows)
    assert [F(x, det) for x in _cramer(rows, rhs)] == fraction_solve([list(r) for r in rows], list(rhs))


def test_in_cone_faces_and_degenerate_cones():
    rays = [E1, E2, E3]
    assert _cone_coordinates([(1, 1, 0), (0, 0, 0), (1, -1, 0)], rays) == [(1, 1, 0, 1), (0, 0, 0, 1), None]
    assert _cone_coordinates([E3], rays[::-1]) == [(1, 0, 0, 1)]
    assert _cone_coordinates([(2, 1, 0), (-1, -1, -1)], [E2, E1, E3]) == [(1, 2, 0, 1), None]  # det -1
    assert _cone_coordinates([E1], [E1, E2, (1, 1, 0)]) == [None]  # det 0: no cone


@pytest.mark.parametrize("family", ["34-d4", "34-a3"])
def test_pullback_map_matches_solve_reference(family):
    """Every fixture fan pair: T0..T3 and L_u pulled back by the cached map
    equal the Fraction-solve reference."""
    from fano_delta.scenarios import builders

    fam = builders.ToricFamily(family)
    names = {spec["coarse"] for spec in fam.data["pullbacks"].values()} | {iv["model"] for iv in fam.data["certificate"]}
    for name in sorted(names):
        coarse = load_fan(name)
        n = len(coarse.rays)
        divisors = [divisor(coarse, [int(k == j) for k in range(n)]) for j in range(4)]
        if len(fam.l_u.coeffs) == n:
            divisors.append(ToricDivisor(coarse, fam.l_u.coeffs, fam.l_u.den))
        for d in divisors:
            assert pullback(fam.resolution, coarse, d) == reference_pullback(fam.resolution, coarse, d)
        assert coarse in fam.resolution._pullbacks  # built once, kept on the fine fan


def test_projection_formula_sample(w0):
    wt = load_fan("d4-wt")
    rng = random.Random(9)
    for _ in range(3):
        divs = [
            divisor(w0, [F(rng.randrange(-3, 4)) for _ in range(7)])
            for _ in range(3)
        ]
        coarse = intersection_number(*divs)
        fine = intersection_number(*(pullback(wt, w0, d) for d in divs))
        assert coarse == fine


# ---------------------------------------------------------------------------
# Star surfaces and their Gram matrices
# ---------------------------------------------------------------------------


# The star block shared by the 34-d4 and 34-a3 fixtures: the pinned images,
# the alpha order of the surface's curves and the self character.
PINNED = {1: (1, 0), 3: (0, 1)}
ALPHA_ORDER = (1, 9, 8, 3, 7, 4)
SELF_CHARACTER = (1, 0, 0)


def test_star_surface_quotient_rays():
    wt = load_fan("d4-wt")
    star = star_surface(wt, 0, PINNED, ALPHA_ORDER, SELF_CHARACTER)
    images = dict(zip(star.adjacent, star.images))
    assert images[1] == (1, 0) and images[3] == (0, 1)
    assert images[9] == (1, 2) and images[8] == (1, 3)
    assert images[7] == (-1, 0) and images[4] == (-1, -3)
    assert all(m == 1 for m in star.mults)


def test_star_surface_fractional_multiplicities():
    wt = load_fan("a3-wt")
    star = star_surface(wt, 0, PINNED, ALPHA_ORDER, SELF_CHARACTER)
    mults = dict(zip(star.adjacent, star.mults))
    assert mults[4] == F(1, 2)  # T4 restricts with multiplier 1/2
    assert mults[7] == F(1, 2)
    assert mults[1] == 1


def test_star_surface_restriction_vector():
    wt = load_fan("d4-wt")
    star = star_surface(wt, 0, PINNED, ALPHA_ORDER, SELF_CHARACTER)
    t4 = divisor(wt, [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0])
    restricted = polys_of(*restrict_to_star(star, t4))
    pos = star.adjacent.index(4)
    assert restricted[pos] == Poly.const(1)
    # T0 restricts through the chi_1 relation to -(alpha1+alpha2+alpha3).
    t0 = divisor(wt, [1] + [0] * 10)
    r0 = polys_of(*restrict_to_star(star, t0))
    by_ray = dict(zip(star.adjacent, r0))
    assert by_ray[1] == Poly.const(-1)
    assert by_ray[8] == Poly.const(-1) and by_ray[9] == Poly.const(-1)
    assert by_ray[3] == 0 and by_ray[4] == 0 and by_ray[7] == 0


def test_star_requires_valid_basis():
    wt = load_fan("d4-wt")
    with pytest.raises(ValueError):
        star_surface(wt, 0, {1: (1, 0), 3: (0, 2)}, ALPHA_ORDER, SELF_CHARACTER)
    with pytest.raises(ValueError, match="isolated ray"):
        star_surface(Fan3([(1, 0, 0)], []), 0, {}, (), SELF_CHARACTER)


@pytest.mark.parametrize("order", [
    ALPHA_ORDER[:-1],  # omits ray 4
    ALPHA_ORDER + (1,),  # repeats ray 1
    ALPHA_ORDER[:-1] + (1,),  # repeats ray 1 in place of ray 4
    ALPHA_ORDER + (5,),  # adds ray 5, not adjacent to ray 0
    (99,) + ALPHA_ORDER[1:],  # names a ray the fan does not have
])
def test_star_order_lists_each_adjacent_ray_once(order):
    with pytest.raises(ValueError, match="once each"):
        star_surface(load_fan("d4-wt"), 0, PINNED, order, SELF_CHARACTER)


@pytest.mark.parametrize("fan, character", [("d4-wt", (1, 0, 1)), ("a3-wt", (0, 1, 4))])
def test_star_self_character_must_pair_with_the_star_ray(fan, character):
    # d4-wt's ray 0 is (1, 3, -1) and a3-wt's is (2, 4, -1): both pair to 0.
    with pytest.raises(ValueError, match="self_character"):
        star_surface(load_fan(fan), 0, PINNED, ALPHA_ORDER, character)


@settings(max_examples=40, deadline=None)
@given(fan_name=st.sampled_from(["d4-wt", "a3-wt"]),
       order=st.permutations(ALPHA_ORDER),
       coeffs=st.lists(st.integers(-5, 5), min_size=11, max_size=11))
def test_star_restriction_and_gram_follow_the_curve_order(fan_name, order, coeffs):
    # The order names the curves and nothing else: each ray restricts to the
    # same coefficient, and the Gram matrix is the fixture-order one permuted.
    # The table's Gram matrix equals the one of the 2D quotient fan, also
    # where T_r restricts with multiplier 1/2 (a3-wt).
    fan = load_fan(fan_name)
    reference = star_surface(fan, 0, PINNED, ALPHA_ORDER, SELF_CHARACTER)
    star = star_surface(fan, 0, PINNED, order, SELF_CHARACTER)
    assert star.adjacent == tuple(order)
    d = divisor(fan, coeffs)
    assert (dict(zip(star.adjacent, polys_of(*restrict_to_star(star, d))))
            == dict(zip(reference.adjacent, polys_of(*restrict_to_star(reference, d)))))
    at = [ALPHA_ORDER.index(r) for r in order]
    assert star.gram == surface_gram(star.images) == [[reference.gram[a][b] for b in at] for a in at]


def test_surface_gram_quadric():
    gram = surface_gram([(1, 0), (0, 1), (-1, 0), (0, -1)])
    assert gram[0][0] == 0 and gram[1][1] == 0
    assert gram[0][1] == 1 and gram[1][2] == 1 and gram[0][2] == 0


def test_surface_gram_incomplete():
    with pytest.raises(ValueError, match="not complete"):
        surface_gram([(1, 0), (0, 1)])


# ---------------------------------------------------------------------------
# Polytopes and the toric S-invariant
# ---------------------------------------------------------------------------


def test_divisor_polytope_inequalities(y):
    p = divisor_polytope(divisor(y, [1, 1, 2, 0, 0, 0]))
    assert list(p.normals) == list(y.rays)
    assert list(p.rhs) == [F(-1), F(-1), F(-2), F(0), F(0), F(0)]


def test_zero_divisor_polytope_is_origin(y):
    p = divisor_polytope(divisor(y, [0] * 6))
    assert p._vertices == ((F(0), F(0), F(0)),)
    assert polytope_volume(p) == 0


def test_unit_cube_volume_min_moment():
    from fano_delta.toric3 import HPolytope

    p = HPolytope(
        normals=((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
        rhs=(F(0), F(-1), F(0), F(-1), F(0), F(-1)),
    )
    assert polytope_volume(p) == 1
    assert polytope_min(p, (1, 0, 0)) == 0
    assert polytope_moment(p, (1, 0, 0)) == F(1, 2)


def test_polytope_moment_oracle(y):
    # Independent oracle: P_L is the product [-1,0] x {(x2,x3): -2<=x2<=x3<=0,
    # x3>=-1}, so the moment of <x,(1,3,-1)> splits into three 1D integrals.
    p = divisor_polytope(divisor(y, [1, 1, 2, 0, 0, 0]))
    x1_part = F(-1, 2) * F(3, 2)
    x2_part = F(1, 2) * (F(1, 3) - 4)
    x3_part = F(1, 3) - 1
    oracle = x1_part + 3 * x2_part - x3_part
    assert oracle == F(-67, 12)
    assert polytope_moment(p, (1, 3, -1)) == oracle
    assert polytope_min(p, (1, 3, -1)) == -7
    assert lattice_min(p, (1, 3, -1)) == -7


def test_s_invariant_values(y):
    p = divisor_polytope(divisor(y, [1, 1, 2, 0, 0, 0]))
    assert s_invariant_toric(p, (1, 3, -1)) == F(59, 18)
    assert s_invariant_toric(p, (2, 4, -1)) == F(41, 9)
    assert s_invariant_toric(p, (0, 0, 1)) == F(5, 9)


def test_s_invariant_relabeling_invariance(y):
    perm = [3, 0, 2, 5, 1, 4]
    rays = [y.rays[i] for i in perm]
    inverse = {old: new for new, old in enumerate(perm)}
    cones = [tuple(sorted(inverse[i] for i in cone)) for cone in y.cones]
    shuffled = Fan3(rays, cones)
    coeffs = [0] * 6
    for old, coef in enumerate([1, 1, 2, 0, 0, 0]):
        coeffs[inverse[old]] = coef
    assert s_invariant_toric(divisor_polytope(divisor(shuffled, coeffs)), (1, 3, -1)) == F(59, 18)


def test_unbounded_region_rejected():
    from fano_delta.toric3 import HPolytope

    p = HPolytope(normals=((1, 0, 0), (0, 1, 0), (0, 0, 1)), rhs=(F(0), F(0), F(0)))
    with pytest.raises(ValueError, match="not a polytope"):
        p._vertices
    # Rank 3 and 0 in the convex hull of the normals, but no strictly
    # positive dependency: 0 <= x <= 1, y >= 0, z >= 0 is unbounded.
    p = HPolytope(normals=((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)), rhs=(F(0), F(-1), F(0), F(0)))
    with pytest.raises(ValueError, match="not a polytope"):
        p._vertices
    with pytest.raises(ValueError, match="not a polytope"):
        reference_polytope_vertices(p)


@st.composite
def _random_polytopes(draw):
    """Half-space systems in R^3: usually a box cut by a few random facets,
    so bounded, sometimes empty or with coinciding vertices; without the box
    often unbounded."""
    from fano_delta.toric3 import HPolytope

    cell = st.builds(F, st.integers(-4, 2), st.integers(1, 6))
    normals, rhs = [], []
    if draw(st.integers(0, 4)):
        for t in range(3):  # lo <= x_t <= lo + width, a flat box if width is 0
            lo, width = draw(cell), draw(st.builds(F, st.integers(0, 4), st.integers(1, 4)))
            normals += [tuple(int(s == t) for s in range(3)), tuple(-int(s == t) for s in range(3))]
            rhs += [lo, -lo - width]
    for _ in range(draw(st.integers(0, 4)) if normals else draw(st.integers(3, 7))):
        normals.append(draw(st.tuples(*[st.integers(-3, 3)] * 3).filter(any)))
        rhs.append(draw(cell))
    return HPolytope(tuple(normals), tuple(rhs))


def _outcome(vertices, p):
    try:
        return vertices(p)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=120, deadline=None)
@given(_random_polytopes())
def test_vertices_match_fraction_solve(p):
    assert _outcome(lambda p: list(p._vertices), p) == _outcome(reference_polytope_vertices, p)


# ---------------------------------------------------------------------------
# Zariski certificates
# ---------------------------------------------------------------------------


def test_zariski3_interval_accept_and_reject():
    from fano_delta.scenarios import builders

    family = builders.ToricFamily("34-d4")
    l_u, intervals = family.l_u, family.certificate
    assert verify_zariski3(l_u, intervals) == []

    # The [2,4] interval with N = 0 on W0 must be rejected with witness [1,3].
    import dataclasses

    w0 = load_fan("d4-w0")
    bad_iv = dataclasses.replace(intervals[2], model=w0, negative=divisor(w0, [0] * 7), forcing=())
    rejected = verify_zariski3(l_u, (bad_iv,))
    assert rejected
    assert "(1, 3)" in rejected[0]


def test_zariski3_forcing_check():
    import dataclasses

    from fano_delta.scenarios import builders

    family = builders.ToricFamily("34-d4")
    missing = dataclasses.replace(family.certificate[2], forcing=())
    rejected = verify_zariski3(family.l_u, (missing,))
    assert rejected and "no forcing curve" in rejected[0]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda d: st.builds(F, st.integers(0, 10 * d), st.just(d))))
def test_polytope_volume_equals_positive_part_cube(u0):
    # Independent oracle for the interval certificates and for the polytope's
    # vertices and facet order: the divisor volume from pure lattice geometry
    # (3! * polytope volume at fixed u) must equal the cube of the
    # certificate's positive part, nef or not.  60 examples, each a rational
    # u in [0, 10] checked in every interval that holds it, of both toric
    # families (they span [0, 7] and [0, 10]).
    from fano_delta.scenarios import builders

    for family in (builders.ToricFamily("34-d4"), builders.ToricFamily("34-a3")):
        for iv in family.certificate:
            if iv.u_lo <= u0 <= iv.u_hi:
                l_at = at_u(ToricDivisor(iv.model, family.l_u.coeffs, family.l_u.den), u0)
                p_at = at_u(iv.positive(family.l_u), u0)
                cube = constant(intersection_number(p_at, p_at, p_at))
                assert 6 * polytope_volume(divisor_polytope(l_at)) == cube


def test_nef_divisor_volume_on_blowup_fans():
    w0 = load_fan("d4-w0")
    from fano_delta.toric3 import divisor_polytope, polytope_volume

    for u0 in (F(0), F(1, 2), F(1)):
        l_at = divisor(w0, [7 - u0, 1, 1, 2, 0, 0, 0])
        assert nef_on_interval(l_at, u0, u0) is None
        assert 6 * polytope_volume(divisor_polytope(l_at)) == \
            constant(intersection_number(l_at, l_at, l_at))


# ---------------------------------------------------------------------------
# The integer toric maps against their Poly oracles
# ---------------------------------------------------------------------------


@functools.cache
def toric_family(name):
    return builders.ToricFamily(name)


def affine_divisors(fan):
    """Divisors on fan with random integer forms (a, b) over a random den."""
    n = len(fan.rays)
    forms = st.lists(st.tuples(st.integers(-6, 6), st.integers(-3, 3)), min_size=n, max_size=n)
    return st.builds(lambda f, den: ToricDivisor(fan, tuple(f), den), forms, st.integers(1, 6))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_FANS), st.sampled_from(builders.TORIC_FAMILIES), st.data())
def test_integer_toric_maps_equal_the_poly_oracles(name, family, data):
    # 60 examples, about 1 s.  On a random fixture fan: every curve
    # intersection.  For a random toric family: the pullback to its
    # resolution from one of the fans it pulls back from, the restriction to
    # its star surface and the positive part of every certificate interval,
    # each of a random divisor affine in u, against the Poly oracle.
    fan = load_fan(name)
    d = data.draw(affine_divisors(fan))
    for pair in fan.two_cones:
        assert wall_poly(curve_intersection(d, pair)) == poly_curve_intersection(d, pair)
    fam = toric_family(family)
    coarse_names = sorted({spec["coarse"] for spec in fam.data["pullbacks"].values()}
                          | {iv["model"] for iv in fam.data["certificate"]})
    coarse = load_fan(data.draw(st.sampled_from(coarse_names)))
    d = data.draw(affine_divisors(coarse))
    assert pullback(fam.resolution, coarse, d) == reference_pullback(fam.resolution, coarse, d)
    d = data.draw(affine_divisors(fam.resolution))
    assert polys_of(*restrict_to_star(fam.star, d)) == poly_restrict_to_star(fam.star, d)
    l_u = data.draw(affine_divisors(fam.w0))
    for iv in fam.certificate:
        assert poly_coeffs(iv.positive(l_u)) == poly_positive(iv, poly_coeffs(l_u))


def test_toric_families_run_without_poly_arithmetic(monkeypatch):
    # Past the parse caches, which a first run fills, a full report (both
    # toric families, 34-surfaces and 2.18 at two c, chamber scans included)
    # makes no Poly sum, difference, product, negation, quotient, power,
    # evaluation or substitution: every family runs on integers and integer
    # forms, and Poly is built only from fixture text and for report text.
    c_values = [F(1, 2), F(3, 7)]
    first = cli.build_report("all", c_values).entries

    def refuse(*args, **kwargs):
        raise AssertionError("Poly arithmetic on the run path")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
                 "__truediv__", "__pow__", "__call__", "subs"):
        monkeypatch.setattr(exactmath.Poly, name, refuse)
    flagdelta.scenario_scans.cache_clear()  # the scans run again too
    assert cli.build_report("all", c_values).entries == first
