"""A fixed pure-Python workload that measures how fast the host runs now.

A small shared VM changes speed by up to a half as its neighbours load the
host, and every timing of the program moves with it.  `kernel` does a fixed
amount of the kind of work the program does (exact rational polynomial
algebra, integration over rational bounds and Gauss-Jordan elimination, on
dicts, tuples and Fractions), but with the benchmark's own code, so a change
to the program never changes it.  child.py times it every 0.1 s while the
program runs, and run.py divides the child's timings by how much longer the
kernel took than `REFERENCE_S`.
"""

from __future__ import annotations

import random
from fractions import Fraction

# The kernel's median time on a quiet 2.1 GHz Xeon vCPU with Python 3.11.
# Scaled timings read as seconds on that host when it is quiet.
REFERENCE_S = 0.0042


def _mul(p: dict, r: dict) -> dict:
    out: dict = {}
    for (a, b), x in p.items():
        for (c, d), y in r.items():
            key = (a + c, b + d)
            out[key] = out.get(key, 0) + x * y
    return {k: v for k, v in out.items() if v}


def _at(p: dict, u: Fraction, v: Fraction) -> Fraction:
    return sum((x * u ** a * v ** b for (a, b), x in p.items()), Fraction(0))


def _integrate_u(p: dict, lo: Fraction, hi: Fraction) -> dict:
    """The integral over lo <= u <= hi, as a polynomial in v."""
    out: dict = {}
    for (a, b), x in p.items():
        key = (0, b)
        out[key] = out.get(key, 0) + x * (hi ** (a + 1) - lo ** (a + 1)) / (a + 1)
    return out


def _solve(rows: list[list[Fraction]]) -> list[Fraction]:
    n = len(rows)
    m = [row[:] for row in rows]
    for col in range(n):
        pivot = next(r for r in range(col, n) if m[r][col])
        m[col], m[pivot] = m[pivot], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n] for row in m]


def kernel() -> Fraction:
    rng = random.Random(2304)

    def rational(den):
        return Fraction(rng.randint(-den, den), rng.randint(1, den))

    acc = Fraction(0)
    for _ in range(2):
        p = {(rng.randint(0, 3), rng.randint(0, 3)): rational(40) for _ in range(6)}
        q = {(rng.randint(0, 2), rng.randint(0, 2)): rational(40) for _ in range(5)}
        pq = _mul(_mul(p, q), q)
        lo, hi = sorted((rational(10**6), rational(10**6)))
        g = _integrate_u(pq, lo, hi)
        for _ in range(8):
            acc += _at(g, Fraction(0), rational(1000))
        acc += _solve([[rational(30) for _ in range(7)] for _ in range(6)])[0]
    return acc

