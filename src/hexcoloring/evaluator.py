"""Closed-form values of the best squared gap for special color counts.

Three families admit exact answers:

* Loeschian k = a^2 + a*b + b^2: the regular hexagon achieves a squared
  gap that is rational in (a, b), and the best decomposition wins.
* k = n*(n+1): the best rectilinear shape's squared gap is the largest
  real root of a cubic whose integer coefficients depend on p = n*(n-1).
* four sporadic k (11, 23, 45, 187): the squared gap is the smaller of
  the two real roots of a frozen integer quartic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .geometry import DomainError


def loeschian_decompositions(k: int) -> list[tuple[int, int]]:
    """All (a, b) with a*a + a*b + b*b = k and a >= b >= 0, a > 0, largest a first."""
    out = []
    for b in range(math.isqrt(k) + 1):
        rem = k - b * b
        disc = b * b + 4 * rem  # a = (-b + sqrt(b^2 + 4 rem)) / 2
        root = math.isqrt(disc)
        if root * root != disc:
            continue
        if (root - b) % 2 != 0:
            continue
        a = (root - b) // 2
        if a >= b and a > 0 and a * a + a * b + b * b == k:
            out.append((a, b))
    out.sort(key=lambda ab: -ab[0])
    return out


def _decomposition_dsq(a: int, b: int) -> Fraction:
    if b == 0:
        return Fraction(3 * (a - 1) ** 2, 4)
    return Fraction((3 * a + 3 * b - 4) ** 2 + 3 * (a - b) ** 2, 16)


def regular_dsq(k: int) -> Fraction | None:
    """Best squared gap over k-colorings of the regular hexagon tiling, exact.

    None when k is not Loeschian.  Each decomposition (a, b) of k yields a
    candidate coloring; the largest candidate value is the answer.
    """
    decs = loeschian_decompositions(k)
    if not decs:
        return None
    return max(_decomposition_dsq(a, b) for a, b in decs)


@dataclass(frozen=True)
class CubicSpec:
    """Integer cubic a3*x^3 + a2*x^2 + a1*x + a0 tied to k = n*(n+1)."""

    k: int
    n: int
    p: int
    a3: int
    a2: int
    a1: int
    a0: int

    @property
    def coefficients(self) -> tuple[int, int, int, int]:
        return (self.a3, self.a2, self.a1, self.a0)


def cubic_spec(k: int) -> CubicSpec:
    """Coefficient data for k = n*(n+1), n >= 2; DomainError otherwise."""
    n = (math.isqrt(4 * k + 1) - 1) // 2
    if n < 2 or n * (n + 1) != k:
        raise DomainError(f"k must be n*(n+1) with n >= 2: got {k}")
    p = n * (n - 1)
    return CubicSpec(
        k=k,
        n=n,
        p=p,
        a3=4 * p * (p * p + 3 * p + 1),
        a2=-3 * p**4 - 8 * p**3 + 2 * p * p + 4 * p + 1,
        a1=2 * p * p * (p * p - 2 * p - 1),
        a0=p**4,
    )


def cubic_f(k: int) -> tuple[CubicSpec, float]:
    """Squared gap of the best rectilinear shape for k = n*(n+1), n >= 2.

    Returns the coefficient data together with the largest real root of
    the cubic, which is the squared gap.
    """
    spec = cubic_spec(k)
    roots = real_roots([float(c) for c in spec.coefficients])
    return spec, roots[-1]


# frozen integer quartics for the four sporadic color counts; the squared
# gap is the smaller of each quartic's two real roots
QUARTICS: dict[int, tuple[int, int, int, int, int]] = {
    11: (25600, -1459616, 8840377, -18735876, 13623552),
    23: (97344, -14493200, 287680857, -2041299600, 4968218624),
    45: (548800, -70030800, 2721532527, -44612184348, 279110188800),
    187: (
        391936098304,
        -214522652834752,
        43720132398169569,
        -4062662189783485600,
        145700736445997574400,
    ),
}


def quartic_dsq(k: int) -> float:
    """Squared gap for the sporadic color counts with a quartic closed form."""
    coeffs = QUARTICS.get(k)
    if coeffs is None:
        raise DomainError(f"no quartic closed form for k={k}")
    roots = real_roots([float(c) for c in coeffs])
    return roots[0]


def _horner(coeffs: Sequence[float], x: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _derivative(coeffs: Sequence[float]) -> list[float]:
    n = len(coeffs) - 1
    return [c * (n - m) for m, c in enumerate(coeffs[:-1])]


def _refine(coeffs: Sequence[float], lo: float, hi: float, flo: float, fhi: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fm = _horner(coeffs, mid)
        if fm == 0.0:
            return mid
        if (fm > 0.0) == (fhi > 0.0):
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
        if hi - lo <= 1e-16 * max(1.0, abs(lo), abs(hi)):
            break
    x = 0.5 * (lo + hi)
    deriv = _derivative(coeffs)
    for _ in range(4):
        df = _horner(deriv, x)
        if df == 0.0:
            break
        step = _horner(coeffs, x) / df
        nxt = x - step
        if not (lo - 1e-9 <= nxt <= hi + 1e-9):
            break
        x = nxt
        if abs(step) <= 1e-17 * max(1.0, abs(x)):
            break
    return x


def real_roots(coeffs: Sequence[float]) -> list[float]:
    """All real roots of the polynomial, ascending; leading coefficient first.

    Deterministic: derivative roots isolate monotone intervals, each
    bracketed root is bisected then polished.  Intended for polynomials
    with simple well-separated roots.
    """
    cs = [float(c) for c in coeffs]
    while cs and cs[0] == 0.0:
        cs.pop(0)
    if len(cs) <= 1:
        return []
    if len(cs) == 2:
        return [-cs[1] / cs[0]]
    bound = 1.0 + max(abs(c) for c in cs[1:]) / abs(cs[0])
    knots = [x for x in real_roots(_derivative(cs)) if -bound < x < bound]
    edges = [-bound] + knots + [bound]
    roots: list[float] = []
    for lo, hi in zip(edges, edges[1:]):
        flo = _horner(cs, lo)
        fhi = _horner(cs, hi)
        if flo == 0.0 and lo != -bound:
            if not roots or abs(roots[-1] - lo) > 1e-12 * max(1.0, abs(lo)):
                roots.append(lo)
            continue
        if (flo > 0.0) != (fhi > 0.0):
            r = _refine(cs, lo, hi, flo, fhi)
            if not roots or abs(roots[-1] - r) > 1e-12 * max(1.0, abs(r)):
                roots.append(r)
    fhi = _horner(cs, bound)
    if fhi == 0.0:
        roots.append(bound)
    return roots
