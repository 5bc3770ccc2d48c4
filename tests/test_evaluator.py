import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hexcoloring.evaluator import (
    QUARTICS,
    cubic_f,
    cubic_spec,
    loeschian_decompositions,
    quartic_dsq,
    real_roots,
    regular_dsq,
)
from hexcoloring.geometry import DomainError


def regular_d(k: int) -> float | None:
    dsq = regular_dsq(k)
    return None if dsq is None else math.sqrt(float(dsq))


def test_loeschian_decompositions():
    assert loeschian_decompositions(7) == [(2, 1)]
    assert loeschian_decompositions(49) == [(7, 0), (5, 3)]
    assert loeschian_decompositions(5) == []
    assert loeschian_decompositions(1) == [(1, 0)]
    assert loeschian_decompositions(3) == [(1, 1)]
    for a, b in loeschian_decompositions(147):
        assert a * a + a * b + b * b == 147
        assert a >= b >= 0


@given(k=st.integers(min_value=1, max_value=400))
def test_decompositions_complete_and_normalized(k):
    got = set(loeschian_decompositions(k))
    brute = {
        (a, b)
        for a in range(21)
        for b in range(a + 1)
        if a * a + a * b + b * b == k
    }
    assert got == brute


REGULAR_EXACT = {
    3: Fraction(1, 4),
    4: Fraction(3, 4),
    7: Fraction(7, 4),
    9: Fraction(3),
    12: Fraction(4),
    13: Fraction(19, 4),
    16: Fraction(27, 4),
    19: Fraction(31, 4),
    21: Fraction(37, 4),
    25: Fraction(12),
    27: Fraction(49, 4),
    28: Fraction(13),
    49: Fraction(27),
    84: Fraction(49),
    147: Fraction(367, 4),
}


def test_regular_closed_form_exact():
    for k, want in REGULAR_EXACT.items():
        assert regular_dsq(k) == want
        assert abs(regular_d(k) - math.sqrt(want)) <= 1e-15
    # k = 147 has two decompositions; the non-square one must win
    assert regular_dsq(147) > Fraction(361, 4)


def test_regular_closed_form_absent():
    for k in (2, 5, 6, 8, 10, 11, 14, 15):
        assert regular_dsq(k) is None
        assert regular_d(k) is None


def test_cubic_spec_k6():
    spec = cubic_spec(6)
    assert (spec.n, spec.p) == (2, 2)
    assert (spec.a3, spec.a2, spec.a1, spec.a0) == (88, -95, -8, 16)


@given(n=st.integers(min_value=2, max_value=40))
def test_cubic_spec_p_identity(n):
    spec = cubic_spec(n * (n + 1))
    assert spec.p == n * (n - 1)
    assert spec.a3 > 0


@pytest.mark.parametrize("k", [2, 7, 11, 13, 100])
def test_cubic_spec_rejects_other_k(k):
    with pytest.raises(DomainError):
        cubic_spec(k)


def test_cubic_f_values():
    _, dsq6 = cubic_f(6)
    assert abs(dsq6 - 0.984215774236) <= 1e-9
    # at k=12 the cubic shape loses to the regular one, barely
    _, dsq12 = cubic_f(12)
    assert 3.7 < dsq12 < float(regular_dsq(12))


@given(n=st.integers(min_value=2, max_value=40))
def test_cubic_root_residual(n):
    spec, dsq = cubic_f(n * (n + 1))
    coeffs = [float(c) for c in spec.coefficients]
    residual = ((coeffs[0] * dsq + coeffs[1]) * dsq + coeffs[2]) * dsq + coeffs[3]
    scale = max(abs(c) for c in coeffs) * max(1.0, dsq) ** 3
    assert abs(residual) <= 1e-12 * scale
    assert dsq > 0


@given(n=st.integers(min_value=2, max_value=60))
def test_cubic_dsq_increases(n):
    _, lo = cubic_f(n * (n + 1))
    _, hi = cubic_f((n + 1) * (n + 2))
    assert hi > lo


QUARTIC_VALUES = {
    11: 2.802794467,
    23: 8.661158494,
    45: 21.233125275,
    187: 107.805154323,
}


def test_quartic_values():
    for k, want in QUARTIC_VALUES.items():
        assert abs(quartic_dsq(k) - want) <= 1e-8


def test_quartics_have_two_real_roots():
    for k, coeffs in QUARTICS.items():
        roots = real_roots([float(c) for c in coeffs])
        assert len(roots) == 2
        assert quartic_dsq(k) == roots[0] < roots[1]


def test_quartic_rejects_other_k():
    with pytest.raises(DomainError):
        quartic_dsq(12)


def test_real_roots_known_polynomials():
    assert real_roots([1.0, -6.0, 11.0, -6.0]) == pytest.approx([1.0, 2.0, 3.0])
    assert real_roots([1.0, 0.0, 1.0]) == []
    assert real_roots([2.0, -4.0]) == [2.0]
    assert real_roots([5.0]) == []
    # leading zeros are dropped
    assert real_roots([0.0, 2.0, -4.0]) == [2.0]


@given(
    roots=st.lists(
        st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
        min_size=1,
        max_size=4,
        unique=True,
    )
)
def test_real_roots_recovers_separated_roots(roots):
    roots = sorted(roots)
    # keep roots well separated so the polynomial is numerically tame
    if any(b - a < 0.5 for a, b in zip(roots, roots[1:])):
        return
    coeffs = [1.0]
    for r in roots:
        coeffs = [c for c in coeffs] + [0.0]
        for idx in range(len(coeffs) - 1, 0, -1):
            coeffs[idx] -= r * coeffs[idx - 1]
    got = real_roots(coeffs)
    assert len(got) == len(roots)
    for a, b in zip(got, roots):
        assert abs(a - b) <= 1e-6 * max(1.0, abs(b))
