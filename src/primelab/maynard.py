"""Lower bounds on the simplex Rayleigh quotient M_k = sup J(F)/I(F).

F ranges over square-integrable functions supported on the simplex
R_k = {t_i >= 0, sum t_i <= 1}, with

    I(F) = int_{R_k} F^2
    J(F) = sum_i int (int F dt_i)^2.

Two bound families are implemented. The polynomial method restricts F to
symmetric polynomials sum c_{a,b} (1-P1)^a P2^b of degree at most d,
turning J/I into a ratio of quadratic forms assembled in exact rational
arithmetic. An LDL factorisation of the I-form in decimal arithmetic,
every entry certified to equal the exact factor's rounded to the working
digits, shows it positive definite and whitens the J-form; the largest
eigenvalue of the whitened matrix is solved in floating point and then
re-certified exactly at the witness, so the reported bound (an
MkCertificate) is true regardless of floating error. The analytic
method evaluates, in floats, the closed-form bound for the product shape
built from g(t) = 1/(1+At) on [0, T]. A seeded Monte Carlo estimator of I
and J validates the exact pipeline from outside.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import (
    CapacityError,
    ConsistencyError,
    ConvergenceError,
    InfeasibleError,
    ValidationError,
)
from .simplex import _weight_power
from .tuples import AdmissibleTuple, Refutation, is_admissible

RationalMatrix = list[list[Fraction]]


class BasisIndex(NamedTuple):
    """Exponent pair for the basis polynomial (1-P1)^a P2^b."""

    a: int
    b: int


def enumerate_basis(degree: int) -> list[BasisIndex]:
    """All (a, b) with a + 2b <= degree, sorted lexicographically."""
    if degree < 0:
        raise ValidationError(f"degree must be >= 0, got {degree}")
    return sorted(
        BasisIndex(a, b)
        for a in range(degree + 1)
        for b in range((degree - a) // 2 + 1)
    )


@dataclass(frozen=True)
class QuadraticFormPair:
    """Exact rational Gram matrices of the I-form (A1) and J-form (A2)."""

    k: int
    degree: int
    basis: tuple[BasisIndex, ...]
    A1: RationalMatrix
    A2: RationalMatrix

    def __post_init__(self):
        n = len(self.basis)
        for mat in (self.A1, self.A2):
            if len(mat) != n or any(len(row) != n for row in mat):
                raise ValidationError("matrix dimensions must equal basis size")


def build_quadratic_forms(k: int, degree: int, *, basis_cap: int = 64) -> QuadraticFormPair:
    """Assemble the exact I- and J-form matrices for dimension k.

    Every entry is one sum in Python ints over a factorial denominator,
    from the closed form int_{R_k} (1-P1)^A P2^B = A! B! U_k(B) / (k+A+2B)!
    (see `simplex`). With w_q = a_q + 2 b_q,

        A1[q][r] = (a_q+a_r)! (b_q+b_r)! U_k(b_q+b_r) / (k + w_q + w_r)!.

    For A2, symmetry reduces J to k times its last term; integrating the
    last variable out of B_q in closed form leaves a polynomial in
    sigma = 1 - P1 and P2 of the remaining k-1 variables,

        G_q = sum_{m <= b_q} c_q(m) / e_q(m)! * sigma^e_q(m) P2^f_q(m),
        c_q(m) = C(b_q, m) a_q! (2m)!,  e_q(m) = a_q + 2m + 1,  f_q(m) = b_q - m,

    and A2[q][r] = k * int_{R_(k-1)} G_q G_r, that is

        A2[q][r] = k * sum_{m1, m2} c_q(m1) c_r(m2) C(e1+e2, e1)
                   (f1+f2)! U_(k-1)(f1+f2) / (k + 1 + w_q + w_r)!.
    """
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    basis = enumerate_basis(degree)
    if k == 1:
        # one variable collapses P2 to P1^2; mixed elements duplicate pure
        # powers and would make the Gram matrix singular
        basis = [idx for idx in basis if idx.b == 0]
    n = len(basis)
    if n > basis_cap:
        raise CapacityError(
            f"basis size {n} exceeds cap {basis_cap}; lower the degree or raise the cap"
        )

    fact = [math.factorial(i) for i in range(k + 2 * degree + 2)]
    u_k = _weight_power(k, degree)
    u_k1 = _weight_power(k - 1, degree)
    # per basis element: terms (c, sigma exponent e, P2 exponent f) of G
    gterms = [
        [(math.comb(b, m) * fact[a] * fact[2 * m], a + 2 * m + 1, b - m) for m in range(b + 1)]
        for a, b in basis
    ]
    A1: RationalMatrix = [[Fraction(0)] * n for _ in range(n)]
    A2: RationalMatrix = [[Fraction(0)] * n for _ in range(n)]
    for qi, (aq, bq) in enumerate(basis):
        for ri in range(qi, n):
            ar, br = basis[ri]
            w = aq + 2 * bq + ar + 2 * br
            B = bq + br
            A1[qi][ri] = A1[ri][qi] = Fraction(
                fact[aq + ar] * fact[B] * u_k[B], fact[k + w]
            )
            total = 0
            for c1, e1, f1 in gterms[qi]:
                for c2, e2, f2 in gterms[ri]:
                    f = f1 + f2
                    total += c1 * c2 * math.comb(e1 + e2, e1) * fact[f] * u_k1[f]
            A2[qi][ri] = A2[ri][qi] = Fraction(k * total, fact[k + 1 + w])
    return QuadraticFormPair(k=k, degree=degree, basis=tuple(basis), A1=A1, A2=A2)


def _integer_image(matrix: RationalMatrix) -> tuple[int, list[list[int]]]:
    """(den, den * matrix) with den the lcm of the entry denominators."""
    den = math.lcm(*(x.denominator for row in matrix for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in matrix]


# The decimal LDL's first attempt carries _GUARD digits past prec, with
# prec first guessed as _PREC_GUESS (the bench's forms need 22 to 37); each
# failed certification doubles the guard, and after _ATTEMPTS attempts (a
# guard of at most 30 * 2^11 digits) it gives up.
_GUARD = 30
_PREC_GUESS = 40
_ATTEMPTS = 12
# a float sum or product of n < 2^20 nonnegative terms, times this, bounds
# its exact value from above
_FLOAT_SLACK = 1 + 2.0**-30
# the error bounds themselves are carried in 16 digits, rounded outward
_UP = Context(prec=16, rounding=ROUND_CEILING)
_DOWN = Context(prec=16, rounding=ROUND_FLOOR)


def _not_positive_definite(i: int, value) -> ConsistencyError:
    return ConsistencyError(
        f"pivot {i} of the LDL decomposition is {value} <= 0: "
        "matrix is not positive definite"
    )


def _ldl_at(b: list[list[tuple[Fraction, int]]], wp: int) -> tuple[np.ndarray, int]:
    """Right-looking LDL^T at wp digits of the upper triangle in b.

    b[i] holds (x, e) for columns i .. n-1: the entry is x * 10^-e, each
    rounded once to wp digits. On return, entry (i, i) of the array is
    pivot i and (i, j) is L[j][i]. The count m of factored rows comes
    with it: m < n means pivot m - 1 is <= 0 and its row is not divided.
    """
    n = len(b)
    ctx = Context(prec=wp, rounding=ROUND_HALF_EVEN)
    s = np.zeros((n, n), dtype=object)
    for i, row in enumerate(b):
        s[i, i:] = [ctx.divide(x.numerator, x.denominator).scaleb(-e, ctx) for x, e in row]
    with localcontext(ctx):
        for i in range(n):
            d = s[i, i]
            if d <= 0:
                return s, i + 1
            row = s[i, i + 1 :].copy()
            lcol = row / d
            for j in range(i + 1, n):
                s[j, j:] -= lcol[j - i - 1] * row[j - i - 1 :]
            s[i, i + 1 :] = lcol
    return s, n


def _inverse_times(lf: np.ndarray, lu: np.ndarray, v: np.ndarray) -> np.ndarray:
    """An upper bound on |L^-1| v for unit lower triangular L, v >= 0.

    lf is L's float image and lu >= |L| bounds it entrywise. Z is lf's
    float inverse. F = Z L - I is strictly lower triangular, so
    L^-1 = (I + F)^-1 Z = sum_k (-F)^k Z and |L^-1| v <= w, where
    (I - |F|) w = |Z| v. |F| is bounded by |fl(Z lf)| below the diagonal
    plus the float product's and lf's rounding.
    """
    from scipy.linalg import solve_triangular

    m = len(lf)
    z = solve_triangular(lf, np.eye(m), lower=True, unit_diagonal=True)
    za = np.abs(np.tril(z, -1)) + np.eye(m)
    f = (np.tril(np.abs(z @ lf), -1) + (m + 4) * 2.0**-52 * (za @ lu)) * _FLOAT_SLACK
    y = za @ v * _FLOAT_SLACK
    w = np.empty(m)
    for j in range(m):
        w[j] = (y[j] + f[j, :j] @ w[:j]) * _FLOAT_SLACK
    if not np.isfinite(w).all():
        raise ConvergenceError("the decimal LDL's error bound overflows a float", math.inf)
    return w


def _up_bound(x: np.ndarray) -> np.ndarray:
    """|x| from above, for floats rounded to nearest from exact values."""
    return np.abs(x) * _FLOAT_SLACK + 2.0**-1074


def _pinned(lo: Decimal, hi: Decimal, c: Fraction, scale: int, qmax: int) -> bool:
    """Whether x in [lo, hi] must equal c, given that x * 10^scale is a
    fraction over a denominator at most qmax.

    Two such values x, c that differ are at least 10^-scale / (qmax q)
    apart, q the denominator of c * 10^scale.
    """
    ten = Fraction(10) ** scale
    lo, hi = Fraction(lo), Fraction(hi)
    return lo <= c <= hi and (hi - lo) * ten * qmax * (c * ten).denominator < 1


def _round_pinned(
    pc: Context, lo: Decimal, hi: Decimal, scale: int, qmax: Callable[[], int]
) -> Optional[Decimal]:
    """x in [lo, hi] rounded to pc's digits, or None when that is unknown.

    Rounding is monotone, so ends that round alike fix it. Otherwise the
    one point where the rounding changes, 0 or the tie between two
    neighbours, decides it when x is pinned there (`_pinned`, the
    denominator bound qmax() as there).
    """
    x = pc.plus(lo)
    if x == pc.plus(hi):
        return x
    if lo <= 0 <= hi:
        c = Decimal(0)
    else:
        up = pc.next_plus(x)
        if up != pc.plus(hi):
            return None
        exact = Context(prec=pc.prec + 2)  # x + up and its half carry prec + 2 digits
        c = exact.divide(exact.add(x, up), 2)
    return pc.plus(c) if _pinned(lo, hi, Fraction(c), scale, qmax()) else None


def _decimal_ldl(matrix: RationalMatrix) -> tuple[int, np.ndarray, list[Decimal]]:
    """(prec, L^T, pivots) of A = L D L^T, every entry correctly rounded
    to prec digits, with prec = 20 + the digits of max floor(A[i][i] / pivot_i).

    A is scaled by powers of ten to B = P A P with a diagonal near 1 (an
    exact shift of each entry of L and D) and factored at wp = prec + G
    digits (`_ldl_at`). The computed L~, D~ are the exact factors of
    B + E with |E| <= tau |L~| |D~| |L~|^T <= tau v v^T, where
    u = 10^(1-wp) / 2 and tau = 2 (n+3) u covers the entries' rounding and
    the elimination's (each entry of B~ unrolls into at most n products
    carrying at most n roundings each, as in Higham, Accuracy and
    Stability of Numerical Algorithms, Thm 9.3), and
    v_j^2 = sum_t L~_jt^2 |d~_t| (Cauchy-Schwarz). With w >= |L~^-1| v
    (`_inverse_times`) and eta_i = tau sum_{t<=i} w_t^2 / d~_t < 1,
    writing B as L~ (D~ - L~^-1 E L~^-T) L~^T and factoring the middle
    gives

        |pivot_k - d~_k| <= tau w_k^2 / (1 - eta_(k-1)),
        |L_ji - L~_ji| <= sqrt(tau eta_i / d~_i) / (1 - eta_i)
                          * sum_{i<m<=j} |L~_jm| w_m.

    An entry is certified when both ends of its interval round alike at
    prec (rounding is monotone), or when it is pinned to the one point
    of the interval where its rounding changes: 0 or the tie between two
    neighbours at prec (`_round_pinned`). With D_m the leading minors of
    the integer image S = den A, pivot t is D_(t+1) / (D_t den) and L_ji
    a minor over D_(i+1), and 0 < D_m <= prod_{t<m} S_tt (Hadamard)
    while the leading block is definite; so an interval shorter than the
    least gap between such a fraction and the point holds no other value
    (`_pinned`). The same argument pins a pivot at 0 (A is not definite)
    and a pivot at A[i][i] / 10^m, where the digit count of
    A[i][i] / pivot_i changes. Otherwise G doubles (Ziv's strategy) when
    a pivot, an L entry or that digit count is not certified; and the
    factor is redone, G kept, when wp turns out below prec + G.

    Raises:
        ConsistencyError: a pivot is certified <= 0 (A is not positive
            definite); the index is that of exact elimination.
        ConvergenceError: nothing certified in _ATTEMPTS attempts, or a
            bound leaves the float range.
    """
    n = len(matrix)
    diag = [matrix[i][i] for i in range(n)]
    # half the difference in digit counts; Decimal(int) is exact and, unlike
    # str, has no digit limit
    ex = [
        (Decimal(a.numerator).adjusted() - Decimal(a.denominator).adjusted()) // 2 if a > 0 else 0
        for a in diag
    ]
    b = [[(matrix[i][j], ex[i] + ex[j]) for j in range(i, n)] for i in range(n)]

    image = None  # (den, S), made when a value is first to be pinned

    def minor_bound(m: int) -> tuple[int, int]:
        """(den, prod_{t<m} S_tt), the latter >= D_m (Hadamard)."""
        nonlocal image
        image = image or _integer_image(matrix)
        den, rows = image
        return den, math.prod(rows[t][t] for t in range(m))

    guard, prec = _GUARD, _PREC_GUESS
    for _ in range(_ATTEMPTS):
        wp = prec + guard
        s, m = _ldl_at(b, wp)
        dd = [s[t, t] for t in range(m)]
        lf = np.eye(m)
        upper = np.triu_indices(m, 1)
        lf.T[upper] = s[:m, :m][upper].astype(float)
        lu = _up_bound(lf)
        v = np.sqrt((lu * lu) @ _up_bound(np.array(dd).astype(float)) * _FLOAT_SLACK)
        w = _inverse_times(lf, lu, v * _FLOAT_SLACK)
        tau = _UP.multiply(2 * (n + 3), Decimal(5).scaleb(-wp))
        lo_ctx = Context(prec=wp, rounding=ROUND_FLOOR)
        hi_ctx = Context(prec=wp, rounding=ROUND_CEILING)

        eta = [Decimal(0)]  # eta[t] is eta_(t-1)
        ends = []  # the pivots' intervals
        for t, d in enumerate(dd):
            if eta[-1] >= 1:
                break
            tw2 = _UP.multiply(tau, _UP.multiply(Decimal(w[t]), Decimal(w[t])))
            err = _UP.divide(tw2, _DOWN.subtract(1, eta[-1]))
            lo, hi = lo_ctx.subtract(d, err), hi_ctx.add(d, err)
            if lo <= 0:
                if hi < 0:
                    raise _not_positive_definite(t, d.scaleb(2 * ex[t], _UP).normalize())
                if _pinned(lo, hi, Fraction(0), 2 * ex[t], math.prod(minor_bound(t))):
                    raise _not_positive_definite(t, 0)
                break
            ends.append((lo, hi))
            eta.append(_UP.add(eta[-1], _UP.divide(tw2, d)))
        if len(ends) < n:
            guard *= 2
            continue
        # the digits of floor(A[i][i] / pivot_i) at either end of its interval
        lows, highs = (
            [
                Decimal(a // (Fraction(x) * Fraction(10) ** (2 * e))).adjusted() + 1
                for a, e, x in zip(diag, ex, side)
            ]
            for side in zip(*ends)
        )
        top = max(lows)
        # the count changes where the pivot is A[i][i] / 10^(top-1)
        if max(highs) < top and not any(
            low == top
            and _pinned(lo, hi, a / Fraction(10) ** (top - 1 + 2 * e), 2 * e, math.prod(minor_bound(t)))
            for t, (a, e, low, (lo, hi)) in enumerate(zip(diag, ex, lows, ends))
        ):
            guard *= 2
            continue
        prec = 20 + top
        if wp < prec + guard:
            continue

        pc = Context(prec=prec, rounding=ROUND_HALF_EVEN)
        pivots = [
            _round_pinned(pc, lo, hi, 2 * ex[t], lambda: math.prod(minor_bound(t)))
            for t, (lo, hi) in enumerate(ends)
        ]
        if None in pivots:
            guard *= 2
            continue
        # tail[j, i] = sum_{m >= i} |L~_jm| w_m
        tail = np.cumsum((lu * w)[:, ::-1], axis=1)[:, ::-1] * _FLOAT_SLACK
        lt = np.zeros((n, n), dtype=object)
        lt[n - 1, n - 1] = Decimal(1)
        certified = True
        for i in range(n - 1):
            lt[i, i] = Decimal(1)
            alpha = _UP.divide(
                _UP.next_plus(_UP.divide(_UP.multiply(tau, eta[i + 1]), dd[i]).sqrt(_UP)),
                _DOWN.subtract(1, eta[i + 1]),
            )
            for j in range(i + 1, n):
                err = _UP.multiply(alpha, Decimal(tail[j, i + 1]))
                lo, hi = lo_ctx.subtract(s[i, j], err), hi_ctx.add(s[i, j], err)
                x = _round_pinned(pc, lo, hi, ex[j] - ex[i], lambda: minor_bound(i + 1)[1])
                if x is None:
                    certified = False
                    break
                lt[i, j] = x.scaleb(ex[j] - ex[i], pc)
            if not certified:
                break
        if not certified:
            guard *= 2
            continue
        return prec, lt, [p.scaleb(2 * e, pc) for p, e in zip(pivots, ex)]
    raise ConvergenceError(
        f"no certified rounding of the LDL factor in {_ATTEMPTS} attempts, "
        f"the last with {wp} digits",
        math.inf,
    )


def _eigen_stage(
    pair: QuadraticFormPair, residual_tol: float
) -> tuple[float, np.ndarray, float]:
    """Largest lambda with A2 a = lambda A1 a, its vector, and the residual.

    A1 = L D L^T (`_decimal_ldl`, every entry of L and D correctly rounded
    to prec digits) whitens A2 into M = D^-1/2 L^-1 A2 L^-T D^-1/2, with
    a = L^-T D^-1/2 y. prec is 20 digits past the cancellation the pivots
    show (the digits of max A1[i][i] / pivot_i), and L^-1 A2 L^-T is
    formed in decimals at prec. Float eigh solves M; |My - lambda y| / |My|
    is gated by residual_tol and returned. y maps back to a in decimals,
    each entry to its own relative precision, and a is scaled to
    max |a_i| = 1.

    The factor's digits are guaranteed (the same rounded values as an
    exact factorisation gives), so the witness is reproducible bit for
    bit; the bound's truth does not rest on them, since any witness is
    recertified exactly by `rayleigh_quotient`.

    Raises:
        ConsistencyError: A1 is not positive definite.
        ConvergenceError: the float solve misses the residual tolerance, or
            the factor cannot be certified.
    """
    # the eigen solve is scipy's only use: importing it here spares every
    # other command the load
    from scipy.linalg import eigh

    prec, lt, pivots = _decimal_ldl(pair.A1)
    with localcontext() as ctx:
        ctx.prec = prec
        w = np.array([[Decimal(x.numerator) / x.denominator for x in r] for r in pair.A2])
        for upper in (0, 1):
            w = w.T.copy()
            for i in range(1, len(w)):
                # the second pass yields a symmetric matrix: its upper triangle suffices
                w[i, i * upper :] -= lt[:i, i].dot(w[:i, i * upper :])
        root = np.array([p.sqrt() for p in pivots])
        m = np.triu((w / np.outer(root, root)).astype(float))
        m += np.triu(m, 1).T
        vals, vecs = eigh(m)
        lam, y = float(vals[-1]), vecs[:, -1]
        my = m @ y
        residual = float(np.linalg.norm(my - lam * y) / max(np.linalg.norm(my), 1e-300))
        if residual > residual_tol:
            raise ConvergenceError(
                f"eigen residual {residual:.3e} exceeds {residual_tol:.1e}", residual=residual
            )
        a = np.array([Decimal(c) for c in y.tolist()]) / root
        for i in range(len(a) - 2, -1, -1):
            a[i] -= lt[i, i + 1 :].dot(a[i + 1 :])
        return lam, (a / max(abs(a))).astype(float), residual


@dataclass(frozen=True)
class MkCertificate:
    """Self-verifying lower bound on M_k from the polynomial method.

    The witness is the coefficient vector (exact rationals) and
    lower_bound is the down-rounded float of the exact Rayleigh quotient
    at that witness, exact_value, so the bound survives any floating
    error in the eigen stage. residual is the float eigen-equation
    residual.
    """

    k: int
    method: str
    lower_bound: float
    witness: tuple[Fraction, ...]
    residual: float
    exact_value: Fraction
    degree: int


def rayleigh_quotient(pair: QuadraticFormPair, coeffs: Sequence[Fraction]) -> Fraction:
    """Exact a^T A2 a / a^T A1 a at rational coefficients a.

    With v = L a over the lcm L of the coefficient denominators and
    N_i = den_i A_i the integer images, the quotient is
    (v^T N2 v den1) / (v^T N1 v den2); one walk over the upper triangle of
    the symmetric forms gives both integer sums.
    """
    n = len(pair.basis)
    if len(coeffs) != n:
        raise ValidationError(f"need {n} coefficients, got {len(coeffs)}")
    fracs = [Fraction(c) for c in coeffs]
    lcm = math.lcm(*(c.denominator for c in fracs))
    v = [c.numerator * (lcm // c.denominator) for c in fracs]
    den1, n1 = _integer_image(pair.A1)
    den2, n2 = _integer_image(pair.A2)
    num = den = 0
    for i, vi in enumerate(v):
        if vi == 0:
            continue
        tail = v[i + 1 :]
        num += vi * (vi * n2[i][i] + 2 * sum(x * y for x, y in zip(n2[i][i + 1 :], tail)))
        den += vi * (vi * n1[i][i] + 2 * sum(x * y for x, y in zip(n1[i][i + 1 :], tail)))
    if den == 0:
        raise ValidationError("witness has zero I-form norm")
    return Fraction(num * den1, den * den2)


def _float_rounded_down(q: Fraction) -> float:
    f = float(q)
    while Fraction(f) > q:
        f = math.nextafter(f, -math.inf)
    return f


def mk_lower_bound_poly(
    k: int, degree: int, *, basis_cap: int = 64, residual_tol: float = 1e-9
) -> MkCertificate:
    """Polynomial-basis lower bound: build, eigensolve, recertify exactly.

    Any coefficient vector yields a valid lower bound, so the float
    witness is converted to exact rationals and the Rayleigh quotient is
    re-evaluated exactly; the certificate carries that exact value rounded
    down to a float. residual_tol bounds the eigen-equation residual of
    the float solve.
    """
    pair = build_quadratic_forms(k, degree, basis_cap=basis_cap)
    lam, vec, residual = _eigen_stage(pair, residual_tol)
    witness = tuple(Fraction(float(c)) for c in vec)
    exact = rayleigh_quotient(pair, witness)
    bound = _float_rounded_down(exact)
    # the float eigenvalue and the exact quotient must match closely, or
    # the eigen stage silently went wrong
    if abs(lam - bound) > 1e-6 * max(1.0, abs(bound)):
        raise ConsistencyError(
            f"float eigenvalue {lam!r} far from exact recertification {bound!r}"
        )
    return MkCertificate(
        k=k,
        method=f"poly(degree={degree})",
        lower_bound=bound,
        witness=witness,
        residual=residual,
        exact_value=exact,
        degree=degree,
    )


# --------- analytic bound for g(t) = 1/(1+At) on [0, T] ---------

VARIANT_AS_PRINTED = "as-printed"
VARIANT_RATIO_SQUARED = "ratio-squared"
_VARIANTS = (VARIANT_AS_PRINTED, VARIANT_RATIO_SQUARED)


@dataclass(frozen=True)
class GBoundParams:
    """Parameters of the analytic bound; mu is derived, not chosen.

    variant picks the leading factor: "as-printed" uses the mass-center
    ratio int t g^2 / int g^2 (which stays below 1), "ratio-squared" uses
    (int g)^2 / int g^2. Both are kept because only the second can reach
    the stated log-growth target; see the package docs.
    """

    A: float
    T: float
    k: int
    variant: str = VARIANT_RATIO_SQUARED

    def __post_init__(self):
        if not (0 < self.A < math.inf and 0 < self.T < math.inf):
            raise ValidationError(f"A and T must be finite and > 0, got A={self.A} T={self.T}")
        if self.k < 2:
            raise ValidationError(f"k must be >= 2, got {self.k}")
        if self.k > sys.float_info.max:
            raise ValidationError(f"k must be at most {sys.float_info.max!r}, the largest double")
        if self.variant not in _VARIANTS:
            raise ValidationError(f"variant must be one of {_VARIANTS}")

    @property
    def mu(self) -> float:
        """Center of mass of g^2 on [0, T]."""
        gg, tg, _ = _g_integrals(self.A, self.T)
        return tg / gg


def _g_integrals(A: float, T: float) -> tuple[float, float, float]:
    """Closed forms of int g^2, int t g^2, int g on [0, T], g = 1/(1+At)."""
    u = A * T
    gg = T / (1.0 + u)
    tg = (math.log1p(u) - u / (1.0 + u)) / (A * A) if A * A else math.nan  # A * A underflowed
    g1 = math.log1p(u) / A
    return gg, tg, g1


def mk_lower_bound_g(params: GBoundParams) -> float:
    """Evaluate the analytic bound; may be <= 0 (then useless but reported).

    Raises:
        ValidationError: a closed-form integral is zero or not finite in
            doubles, mu >= 1, or T >= k (1 - mu), naming the violated
            precondition.
    """
    gg, tg, g1 = _g_integrals(params.A, params.T)
    if not all(0 < v < math.inf for v in (gg, tg, g1)):
        raise ValidationError(
            f"integrals of g are zero or not finite in doubles at A={params.A} T={params.T}: "
            f"int g^2 = {gg}, int t g^2 = {tg}, int g = {g1}"
        )
    mu = tg / gg
    if not mu < 1:
        raise ValidationError(f"precondition mu < 1 violated: mu = {mu}")
    if not params.T < params.k * (1 - mu):
        raise ValidationError(
            f"precondition T < k (1 - mu) violated: T = {params.T}, "
            f"k (1 - mu) = {params.k * (1 - mu)}"
        )
    first = mu if params.variant == VARIANT_AS_PRINTED else g1 * g1 / gg
    denom = 1.0 - params.T / params.k - mu
    correction = 1.0 - params.T / (params.k * denom * denom)
    return first * correction


# optimize_g_bound's seed grid is _G_GRID x _G_GRID points, followed by
# at most _G_REFINE_ROUNDS rounds of coordinate shrink
_G_GRID = 64
_G_REFINE_ROUNDS = 48


def optimize_g_bound(k: int, variant: str = VARIANT_RATIO_SQUARED) -> tuple[float, float, float]:
    """Deterministic grid seed plus coordinate shrink over (A, T).

    Searches A in [1e-3, 10 log k], T in [1, k]. Returns (A, T, bound).

    Raises:
        InfeasibleError: no grid point satisfies the preconditions.
    """
    GBoundParams(A=1.0, T=1.0, k=k, variant=variant)  # checks k and variant

    def value(A: float, T: float) -> Optional[float]:
        try:
            return mk_lower_bound_g(GBoundParams(A=A, T=T, k=k, variant=variant))
        except ValidationError:
            return None

    a_hi = 10.0 * math.log(k)
    best: Optional[tuple[float, float, float]] = None
    for i in range(1, _G_GRID + 1):
        A = 1e-3 + (a_hi - 1e-3) * i / _G_GRID
        for j in range(1, _G_GRID + 1):
            T = 1.0 + (k - 1.0) * j / _G_GRID
            v = value(A, T)
            if v is not None and (best is None or v > best[0]):
                best = (v, A, T)
    if best is None:
        raise InfeasibleError(
            f"no feasible (A, T) for k={k} on the {_G_GRID}x{_G_GRID} seed grid"
        )
    for _ in range(_G_REFINE_ROUNDS):
        v0, A0, T0 = best
        for factor in (0.9, 0.97, 1.03, 1.1):
            v = value(A0 * factor, T0)
            if v is not None and v > best[0]:
                best = (v, A0 * factor, T0)
        for factor in (0.9, 0.97, 1.03, 1.1):
            v = value(best[1], T0 * factor)
            if v is not None and v > best[0]:
                best = (v, best[1], T0 * factor)
        if best[0] == v0:
            break
    return best[1], best[2], best[0]


# --------- Monte Carlo validation of I and J ---------

@dataclass(frozen=True)
class IJEstimate:
    i_value: float
    j_value: float
    i_stderr: float
    j_stderr: float
    samples: int


def _eval_combo(
    coeffs: Sequence[float], basis: Sequence[BasisIndex], p1: np.ndarray, p2: np.ndarray
) -> np.ndarray:
    acc = np.zeros_like(p1)
    for c, (a, b) in zip(coeffs, basis):
        if c == 0.0:
            continue
        term = np.full_like(p1, float(c))
        if a:
            term = term * (1.0 - p1) ** a
        if b:
            term = term * p2**b
        acc += term
    return acc


# Samples per chunk. The chunk size is part of the seeded stream: the four
# sums are numpy's pairwise sums over whole chunks, so changing it changes
# every report.
_MC_CHUNK = 1_000_000
# Entries per row block: a chunk is drawn and evaluated in blocks of at most
# _MC_BLOCK_ENTRIES // (k + 1) rows, about 1 MiB of draws at every k. The
# block size is not part of the stream: consecutive draws read the generator
# exactly as one large draw does, and all block arithmetic is per row.
_MC_BLOCK_ENTRIES = 1 << 17
# numpy sums rows of 8 or more entries pairwise and shorter rows left to
# right, so bit-exactness, not speed, makes the row width pick the path.
_PAIRWISE_MIN = 8


def _simplex_power_sums(
    rng: np.random.Generator, n: int, dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """(P1, P2) of n points uniform on R_dim via exponential spacings.

    One (n, dim + 1) exponential draw per block of rows, none for dim 0.
    Every row sum adds in numpy's `sum(axis=1)` order: column by column for
    draws narrower than _PAIRWISE_MIN, by numpy itself from there on.
    """
    if dim == 0:
        return np.zeros(n), np.zeros(n)
    e = rng.standard_exponential((n, dim + 1))
    if dim + 1 >= _PAIRWISE_MIN:
        # in place in the draw's own columns: at large dim, fresh temporaries
        # of a block's size cost more in page faults than the arithmetic
        t = np.divide(e[:, :dim], e.sum(axis=1, keepdims=True), out=e[:, :dim])
        p1 = t.sum(axis=1)
        return p1, np.multiply(t, t, out=t).sum(axis=1)
    cols = e.T
    total = sum(cols[1:], cols[0])
    p1, p2, t = np.zeros(n), np.zeros(n), np.empty(n)
    for c in cols[:dim]:
        np.divide(c, total, out=t)
        p1 += t
        p2 += np.multiply(t, t, out=t)
    return p1, p2


def ij_monte_carlo(
    k: int, coeffs: Sequence[float], degree: int, samples: int, seed: int
) -> IJEstimate:
    """Seeded Monte Carlo estimates of I(F) and J(F) with standard errors.

    F = sum c_{a,b} (1-P1)^a P2^b on R_k. I uses uniform simplex samples;
    J uses k times its symmetric last term, with the inner square turned
    into a product over two independent uniform points of the last
    coordinate. Used only to validate the exact pipeline. The draws, their
    order, the chunk size and the order of every row sum are part of the
    seeded output: the same seed gives the same four floats bit for bit.

    Each chunk takes its four draws (I's simplex points, J's first k - 1
    coordinates, then the two uniforms of the last one) in that order, each
    as a run of row blocks into chunk-length buffers, and sums the weights
    over the whole chunk. The block size is not part of the output: a run
    of draws reads the same stream as one draw of their total size, and
    every value in a block depends on its own row alone.

    Raises:
        ValidationError: bad sizes, non-finite coefficients, or estimates
            that overflow double precision.
    """
    if samples < 1000:
        raise ValidationError(f"samples must be >= 1000, got {samples}")
    if not 1 <= k <= 170:
        # the simplex volumes 1/k! and 1/(k-1)! are taken in doubles
        raise ValidationError(f"k must lie in [1, 170], got {k}")
    basis = enumerate_basis(degree)
    if len(coeffs) != len(basis):
        raise ValidationError(f"need {len(basis)} coefficients, got {len(coeffs)}")
    if not all(math.isfinite(c) for c in coeffs):
        raise ValidationError(f"coefficients must be finite, got {list(coeffs)}")
    rng = np.random.default_rng(seed)
    vol_k = 1.0 / math.factorial(k)
    vol_k1 = 1.0 / math.factorial(k - 1)
    rows = _MC_BLOCK_ENTRIES // (k + 1)
    # the weights (I's, then J's), J's P1 and P2 of the first k - 1
    # coordinates, and F at J's first point
    w, s, q2, f1 = (np.empty(min(_MC_CHUNK, samples)) for _ in range(4))

    sums = np.zeros(2)
    sqsums = np.zeros(2)
    done = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while done < samples:
            n = min(_MC_CHUNK, samples - done)
            edges = [*range(0, n, rows), n]
            blocks = [(slice(lo, hi), hi - lo) for lo, hi in zip(edges, edges[1:])]
            for b, m in blocks:
                fi = _eval_combo(coeffs, basis, *_simplex_power_sums(rng, m, k))
                w[b] = vol_k * fi * fi
            wi = w[:n]
            sums[0] += wi.sum()
            sqsums[0] += np.multiply(wi, wi, out=wi).sum()

            for b, m in blocks:
                s[b], q2[b] = _simplex_power_sums(rng, m, k - 1)
            for b, m in blocks:
                u1 = (1.0 - s[b]) * rng.random(m)
                f1[b] = _eval_combo(coeffs, basis, s[b] + u1, q2[b] + u1 * u1)
            for b, m in blocks:
                sigma = 1.0 - s[b]
                u2 = sigma * rng.random(m)
                f2 = _eval_combo(coeffs, basis, s[b] + u2, q2[b] + u2 * u2)
                w[b] = k * vol_k1 * sigma * sigma * f1[b] * f2
            wj = w[:n]
            sums[1] += wj.sum()
            sqsums[1] += np.multiply(wj, wj, out=wj).sum()
            done += n

        means = sums / samples
        variances = np.maximum(sqsums / samples - means * means, 0.0)
        stderrs = np.sqrt(variances / samples)
    if not (np.isfinite(means).all() and np.isfinite(stderrs).all()):
        raise ValidationError("I, J or their standard errors overflow double precision")
    return IJEstimate(
        i_value=float(means[0]),
        j_value=float(means[1]),
        i_stderr=float(stderrs[0]),
        j_stderr=float(stderrs[1]),
        samples=samples,
    )


# --------- inference chain ---------

def _dhl_threshold(theta: float, m: int) -> float:
    """2m/theta, for theta in (0, 1] and m >= 1 where it is a finite double."""
    if not 0 < theta <= 1:
        raise ValidationError(f"theta must lie in (0, 1], got {theta}")
    if m < 1:
        raise ValidationError(f"m must be >= 1, got {m}")
    if m > sys.float_info.max or not math.isfinite(threshold := 2.0 * m / theta):
        raise ValidationError(f"2m/theta overflows a double at theta={theta}")
    return threshold


def dhl_inference(mk_lower: float, theta: float, m: int) -> bool:
    """Strict test mk_lower > 2m/theta; theta = 1 is the conditional path."""
    return mk_lower > _dhl_threshold(theta, m)


@dataclass(frozen=True)
class GapChainReport:
    """Outcome of the full chain: certificate, inference, claimed bound.

    When the inference holds, the claim is that infinitely many n put at
    least m+1 primes among n + offsets, hence gap bound = tuple diameter,
    conditional on the assumed distribution level theta. When it fails,
    claimed_gap_bound is None and failing_inequality explains why.
    """

    k: int
    degree: int
    theta: float
    m: int
    certificate: MkCertificate
    tuple: AdmissibleTuple
    threshold: float
    dhl_holds: bool
    claimed_gap_bound: Optional[int]
    failing_inequality: Optional[str]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "degree": self.degree,
            "theta": self.theta,
            "m": self.m,
            "certificate": asdict(self.certificate),
            "offsets": list(self.tuple.offsets),
            "tuple_certificate": {str(p): r for p, r in sorted(self.tuple.certificate.items())},
            "threshold": self.threshold,
            "dhl_holds": self.dhl_holds,
            "claimed_gap_bound": self.claimed_gap_bound,
            "failing_inequality": self.failing_inequality,
        }


def gap_bound_chain(
    k: int,
    degree: int,
    theta: float,
    m: int,
    tup: AdmissibleTuple,
    *,
    basis_cap: int = 64,
    residual_tol: float = 1e-9,
) -> GapChainReport:
    """Run the polynomial bound, the strict inference, and emit the claim."""
    if tup.k != k:
        raise ValidationError(f"tuple has {tup.k} offsets, expected {k}")
    verdict = is_admissible(tup.offsets)
    if isinstance(verdict, Refutation):
        raise ValidationError(
            f"tuple is not admissible (all classes mod {verdict.prime} covered)"
        )
    threshold = _dhl_threshold(theta, m)  # checked before the solve
    cert = mk_lower_bound_poly(k, degree, basis_cap=basis_cap, residual_tol=residual_tol)
    holds = cert.lower_bound > threshold
    failing = None
    if not holds:
        failing = (
            f"lower bound {cert.lower_bound!r} does not strictly exceed "
            f"2m/theta = {threshold!r}"
        )
    return GapChainReport(
        k=k,
        degree=degree,
        theta=theta,
        m=m,
        certificate=cert,
        tuple=verdict,
        threshold=threshold,
        dhl_holds=holds,
        claimed_gap_bound=tup.diameter if holds else None,
        failing_inequality=failing,
    )
