"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive and shares no code path with the
package: trial division, one-shot sieves, a segment sieve with one slice
per base prime (`segment_bits_slow`), mu/phi/omega tables by one slice
update per prime p <= n (`arith_tables_all_primes`) and by slices over
p <= sqrt(n) plus one indexed update per cofactor (`arith_tables`, the
full-length tables that the package's streamed omega blocks must
match), prime powers by factorization, direct definitional loops, nested
quadrature, Monte Carlo form entries, an exact Kolmogorov-Smirnov
supremum, and an exact LDL decomposition by
fraction-free elimination (`ldl_bareiss`), which the package's decimal
factor must reproduce rounded. The quadratic forms have a second exact
route: `power_sum_moments` (P1^j P2^B moments from a 2-D convolution
power, `_conv_power`), `complement_moments` (their binomial expansion to
(1 - P1)^A P2^B) and
`quadratic_forms_fraction` (A1 and A2 assembled from those tables in
Fractions). Scalar loops that the package now runs as numpy passes:
`f_weight` (the GPY weight at one n, d | product tested by gcd
accumulation in `_divides_shifted_product`), `greedy_cover_sets` (the
greedy covering system over a Python set), `greedy_tuple_survivors` (the
greedy tuple search over Python lists), `mertens_sums_materialised`
(math.fsum over every prime <= n at once) and
`level_of_distribution_sum_int64` (the residue-class errors with int64
residues). `erdos_kac_fields` standardizes omega into a fresh array at
each step, where the package works in place, block by block;
`hardy_ramanujan_one_array` counts the band over one omega array.
`ij_monte_carlo_row_sums` is the seeded I/J estimator with P1 and P2 as
numpy row sums (`simplex_row_power_sums`), the summation order that the
package's column walk must reproduce bit for bit. Tests compare package
output against these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import ndtr

from primelab.errors import ConsistencyError, ValidationError


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def simple_sieve_bits(hi: int) -> np.ndarray:
    """One-shot, non-segmented primality bits for [0, hi)."""
    bits = np.ones(hi, dtype=bool)
    bits[: min(2, hi)] = False
    for p in range(2, int(math.isqrt(hi - 1)) + 1):
        if bits[p]:
            bits[p * p :: p] = False
    return bits


def segment_bits_slow(seg_lo: int, seg_hi: int) -> np.ndarray:
    """Primality bits for [seg_lo, seg_hi): one slice per base prime p <= sqrt,
    from max(p^2, the first multiple of p at or after seg_lo)."""
    base = np.flatnonzero(simple_sieve_bits(math.isqrt(seg_hi - 1) + 1))
    bits = np.ones(seg_hi - seg_lo, dtype=bool)
    for n in range(seg_lo, min(seg_hi, 2)):
        bits[n - seg_lo] = False
    for p in base.tolist():
        start = max(p * p, ((seg_lo + p - 1) // p) * p)
        if start < seg_hi:
            bits[start - seg_lo :: p] = False
    return bits


def simple_prime_count(x: int) -> int:
    if x < 2:
        return 0
    return int(np.count_nonzero(simple_sieve_bits(x + 1)))


def factorize(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def omega_slow(n: int) -> int:
    return len(factorize(n))


def mobius_slow(n: int) -> int:
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def totient_slow(n: int) -> int:
    result = n
    for p in factorize(n):
        result -= result // p
    return result


def arith_tables_all_primes(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu, phi, omega) on 0..n, one slice update per prime p <= n."""
    mobius = np.ones(n + 1, dtype=np.int8)
    totient = np.arange(n + 1, dtype=np.int64)
    omega = np.zeros(n + 1, dtype=np.int8)
    for p in np.flatnonzero(simple_sieve_bits(n + 1)).tolist():
        mobius[p::p] *= -1
        omega[p::p] += 1
        totient[p::p] -= totient[p::p] // p
        if p * p <= n:
            mobius[p * p :: p * p] = 0
    mobius[0] = 0
    omega[0] = 0
    totient[0] = 0
    return mobius, totient, omega


@dataclass(frozen=True)
class ArithTables:
    """Dense mu, phi and omega tables for 1..n (index 0 holds 0)."""

    n: int
    mobius: np.ndarray
    totient: np.ndarray
    omega: np.ndarray


def arith_tables(n: int) -> ArithTables:
    """Build mu, phi, omega tables for 1..n from the primes p <= n.

    Each p <= sqrt(n) strikes its multiples by slices. An integer has at
    most one prime factor q > sqrt(n), so the multiples m*q (m <= n // q)
    are distinct and are struck by one fancy-index update per m.
    """
    mobius = np.ones(n + 1, dtype=np.int8)
    totient = np.arange(n + 1, dtype=np.int64)
    omega = np.zeros(n + 1, dtype=np.int8)
    primes = np.flatnonzero(simple_sieve_bits(n + 1))
    root = math.isqrt(n)
    k = int(np.searchsorted(primes, root, side="right"))
    for p in primes[:k].tolist():
        mobius[p::p] *= -1
        omega[p::p] += 1
        totient[p::p] -= totient[p::p] // p
        mobius[p * p :: p * p] = 0
    big = primes[k:]
    for m in range(1, n // (root + 1) + 1):
        q = big[: int(np.searchsorted(big, n // m, side="right"))]
        idx = q * m
        mobius[idx] *= -1
        omega[idx] += 1
        totient[idx] -= totient[idx] // q
    mobius[0] = 0  # slices start at p, so phi(0) and omega(0) stay 0

    for arr in (mobius, totient, omega):
        arr.flags.writeable = False
    return ArithTables(n=n, mobius=mobius, totient=totient, omega=omega)


def prime_powers_slow(lo: int, hi: int) -> dict[int, tuple[int, int]]:
    """{n: (p, m)} for every prime power n = p**m in [lo, hi)."""
    out = {}
    for n in range(max(lo, 2), hi):
        f = factorize(n)
        if len(f) == 1:
            out[n] = next(iter(f.items()))
    return out


def erdos_kac_sup_distance(omega, x: int) -> float:
    """Exact sup over all real z of |F(z) - Phi(z)| for the per-n Erdos-Kac
    statistic (omega(n) - log log n) / sqrt(log log n), 3 <= n <= x.

    omega is indexed by n. F is a step function, so the supremum is attained
    at a jump, from one side or the other: (i+1)/N - Phi(z_i) just right of
    the i-th sorted value and Phi(z_i) - i/N just left of it. Ties leave
    both maxima unchanged. Phi comes from scipy's ndtr, not math.erf.
    """
    loglog = np.log(np.log(np.arange(3, x + 1, dtype=np.float64)))
    z = (np.asarray(omega[3 : x + 1], dtype=np.float64) - loglog) / np.sqrt(loglog)
    z.sort()
    total = z.size
    phi = ndtr(z)
    rank = np.arange(total, dtype=np.float64)
    above = float(np.max((rank + 1.0) / total - phi))
    below = float(np.max(phi - rank / total))
    return max(above, below)


def admissible_slow(offsets) -> tuple[bool, int | None]:
    """Brute-force residue check; returns (admissible, refuting prime)."""
    k = len(offsets)
    for p in range(2, k + 1):
        if not trial_division_is_prime(p):
            continue
        if len({h % p for h in offsets}) == p:
            return False, p
    return True, None


def residue_set_slow(i: int, d: int, offsets) -> set[int]:
    """Direct definition: c in [1, d], coprime, d | prod_j (c - h_i + h_j)."""
    hi = offsets[i - 1]
    out = set()
    for c in range(1, d + 1):
        if math.gcd(c, d) != 1:
            continue
        prod = 1
        for h in offsets:
            prod = (prod * (c - hi + h)) % d
        if prod % d == 0:
            out.add(c)
    return out


def lambda_slow(d: int, x: int, b: float, k: int, l: int) -> float:
    mu = mobius_slow(d)
    if mu == 0:
        return 0.0
    logterm = max(b * math.log(x) - math.log(d), 0.0)
    return mu * logterm ** (k + l) / math.factorial(k + l)


def f_weight_slow(n: int, x: int, b: float, offsets, l: int) -> float:
    """Direct divisor-sum square, testing d | product by full big product."""
    k = len(offsets)
    dmax = int(x**b + 1e-9)
    prod = 1
    for h in offsets:
        prod *= n + h
    inner = math.fsum(
        lambda_slow(d, x, b, k, l) for d in range(1, dmax + 1) if prod % d == 0
    )
    return inner * inner


def _divides_shifted_product(d: int, n: int, offsets) -> bool:
    """d | (n+h_1)...(n+h_k), via gcd accumulation (no big products)."""
    rem = d
    for h in offsets:
        rem //= math.gcd(rem, n + h)
        if rem == 1:
            return True
    return rem == 1


def f_weight(n: int, params) -> float:
    """Squared divisor sum at one n in [x, 2x), d running to params.D_limit."""
    if not params.x <= n < 2 * params.x:
        raise ValidationError(f"n must lie in [x, 2x) = [{params.x}, {2 * params.x})")
    inner = math.fsum(
        lambda_slow(d, params.x, params.b, params.k, params.l)
        for d in range(1, params.D_limit + 1)
        if _divides_shifted_product(d, n, params.tuple.offsets)
    )
    return inner * inner


def remainder_slow(x: int, d: int, c: int) -> float:
    """Direct scan: sum of log p over prime powers in [x, 2x) = c mod d."""
    vals = []
    for n in range(x, 2 * x):
        if n % d != c % d:
            continue
        f = factorize(n)
        if len(f) == 1:
            p = next(iter(f))
            vals.append(math.log(p))
    return math.fsum(vals) - x / totient_slow(d)


def error_sum_slow(x: int, b: float, offsets, i: int = 1) -> float:
    """Full naive re-summation of the remainder error sum."""
    d_max = int(math.ceil(x ** (2 * b) - 1e-9)) - 1
    terms = []
    for d in range(1, d_max + 1):
        if mobius_slow(d) == 0:
            continue
        for c in sorted(residue_set_slow(i, d, offsets)):
            terms.append(abs(remainder_slow(x, d, c)))
    return math.fsum(terms)


def nested_quadrature_simplex(k: int, exponents, points: int = 40) -> float:
    """Nested Gauss-Legendre integration of a monomial over the simplex.

    Level i integrates t_i over [0, budget] with the same points-point
    rule, budget = 1 - t_1 - ... - t_(i-1); the levels are held as numpy
    arrays of every node path's remaining budget and weight so far.
    """
    nodes, weights = np.polynomial.legendre.leggauss(points)
    unit = (nodes + 1.0) / 2.0
    budget = np.ones(1)
    acc = np.ones(1)
    for a in list(exponents)[:k]:
        ts = budget[:, None] * unit
        acc = (acc[:, None] * (budget[:, None] / 2.0) * weights * ts**a).ravel()
        budget = (budget[:, None] - ts).ravel()
    return float(acc.sum())


def _conv2(t1, t2, jmax: int, bmax: int):
    out = [[0] * (bmax + 1) for _ in range(jmax + 1)]
    for j1 in range(jmax + 1):
        for b1 in range(bmax + 1):
            v1 = t1[j1][b1]
            if v1 == 0:
                continue
            for j2 in range(jmax + 1 - j1):
                for b2 in range(bmax + 1 - b1):
                    out[j1 + j2][b1 + b2] += v1 * t2[j2][b2]
    return out


def _conv_power(k: int, jmax: int, bmax: int):
    """k-fold 2-D convolution power of w(a, b) = (a + 2b)! / (a! b!)."""
    result = [[0] * (bmax + 1) for _ in range(jmax + 1)]
    result[0][0] = 1
    base = [
        [
            math.factorial(a + 2 * b) // (math.factorial(a) * math.factorial(b))
            for b in range(bmax + 1)
        ]
        for a in range(jmax + 1)
    ]
    e = k
    while e:
        if e & 1:
            result = _conv2(result, base, jmax, bmax)
        e >>= 1
        if e:
            base = _conv2(base, base, jmax, bmax)
    return result


def power_sum_moments(k: int, jmax: int, bmax: int) -> list[list[Fraction]]:
    """M[j][B] = int_{R_k} P1^j P2^B = j! B! T_k(j, B) / (k + j + 2B)!,
    T_k the 2-D convolution power; k = 0 is the point mass."""
    T = _conv_power(k, jmax, bmax)
    return [
        [
            Fraction(
                math.factorial(j) * math.factorial(B) * T[j][B],
                math.factorial(k + j + 2 * B),
            )
            for B in range(bmax + 1)
        ]
        for j in range(jmax + 1)
    ]


def complement_moments(moments, amax: int, bmax: int) -> list[list[Fraction]]:
    """N[A][B] = int (1 - P1)^A P2^B by binomial expansion of the P1 table."""
    if len(moments) < amax + 1:
        raise ValidationError(f"moment table covers j <= {len(moments) - 1}, need {amax}")
    return [
        [
            sum(
                (
                    (-1) ** m * math.comb(A, m) * moments[m][B]
                    for m in range(A + 1)
                ),
                Fraction(0),
            )
            for B in range(bmax + 1)
        ]
        for A in range(amax + 1)
    ]


def quadratic_forms_fraction(k: int, basis) -> tuple[list, list]:
    """(A1, A2) over basis pairs (a, b), assembled in Fractions from the
    P1-axis moment tables: A1 from the complement table of R_k, A2 as k
    times the integral over R_(k-1) of G_q G_r with
    G_q = sum_m C(b, m) a! (2m)! / (a + 2m + 1)! sigma^(a+2m+1) P2^(b-m)."""
    degree = max(a + 2 * b for a, b in basis)
    comp_k = complement_moments(power_sum_moments(k, 2 * degree, degree), 2 * degree, degree)
    comp_k1 = complement_moments(
        power_sum_moments(k - 1, 2 * degree + 2, degree), 2 * degree + 2, degree
    )
    gterms = [
        [
            (
                Fraction(
                    math.comb(b, m) * math.factorial(a) * math.factorial(2 * m),
                    math.factorial(a + 2 * m + 1),
                ),
                a + 2 * m + 1,
                b - m,
            )
            for m in range(b + 1)
        ]
        for a, b in basis
    ]
    n = len(basis)
    a1 = [[comp_k[aq + ar][bq + br] for ar, br in basis] for aq, bq in basis]
    a2 = [[Fraction(0)] * n for _ in range(n)]
    for q in range(n):
        for r in range(q, n):
            total = Fraction(0)
            for c1, e1, f1 in gterms[q]:
                for c2, e2, f2 in gterms[r]:
                    total += c1 * c2 * comp_k1[e1 + e2][f1 + f2]
            a2[q][r] = a2[r][q] = k * total
    return a1, a2


def mc_form_entries(
    k: int, basis, samples: int, seed: int, chunk: int = 1_000_000
):
    """Monte Carlo estimates of both quadratic-form entry matrices.

    Returns (A1_mean, A1_se, A2_mean, A2_se) as n x n float arrays. A1
    entries are simplex integrals of B_i B_j; A2 entries are k times the
    last-coordinate term with the inner square split over two independent
    uniform draws.
    """
    rng = np.random.default_rng(seed)
    n = len(basis)
    vol_k = 1.0 / math.factorial(k)
    vol_k1 = 1.0 / math.factorial(k - 1)

    def basis_values(p1, p2):
        cols = []
        for (a, b) in basis:
            v = np.ones_like(p1)
            if a:
                v = v * (1.0 - p1) ** a
            if b:
                v = v * p2**b
            cols.append(v)
        return cols

    sums1 = np.zeros((n, n))
    sq1 = np.zeros((n, n))
    sums2 = np.zeros((n, n))
    sq2 = np.zeros((n, n))
    done = 0
    while done < samples:
        m = min(chunk, samples - done)
        e = rng.standard_exponential((m, k + 1))
        t = e[:, :k] / e.sum(axis=1, keepdims=True)
        p1 = t.sum(axis=1)
        p2 = (t * t).sum(axis=1)
        bv = basis_values(p1, p2)

        if k - 1 > 0:
            e2 = rng.standard_exponential((m, k))
            tp = e2[:, : k - 1] / e2.sum(axis=1, keepdims=True)
            s = tp.sum(axis=1)
            q2 = (tp * tp).sum(axis=1)
        else:
            s = np.zeros(m)
            q2 = np.zeros(m)
        sigma = 1.0 - s
        u1 = sigma * rng.random(m)
        u2 = sigma * rng.random(m)
        bu1 = basis_values(s + u1, q2 + u1 * u1)
        bu2 = basis_values(s + u2, q2 + u2 * u2)

        for i in range(n):
            for j in range(i, n):
                w1 = vol_k * bv[i] * bv[j]
                sums1[i, j] += w1.sum()
                sq1[i, j] += (w1 * w1).sum()
                w2 = k * vol_k1 * sigma * sigma * 0.5 * (
                    bu1[i] * bu2[j] + bu1[j] * bu2[i]
                )
                sums2[i, j] += w2.sum()
                sq2[i, j] += (w2 * w2).sum()
        done += m

    mean1 = sums1 / samples
    mean2 = sums2 / samples
    se1 = np.sqrt(np.maximum(sq1 / samples - mean1 * mean1, 0.0) / samples)
    se2 = np.sqrt(np.maximum(sq2 / samples - mean2 * mean2, 0.0) / samples)
    for mat in (mean1, mean2, se1, se2):
        for i in range(n):
            for j in range(i):
                mat[i, j] = mat[j, i]
    return mean1, se1, mean2, se2


def simplex_row_power_sums(rng, n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(P1, P2) of n points uniform on R_dim as numpy row sums of the
    (n, dim) coordinate matrix, from one (n, dim + 1) exponential draw
    (none for dim 0)."""
    if dim == 0:
        return np.zeros(n), np.zeros(n)
    e = rng.standard_exponential((n, dim + 1))
    t = e[:, :dim] / e.sum(axis=1, keepdims=True)
    return t.sum(axis=1), (t * t).sum(axis=1)


def ij_monte_carlo_row_sums(
    k: int, coeffs, basis, samples: int, seed: int, chunk: int = 1_000_000
) -> tuple[float, float, float, float]:
    """(I, J, I_stderr, J_stderr) by the package's seeded Monte Carlo
    estimator, with P1 and P2 taken as numpy row sums of (n, dim) matrices.

    Same draws in the same order as `maynard.ij_monte_carlo`, so the two
    agree bit for bit exactly when their summation orders do.
    """
    rng = np.random.default_rng(seed)
    vol_k = 1.0 / math.factorial(k)
    vol_k1 = 1.0 / math.factorial(k - 1)

    def combo(p1, p2):
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

    sums = np.zeros(2)
    sqsums = np.zeros(2)
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        fi = combo(*simplex_row_power_sums(rng, n, k))
        wi = vol_k * fi * fi

        s, q2 = simplex_row_power_sums(rng, n, k - 1)
        sigma = 1.0 - s
        u1 = sigma * rng.random(n)
        u2 = sigma * rng.random(n)
        f1 = combo(s + u1, q2 + u1 * u1)
        f2 = combo(s + u2, q2 + u2 * u2)
        wj = k * vol_k1 * sigma * sigma * f1 * f2

        sums += (wi.sum(), wj.sum())
        sqsums += ((wi * wi).sum(), (wj * wj).sum())
        done += n

    means = sums / samples
    stderrs = np.sqrt(np.maximum(sqsums / samples - means * means, 0.0) / samples)
    return float(means[0]), float(means[1]), float(stderrs[0]), float(stderrs[1])


def exact_rational_requote(a1, a2, witness) -> Fraction:
    """Rayleigh quotient from raw nested lists and Fraction witness."""
    num = Fraction(0)
    den = Fraction(0)
    n = len(witness)
    for i in range(n):
        for j in range(n):
            num += witness[i] * a2[i][j] * witness[j]
            den += witness[i] * a1[i][j] * witness[j]
    return num / den


def ldl_bareiss(matrix) -> tuple[list[Fraction], list[list[int]]]:
    """Exact LDL^T pivots of a symmetric matrix and the rows that give L.

    Fraction-free (Bareiss) elimination on the upper triangle of the
    integer image S = den * matrix, den the lcm of the entry denominators.
    Every row of S is first divided by its content g_r: all minors through
    row r are multiples of g_r, so after step i each active entry is its
    bordered minor of S divided by g_0 ... g_(i-1), an integer, and every
    division below is exact. The diagonal entry d_i at step i is the
    leading minor D_(i+1)(S) over g_0 ... g_i, so pivot i, which is
    D_(i+1)(S) / (D_i(S) den), equals g_i d_i / (d_(i-1) den) exactly.
    Step i's content-divided row holds columns i .. n-1 and is a multiple
    of row i of L^T: row[j] / row[0] = L[i + j][i]. Raises ConsistencyError,
    with the package's message, at the first pivot <= 0.
    """
    n = len(matrix)
    den = math.lcm(*(x.denominator for row in matrix for x in row))
    # a[i] holds columns i .. n-1 of row i of the integer image
    a = [[x.numerator * (den // x.denominator) for x in row[i:]] for i, row in enumerate(matrix)]
    content = [math.gcd(*a[i], *(a[r][i - r] for r in range(i))) or 1 for i in range(n)]
    pivots, factor = [], []
    prev = 1
    for i in range(n):
        g = content[i]
        row = [x // g for x in a[i]]
        d = row[0]
        piv = Fraction(g * d, prev * den)
        if d <= 0:
            raise ConsistencyError(
                f"pivot {i} of the LDL decomposition is {piv} <= 0: "
                "matrix is not positive definite"
            )
        pivots.append(piv)
        factor.append(row)
        for j in range(i + 1, n):
            aij = a[i][j - i]
            a[j] = [(d * x - aij * y) // prev for x, y in zip(a[j], row[j - i :])]
        prev = d
    return pivots, factor


def ldl_pivots(matrix) -> list[Fraction]:
    """Exact LDL^T pivots (`ldl_bareiss`)."""
    return ldl_bareiss(matrix)[0]


def greedy_cover_sets(n: int, y_len: int) -> tuple[dict[int, int], tuple[int, ...]]:
    """(residues, uncovered) of the greedy covering system, over a Python set.

    Each prime p <= n in ascending order takes the class covering the most
    still-uncovered m in [1, y_len], ties to the smallest class.
    """
    uncovered = set(range(1, y_len + 1))
    residues: dict[int, int] = {}
    for p in np.flatnonzero(simple_sieve_bits(n + 1)).tolist():
        counts = [0] * p
        for m in uncovered:
            counts[m % p] += 1
        best = max(range(p), key=lambda c: (counts[c], -c))
        residues[p] = best
        uncovered -= {m for m in uncovered if m % p == best}
    return residues, tuple(sorted(uncovered))


def greedy_tuple_survivors(k: int, window: int) -> list[int]:
    """Survivors in [0, window] of the greedy tuple search, over Python lists.

    Each prime p <= k in ascending order strikes the class mod p that
    keeps the most survivors, ties to the smaller class.
    """
    survivors = list(range(window + 1))
    for p in np.flatnonzero(simple_sieve_bits(k + 1)).tolist():
        counts = [0] * p
        for s in survivors:
            counts[s % p] += 1
        doomed = min(range(p), key=lambda c: (counts[c], c))
        survivors = [s for s in survivors if s % p != doomed]
    return survivors


def mertens_sums_materialised(n: int) -> tuple[float, float]:
    """(d1, d2) of the Mertens sums: math.fsum over the array of all p <= n."""
    ps = np.flatnonzero(simple_sieve_bits(n + 1)).astype(np.float64)
    d1 = math.fsum(np.log(ps) / ps) - math.log(n)
    d2 = math.fsum(1.0 / ps) - math.log(math.log(n))
    return d1, d2


def level_of_distribution_sum_int64(x: int, theta: float, weighted: bool) -> float:
    """The level-of-distribution sum with int64 residues, over the prime
    powers n <= x in increasing order (log p each when weighted, else the
    primes alone, each counting 1)."""
    primes = np.flatnonzero(simple_sieve_bits(x + 1))
    if weighted:
        powers = [(p**m, p) for p in primes.tolist() for m in range(1, int(math.log(x, p)) + 2)
                  if p**m <= x]
        powers.sort()
        ns = np.array([n for n, _ in powers], dtype=np.int64)
        vals = np.log(np.array([p for _, p in powers], dtype=np.float64))
        total = math.fsum(vals.tolist())
    else:
        ns, vals, total = primes.astype(np.int64), None, float(primes.size)
    terms = []
    for q in range(1, int(x**theta + 1e-9) + 1):
        coprime = np.array([math.gcd(a, q) == 1 for a in range(q)], dtype=bool)
        share = total / int(np.count_nonzero(coprime))
        per_class = np.bincount(ns % q, weights=vals, minlength=q).astype(np.float64)
        errs = np.abs(per_class[coprime] - share)
        terms.append(float(np.max(errs)) if errs.size else 0.0)
    return math.fsum(terms)


def erdos_kac_fields(omega: np.ndarray, x: int, a: float, b: float) -> tuple[float, float]:
    """(empirical [a, b] mass, grid KS distance) of (omega(n) - log log n) /
    sqrt(log log n) over 3 <= n <= x, each step into a new array."""
    ns = np.arange(3, x + 1, dtype=np.float64)
    loglog = np.log(np.log(ns))
    std = (omega[3 : x + 1].astype(np.float64) - loglog) / np.sqrt(loglog)
    empirical = float(np.count_nonzero((std >= a) & (std <= b))) / std.size
    zs = np.linspace(-5.0, 5.0, 1000)
    ecdf = np.searchsorted(np.sort(std), zs, side="right") / std.size
    ncdf = 0.5 * (1.0 + np.array([math.erf(z / math.sqrt(2.0)) for z in zs]))
    return empirical, float(np.max(np.abs(ecdf - ncdf)))


def hardy_ramanujan_one_array(omega: np.ndarray, n: int, a: float) -> float:
    """Hardy-Ramanujan proportion over 2 <= N <= n from one omega array
    indexed by N, in one pass."""
    loglog = math.log(math.log(n))
    band = a * math.sqrt(loglog)
    om = omega[2 : n + 1].astype(np.float64)
    return float(np.count_nonzero(np.abs(om - loglog) <= band)) / (n - 1)
