"""Exact integrals over the standard simplex, as Python-int tables.

The simplex is R_k = {t in [0,1]^k : t_1 + ... + t_k <= 1}. With the
slack variable t_0 = 1 - P1 (P1 = sum t_i), monomial integrals follow the
Dirichlet identity

    int_{R_k} t_0^A t_1^a_1 ... t_k^a_k dt = A! a_1! ... a_k! / (k + A + a_1+...+a_k)!

(A = 0 is the plain monomial). For P2 = sum t_i^2, expand
P2^B = sum B! / (b_1! ... b_k!) t_1^(2 b_1) ... t_k^(2 b_k) over
b_1 + ... + b_k = B and integrate term by term with the identity:

    int_{R_k} (1 - P1)^A P2^B dt = A! B! U_k(B) / (k + A + 2B)!

where U_k(B), the sum over the same b of prod_i (2 b_i)! / b_i!, is the
k-fold convolution power of w(b) = (2b)! / b!. U_k has one axis (B only)
and is computed in Python ints (_weight_power, which maynard's forms read);
nothing here rounds.
"""

from __future__ import annotations

from math import factorial


def _weight_power(k: int, bmax: int) -> list[int]:
    """U_k(0..bmax): k-fold convolution power of w(b) = (2b)!/b!, by binary
    exponentiation. k = 0 gives the point mass [1, 0, ...]."""

    def conv(u: list[int], v: list[int]) -> list[int]:
        return [sum(u[i] * v[b - i] for i in range(b + 1)) for b in range(bmax + 1)]

    result = [1] + [0] * bmax
    base = [factorial(2 * b) // factorial(b) for b in range(bmax + 1)]
    while k:
        if k & 1:
            result = conv(result, base)
        k >>= 1
        if k:
            base = conv(base, base)
    return result
