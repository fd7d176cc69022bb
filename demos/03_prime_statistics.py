#!/usr/bin/env python3
"""Probabilistic statistics of primes at desk scale.

Four classics, each measured rather than assumed: the prime-counting
ratio, the pigeonhole window argument for small gaps, the Mertens-type
partial sums, and the concentration and Gaussian limit of the count of
distinct prime factors.
"""

from primelab import (
    erdos_kac,
    hardy_ramanujan_proportion,
    mertens_sums,
    pigeonhole_experiment,
    pnt_ratio,
)


def main():
    print("prime-counting ratio pi(x) log(x) / x:")
    for x in (10**4, 10**6, 10**8):
        print(f"  x=10^{len(str(x)) - 1}: {pnt_ratio(x):.5f}")

    print("\npigeonhole experiment on [X, 2X), X = 10^6:")
    exact = pigeonhole_experiment(10**6, 30, 0, exact=True)
    print(f"  exact window sum over h <= 30: {exact.prob_sum:.4f} (> 1)")
    print(f"  so some window holds two primes; true min gap = {exact.min_gap_found}")
    sampled = pigeonhole_experiment(10**6, 30, 10**5, seed=1)
    print(f"  sampled estimate (10^5 draws): {sampled.prob_sum:.4f}")

    print("\nMertens-type deviations (log p / p and 1 / p):")
    for n in (10**4, 10**6):
        d1, d2 = mertens_sums(n)
        print(f"  n=10^{len(str(n)) - 1}: d1={d1:+.6f} d2={d2:+.6f}")

    print("\nconcentration of the distinct-prime-factor count (n <= 10^6):")
    for a in (0.5, 1.0, 3.0):
        frac = hardy_ramanujan_proportion(10**6, a)
        print(f"  band width {a} sqrt(log log n): {frac:.4f} of integers inside")

    print("\nGaussian limit of the standardized factor count (n <= 10^6):")
    rep = erdos_kac(10**6, -1.0, 1.0)
    print(f"  mass in [-1, 1]: empirical {rep.empirical:.4f} vs normal {rep.gaussian:.4f}")
    print(f"  Kolmogorov-Smirnov distance: {rep.ks_distance:.4f}")
    print("  (convergence is log log slow; the gap shrinks only glacially)")


if __name__ == "__main__":
    main()
