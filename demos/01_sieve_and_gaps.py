#!/usr/bin/env python3
"""Sieving a range, counting primes, and scanning consecutive-prime gaps.

The segmented sieve keeps memory flat no matter how far the range goes;
prime counts, gap extremes and the von Mangoldt support all come from
its primality bits.
"""

import time

from primelab import gap_scan, prime_count, primes_between, primorial
from primelab.sieve import mangoldt_range


def main():
    print("primes below 100:", primes_between(0, 100).tolist())

    t0 = time.perf_counter()
    count = prime_count(10**8)
    print(f"\npi(10^8) = {count:,} (took {time.perf_counter() - t0:.2f}s)")
    print(f"pi(x) * log(x) / x at 10^8: {count * 18.4207 / 10**8:.4f} (drifts toward 1)")

    scan = gap_scan(2, 10**6)
    print(f"\ngaps in [2, 10^6): min {scan.min_gap}, max {scan.max_gap}")

    ns, ps, ms = mangoldt_range(2, 31)
    powers = list(zip(ns.tolist(), zip(ps.tolist(), ms.tolist())))
    print("\nprime powers up to 30:", powers)

    print("\nprimorial(97) =", primorial(97))


if __name__ == "__main__":
    main()
