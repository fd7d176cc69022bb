"""The benchmark's workloads: fixed sequences of primelab command lines.

Each workload runs its invocations in order through
`primelab.cli.dispatch`, in one fresh interpreter per run, and checks
every output afterwards. The benchmark seed reaches the program only as
the global `--seed` flag, which feeds the Monte Carlo draws; every other
output is deterministic.

There are two workloads, so that each run can measure for longer on a
noisy 2-core machine. `sieve` holds the large-gap side (the streaming
sieve) and the tables side (the sieve as a one-shot table builder and
array producer); a streaming gain that costs the producer side shows in
its per-invocation and per-layer metrics. `chain` is exact rational
arithmetic and barely touches the sieve, so it is the control for sieve
work, and `sieve` is the control for M_k work.

Checks come in four kinds:
- exact, for known values (OEIS A002386/A005250 gap records, pi(2e8));
- bit-equal to the values the program printed when the benchmark was
  written, for deterministic floats (reports must stay identical byte
  for byte);
- no worse than those values, for results later work is meant to
  improve (M_k bounds, tuple diameter, cover length, gap bounds); an
  M_k bound must also be recertified exactly from its witness;
- statistical, for Monte Carlo: within 4 standard errors of the exact
  integral.

Deliberately left out:
- `--basis-cap 100 mk poly --k 54 --degree 16` escapes today as an
  uncaught LinAlgError (exit 1). An invocation that fails now would read
  as a wall-time regression once fixed, so it waits until the M_k engine
  handles it.
- `RunConfig.workers` is never read by the CLI, so no workload varies it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

Check = Callable[[dict], list[str]]


@dataclass(frozen=True)
class Invocation:
    label: str  # names the cli.<label>.wall_s metric
    argv: tuple[str, ...]
    why: str
    check: Check  # report -> problems found; empty means it passed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    invocations: tuple[Invocation, ...]


# --------- checks ---------

def _get(report: dict, path: str):
    value = report["result"]
    for key in path.split("."):
        value = value[key]
    return value


def equal(**expected) -> Check:
    """Exact equality of result fields; floats must match bit for bit."""

    def check(report: dict) -> list[str]:
        problems = []
        for path, want in expected.items():
            got = _get(report, path)
            if got != want or type(got) is not type(want):
                problems.append(f"{path}: got {got!r}, expected {want!r}")
        return problems

    return check


def at_least(path: str, floor) -> Check:
    def check(report: dict) -> list[str]:
        got = _get(report, path)
        return [] if got >= floor else [f"{path}: got {got!r}, needs >= {floor!r}"]

    return check


def at_most(path: str, ceiling) -> Check:
    def check(report: dict) -> list[str]:
        got = _get(report, path)
        return [] if got <= ceiling else [f"{path}: got {got!r}, needs <= {ceiling!r}"]

    return check


def all_of(*checks: Check) -> Check:
    def check(report: dict) -> list[str]:
        return [problem for c in checks for problem in c(report)]

    return check


def _fraction(obj: dict) -> Fraction:
    return Fraction(int(obj["num"]), int(obj["den"]))


@functools.lru_cache(maxsize=None)
def _forms(k: int, degree: int, basis_cap: int):
    from primelab.maynard import build_quadratic_forms

    return build_quadratic_forms(k, degree, basis_cap=basis_cap)


def recertified(path: str = "") -> Check:
    """The witness's exact Rayleigh quotient equals exact_value, and the
    reported float bound does not exceed it."""

    def check(report: dict) -> list[str]:
        from primelab.maynard import rayleigh_quotient

        cert = _get(report, path) if path else report["result"]
        pair = _forms(cert["k"], cert["degree"], report["config"]["basis_cap"])
        exact = _fraction(cert["exact_value"])
        quotient = rayleigh_quotient(pair, [_fraction(c) for c in cert["witness"]])
        problems = []
        if quotient != exact:
            problems.append(f"{path or 'result'}: witness quotient {float(quotient)!r} != exact_value")
        if Fraction(cert["lower_bound"]) > exact:
            problems.append(f"{path or 'result'}: lower_bound exceeds exact_value")
        return problems

    return check


def _small_primes(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if all(p % q for q in range(2, int(p**0.5) + 1))]


def admissible(k: int) -> Check:
    """k distinct offsets that miss some residue class mod every prime <= k
    (primes above k cannot cover k offsets)."""

    def check(report: dict) -> list[str]:
        offsets = report["result"]["offsets"]
        if len(set(offsets)) != k:
            return [f"offsets: {len(set(offsets))} distinct, expected {k}"]
        covered = [p for p in _small_primes(k) if len({h % p for h in offsets}) == p]
        return [f"offsets cover every class mod {covered[0]}"] if covered else []

    return check


def within_stderr(exact_i: Fraction, exact_j: Fraction, z: float = 4.0) -> Check:
    """Monte Carlo I and J within z standard errors of the exact values.

    With the default coefficients F = 1, every I sample is the same
    constant and its standard error is (near) zero, so a relative floor of
    1e-9 absorbs float summation error over a few million samples.
    """

    def check(report: dict) -> list[str]:
        r = report["result"]
        problems = []
        for name, exact in (("I", exact_i), ("J", exact_j)):
            tol = z * r[f"{name}_stderr"] + 1e-9 * float(exact)
            if abs(r[name] - float(exact)) > tol:
                problems.append(f"{name}: {r[name]!r} is more than {tol:.3e} from {float(exact)!r}")
        return problems

    return check


# --------- workloads ---------

# The large-gap side: sieve kernel and memory bound, no exact arithmetic.
_LARGE_GAPS = (
    Invocation(
        "sieve-2e8",
        ("sieve", "--lo", "0", "--hi", "200000000"),
        "the path that materialises the whole sieve (200 MB of bits, then "
        "every prime as int64 just to read the first and last)",
        equal(prime_count=11078937, first_prime=2, last_prime=199999991),
    ),
    Invocation(
        "scan-2e8",
        ("largegap", "scan", "--X", "200000000"),
        "dense streaming gap_scan: many primes per segment, bounded memory",
        equal(p=191912783, q=191913031, gap=248),
    ),
    Invocation(
        "window-1.3e12",
        ("gaps", "--lo", "1346284310749", "--hi", "1346304310749"),
        "sparse window: base primes reach 1.16e6, past the 2^20 segment, "
        "so the per-base-prime loop dominates (bucket-sieve regime)",
        equal(
            max={"p": 1346294310749, "q": 1346294311331, "gap": 582},
            min={"p": 1346284311899, "q": 1346284311901, "gap": 2},
        ),
    ),
    Invocation(
        "cover-2000",
        ("largegap", "cover", "--n", "2000", "--widest"),
        "pure-Python greedy cover (15 greedy_cover calls) plus CRT over "
        "the primes below 2000",
        all_of(
            equal(covered=True, verified=True),
            at_least("length", 7753),
        ),
    ),
)

# Arithmetic tables, GPY sums and statistics: here the sieve is a one-shot
# table builder and an array producer rather than a segment stream.
_TABLES = (
    Invocation(
        "erdos-kac-3e6",
        ("stats", "erdos-kac", "--x", "3000000", "--a", "-1", "--b", "1"),
        "arith_tables, the one-shot table builder, then a sort of 3e6 floats",
        equal(
            empirical=0.8868309245539497,
            gaussian=0.6826894921370859,
            ks_distance=0.25924514876109894,
        ),
    ),
    Invocation(
        "gpy-sums-1e5",
        ("gpy", "sums", "--x", "100000", "--offsets", "0,2,6", "--l", "1", "--b", "0.25"),
        "GPY weighted sums, direct scan against the rearranged divisor-pair sum",
        equal(
            S1=443627.8244299498,
            S2=169473.68348451608,
            S2_theta=2016096.1504431278,
            objective=-274154.14094543376,
            D_limit=17,
        ),
    ),
    Invocation(
        "gpy-levels-3e6",
        ("gpy", "levels", "--x", "3000000", "--theta", "0.4"),
        "level-of-distribution sum over q <= x^0.4 on an array of primes",
        equal(sum=19564.61510283804, normalized=0.00652153836761268),
    ),
    Invocation(
        "mertens-5e7",
        ("stats", "mertens", "--n", "50000000"),
        "primes_between to 5e7: the sieve as an array producer",
        equal(d1=-1.3324131048243792, d2=0.26150599546825903),
    ),
)

CHAIN = Workload(
    "chain",
    "small-gap chain in exact rational arithmetic: simplex, M_k and tuples",
    (
        Invocation(
            "tuple-105-w610",
            ("tuple", "search", "--k", "105", "--window", "610"),
            "greedy admissible-tuple search at the paper's k = 105",
            all_of(admissible(105), at_most("diameter", 608)),
        ),
        Invocation(
            "chain-105-d12",
            ("mk", "chain", "--k", "105", "--degree", "12", "--theta", "0.499999999",
             "--prime-offset"),
            "the headline chain: certified M_105 > 4 under Bombieri-Vinogradov",
            all_of(
                at_least("certificate.lower_bound", 4.008058227581616),
                equal(dhl_holds=True),
                at_most("claimed_gap_bound", 636),
                recertified("certificate"),
            ),
        ),
        Invocation(
            "poly-105-d16",
            ("--basis-cap", "81", "mk", "poly", "--k", "105", "--degree", "16"),
            "degree 16 (basis 81): where exact LDL and a wider basis spend their time",
            all_of(at_least("lower_bound", 4.0142786479477595), recertified()),
        ),
        Invocation(
            "poly-50-d14",
            ("mk", "poly", "--k", "50", "--degree", "14"),
            "a second dimension at the default basis cap (basis 64)",
            all_of(at_least("lower_bound", 3.6578173171608377), recertified()),
        ),
        Invocation(
            "chain-5-eh",
            ("mk", "chain", "--k", "5", "--degree", "3", "--theta", "1.0",
             "--greedy-window", "16"),
            "the small conditional (Elliott-Halberstam) chain; the program "
            "certifies 14 for it",
            all_of(
                at_least("certificate.lower_bound", 2.002747193962),
                equal(dhl_holds=True),
                at_most("claimed_gap_bound", 14),
                recertified("certificate"),
            ),
        ),
        Invocation(
            "montecarlo-3-d2",
            ("mk", "montecarlo", "--k", "3", "--degree", "2", "--samples", "4000000"),
            "seeded Monte Carlo cross-check of I and J; the only invocation "
            "whose output depends on the seed",
            # F = 1 on R_3: I = vol(R_3) = 1/6 and
            # J = 3 * int_{R_2} (1 - t1 - t2)^2 = 3 * int_0^1 s (1 - s)^2 ds = 1/4
            within_stderr(Fraction(1, 6), Fraction(1, 4)),
        ),
    ),
)

SIEVE = Workload(
    "sieve",
    "large gaps, arithmetic tables, GPY and statistics: numpy sieve work, no exact arithmetic",
    _LARGE_GAPS + _TABLES,
)

WORKLOADS = {w.name: w for w in (SIEVE, CHAIN)}
