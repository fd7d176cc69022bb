"""Acceptance criteria, one test per criterion (split where a criterion
bundles several independent clauses). Each test prints a PASS/FAIL line;
run with -s (or read the -v test lines) to see them all.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import oracles
from primelab.cli import dispatch
from primelab.gpy import GpyParams, error_sum_E, level_of_distribution_sum, weighted_sums
from primelab.largegap import (
    composite_run_from_cover,
    greedy_cover,
    max_gap_G,
    primorial_run,
    run_length_ratio,
    verify_composite_run,
)
from primelab.maynard import (
    build_quadratic_forms,
    gap_bound_chain,
    ij_monte_carlo,
    mk_lower_bound_poly,
    optimize_g_bound,
    rayleigh_quotient,
)
from primelab.sieve import prime_count, primes_between
from primelab.stats import (
    erdos_kac,
    hardy_ramanujan_proportion,
    mertens_sums,
    pigeonhole_experiment,
)
from primelab.tuples import greedy_narrow_tuple, is_admissible, prime_offset_tuple

pytestmark = pytest.mark.acceptance

MC_SAMPLES = 10**7
MC_SEED = 20240815


def report(criterion: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def m105():
    t0 = time.perf_counter()
    cert = mk_lower_bound_poly(105, 12)  # basis size 49 <= 50
    return cert, time.perf_counter() - t0


@pytest.fixture(scope="module")
def tables_1e7():
    return oracles.arith_tables(10**7)


def test_criterion_01_m5_poly_bound(capsys):
    t0 = time.perf_counter()
    code = dispatch(["mk", "poly", "--k", "5", "--degree", "3"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    blob = json.loads(out)
    bound = blob["result"]["lower_bound"]
    witness = [Fraction(int(w["num"]), int(w["den"])) for w in blob["result"]["witness"]]
    requote = rayleigh_quotient(build_quadratic_forms(5, 3), witness)
    with capsys.disabled():
        report(
            "1 (M5 poly bound)",
            code == 0 and bound > 2 and float(requote) >= bound and elapsed < 5.0,
            f"lower_bound={bound:.9f} recertified={float(requote):.9f} time={elapsed:.2f}s",
        )


def test_criterion_02_m105_poly_bound(m105):
    cert, elapsed = m105
    pair = build_quadratic_forms(105, 12)
    requote = rayleigh_quotient(pair, cert.witness)
    report(
        "2 (M105 poly bound)",
        cert.lower_bound > 4
        and requote == cert.exact_value
        and Fraction(cert.lower_bound) <= requote
        and elapsed < 600.0,
        f"lower_bound={cert.lower_bound:.9f} basis={len(pair.basis)} time={elapsed:.1f}s",
    )


def test_criterion_03_dhl_chain(m105):
    cert, _ = m105
    theta = 0.5 - 1e-9
    tup105 = prime_offset_tuple(105)
    chain_bv = gap_bound_chain(105, 12, theta, 1, tup105)
    tup5 = greedy_narrow_tuple(5, 16)
    chain_eh = gap_bound_chain(5, 3, 1.0, 1, tup5)
    ok = (
        cert.lower_bound > 4
        and chain_bv.dhl_holds
        and chain_bv.claimed_gap_bound == tup105.diameter
        and chain_bv.claimed_gap_bound <= 720
        and chain_eh.dhl_holds
        and chain_eh.claimed_gap_bound == tup5.diameter
    )
    report(
        "3 (DHL chain)",
        ok,
        f"theta<1/2 bound={chain_bv.claimed_gap_bound} (<=720), "
        f"EH-conditional bound={chain_eh.claimed_gap_bound} "
        f"(published optimum 12 with the narrowest known tuple)",
    )


def test_criterion_04_gbound_growth():
    t0 = time.perf_counter()
    lines = []
    ok = True
    for k in (10**3, 10**4):
        target = math.log(k) - 2 * math.log(math.log(k)) - 2
        _, _, squared = optimize_g_bound(k, "ratio-squared")
        _, _, printed = optimize_g_bound(k, "as-printed")
        ok = ok and squared > target and printed < target
        lines.append(
            f"k={k}: ratio-squared={squared:.3f} vs target={target:.3f}, "
            f"as-printed={printed:.3f} (stays below, recorded)"
        )
    elapsed = time.perf_counter() - t0
    report("4 (g-bound growth)", ok and elapsed < 10.0, "; ".join(lines) + f"; time={elapsed:.1f}s")


@pytest.mark.parametrize("k", [2, 3])
def test_criterion_05_exact_vs_monte_carlo(k):
    degree = 2
    pair = build_quadratic_forms(k, degree)
    a1, a2 = pair.A1, pair.A2
    m1, s1, m2, s2 = oracles.mc_form_entries(k, pair.basis, MC_SAMPLES, seed=MC_SEED)
    n = len(pair.basis)
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for exact, mc, se in (
                (float(a1[i][j]), m1[i, j], s1[i, j]),
                (float(a2[i][j]), m2[i, j], s2[i, j]),
            ):
                sigmas = abs(exact - mc) / se if se > 0 else 0.0
                worst = max(worst, sigmas)
    cert = mk_lower_bound_poly(k, degree)
    est = ij_monte_carlo(k, [float(c) for c in cert.witness], degree, MC_SAMPLES, MC_SEED)
    ratio = est.j_value / est.i_value
    se_ratio = abs(ratio) * math.hypot(
        est.i_stderr / est.i_value, est.j_stderr / est.j_value
    )
    ray_sigmas = abs(ratio - cert.lower_bound) / se_ratio
    report(
        f"5 (exact vs Monte Carlo, k={k})",
        worst <= 3.0 and ray_sigmas <= 3.0,
        f"worst entry deviation={worst:.2f} sigma, Rayleigh deviation={ray_sigmas:.2f} sigma "
        f"at {MC_SAMPLES:.0e} samples",
    )


def test_criterion_06_sieve_exactness():
    t0 = time.perf_counter()
    count = prime_count(10**8)
    elapsed = time.perf_counter() - t0
    oracle_count = oracles.simple_prime_count(10**8)
    segmented = primes_between(0, 10**6, segment_size=4096)
    identical = np.array_equal(segmented, np.flatnonzero(oracles.simple_sieve_bits(10**6)))
    report(
        "6 (sieve exactness)",
        count == 5_761_455 == oracle_count and elapsed < 15.0 and identical,
        f"pi(10^8)={count} oracle={oracle_count} time={elapsed:.1f}s "
        f"segmented==unsegmented on [0,10^6]: {identical}",
    )


def test_criterion_07_pigeonhole_exact():
    rep = pigeonhole_experiment(10**6, 30, 0, exact=True)
    report(
        "7 (pigeonhole, exact mode)",
        rep.prob_sum > 1.0 and rep.min_gap_found <= 30,
        f"prob_sum={rep.prob_sum:.6f} (>1), min gap={rep.min_gap_found} (<=30), zero tolerance",
    )


def test_criterion_08_gpy_mutual_oracle():
    tup = is_admissible([0, 2, 6])
    params = GpyParams(k=3, l=1, b=0.25, x=10**4, tuple=tup)
    rep = weighted_sums(params, rel_tol=1e-9)  # raises on disagreement
    e_fast = error_sum_E(params)
    e_slow = oracles.error_sum_slow(10**4, 0.25, tup.offsets)
    report(
        "8 (GPY mutual oracle)",
        e_fast == e_slow,
        f"S1={rep.S1:.6f} S2={rep.S2:.6f} agree to 1e-9 both pipelines; "
        f"E={e_fast!r} matches brute force exactly: {e_fast == e_slow}",
    )


def test_criterion_09_level_of_distribution_trend():
    values = [level_of_distribution_sum(x, 0.4) / x for x in (10**4, 10**5, 10**6)]
    ok = values[0] > values[1] > values[2]
    report(
        "9 (level-of-distribution trend)",
        ok,
        "normalized sums " + " > ".join(f"{v:.6f}" for v in values),
    )


def test_criterion_10a_erdos_kac_ks_magnitude(tables_1e7):
    x = 10**7
    rep = erdos_kac(x, -1.0, 1.0)
    # Agreement. The program samples F - Phi on 1000 grid points of
    # [-5, 5], so its value is a lower bound on the exact supremum, and the
    # gap is at most phi(0) * dz, the normal density's maximum times the
    # grid step (between grid points F and Phi both move monotonically;
    # beyond +-5 Phi leaves less than 3e-7). Only float round-off (1e-9) is
    # allowed past that interval. A wrong standardisation (no sqrt, centring
    # at log n, a shifted or Omega-type table) falls outside it.
    exact = oracles.erdos_kac_sup_distance(tables_1e7.omega, x)
    grid_slack = (10.0 / 999.0) / math.sqrt(2.0 * math.pi)
    agrees = rep.ks_distance - 1e-9 <= exact <= rep.ks_distance + grid_slack + 1e-9
    # Magnitude. Erdos-Kac promises convergence only as x -> infinity, at
    # rate ~ 1/sqrt(log log x) (Renyi-Turan 1958). The paper's model makes
    # omega(n) a sum of independent Bernoulli(1/p) events; for such summands
    # the third absolute moments sum to at most the variance sigma^2, so
    # Berry-Esseen gives KS <= C0 / sigma with C0 <= 0.5600 for
    # non-identical summands (Shevtsova 2010). Taken at the Erdos-Kac
    # normalisation sigma^2 = log log x this is 0.3359 at 10^7.
    ceiling = 0.5600 / math.sqrt(math.log(math.log(x)))
    # A fixed target such as 0.15 is not reachable at this scale. omega is
    # integer-valued and its largest atom up to 10^7 is P(omega = 3) =
    # 0.364; under any standardisation shared by all n that atom is a single
    # jump of F, so KS >= half of it (0.182). The per-n statistic computed
    # here smears each atom over an interval of z, and for it a rigorous
    # floor from that atom is only about 0.147 (the omega = 3 mass with
    # n >= 5e5 against Phi's rise over its z-range). What rules out 0.15 is
    # the statistic's determined value, 0.2507, confirmed by the exact
    # supremum above.
    atoms = np.bincount(tables_1e7.omega[3 : x + 1]) / (x - 2)
    atom = float(atoms.max())
    report(
        "10a (Erdos-Kac KS at 10^7: exact supremum and Berry-Esseen ceiling)",
        agrees and rep.ks_distance <= ceiling,
        f"grid ks={rep.ks_distance:.5f}, exact sup={exact:.5f} "
        f"(allowed [{rep.ks_distance:.5f}, {rep.ks_distance + grid_slack:.5f}]); "
        f"largest atom P(omega={int(atoms.argmax())})={atom:.4f}, "
        f"shared-standardisation floor {atom / 2:.4f}; "
        f"Berry-Esseen ceiling {ceiling:.4f}",
    )


def test_criterion_10b_erdos_kac_ks_trend():
    ks_small = erdos_kac(10**5, -1.0, 1.0).ks_distance
    ks_large = erdos_kac(10**7, -1.0, 1.0).ks_distance
    report(
        "10b (Erdos-Kac KS trend)",
        ks_large < ks_small,
        f"ks(10^7)={ks_large:.4f} < ks(10^5)={ks_small:.4f}",
    )


def test_criterion_10c_mertens_band():
    values = [mertens_sums(n)[1] for n in (10**4, 10**6, 10**8)]
    spread = max(values) - min(values)
    report(
        "10c (Mertens d2 band)",
        spread < 0.05,
        f"d2 values {[f'{v:.6f}' for v in values]}, spread={spread:.6f} < 0.05",
    )


def test_criterion_10d_hardy_ramanujan_monotone():
    props = [hardy_ramanujan_proportion(n, 3.0) for n in (10**4, 10**5, 10**6)]
    report(
        "10d (Hardy-Ramanujan proportions)",
        props[0] <= props[1] <= props[2],
        "proportions " + " <= ".join(f"{p:.6f}" for p in props),
    )


def test_criterion_11_large_gaps():
    run20 = primorial_run(20)
    ok20 = verify_composite_run(run20) and all(
        not oracles.trial_division_is_prime(run20.y + j) for j in run20.offsets()
    )
    details = [f"primorial_run(20) verified={ok20}"]
    ok = ok20
    for n in (50, 100):
        system = greedy_cover(n, n)
        run = composite_run_from_cover(system)
        verified = verify_composite_run(run)
        ok = ok and system.covered() and verified and run.length >= n - 1
        details.append(
            f"n={n}: length={run.length} (>= {n - 1}), length/log(y)={run_length_ratio(run):.3f}, "
            f"verified={verified}"
        )
    rec = max_gap_G(1000)
    bits = oracles.simple_sieve_bits(1001)
    primes = [i for i in range(1001) if bits[i]]
    gaps = [(q - p, p, q) for p, q in zip(primes, primes[1:])]
    oracle_best = max(gaps, key=lambda t: (t[0], -t[1]))
    ok = ok and (rec.p, rec.q, rec.gap) == (887, 907, 20)
    ok = ok and (oracle_best[1], oracle_best[2], oracle_best[0]) == (887, 907, 20)
    details.append(f"G(1000)=({rec.p},{rec.q},{rec.gap}) matches enumeration oracle")
    report("11 (large gaps)", ok, "; ".join(details))
