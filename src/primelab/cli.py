"""Command-line surface: every module as a reproducible subcommand.

Reports go to stdout as JSON (or CSV), logs to stderr. Exit codes: 0 on
success, 2 on precondition or validation failures, 3 on internal
consistency failures, 64 on an unknown command. Big integers are
serialized as decimal strings. Apart from the elapsed-time field, output
is byte-identical for identical inputs and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from fractions import Fraction
from typing import Callable, Optional

from . import __version__
from .config import RunConfig, load_config
from .errors import (
    ConsistencyError,
    ConvergenceError,
    PrimelabError,
    ValidationError,
)
from .sieve import gap_scan, sieve_range
from .tuples import (
    AdmissibleTuple,
    Refutation,
    greedy_narrow_tuple,
    is_admissible,
    prime_offset_tuple,
    read_offsets,
    require_admissible,
    write_offsets,
)
from . import stats as stats_mod
from .stats import StatReport, reports_to_csv
from .gpy import (
    GpyParams,
    error_sum_E,
    level_of_distribution_sum,
    weighted_sums,
)
from .maynard import (
    GBoundParams,
    gap_bound_chain,
    ij_monte_carlo,
    mk_lower_bound_g,
    mk_lower_bound_poly,
    optimize_g_bound,
)
from .largegap import (
    composite_run_from_cover,
    greedy_cover,
    max_gap_G,
    primorial_run,
    run_length_ratio,
    verify_composite_run,
    widest_covered_length,
)

USAGE = """usage: primelab [--config PATH] [--seed N] [--format json|csv]
                [--segment-size N] [--basis-cap N] COMMAND ...

commands:
  sieve --lo N --hi N                     prime counts for a range
  gaps --lo N --hi N [--all]              consecutive-prime gap extremes
  tuple verify (--file PATH | --offsets CSV)
  tuple search --k K --window W [--out PATH]
  tuple prime-offset --k K [--out PATH]
  stats pnt --x N
  stats mertens --n N
  stats hardy-ramanujan --n N --a A
  stats erdos-kac --x N --a A --b B
  stats pigeonhole --X N --H N (--samples N | --exact)
  gpy sums --x N --offsets CSV --l L --b B [--error-sum] [--index I]
  gpy error --x N --offsets CSV --l L --b B [--index I]
  gpy levels --x N --theta T [--weighted]
  mk poly --k K --degree D
  mk gbound --k K [--variant V] [--A A --T T]
  mk chain --k K --degree D --theta T --m M
           [--tuple-file PATH | --greedy-window W | --prime-offset]
  mk montecarlo --k K --degree D --samples N [--coeffs CSV]
  largegap primorial --n N
  largegap cover --n N [--y-len L] [--widest]
  largegap scan --X N
"""

_JS_SAFE_INT = 1 << 53


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2) with its own text
        raise _CliError(message)


def _stringify_big(obj):
    """Big integers become decimal strings (lossless across JSON readers)."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) >= _JS_SAFE_INT else obj
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, dict):
        return {str(k): _stringify_big(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify_big(v) for v in obj]
    return obj


def _flatten(prefix: str, obj, rows: list[tuple[str, str]]):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], rows)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, "" if obj is None else repr(obj) if isinstance(obj, float) else str(obj)))


def _emit(
    command: str,
    params: dict,
    result: dict,
    config: RunConfig,
    started: float,
    *,
    stat_rows: Optional[list[StatReport]] = None,
) -> None:
    report = {
        "command": command,
        "config": config.to_dict(),
        "elapsed_seconds": time.time() - started,
        "params": _stringify_big(params),
        "result": _stringify_big(result),
        "seed": config.seed,
        "version": __version__,
    }
    if config.output_format == "csv":
        if stat_rows is not None:
            sys.stdout.write(reports_to_csv(stat_rows))
            return
        rows: list[tuple[str, str]] = []
        _flatten("", report, rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    else:
        json.dump(report, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")


def _parse_offsets(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValidationError(f"cannot parse offsets {text!r}: {exc}") from exc


def _tuple_from_args(args) -> AdmissibleTuple:
    if getattr(args, "tuple_file", None):
        return require_admissible(read_offsets(args.tuple_file))
    if getattr(args, "greedy_window", None):
        return greedy_narrow_tuple(args.k, args.greedy_window)
    return prime_offset_tuple(args.k)


# --------- command implementations ---------

def _cmd_sieve(args, config: RunConfig, started: float) -> int:
    table = sieve_range(args.lo, args.hi, segment_size=config.segment_size)
    primes = table.primes()
    result = {
        "prime_count": table.count(),
        "first_prime": int(primes[0]) if primes.size else None,
        "last_prime": int(primes[-1]) if primes.size else None,
    }
    _emit("sieve", {"lo": args.lo, "hi": args.hi}, result, config, started)
    return 0


def _cmd_gaps(args, config: RunConfig, started: float) -> int:
    scan = gap_scan(args.lo, args.hi, keep_all=args.all, segment_size=config.segment_size)
    result = {
        "min": {"p": scan.min_gap.p, "q": scan.min_gap.q, "gap": scan.min_gap.gap},
        "max": {"p": scan.max_gap.p, "q": scan.max_gap.q, "gap": scan.max_gap.gap},
    }
    if args.all:
        result["records"] = [
            {"p": r.p, "q": r.q, "gap": r.gap} for r in scan.records
        ]
    _emit("gaps", {"lo": args.lo, "hi": args.hi}, result, config, started)
    return 0


def _cmd_tuple_verify(args, config: RunConfig, started: float) -> int:
    if not args.file and not args.offsets:
        raise ValidationError("provide --file or --offsets")
    offsets = read_offsets(args.file) if args.file else _parse_offsets(args.offsets)
    verdict = is_admissible(offsets)
    if isinstance(verdict, Refutation):
        result = {
            "admissible": False,
            "refuting_prime": verdict.prime,
            "covering": {str(r): h for r, h in verdict.covering.items()},
        }
        _emit("tuple verify", {"offsets": offsets}, result, config, started)
        return 2
    result = {
        "admissible": True,
        "k": verdict.k,
        "diameter": verdict.diameter,
        "certificate": {str(p): r for p, r in sorted(verdict.certificate.items())},
    }
    _emit("tuple verify", {"offsets": offsets}, result, config, started)
    return 0


def _cmd_tuple_search(args, config: RunConfig, started: float) -> int:
    tup = greedy_narrow_tuple(args.k, args.window)
    if args.out:
        write_offsets(args.out, tup)
    result = {
        "offsets": list(tup.offsets),
        "diameter": tup.diameter,
        "certificate": {str(p): r for p, r in sorted(tup.certificate.items())},
    }
    _emit("tuple search", {"k": args.k, "window": args.window}, result, config, started)
    return 0


def _cmd_tuple_prime_offset(args, config: RunConfig, started: float) -> int:
    tup = prime_offset_tuple(args.k)
    if args.out:
        write_offsets(args.out, tup)
    result = {
        "offsets": list(tup.offsets),
        "diameter": tup.diameter,
        "certificate": {str(p): r for p, r in sorted(tup.certificate.items())},
    }
    _emit("tuple prime-offset", {"k": args.k}, result, config, started)
    return 0


def _cmd_stats_pnt(args, config: RunConfig, started: float) -> int:
    value = stats_mod.pnt_ratio(args.x)
    row = StatReport(x=args.x, statistic="pnt_ratio", value=value, reference=1.0)
    result = {"value": value, "reference": 1.0, "deviation": row.deviation}
    _emit("stats pnt", {"x": args.x}, result, config, started, stat_rows=[row])
    return 0


def _cmd_stats_mertens(args, config: RunConfig, started: float) -> int:
    d1, d2 = stats_mod.mertens_sums(args.n)
    rows = [
        StatReport(args.n, "mertens_logp_deviation", d1, stats_mod.MERTENS_LOGP_CONSTANT),
        StatReport(args.n, "mertens_reciprocal_deviation", d2, stats_mod.MERTENS_RECIPROCAL_CONSTANT),
    ]
    result = {"d1": d1, "d2": d2}
    _emit("stats mertens", {"n": args.n}, result, config, started, stat_rows=rows)
    return 0


def _cmd_stats_hardy_ramanujan(args, config: RunConfig, started: float) -> int:
    value = stats_mod.hardy_ramanujan_proportion(args.n, args.a)
    row = StatReport(args.n, "hardy_ramanujan_proportion", value, 1.0)
    _emit(
        "stats hardy-ramanujan",
        {"n": args.n, "a": args.a},
        {"proportion": value},
        config,
        started,
        stat_rows=[row],
    )
    return 0


def _cmd_stats_erdos_kac(args, config: RunConfig, started: float) -> int:
    rep = stats_mod.erdos_kac(args.x, args.a, args.b)
    rows = [
        StatReport(args.x, "erdos_kac_interval_mass", rep.empirical, rep.gaussian),
        StatReport(args.x, "erdos_kac_ks_distance", rep.ks_distance, 0.0),
    ]
    result = {
        "empirical": rep.empirical,
        "gaussian": rep.gaussian,
        "ks_distance": rep.ks_distance,
    }
    _emit(
        "stats erdos-kac",
        {"x": args.x, "a": args.a, "b": args.b},
        result,
        config,
        started,
        stat_rows=rows,
    )
    return 0


def _cmd_stats_pigeonhole(args, config: RunConfig, started: float) -> int:
    samples = args.samples if args.samples is not None else 0
    rep = stats_mod.pigeonhole_experiment(
        args.X, args.H, samples, config.seed, exact=args.exact
    )
    result = {
        "prob_sum": rep.prob_sum,
        "min_gap_found": rep.min_gap_found,
        "samples": rep.samples,
        "exact": rep.exact,
        "pigeonhole_predicts_gap_le_H": rep.prob_sum > 1.0,
    }
    _emit(
        "stats pigeonhole",
        {"X": args.X, "H": args.H, "samples": samples, "exact": args.exact},
        result,
        config,
        started,
    )
    return 0


def _cmd_gpy_sums(args, config: RunConfig, started: float) -> int:
    tup = require_admissible(_parse_offsets(args.offsets))
    params = GpyParams(k=tup.k, l=args.l, b=args.b, x=args.x, tuple=tup)
    report = weighted_sums(
        params,
        rel_tol=config.tolerance("gpy_agreement"),
        with_error_sum=args.error_sum,
        error_index=args.index,
    )
    result = {
        "S1": report.S1,
        "S2": report.S2,
        "objective": report.objective,
        "S2_theta": report.S2_theta,
        "D_limit": report.D_limit,
        "E": report.E,
    }
    _emit(
        "gpy sums",
        {
            "x": args.x,
            "k": tup.k,
            "offsets": list(tup.offsets),
            "l": args.l,
            "b": args.b,
            "error_sum": args.error_sum,
            "index": args.index,
        },
        result,
        config,
        started,
    )
    return 0


def _cmd_gpy_error(args, config: RunConfig, started: float) -> int:
    tup = require_admissible(_parse_offsets(args.offsets))
    params = GpyParams(k=tup.k, l=args.l, b=args.b, x=args.x, tuple=tup)
    value = error_sum_E(params, i=args.index)
    _emit(
        "gpy error",
        {"x": args.x, "offsets": list(tup.offsets), "l": args.l, "b": args.b, "index": args.index},
        {"E": value, "normalized": value / args.x},
        config,
        started,
    )
    return 0


def _cmd_gpy_levels(args, config: RunConfig, started: float) -> int:
    value = level_of_distribution_sum(args.x, args.theta, weighted=args.weighted)
    _emit(
        "gpy levels",
        {"x": args.x, "theta": args.theta, "weighted": args.weighted},
        {"sum": value, "normalized": value / args.x},
        config,
        started,
    )
    return 0


def _cmd_mk_poly(args, config: RunConfig, started: float) -> int:
    cert = mk_lower_bound_poly(
        args.k,
        args.degree,
        basis_cap=config.basis_cap,
        residual_tol=config.tolerance("eigen_residual"),
    )
    _emit("mk poly", {"k": args.k, "degree": args.degree}, cert.to_dict(), config, started)
    return 0


def _cmd_mk_gbound(args, config: RunConfig, started: float) -> int:
    if args.k < 2:
        raise ValidationError(f"k must be >= 2, got {args.k}")
    target = math.log(args.k) - 2 * math.log(math.log(args.k)) - 2
    if args.A is not None or args.T is not None:
        if args.A is None or args.T is None:
            raise ValidationError("provide both --A and --T, or neither")
        params = GBoundParams(A=args.A, T=args.T, k=args.k, variant=args.variant)
        bound = mk_lower_bound_g(params)
        result = {
            "A": args.A,
            "T": args.T,
            "variant": args.variant,
            "mu": params.mu,
            "bound": bound,
            "useful": bound > 0,
            "log_growth_target": target,
            "exceeds_target": bound > target,
        }
    else:
        A, T, bound = optimize_g_bound(args.k, args.variant)
        params = GBoundParams(A=A, T=T, k=args.k, variant=args.variant)
        result = {
            "A": A,
            "T": T,
            "variant": args.variant,
            "mu": params.mu,
            "bound": bound,
            "useful": bound > 0,
            "log_growth_target": target,
            "exceeds_target": bound > target,
        }
    _emit("mk gbound", {"k": args.k, "variant": args.variant}, result, config, started)
    return 0


def _cmd_mk_chain(args, config: RunConfig, started: float) -> int:
    tup = _tuple_from_args(args)
    report = gap_bound_chain(
        args.k,
        args.degree,
        args.theta,
        args.m,
        tup,
        basis_cap=config.basis_cap,
        residual_tol=config.tolerance("eigen_residual"),
    )
    _emit(
        "mk chain",
        {"k": args.k, "degree": args.degree, "theta": args.theta, "m": args.m},
        report.to_dict(),
        config,
        started,
    )
    return 0


def _cmd_mk_montecarlo(args, config: RunConfig, started: float) -> int:
    from .maynard import enumerate_basis

    basis = enumerate_basis(args.degree)
    if args.coeffs:
        coeffs = [float(tok) for tok in args.coeffs.replace(",", " ").split()]
    else:
        coeffs = [1.0] + [0.0] * (len(basis) - 1)
    est = ij_monte_carlo(args.k, coeffs, args.degree, args.samples, config.seed)
    result = {
        "I": est.i_value,
        "J": est.j_value,
        "I_stderr": est.i_stderr,
        "J_stderr": est.j_stderr,
        "ratio": est.j_value / est.i_value if est.i_value else None,
        "samples": est.samples,
    }
    _emit(
        "mk montecarlo",
        {"k": args.k, "degree": args.degree, "samples": args.samples, "coeffs": coeffs},
        result,
        config,
        started,
    )
    return 0


def _cmd_largegap_primorial(args, config: RunConfig, started: float) -> int:
    run = primorial_run(args.n)
    result = {
        "y": run.y,
        "first_offset": run.first_offset,
        "length": run.length,
        "witnesses": list(run.witnesses),
        "verified": verify_composite_run(run),
        "length_over_log_y": run_length_ratio(run),
    }
    _emit("largegap primorial", {"n": args.n}, result, config, started)
    return 0


def _cmd_largegap_cover(args, config: RunConfig, started: float) -> int:
    if args.widest:
        system = widest_covered_length(args.n)
    else:
        system = greedy_cover(args.n, args.y_len if args.y_len else args.n)
    result = {
        "n": system.n,
        "y_len": system.y_len,
        "residues": {str(p): c for p, c in sorted(system.residues.items())},
        "uncovered_count": len(system.uncovered),
        "covered": system.covered(),
    }
    if system.covered():
        run = composite_run_from_cover(system)
        result.update(
            {
                "y": run.y,
                "length": run.length,
                "verified": verify_composite_run(run),
                "length_over_log_y": run_length_ratio(run),
            }
        )
    _emit(
        "largegap cover",
        {"n": args.n, "y_len": args.y_len, "widest": args.widest},
        result,
        config,
        started,
    )
    return 0


def _cmd_largegap_scan(args, config: RunConfig, started: float) -> int:
    rec = max_gap_G(args.X)
    _emit(
        "largegap scan",
        {"X": args.X},
        {"p": rec.p, "q": rec.q, "gap": rec.gap},
        config,
        started,
    )
    return 0


# --------- parsing and dispatch ---------

_COMMAND_TREE: dict[str, Optional[set[str]]] = {
    "sieve": None,
    "gaps": None,
    "tuple": {"verify", "search", "prime-offset"},
    "stats": {"pnt", "mertens", "hardy-ramanujan", "erdos-kac", "pigeonhole"},
    "gpy": {"sums", "error", "levels"},
    "mk": {"poly", "gbound", "chain", "montecarlo"},
    "largegap": {"primorial", "cover", "scan"},
}


def _build_subparser(command: str, sub: Optional[str]) -> tuple[_Parser, Callable]:
    name = command if sub is None else f"{command} {sub}"
    p = _Parser(prog=f"primelab {name}", add_help=True, allow_abbrev=False)
    if name == "sieve":
        p.add_argument("--lo", type=int, default=0)
        p.add_argument("--hi", type=int, required=True)
        return p, _cmd_sieve
    if name == "gaps":
        p.add_argument("--lo", type=int, required=True)
        p.add_argument("--hi", type=int, required=True)
        p.add_argument("--all", action="store_true")
        return p, _cmd_gaps
    if name == "tuple verify":
        p.add_argument("--file")
        p.add_argument("--offsets")
        return p, _cmd_tuple_verify
    if name == "tuple search":
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--window", type=int, required=True)
        p.add_argument("--out")
        return p, _cmd_tuple_search
    if name == "tuple prime-offset":
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--out")
        return p, _cmd_tuple_prime_offset
    if name == "stats pnt":
        p.add_argument("--x", type=int, required=True)
        return p, _cmd_stats_pnt
    if name == "stats mertens":
        p.add_argument("--n", type=int, required=True)
        return p, _cmd_stats_mertens
    if name == "stats hardy-ramanujan":
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--a", type=float, required=True)
        return p, _cmd_stats_hardy_ramanujan
    if name == "stats erdos-kac":
        p.add_argument("--x", type=int, required=True)
        p.add_argument("--a", type=float, required=True)
        p.add_argument("--b", type=float, required=True)
        return p, _cmd_stats_erdos_kac
    if name == "stats pigeonhole":
        p.add_argument("--X", type=int, required=True)
        p.add_argument("--H", type=int, required=True)
        p.add_argument("--samples", type=int)
        p.add_argument("--exact", action="store_true")
        return p, _cmd_stats_pigeonhole
    if name == "gpy sums":
        p.add_argument("--x", type=int, required=True)
        p.add_argument("--offsets", required=True)
        p.add_argument("--l", type=int, default=1)
        p.add_argument("--b", type=float, required=True)
        p.add_argument("--error-sum", dest="error_sum", action="store_true")
        p.add_argument("--index", type=int, default=1)
        return p, _cmd_gpy_sums
    if name == "gpy error":
        p.add_argument("--x", type=int, required=True)
        p.add_argument("--offsets", required=True)
        p.add_argument("--l", type=int, default=1)
        p.add_argument("--b", type=float, required=True)
        p.add_argument("--index", type=int, default=1)
        return p, _cmd_gpy_error
    if name == "gpy levels":
        p.add_argument("--x", type=int, required=True)
        p.add_argument("--theta", type=float, required=True)
        p.add_argument("--weighted", action="store_true")
        return p, _cmd_gpy_levels
    if name == "mk poly":
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--degree", type=int, required=True)
        return p, _cmd_mk_poly
    if name == "mk gbound":
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--variant", default="ratio-squared",
                       choices=["ratio-squared", "as-printed"])
        p.add_argument("--A", type=float)
        p.add_argument("--T", type=float)
        return p, _cmd_mk_gbound
    if name == "mk chain":
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--degree", type=int, required=True)
        p.add_argument("--theta", type=float, required=True)
        p.add_argument("--m", type=int, default=1)
        p.add_argument("--tuple-file", dest="tuple_file")
        p.add_argument("--greedy-window", dest="greedy_window", type=int)
        p.add_argument("--prime-offset", action="store_true")
        return p, _cmd_mk_chain
    if name == "mk montecarlo":
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--degree", type=int, required=True)
        p.add_argument("--samples", type=int, required=True)
        p.add_argument("--coeffs")
        return p, _cmd_mk_montecarlo
    if name == "largegap primorial":
        p.add_argument("--n", type=int, required=True)
        return p, _cmd_largegap_primorial
    if name == "largegap cover":
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--y-len", dest="y_len", type=int)
        p.add_argument("--widest", action="store_true")
        return p, _cmd_largegap_cover
    if name == "largegap scan":
        p.add_argument("--X", type=int, required=True)
        return p, _cmd_largegap_scan
    raise AssertionError(f"unmapped command {name}")


def dispatch(argv: list[str]) -> int:
    started = time.time()
    global_parser = _Parser(prog="primelab", add_help=False, allow_abbrev=False)
    global_parser.add_argument("--config")
    global_parser.add_argument("--seed", type=int)
    global_parser.add_argument("--format", choices=["json", "csv"])
    global_parser.add_argument("--segment-size", dest="segment_size", type=int)
    global_parser.add_argument("--basis-cap", dest="basis_cap", type=int)
    try:
        gopts, rest = global_parser.parse_known_args(argv)
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n{USAGE}")
        return 2

    if not rest or rest[0] in ("-h", "--help", "help"):
        sys.stdout.write(USAGE)
        return 0
    command = rest[0]
    if command not in _COMMAND_TREE:
        sys.stderr.write(f"unknown command: {command}\n{USAGE}")
        return 64
    subs = _COMMAND_TREE[command]
    sub = None
    tail = rest[1:]
    if subs is not None:
        if not tail or tail[0] not in subs:
            got = tail[0] if tail else "(none)"
            sys.stderr.write(f"unknown {command} subcommand: {got}\n{USAGE}")
            return 64
        sub, tail = tail[0], tail[1:]

    try:
        config = load_config(gopts.config)
        overrides = {}
        if gopts.seed is not None:
            overrides["seed"] = gopts.seed
        if gopts.format is not None:
            overrides["output_format"] = gopts.format
        if gopts.segment_size is not None:
            overrides["segment_size"] = gopts.segment_size
        if gopts.basis_cap is not None:
            overrides["basis_cap"] = gopts.basis_cap
        if overrides:
            from dataclasses import replace

            config = replace(config, **overrides)
        parser, handler = _build_subparser(command, sub)
        args = parser.parse_args(tail)
        return handler(args, config, started)
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n{USAGE}")
        return 2
    except (ConsistencyError, ConvergenceError) as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return 3
    except ValidationError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except PrimelabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
