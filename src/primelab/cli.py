"""Command-line surface: every module as a reproducible subcommand.

Reports go to stdout as JSON (or CSV), errors to stderr. Exit codes: 0 on
success, 2 on precondition or validation failures, 3 on internal
consistency failures, 64 on an unknown command. Big integers are
serialized as decimal strings. Apart from the elapsed-time field, output
is byte-identical for identical inputs and seed.

One table, COMMANDS, names every subcommand with its handler and its
flags; it builds the argument parsers, the usage text and the dispatch.
A handler returns (params, result[, stat_rows[, exit_code]]) and
dispatch emits that report. Handlers look up layer functions in this
module's globals at call time, so rebinding one of those names (as a
tracer does) reaches every call.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import time
from dataclasses import asdict, replace
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
from .sieve import gap_scan, prime_census
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
    enumerate_basis,
    gap_bound_chain,
    ij_monte_carlo,
    mk_lower_bound_g,
    mk_lower_bound_poly,
    optimize_g_bound,
)
from .largegap import (
    CompositeRun,
    composite_run_from_cover,
    greedy_cover,
    max_gap_G,
    primorial_run,
    run_length_ratio,
    verify_composite_run,
    widest_covered_length,
)

_JS_SAFE_INT = 1 << 53


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-2,0" or "-inf" for a flag; no flag starts
        # "-<digit>", "-.<digit>", "-inf" or "-nan" as a word, so such a
        # token is a value: a number or number list
        self._negative_number_matcher = re.compile(r"^-(\.?\d|(inf(inity)?|nan)\b)", re.I)

    def error(self, message):  # argparse would sys.exit(2) with its own text
        raise _CliError(message)


def _stringify_big(obj):
    """Big integers become decimal strings (lossless across JSON readers);
    non-finite floats become "inf", "-inf" and "nan", which JSON lacks."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
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
    config: RunConfig,
    started: float,
    params: dict,
    result: dict,
    stat_rows: Optional[list[StatReport]] = None,
    exit_code: int = 0,
) -> int:
    """Write one report to stdout and return the command's exit code."""
    report = {
        "command": command,
        "config": asdict(config),
        "elapsed_seconds": time.time() - started,
        "params": _stringify_big(params),
        "result": _stringify_big(result),
        "seed": config.seed,
        "version": __version__,
    }
    if config.output_format == "json":
        json.dump(report, sys.stdout, sort_keys=True)
        sys.stdout.write("\n")
    elif stat_rows is not None:
        sys.stdout.write(reports_to_csv(stat_rows))
    else:
        rows: list[tuple[str, str]] = []
        _flatten("", report, rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        writer.writerows(rows)
        sys.stdout.write(buf.getvalue())
    return exit_code


def _parse_numbers(what: str, text: str, kind: type = int) -> list:
    """Comma- or space-separated numbers; a bad token is a ValidationError."""
    try:
        return [kind(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise ValidationError(f"cannot parse {what} {text!r}: {exc}") from exc


def _pick(obj, *names: str) -> dict:
    """The named attributes of `obj` as a dict (parsed flags, report fields)."""
    return {name: getattr(obj, name) for name in names}


# --------- command implementations ---------

def _cmd_sieve(args, config: RunConfig):
    count, first, last = prime_census(args.lo, args.hi, config.segment_size)
    result = {"prime_count": count, "first_prime": first, "last_prime": last}
    return _pick(args, "lo", "hi"), result


def _cmd_gaps(args, config: RunConfig):
    scan = gap_scan(args.lo, args.hi, keep_all=args.all, segment_size=config.segment_size)
    result = {"min": asdict(scan.min_gap), "max": asdict(scan.max_gap)}
    if args.all:
        result["records"] = [asdict(r) for r in scan.records]
    return _pick(args, "lo", "hi"), result


def _cmd_tuple_verify(args, config: RunConfig):
    if not args.file and not args.offsets:
        raise ValidationError("provide --file or --offsets")
    offsets = read_offsets(args.file) if args.file else _parse_numbers("offsets", args.offsets)
    verdict = is_admissible(offsets)
    if isinstance(verdict, Refutation):
        result = {
            "admissible": False,
            "refuting_prime": verdict.prime,
            "covering": verdict.covering,
        }
        return {"offsets": offsets}, result, None, 2
    result = {"admissible": True, **_pick(verdict, "k", "diameter", "certificate")}
    return {"offsets": offsets}, result


def _tuple_found(tup: AdmissibleTuple, out: Optional[str]) -> dict:
    """Result of a tuple construction, written to `out` first if given."""
    if out:
        write_offsets(out, tup)
    return {"offsets": tup.offsets, **_pick(tup, "diameter", "certificate")}


def _cmd_tuple_search(args, config: RunConfig):
    tup = greedy_narrow_tuple(args.k, args.window)
    return _pick(args, "k", "window"), _tuple_found(tup, args.out)


def _cmd_tuple_prime_offset(args, config: RunConfig):
    return _pick(args, "k"), _tuple_found(prime_offset_tuple(args.k), args.out)


def _cmd_stats_pnt(args, config: RunConfig):
    value = stats_mod.pnt_ratio(args.x)
    row = StatReport(x=args.x, statistic="pnt_ratio", value=value, reference=1.0)
    result = {"value": value, "reference": 1.0, "deviation": row.deviation}
    return _pick(args, "x"), result, [row]


def _cmd_stats_mertens(args, config: RunConfig):
    d1, d2 = stats_mod.mertens_sums(args.n)
    rows = [
        StatReport(args.n, "mertens_logp_deviation", d1, stats_mod.MERTENS_LOGP_CONSTANT),
        StatReport(args.n, "mertens_reciprocal_deviation", d2, stats_mod.MERTENS_RECIPROCAL_CONSTANT),
    ]
    return _pick(args, "n"), {"d1": d1, "d2": d2}, rows


def _cmd_stats_hardy_ramanujan(args, config: RunConfig):
    value = stats_mod.hardy_ramanujan_proportion(args.n, args.a)
    row = StatReport(args.n, "hardy_ramanujan_proportion", value, 1.0)
    return _pick(args, "n", "a"), {"proportion": value}, [row]


def _cmd_stats_erdos_kac(args, config: RunConfig):
    rep = stats_mod.erdos_kac(args.x, args.a, args.b)
    rows = [
        StatReport(args.x, "erdos_kac_interval_mass", rep.empirical, rep.gaussian),
        StatReport(args.x, "erdos_kac_ks_distance", rep.ks_distance, 0.0),
    ]
    result = _pick(rep, "empirical", "gaussian", "ks_distance")
    return _pick(args, "x", "a", "b"), result, rows


def _cmd_stats_pigeonhole(args, config: RunConfig):
    samples = args.samples if args.samples is not None else 0
    rep = stats_mod.pigeonhole_experiment(
        args.X, args.H, samples, config.seed, exact=args.exact
    )
    result = {
        **_pick(rep, "prob_sum", "min_gap_found", "samples", "exact"),
        "pigeonhole_predicts_gap_le_H": rep.prob_sum > 1.0,
    }
    return {"X": args.X, "H": args.H, "samples": samples, "exact": args.exact}, result


def _gpy_params(args) -> GpyParams:
    tup = require_admissible(_parse_numbers("offsets", args.offsets))
    return GpyParams(k=tup.k, l=args.l, b=args.b, x=args.x, tuple=tup)


def _cmd_gpy_sums(args, config: RunConfig):
    params = _gpy_params(args)
    report = weighted_sums(params, rel_tol=config.tolerances["gpy_agreement"])
    result = {
        **_pick(report, "S1", "S2", "objective", "S2_theta", "D_limit"),
        "E": error_sum_E(params, i=args.index) if args.error_sum else None,
    }
    echo = _pick(args, "x", "l", "b", "error_sum", "index")
    return {**echo, "k": params.k, "offsets": params.tuple.offsets}, result


def _cmd_gpy_error(args, config: RunConfig):
    params = _gpy_params(args)
    value = error_sum_E(params, i=args.index)
    echo = _pick(args, "x", "l", "b", "index")
    return {**echo, "offsets": params.tuple.offsets}, {"E": value, "normalized": value / args.x}


def _cmd_gpy_levels(args, config: RunConfig):
    value = level_of_distribution_sum(args.x, args.theta, weighted=args.weighted)
    return _pick(args, "x", "theta", "weighted"), {"sum": value, "normalized": value / args.x}


def _cmd_mk_poly(args, config: RunConfig):
    cert = mk_lower_bound_poly(
        args.k,
        args.degree,
        basis_cap=config.basis_cap,
        residual_tol=config.tolerances["eigen_residual"],
    )
    return _pick(args, "k", "degree"), asdict(cert)


def _cmd_mk_gbound(args, config: RunConfig):
    if args.A is None and args.T is None:
        A, T, _ = optimize_g_bound(args.k, args.variant)
    elif args.A is None or args.T is None:
        raise ValidationError("provide both --A and --T, or neither")
    else:
        A, T = args.A, args.T
    params = GBoundParams(A=A, T=T, k=args.k, variant=args.variant)
    bound = mk_lower_bound_g(params)
    target = math.log(args.k) - 2 * math.log(math.log(args.k)) - 2
    result = {
        **_pick(params, "A", "T", "variant", "mu"),
        "bound": bound,
        "useful": bound > 0,
        "log_growth_target": target,
        "exceeds_target": bound > target,
    }
    return _pick(args, "k", "variant"), result


def _cmd_mk_chain(args, config: RunConfig):
    if args.tuple_file is not None:
        tup = require_admissible(read_offsets(args.tuple_file))
    elif args.greedy_window is not None:
        tup = greedy_narrow_tuple(args.k, args.greedy_window)
    else:
        tup = prime_offset_tuple(args.k)
    report = gap_bound_chain(
        args.k,
        args.degree,
        args.theta,
        args.m,
        tup,
        basis_cap=config.basis_cap,
        residual_tol=config.tolerances["eigen_residual"],
    )
    return _pick(args, "k", "degree", "theta", "m"), report.to_dict()


def _cmd_mk_montecarlo(args, config: RunConfig):
    if args.coeffs:
        coeffs = _parse_numbers("coeffs", args.coeffs, float)
    else:
        coeffs = [1.0] + [0.0] * (len(enumerate_basis(args.degree)) - 1)
    est = ij_monte_carlo(args.k, coeffs, args.degree, args.samples, config.seed)
    result = {
        "I": est.i_value,
        "J": est.j_value,
        "I_stderr": est.i_stderr,
        "J_stderr": est.j_stderr,
        "ratio": est.j_value / est.i_value if est.i_value else None,
        "samples": est.samples,
    }
    return {**_pick(args, "k", "degree", "samples"), "coeffs": coeffs}, result


def _run_result(run: CompositeRun) -> dict:
    return {
        **_pick(run, "y", "length"),
        "verified": verify_composite_run(run),
        "length_over_log_y": run_length_ratio(run),
    }


def _cmd_largegap_primorial(args, config: RunConfig):
    run = primorial_run(args.n)
    result = {**_run_result(run), **_pick(run, "first_offset", "witnesses")}
    return _pick(args, "n"), result


def _cmd_largegap_cover(args, config: RunConfig):
    if args.widest:
        system = widest_covered_length(args.n)
    else:
        system = greedy_cover(args.n, args.y_len if args.y_len is not None else args.n)
    result = {
        **_pick(system, "n", "y_len", "residues"),
        "uncovered_count": len(system.uncovered),
        "covered": system.covered(),
    }
    if system.covered():
        result.update(_run_result(composite_run_from_cover(system)))
    return _pick(args, "n", "y_len", "widest"), result


def _cmd_largegap_scan(args, config: RunConfig):
    return _pick(args, "X"), asdict(max_gap_G(args.X))


# --------- the command table ---------

# A flag is (name, argparse keyword arguments); argparse derives the
# attribute name from the flag (`--y-len` becomes `args.y_len`).
Flag = tuple[str, dict]


def _req(flag: str, kind: type = int) -> Flag:
    return flag, {"type": kind, "required": True}


def _opt(flag: str, kind: type = int, **spec) -> Flag:
    return flag, {"type": kind, **spec}


def _switch(flag: str) -> Flag:
    return flag, {"action": "store_true"}


GLOBAL_FLAGS: tuple[Flag, ...] = (
    _opt("--config", str),
    _opt("--seed"),
    _opt("--format", str, choices=["json", "csv"], dest="output_format"),
    _opt("--segment-size"),
    _opt("--basis-cap"),
)

_GPY_FLAGS = (_req("--x"), _req("--offsets", str), _opt("--l", default=1), _req("--b", float))

# "group sub" -> handler and flags; a name without a space has no subcommand
COMMANDS: dict[str, tuple[Callable, tuple[Flag, ...]]] = {
    "sieve": (_cmd_sieve, (_opt("--lo", default=0), _req("--hi"))),
    "gaps": (_cmd_gaps, (_req("--lo"), _req("--hi"), _switch("--all"))),
    "tuple verify": (_cmd_tuple_verify, (_opt("--file", str), _opt("--offsets", str))),
    "tuple search": (
        _cmd_tuple_search, (_req("--k"), _req("--window"), _opt("--out", str))
    ),
    "tuple prime-offset": (_cmd_tuple_prime_offset, (_req("--k"), _opt("--out", str))),
    "stats pnt": (_cmd_stats_pnt, (_req("--x"),)),
    "stats mertens": (_cmd_stats_mertens, (_req("--n"),)),
    "stats hardy-ramanujan": (
        _cmd_stats_hardy_ramanujan, (_req("--n"), _req("--a", float))
    ),
    "stats erdos-kac": (
        _cmd_stats_erdos_kac, (_req("--x"), _req("--a", float), _req("--b", float))
    ),
    "stats pigeonhole": (
        _cmd_stats_pigeonhole,
        (_req("--X"), _req("--H"), _opt("--samples"), _switch("--exact")),
    ),
    "gpy sums": (
        _cmd_gpy_sums, _GPY_FLAGS + (_switch("--error-sum"), _opt("--index", default=1))
    ),
    "gpy error": (_cmd_gpy_error, _GPY_FLAGS + (_opt("--index", default=1),)),
    "gpy levels": (
        _cmd_gpy_levels, (_req("--x"), _req("--theta", float), _switch("--weighted"))
    ),
    "mk poly": (_cmd_mk_poly, (_req("--k"), _req("--degree"))),
    "mk gbound": (
        _cmd_mk_gbound,
        (
            _req("--k"),
            _opt("--variant", str, default="ratio-squared",
                 choices=["ratio-squared", "as-printed"]),
            _opt("--A", float),
            _opt("--T", float),
        ),
    ),
    "mk chain": (
        _cmd_mk_chain,
        (
            _req("--k"),
            _req("--degree"),
            _req("--theta", float),
            _opt("--m", default=1),
            _opt("--tuple-file", str),
            _opt("--greedy-window"),
            _switch("--prime-offset"),
        ),
    ),
    "mk montecarlo": (
        _cmd_mk_montecarlo,
        (_req("--k"), _req("--degree"), _req("--samples"), _opt("--coeffs", str)),
    ),
    "largegap primorial": (_cmd_largegap_primorial, (_req("--n"),)),
    "largegap cover": (
        _cmd_largegap_cover, (_req("--n"), _opt("--y-len"), _switch("--widest"))
    ),
    "largegap scan": (_cmd_largegap_scan, (_req("--X"),)),
}


def _synopsis(flags: tuple[Flag, ...]) -> str:
    """One usage line, with argparse's metavars; optional flags in brackets."""
    words = []
    for flag, spec in flags:
        if "action" in spec:
            word = flag
        elif "choices" in spec:
            word = f"{flag} {{{','.join(spec['choices'])}}}"
        else:
            word = f"{flag} {flag.lstrip('-').replace('-', '_').upper()}"
        words.append(word if spec.get("required") else f"[{word}]")
    return " ".join(words)


USAGE = "\n".join(
    [
        "usage: primelab [GLOBAL FLAGS] COMMAND [FLAGS]",
        "",
        f"global flags: {_synopsis(GLOBAL_FLAGS)}",
        "",
        "commands:",
        *(f"  {name} {_synopsis(flags)}" for name, (_, flags) in COMMANDS.items()),
        "",
    ]
)


def _parser(prog: str, flags: tuple[Flag, ...], **kwargs) -> _Parser:
    parser = _Parser(prog=prog, allow_abbrev=False, **kwargs)
    for flag, spec in flags:
        parser.add_argument(flag, **spec)
    return parser


def dispatch(argv: list[str]) -> int:
    started = time.time()
    try:
        gopts, rest = _parser("primelab", GLOBAL_FLAGS, add_help=False).parse_known_args(argv)
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n{USAGE}")
        return 2

    if not rest or rest[0] in ("-h", "--help", "help"):
        sys.stdout.write(USAGE)
        return 0
    name, tail = rest[0], rest[1:]
    subs = [n.partition(" ")[2] for n in COMMANDS if n.partition(" ")[0] == name]
    if not subs:
        sys.stderr.write(f"unknown command: {name}\n{USAGE}")
        return 64
    if subs != [""]:
        if not tail or tail[0] not in subs:
            got = tail[0] if tail else "(none)"
            sys.stderr.write(f"unknown {name} subcommand: {got}\n{USAGE}")
            return 64
        name, tail = f"{name} {tail[0]}", tail[1:]

    try:
        # every global flag but --config names the RunConfig field it overrides
        overrides = {k: v for k, v in vars(gopts).items() if k != "config" and v is not None}
        config = replace(load_config(gopts.config), **overrides)
        handler, flags = COMMANDS[name]
        args = _parser(f"primelab {name}", flags).parse_args(tail)
        return _emit(name, config, started, *handler(args, config))
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n{USAGE}")
        return 2
    except (ConsistencyError, ConvergenceError) as exc:
        sys.stderr.write(f"internal consistency failure: {exc}\n")
        return 3
    except PrimelabError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
