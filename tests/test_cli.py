import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import primelab
from primelab import sieve
from primelab.cli import dispatch


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestExitCodes:
    def test_unknown_command(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate")
        assert code == 64
        assert "usage" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(capsys, "tuple", "mangle")
        assert code == 64

    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, "sieve")
        assert code == 2

    def test_precondition_failure(self, capsys):
        code, _, err = run_cli(capsys, "stats", "pnt", "--x", "5")
        assert code == 2

    def test_refuted_tuple_exits_2(self, capsys):
        code, out, _ = run_cli(capsys, "tuple", "verify", "--offsets", "0,2,4")
        assert code == 2
        report = json.loads(out)
        assert report["result"]["admissible"] is False
        assert report["result"]["refuting_prime"] == 3

    def test_help_exits_0(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "commands" in out


class TestReports:
    def test_sieve_report(self, capsys):
        report = run_json(capsys, "sieve", "--hi", "100")
        assert report["result"]["prime_count"] == 25
        assert report["command"] == "sieve"
        assert report["version"]

    def test_gaps_report(self, capsys):
        report = run_json(capsys, "gaps", "--lo", "1", "--hi", "1000")
        assert report["result"]["max"] == {"p": 887, "q": 907, "gap": 20}

    def test_tuple_verify_certificate(self, capsys):
        report = run_json(capsys, "tuple", "verify", "--offsets", "0,2,6")
        assert report["result"]["certificate"] == {"2": 1, "3": 1}

    def test_tuple_verify_offsets_past_int64(self, capsys):
        report = run_json(capsys, "tuple", "verify", "--offsets", "0,18446744073709551616")
        assert report["result"]["certificate"] == {"2": 1}

    def test_tuple_search_writes_file(self, capsys, tmp_path):
        out = tmp_path / "t.txt"
        report = run_json(
            capsys, "tuple", "search", "--k", "3", "--window", "10", "--out", str(out)
        )
        assert report["result"]["diameter"] == 6
        assert out.read_text().split() == ["0", "2", "6"]

    def test_tuple_file_verification(self, capsys, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("0\n4\n6\n")
        report = run_json(capsys, "tuple", "verify", "--file", str(path))
        assert report["result"]["admissible"] is True

    def test_mk_poly_k5(self, capsys):
        report = run_json(capsys, "mk", "poly", "--k", "5", "--degree", "3")
        assert report["result"]["lower_bound"] > 2
        wit = report["result"]["witness"]
        assert all(set(w) == {"num", "den"} for w in wit)

    def test_mk_gbound(self, capsys):
        report = run_json(capsys, "mk", "gbound", "--k", "1000")
        assert report["result"]["exceeds_target"] is True

    def test_mk_chain_greedy(self, capsys):
        report = run_json(
            capsys,
            "mk", "chain", "--k", "5", "--degree", "3", "--theta", "1.0",
            "--m", "1", "--greedy-window", "16",
        )
        assert report["result"]["dhl_holds"] is True
        assert report["result"]["claimed_gap_bound"] == 14

    def test_largegap_primorial(self, capsys):
        report = run_json(capsys, "largegap", "primorial", "--n", "7")
        assert report["result"]["y"] == 210
        assert report["result"]["length"] == 6
        assert report["result"]["verified"] is True

    def test_largegap_big_y_serialized_as_string(self, capsys):
        report = run_json(capsys, "largegap", "primorial", "--n", "53")
        assert isinstance(report["result"]["y"], str)
        assert int(report["result"]["y"]) % 53 == 0

    def test_largegap_scan(self, capsys):
        report = run_json(capsys, "largegap", "scan", "--X", "1000")
        assert report["result"] == {"p": 887, "q": 907, "gap": 20}

    def test_stats_pigeonhole(self, capsys):
        report = run_json(
            capsys, "stats", "pigeonhole", "--X", "10000", "--H", "15", "--exact"
        )
        assert report["result"]["prob_sum"] > 1
        assert report["result"]["min_gap_found"] <= 15

    def test_gpy_sums(self, capsys):
        report = run_json(
            capsys,
            "gpy", "sums", "--x", "10000", "--offsets", "0,2,6",
            "--l", "1", "--b", "0.25",
        )
        assert report["result"]["D_limit"] == 10
        assert report["result"]["objective"] == pytest.approx(
            report["result"]["S2"] - report["result"]["S1"]
        )
        assert report["params"]["k"] == 3

    def test_gpy_levels(self, capsys):
        report = run_json(capsys, "gpy", "levels", "--x", "10000", "--theta", "0.4")
        assert report["result"]["normalized"] == pytest.approx(0.020392, abs=1e-5)

    def test_mk_montecarlo(self, capsys):
        report = run_json(
            capsys,
            "mk", "montecarlo", "--k", "2", "--degree", "0",
            "--samples", "50000", "--seed", "3",
        )
        assert report["result"]["I"] == pytest.approx(0.5, abs=1e-9)
        assert report["result"]["J"] == pytest.approx(2 / 3, abs=0.05)

    def test_internal_consistency_failure_exits_3(self, capsys, tmp_path):
        # a zero agreement tolerance trips on the last-ulp difference
        # between the two summation orders
        cfg = tmp_path / "strict.conf"
        cfg.write_text("tolerance.gpy_agreement=0\n")
        code, _, err = run_cli(
            capsys,
            "--config", str(cfg),
            "gpy", "sums", "--x", "10000", "--offsets", "0,2,6",
            "--l", "1", "--b", "0.25",
        )
        assert code == 3
        assert "disagree" in err

    @pytest.mark.parametrize(
        "command",
        [
            ("mk", "poly", "--k", "5", "--degree", "3"),
            ("mk", "chain", "--k", "5", "--degree", "3", "--theta", "1.0",
             "--greedy-window", "16"),
        ],
    )
    def test_eigen_residual_tolerance_is_applied(self, capsys, tmp_path, command):
        cfg = tmp_path / "strict.conf"
        cfg.write_text("tolerance.eigen_residual=1e-300\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), *command)
        assert code == 3
        assert "eigen residual" in err

    def test_mk_gbound_k1_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "mk", "gbound", "--k", "1")
        assert code == 2
        assert out == ""
        assert "k must be >= 2" in err
        assert "Traceback" not in err


class TestSieveStream:
    """`sieve` streams its count and edge primes without a full-length table."""

    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=1, max_value=3000),
        st.integers(min_value=1, max_value=70000),
    )
    @settings(max_examples=60, deadline=None)
    @example(90, 7, 1)  # [90, 97): no prime
    @example(24, 5, 2)  # [24, 29): no prime
    @example(0, 2, 1)
    @example(2, 1, 3)
    def test_report_equals_table(self, lo, span, segment_size):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = dispatch(["--segment-size", str(segment_size), "sieve",
                             "--lo", str(lo), "--hi", str(lo + span)])
        assert code == 0
        primes = sieve.primes_between(lo, lo + span).tolist()
        assert json.loads(out.getvalue())["result"] == {
            "prime_count": len(primes),
            "first_prime": primes[0] if primes else None,
            "last_prime": primes[-1] if primes else None,
        }

    def test_no_range_cap(self, capsys, monkeypatch):
        # the stream holds one segment at a time, so a range past
        # DEFAULT_RANGE_CAP reaches the kernel whole in one piece, and as
        # its pieces (this process runs the last) on more cores; past 2^44
        # the range is not counted on the lattice, whose root cap is 2^22;
        # the base primes' one-segment table over [0, 2^25] is sieved; the
        # stand-in yields one segment without a prime, as the kernel does
        calls, kernel = [], sieve._odd_segments

        def empty(*args, **kwargs):
            if args[0] == 0 and args[1] == args[2]:
                return kernel(*args, **kwargs)
            calls.append(args)
            lo, hi, _ = args
            return iter([(lo, hi, lo | 1, np.zeros(0, dtype=bool))])

        monkeypatch.setattr(sieve, "_odd_segments", empty)
        lo = 2**50
        hi = lo + sieve.DEFAULT_RANGE_CAP + 1
        for cores in (1, 2):
            monkeypatch.setattr(sieve, "_cores", lambda: cores)
            calls.clear()
            report = run_json(capsys, "sieve", "--lo", str(lo), "--hi", str(hi))
            last = sieve._plan(lo, hi, sieve.DEFAULT_SEGMENT_SIZE)[-2]
            assert calls == [(last, hi, sieve.DEFAULT_SEGMENT_SIZE)] and (last == lo) == (cores == 1)
            assert report["result"] == {"prime_count": 0, "first_prime": None, "last_prime": None}

    def test_range_past_cap_on_the_lattice(self, capsys):
        # [0, 2^30 + 1) is counted on the lattice, its ends read by the kernel
        report = run_json(capsys, "sieve", "--hi", str(sieve.DEFAULT_RANGE_CAP + 1))
        # pi(2^30), OEIS A007053
        assert report["result"] == {
            "prime_count": 54400028, "first_prime": 2, "last_prime": 1073741789,
        }


class TestStatsPnt:
    @pytest.mark.parametrize("x", [30000, 10**6])  # below and above the lattice switch
    def test_result_independent_of_segment_size(self, capsys, x):
        results = [
            json.dumps(run_json(capsys, "--segment-size", str(size), "stats", "pnt", "--x", str(x))["result"])
            for size in (1, 7, sieve.DEFAULT_SEGMENT_SIZE)
        ]
        assert results[0] == results[1] == results[2]


# the golden corpus's sieve-backed command lines, on ranges of about 10^4
SIEVE_BACKED = [
    ("sieve", "--hi", "10000"),
    ("sieve", "--lo", "1000", "--hi", "11000"),
    ("gaps", "--lo", "1", "--hi", "10000"),
    ("gaps", "--lo", "0", "--hi", "10000", "--all"),
    ("stats", "pnt", "--x", "10000"),
    ("stats", "mertens", "--n", "10000"),
    ("stats", "pigeonhole", "--X", "5000", "--H", "15", "--exact"),
    ("--seed", "7", "stats", "pigeonhole", "--X", "5000", "--H", "10", "--samples", "500"),
    ("gpy", "sums", "--x", "5000", "--offsets", "0,2,6", "--l", "2", "--b", "0.3", "--error-sum", "--index", "2"),
    ("gpy", "error", "--x", "5000", "--offsets", "0,2,6", "--b", "0.25"),
    ("gpy", "levels", "--x", "10000", "--theta", "0.4"),
    ("gpy", "levels", "--x", "10000", "--theta", "0.3", "--weighted"),
    ("largegap", "scan", "--X", "10000"),
    # the omega stream walks blocks of min(segment_size, _OMEGA_BLOCK)
    ("stats", "erdos-kac", "--x", "10000", "--a", "-1", "--b", "1"),
    ("stats", "hardy-ramanujan", "--n", "10000", "--a", "0.5"),
]


class TestSegmentSize:
    @pytest.mark.parametrize("argv", SIEVE_BACKED, ids=" ".join)
    def test_result_independent_of_segment_size(self, capsys, monkeypatch, argv):
        # segmented against one-shot, through the whole CLI: every kernel pass
        # but the base primes' one-segment tables over [0, hi) and every
        # omega stream reads the flag, and no result byte depends on it
        kernel, omega, seen, results = sieve._odd_segments, sieve._omega_blocks, [], set()

        def spy(lo, hi, segment_size, **kwargs):
            if (lo, segment_size) != (0, hi):
                seen.append(segment_size)
            return kernel(lo, hi, segment_size, **kwargs)

        def omega_spy(lo, hi, *, segment_size, **kwargs):
            seen.append(segment_size)
            return omega(lo, hi, segment_size=segment_size, **kwargs)

        monkeypatch.setattr(sieve, "_odd_segments", spy)
        monkeypatch.setattr(sieve, "_omega_blocks", omega_spy)
        for size in (1, 7, 30031, sieve.DEFAULT_SEGMENT_SIZE):
            seen.clear()
            results.add(json.dumps(run_json(capsys, "--segment-size", str(size), *argv)["result"]))
            assert set(seen) == {size}
        assert len(results) == 1


def assert_no_child_left():
    # a forked sieve piece is reaped by the call that started it
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestInputValidation:
    """Inputs that once escaped as a traceback (exit 1) or ran on a wrong value."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        assert_no_child_left()

    @pytest.mark.parametrize(
        "argv,message",
        [
            # -5 once exited 0 with prime_count 0 read from an unfilled buffer
            (("--segment-size", "0", "sieve", "--hi", "100"), "segment_size must be >= 1"),
            (("--segment-size", "-5", "sieve", "--hi", "1000000"), "segment_size must be >= 1"),
            (("tuple", "verify", "--file", "{tmp}/nonexistent"), "cannot read offsets file"),
            (("tuple", "search", "--k", "3", "--window", "10", "--out", "{tmp}/missing/dir/f"),
             "cannot write offsets file"),
            (("tuple", "prime-offset", "--k", "3", "--out", "{tmp}/missing/dir/f"),
             "cannot write offsets file"),
            (("mk", "chain", "--k", "3", "--degree", "2", "--theta", "1.0",
              "--tuple-file", "{tmp}/nonexistent"), "cannot read offsets file"),
            (("mk", "montecarlo", "--k", "2", "--degree", "1", "--samples", "1000",
              "--coeffs", "1,x"), "cannot parse coeffs '1,x'"),
            (("mk", "montecarlo", "--k", "171", "--degree", "0", "--samples", "1000"),
             "k must lie in [1, 170]"),
            # a zero once fell back to y_len = n / the prime-offset tuple
            (("largegap", "cover", "--n", "20", "--y-len", "0"), "y_len must be >= n"),
            (("mk", "chain", "--k", "5", "--degree", "3", "--theta", "1.0",
              "--greedy-window", "0"), "window must be >= k"),
            (("gpy", "sums", "--x", "100", "--offsets", "0", "--l", "170", "--b", "0.25"),
             "k + l must be <= 170"),
            (("mk", "gbound", "--k", "2", "--A", "inf", "--T", "0.25"),
             "A and T must be finite and > 0"),
            # numpy's generators refuse negative seeds with a ValueError
            (("--seed", "-1", "stats", "pigeonhole", "--X", "1000", "--H", "10",
              "--samples", "5"), "seed must be >= 0, got -1"),
            # ZeroDivisionError: A * A underflows, or A * T overflows, in the
            # closed-form integrals
            (("mk", "gbound", "--k", "10", "--A", "1e-300", "--T", "5"), "int t g^2 = nan"),
            (("mk", "gbound", "--k", "10", "--A", "1e308", "--T", "1e308"), "int g^2 = 0.0"),
            # OverflowError: k or m does not convert to a double
            (("mk", "gbound", "--k", str(10**309)), "the largest double"),
            (("mk", "gbound", "--k", str(10**309), "--A", "2", "--T", "3"), "the largest double"),
            (("mk", "chain", "--k", "5", "--degree", "3", "--theta", "0.5", "--m", str(10**309),
              "--prime-offset"), "2m/theta overflows a double"),
            # stats pnt once ignored the segment size its report echoes
            (("--segment-size", "0", "stats", "pnt", "--x", "1000"), "segment_size must be >= 1"),
            (("--segment-size", "-5", "stats", "pnt", "--x", "1000000"), "segment_size must be >= 1"),
            # a negative --lo was once clamped to 0: the first exited 0
            # having scanned [0, 30), the second blamed [0, 3)
            (("gaps", "--lo", "-5", "--hi", "30"), "need 0 <= lo < hi, got [-5, 30)"),
            (("gaps", "--lo", "-5", "--hi", "3"), "need 0 <= lo < hi, got [-5, 3)"),
            # each once exited 0, sieving with the default its report did not echo
            *(
                (("--segment-size", "0", *argv), "segment_size must be >= 1")
                for argv in (
                    ("largegap", "scan", "--X", "100"),
                    ("stats", "mertens", "--n", "1000"),
                    ("stats", "pigeonhole", "--X", "1000", "--H", "10", "--exact"),
                    ("stats", "pigeonhole", "--X", "1000", "--H", "10", "--samples", "5"),
                    ("gpy", "sums", "--x", "1000", "--offsets", "0,2,6", "--b", "0.25"),
                    ("gpy", "error", "--x", "1000", "--offsets", "0,2,6", "--b", "0.25"),
                    ("gpy", "levels", "--x", "10000", "--theta", "0.4"),
                    ("gpy", "levels", "--x", "10000", "--theta", "0.3", "--weighted"),
                    # each echoed the flag and walked fixed blocks
                    ("stats", "erdos-kac", "--x", "10000", "--a", "-1", "--b", "1"),
                    ("stats", "hardy-ramanujan", "--n", "10000", "--a", "0.5"),
                )
            ),
        ],
    )
    def test_exits_2_with_an_error_line(self, capsys, tmp_path, argv, message):
        code, out, err = run_cli(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("gaps", "--lo", "0", "--hi", str(10**20)),
            ("sieve", "--hi", str(10**30)),
            ("largegap", "primorial", "--n", str(10**11)),
            ("tuple", "prime-offset", "--k", str(10**11)),
        ],
    )
    def test_prime_table_past_cap_exits_2(self, capsys, argv):
        # each once asked numpy for 4.7 GiB to 455 TiB and escaped as a
        # MemoryError traceback (exit 1) under a memory limit
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: prime table up to ") and err.count("\n") == 1
        assert f"exceeds the cap of {sieve.DEFAULT_RANGE_CAP} integers" in err

    @pytest.mark.parametrize(
        "argv,head",
        [
            (("stats", "erdos-kac", "--x", "3000000000", "--a", "-1", "--b", "1"),
             "error: tables up to 3000000000 "),
            (("stats", "hardy-ramanujan", "--n", "3000000000", "--a", "1"),
             "error: tables up to 3000000000 "),
            (("gpy", "levels", "--x", "3000000000", "--theta", "0.1"),
             "error: x = 3000000000 "),
            (("tuple", "search", "--k", "2", "--window", str(10**23)),
             f"error: window of {10**23} "),
            (("tuple", "search", "--k", "2", "--window", "3000000000"),
             "error: window of 3000000000 "),
            (("largegap", "cover", "--n", "5", "--y-len", str(10**20)),
             f"error: y_len of {10**20} "),
            # x**b once escaped as an OverflowError traceback
            (("gpy", "sums", "--x", str(10**309), "--offsets", "0,2,6", "--b", "0.25"),
             f"error: x = {10**309} "),
            (("gpy", "error", "--x", str(10**309), "--offsets", "0,2,6", "--b", "0.25"),
             f"error: x = {10**309} "),
            # mangoldt_range once listed 98M primes (749 MiB)
            (("gpy", "error", "--x", "2147483648", "--offsets", "0,2,6", "--b", "0.25"),
             "error: x = 2147483648 "),
        ],
    )
    def test_tables_past_cap_exits_2(self, capsys, argv, head):
        # each once asked numpy for 1.08 to 2.79 GiB and escaped as a
        # MemoryError traceback (exit 1) under a memory limit
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(head) and err.count("\n") == 1
        assert f"the cap of {sieve.DEFAULT_RANGE_CAP} integers" in err

    @pytest.mark.parametrize(
        "argv,width",
        [
            # [x + h_1, 2x + h_k] is listed, not [x, 2x)
            (("gpy", "sums", "--x", "1000", "--offsets", "0,2147483648", "--b", "0.25"), 2147484649),
            # [X, 2X + H] is listed before the gap scan
            (("stats", "pigeonhole", "--X", "2000000000", "--H", "10", "--exact"), 2000000011),
        ],
    )
    def test_prime_lists_past_cap_exit_2(self, capsys, argv, width):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == (
            f"error: range of {width} integers exceeds the cap of {sieve.DEFAULT_RANGE_CAP}; "
            "scan it in pieces\n"
        )

    @pytest.mark.parametrize(
        "value,message",
        [
            ("nan", "coefficients must be finite"),
            ("inf", "coefficients must be finite"),
            ("1e200", "overflow double precision"),
            # "-inf" and "-NaN" once read as unknown flags: "expected one argument"
            ("-inf", "coefficients must be finite"),
            ("-NaN", "coefficients must be finite"),
        ],
    )
    def test_montecarlo_non_finite_estimate_exits_2(self, capsys, value, message):
        # each once exited 0 with NaN or Infinity (not JSON) and numpy
        # RuntimeWarnings on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                capsys, "mk", "montecarlo", "--k", "2", "--degree", "0",
                "--samples", "1000", "--coeffs", value,
            )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "text,message",
        [
            # the first two once escaped as ValueError tracebacks (exit 1)
            ("seed=abc\n", "config line 1, seed=abc: invalid literal for int()"),
            ("# strict\ntolerance.gpy_agreement=x\n",
             "config line 2, tolerance.gpy_agreement=x: could not convert"),
            # once echoed into every report and never read
            ("tolerance.eigen_residul=1e-3\n", "unknown tolerance name 'eigen_residul'"),
            # NaN once printed as NaN (not JSON) and turned the gate off
            ("tolerance.eigen_residual=nan\n", "must be finite and >= 0, got nan"),
            ("tolerance.eigen_residual=-inf\n", "must be finite and >= 0, got -inf"),
            ("tolerance.gpy_agreement=inf\n", "must be finite and >= 0, got inf"),
            # once exited 3 with "exceeds -1.0e+00"
            ("seed=2\ntolerance.eigen_residual=-1\n",
             "config line 2, tolerance.eigen_residual=-1: tolerance eigen_residual "
             "must be finite and >= 0, got -1.0"),
            ("seed=-1\n", "config line 1, seed=-1: seed must be >= 0, got -1"),
            ("output_format=xml\n", "config line 1, output_format=xml: output_format must"),
        ],
    )
    def test_hostile_config_file_exits_2(self, capsys, tmp_path, text, message):
        cfg = tmp_path / "hostile.conf"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "--config", str(cfg),
                                 "mk", "poly", "--k", "5", "--degree", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


def _python_under_1_gb(*args):
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (10**9, 10**9))

    src = Path(primelab.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, *args],
        # one BLAS thread, so the limit does not depend on the core count
        env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=limit, capture_output=True, text=True,
    )


def _run_under_1_gb(*argv):
    return _python_under_1_gb("-m", "primelab.cli", *argv)


class TestAddressSpaceLimit:
    def test_range_table_past_cap_refused_under_1_gb(self):
        # the primes below 2^40 would take about 300 GiB; the cap refuses
        # the range before anything is sieved
        run = _python_under_1_gb("-c", "from primelab import sieve; sieve.primes_between(0, 2**40)")
        assert (run.returncode, run.stdout) == (1, "")
        assert run.stderr.splitlines()[-1] == (
            f"primelab.errors.CapacityError: range of {2**40} integers exceeds the cap of "
            f"{sieve.DEFAULT_RANGE_CAP}; scan it in pieces"
        )

    def test_montecarlo_at_large_k_fits_in_1_gb(self):
        # the whole-chunk estimator asked numpy for 458 MiB per (10^6, 60)
        # array and escaped as a MemoryError traceback (exit 1)
        run = _run_under_1_gb("mk", "montecarlo", "--k", "60", "--degree", "0",
                              "--samples", "1000000")
        assert (run.returncode, run.stderr) == (0, "")
        assert json.loads(run.stdout)["result"]["samples"] == 1_000_000

    @pytest.mark.parametrize(
        "argv",
        [
            ("stats", "erdos-kac", "--x", "50000000", "--a", "-1", "--b", "1"),
            ("stats", "hardy-ramanujan", "--n", "50000000", "--a", "1"),
        ],
    )
    def test_omega_statistics_at_5e7_fit_in_1_gb(self, argv):
        # the dense mu/phi/omega tables plus full-length float64 arrays
        # (381 MiB each) escaped as a MemoryError traceback (exit 1)
        run = _run_under_1_gb(*argv)
        assert (run.returncode, run.stderr) == (0, "")
        report = json.loads(run.stdout)
        assert report["command"] == " ".join(argv[:2])
        assert report["params"][argv[2][2:]] == 50_000_000

    @pytest.mark.parametrize(
        "argv,size",
        [
            (("mk", "poly", "--k", "3", "--degree", str(2**31)), (2**30 + 1) ** 2),
            (("mk", "poly", "--k", "1", "--degree", str(2**31)), 2**31 + 1),
            (("mk", "poly", "--k", "3", "--degree", str(10**19)), (5 * 10**18 + 1) ** 2),
            (("mk", "chain", "--k", "105", "--degree", str(2**31), "--theta", "0.5"),
             (2**30 + 1) ** 2),
            (("mk", "montecarlo", "--k", "3", "--degree", str(2**31), "--samples", "1000"),
             (2**30 + 1) ** 2),
            (("mk", "montecarlo", "--k", "3", "--degree", str(2**53 + 1), "--samples", "1000"),
             (2**52 + 1) * (2**52 + 2)),
            (("mk", "montecarlo", "--k", "3", "--degree", str(2**63), "--samples", "1000"),
             (2**62 + 1) ** 2),
        ],
    )
    def test_basis_past_cap_exits_2_under_1_gb(self, argv, size):
        # listing the basis before checking its size ended in a MemoryError
        # traceback (exit 1)
        run = _run_under_1_gb(*argv)
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == (
            f"error: basis size {size} exceeds cap 64; lower the degree or raise the cap\n"
        )


    @pytest.mark.parametrize("samples", [2**31, 2**53 + 1, 2**63, 10**19, 10**309])
    def test_pigeonhole_samples_past_cap_exit_2_under_1_gb(self, samples):
        # the whole draw once asked numpy for 16 GiB or more (a MemoryError)
        # or past its largest dimension (a ValueError), exit 1 either way
        run = _run_under_1_gb("stats", "pigeonhole", "--X", "1000", "--H", "10",
                              "--samples", str(samples))
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == (
            f"error: samples = {samples} exceeds the cap of {sieve.DEFAULT_RANGE_CAP} integers\n"
        )

    def test_montecarlo_default_coefficients_respect_the_basis_cap(self, capsys):
        argv = ("mk", "montecarlo", "--k", "3", "--degree", "15", "--samples", "1000")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: basis size 72 exceeds cap 64; lower the degree or raise the cap\n"
        report = run_json(capsys, "--basis-cap", "72", *argv)
        assert len(report["params"]["coeffs"]) == 72


class TestSegmentCap:
    @pytest.mark.parametrize("command", [("sieve",), ("gaps", "--lo", "0")])
    def test_segment_past_cap_exits_2_under_1_gb(self, command):
        # a 2^32 segment asked numpy for 2 GiB and escaped as a MemoryError
        # traceback (exit 1); the kernel now refuses it before allocating
        run = _run_under_1_gb("--segment-size", str(2**32), *command, "--hi", str(2**32))
        assert (run.returncode, run.stdout) == (2, "")
        assert run.stderr == (
            f"error: segment of {2**32} integers exceeds the cap of "
            f"{sieve.DEFAULT_RANGE_CAP}; use a smaller segment_size\n"
        )

    def test_segment_size_past_cap_on_a_short_range(self, capsys):
        # the kernel allocates min(segment_size, hi - lo) integers
        report = run_json(capsys, "--segment-size", str(2**40), "sieve", "--hi", "100")
        assert report["result"] == {"prime_count": 25, "first_prime": 2, "last_prime": 97}


class TestImports:
    def test_cli_import_does_not_load_scipy(self):
        # scipy is imported only where the M_k eigen solve runs
        src = Path(primelab.__file__).resolve().parents[1]
        probe = subprocess.run(
            [sys.executable, "-c", "import primelab.cli, sys; print('scipy' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, check=True,
        )
        assert probe.stdout == "False\n"


class TestNegativeNumberLists:
    """A number list that starts with a minus sign parses with or without '='."""

    MC = ("mk", "montecarlo", "--k", "2", "--degree", "1", "--samples", "1000")

    @pytest.mark.parametrize(
        "head,flag,value,expected",
        [
            (("gpy", "sums", "--x", "100", "--b", "0.25"), "--offsets", "-2,0", [-2, 0]),
            (MC, "--coeffs", "-1,.5", [-1.0, 0.5]),
            (MC, "--coeffs", "-.5,1", [-0.5, 1.0]),
            (("stats", "erdos-kac", "--x", "1000", "--b", "1"), "--a", "-inf", "-inf"),
            (("stats", "erdos-kac", "--x", "1000", "--b", "1"), "--a", "-Infinity", "-inf"),
        ],
    )
    def test_spaced_value_equals_joined(self, capsys, head, flag, value, expected):
        spaced = run_json(capsys, *head, flag, value)
        joined = run_json(capsys, *head, f"{flag}={value}")
        spaced.pop("elapsed_seconds")
        joined.pop("elapsed_seconds")
        assert spaced == joined
        assert spaced["params"][flag.lstrip("-")] == expected


class TestDeterminismAndFormats:
    def test_reports_identical_apart_from_timing(self, capsys):
        a = run_json(capsys, "stats", "pigeonhole", "--X", "1000", "--H", "10",
                     "--samples", "5000", "--seed", "7")
        b = run_json(capsys, "stats", "pigeonhole", "--X", "1000", "--H", "10",
                     "--samples", "5000", "--seed", "7")
        a.pop("elapsed_seconds")
        b.pop("elapsed_seconds")
        assert a == b

    def test_seed_changes_draws(self, capsys):
        a = run_json(capsys, "stats", "pigeonhole", "--X", "1000", "--H", "10",
                     "--samples", "500", "--seed", "1")
        b = run_json(capsys, "stats", "pigeonhole", "--X", "1000", "--H", "10",
                     "--samples", "500", "--seed", "2")
        assert a["seed"] != b["seed"]

    def test_csv_and_json_values_match(self, capsys):
        report = run_json(capsys, "largegap", "scan", "--X", "100")
        code, out, _ = run_cli(capsys, "--format", "csv", "largegap", "scan", "--X", "100")
        assert code == 0
        rows = dict(
            (row[0], row[1]) for row in csv.reader(io.StringIO(out)) if row[0] != "key"
        )
        assert int(rows["result.p"]) == report["result"]["p"]
        assert int(rows["result.q"]) == report["result"]["q"]
        assert int(rows["result.gap"]) == report["result"]["gap"]

    def test_non_finite_floats_are_strict_json(self, capsys):
        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        for argv, key, text in [
            (("stats", "erdos-kac", "--x", "1000", "--a", "-inf", "--b", "1"), "a", "-inf"),
            (("stats", "hardy-ramanujan", "--n", "1000", "--a", "inf"), "a", "inf"),
        ]:
            code, out, err = run_cli(capsys, *argv)
            assert code == 0, err
            assert json.loads(out, parse_constant=refuse)["params"][key] == text
        corpus = json.loads(Path(__file__).with_name("cli_golden.json").read_text())
        for entry in corpus:
            if entry["stdout"].startswith("{"):
                json.loads(entry["stdout"], parse_constant=refuse)

    def test_stats_csv_is_columnar(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "stats", "pnt", "--x", "1000")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,statistic,value,reference,deviation"
        assert lines[1].startswith("1000,pnt_ratio,")

    def test_config_file_and_env(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "lab.conf"
        cfg.write_text("seed=99\nsegment_size=65536\ntolerance.gpy_agreement=1e-8\n")
        report = run_json(capsys, "--config", str(cfg), "sieve", "--hi", "50")
        assert report["seed"] == 99
        assert report["config"]["segment_size"] == 65536
        assert report["config"]["tolerances"]["gpy_agreement"] == 1e-8

        monkeypatch.setenv("PRIMELAB_CONFIG", str(cfg))
        report = run_json(capsys, "sieve", "--hi", "50")
        assert report["seed"] == 99

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "lab.conf"
        cfg.write_text("seed=99\n")
        report = run_json(capsys, "--config", str(cfg), "--seed", "5", "sieve", "--hi", "50")
        assert report["seed"] == 5

    def test_bad_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "lab.conf"
        cfg.write_text("volume=11\n")
        code, _, err = run_cli(capsys, "--config", str(cfg), "sieve", "--hi", "50")
        assert code == 2
