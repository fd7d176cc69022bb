"""Random command lines, built from the CLI's own command table.

Whatever the flags hold, the CLI keeps its exit-code contract: 0, 2, 3 or
64, never an escaping exception. Values are drawn small and hostile:
integers around zero, non-finite floats, number lists with stray letters,
and paths that are missing, in a missing directory, or real files. Each
example gives every required flag and draws one target flag, global or
the command's own, that always takes a value from the hostile lists. In
half the examples the target is the command's own and every other flag
is given an ordinary value, so that no other refusal comes first and the
target's value reaches the code that reads it; in the rest, the other
flags may be hostile too.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primelab.cli import COMMANDS, GLOBAL_FLAGS, _Parser, dispatch

PATH_FLAGS = {"--config", "--file", "--out", "--tuple-file"}
# 1e-300 squares to zero and 1e308 overflows once doubled or multiplied
FLOATS = ["nan", "inf", "-inf", "-1", "0", "1e-300", "0.25", "0.5", "1", "1e308"]
# the target flag's values: sizes at and below their edge, floats that are
# not ordinary positive values, and malformed number lists
HOSTILE_INTS = ["-2", "-1", "0", "1"]
HOSTILE_FLOATS = ["nan", "inf", "-inf", "-1", "0", "1e-300", "1e308"]
HOSTILE_TEXT = ["", ",", "x", "1,x", "0,,2", "0,0", "2,-1"]
ORDINARY_FLOATS = ["0.25", "0.5", "1"]
# config files with values the config parser must refuse
HOSTILE_CONFIGS = {
    "seed.conf": "seed=abc\n",
    "typo.conf": "tolerance.eigen_residul=1e-3\n",
    "nan.conf": "tolerance.eigen_residual=nan\n",
    "negative.conf": "tolerance.gpy_agreement=-1\n",
}
# --basis-cap is the size knob of the exact M_k computation: a cap of a
# few hundred admits bases whose exact arithmetic runs for minutes, which
# the CLI accepts by design, so it keeps its default here.
FUZZED_GLOBALS = [(flag, spec) for flag, spec in GLOBAL_FLAGS if flag != "--basis-cap"]
# the size flag of each command that refuses a size past the 2^30 cap
# before allocating; elsewhere a size that large runs for minutes by design
PAST_CAP = {
    "gpy error": "--x",
    "gpy sums": "--x",
    "stats erdos-kac": "--x",
    "stats hardy-ramanujan": "--n",
    "gpy levels": "--x",
    "tuple search": "--window",
    "largegap cover": "--y-len",
    "stats pigeonhole": "--samples",
}


# argparse reads a token that starts with "-" as a flag unless it is a
# number in the parser's own sense; "-x", "--" or "--x" would end the
# command line in a usage message before its size is checked
_NUMBER = _Parser()._negative_number_matcher


def _reads_as_value(token: str) -> bool:
    return not token.startswith("-") or bool(_NUMBER.match(token))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "t.txt").write_text("0\n2\n6\n")
    for name, text in HOSTILE_CONFIGS.items():
        (path / name).write_text(text)
    return path


def _values(flag: str, spec: dict, paths: list[str]):
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    if spec["type"] is int:
        return st.integers(min_value=-2, max_value=400).map(str)
    if spec["type"] is float:
        return st.sampled_from(FLOATS)
    if flag in PATH_FLAGS:
        return st.sampled_from(paths)
    return st.text(alphabet="0123456789,x -", max_size=10)


def _hostile(flag: str, spec: dict, paths: list[str]):
    if spec["type"] is int:
        return st.sampled_from(HOSTILE_INTS)
    if spec["type"] is float:
        return st.sampled_from(HOSTILE_FLOATS)
    if flag in PATH_FLAGS:
        return st.sampled_from(paths)
    return st.sampled_from(HOSTILE_TEXT)


def _ordinary(flag: str, spec: dict, paths: list[str]):
    if "choices" in spec:
        return st.sampled_from(spec["choices"])
    if spec["type"] is int:
        return st.integers(min_value=2, max_value=400).map(str)
    if spec["type"] is float:
        return st.sampled_from(ORDINARY_FLOATS)
    if flag in PATH_FLAGS:
        return st.sampled_from(paths[:1])  # the offsets file
    return st.text(alphabet="0123456789,", min_size=1, max_size=10)


def _draw_flags(data, flags, paths: list[str], target: str, calm: bool) -> list[str]:
    """The target, every required flag, and each other flag or not (each
    when calm). The target's value is hostile, the others' ordinary when
    calm. A missing required flag would only ever meet argparse's usage
    message."""
    argv = []
    for flag, spec in flags:
        given = flag == target or spec.get("required")
        # every path --config can take is refused, so it is given only as the
        # target, where it stops nothing else from being reached
        if flag == "--config" and not given:
            continue
        if not (given or calm) and not data.draw(st.booleans(), label=f"{flag} given"):
            continue
        argv.append(flag)
        if "action" not in spec:
            values = _hostile if flag == target else _ordinary if calm else _values
            argv.append(data.draw(values(flag, spec, paths), label=flag))
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_command_lines_keep_the_exit_contract(data, fuzz_dir):
    # a --out may create missing.txt or rewrite a file here; each stays a valid input
    names = ("t.txt", "missing.txt", "no/dir/f.txt", "", *HOSTILE_CONFIGS)
    paths = [str(fuzz_dir / name) for name in names]
    name = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    flags = COMMANDS[name][1]
    calm = data.draw(st.booleans(), label="others ordinary")
    own, shared = ([f for f, spec in group if "action" not in spec and "choices" not in spec]
                   for group in (flags, FUZZED_GLOBALS))
    # a calm example aims at the command's own flags: a global's value meets
    # the same check in every command
    target = data.draw(st.sampled_from(own if calm else own + shared), label="target")
    argv = _draw_flags(data, FUZZED_GLOBALS, paths, target, calm) + name.split()
    argv += _draw_flags(data, flags, paths, target, calm)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = dispatch(argv)
    assert code in (0, 2, 3, 64), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_sizes_past_the_cap_exit_2(data):
    name = data.draw(st.sampled_from(sorted(PAST_CAP)), label="command")
    size_flag = PAST_CAP[name]
    size = data.draw(st.integers(min_value=2**30 + 1, max_value=2**64), label=size_flag)
    argv = name.split() + [size_flag, str(size)]
    for flag, spec in COMMANDS[name][1]:
        if flag != size_flag and "action" not in spec and flag not in PATH_FLAGS:
            argv += [flag, data.draw(_values(flag, spec, []).filter(_reads_as_value), label=flag)]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = dispatch(argv)
    assert code == 2, (argv, code, err.getvalue())
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
