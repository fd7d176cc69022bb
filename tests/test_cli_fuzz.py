"""Random command lines, built from the CLI's own command table.

Whatever the flags hold, the CLI keeps its exit-code contract: 0, 2, 3 or
64, never an escaping exception. Values are drawn small and hostile:
integers around zero, non-finite floats, number lists with stray letters,
and paths that are missing, in a missing directory, or real files.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from primelab.cli import COMMANDS, GLOBAL_FLAGS, dispatch

PATH_FLAGS = {"--config", "--file", "--out", "--tuple-file"}
# 1e-300 squares to zero and 1e308 overflows once doubled or multiplied
FLOATS = ["nan", "inf", "-inf", "-1", "0", "1e-300", "0.25", "0.5", "1", "1e308"]
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
    "stats erdos-kac": "--x",
    "stats hardy-ramanujan": "--n",
    "gpy levels": "--x",
    "tuple search": "--window",
    "largegap cover": "--y-len",
}


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


def _draw_flags(data, flags, paths: list[str]) -> list[str]:
    argv = []
    for flag, spec in flags:
        if not data.draw(st.booleans(), label=f"{flag} given"):
            continue
        argv.append(flag)
        if "action" not in spec:
            argv.append(data.draw(_values(flag, spec, paths), label=flag))
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_random_command_lines_keep_the_exit_contract(data, fuzz_dir):
    # a --out may create missing.txt or rewrite a file here; each stays a valid input
    names = ("missing.txt", "no/dir/f.txt", "t.txt", "", *HOSTILE_CONFIGS)
    paths = [str(fuzz_dir / name) for name in names]
    name = data.draw(st.sampled_from(sorted(COMMANDS)), label="command")
    argv = _draw_flags(data, FUZZED_GLOBALS, paths) + name.split()
    argv += _draw_flags(data, COMMANDS[name][1], paths)
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
            argv += [flag, data.draw(_values(flag, spec, []), label=flag)]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = dispatch(argv)
    assert code == 2, (argv, code, err.getvalue())
    assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
