"""The command-line grammar: argparse's help texts and usage errors, and
the flag-table reader that main uses for well-formed campaign argv."""

import contextlib
import io
import os
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qteleport
from qteleport import cli
from qteleport.cli import build_parser, main

# argparse wraps its output to the terminal width.  The texts below are
# argparse's as CPython 3.11 renders them at 80 columns.
TOP_USAGE = "usage: qteleport [-h] {enumerate,montecarlo,decoy,sweep,selftest} ...\n"

STATE_USAGE = """\
usage: qteleport {kind} [-h] [--config CONFIG] [--seed SEED] [--out OUT]
{pad}[--format {{json,csv}}] [--trials TRIALS] [--d D]
{pad}[--m M] [--n N] [--coeffs COEFFS] [--beta BETA]
"""

COMMON_HELP = """\
options:
  -h, --help           show this help message and exit
  --config CONFIG      path to a JSON experiment config
  --seed SEED          master seed
  --out OUT            output file (default: stdout)
  --format {json,csv}
  --trials TRIALS      trial/round/spec count
"""

POINT_HELP = """\
  --d D                qudit dimension
  --m M                copies of the channel
  --n N                controller count
"""


def _state_usage(kind: str) -> str:
    return STATE_USAGE.format(kind=kind, pad=" " * len(f"usage: qteleport {kind} "))


HELP = {
    (): TOP_USAGE + """
Multiparty-controlled qudit teleportation simulator

positional arguments:
  {enumerate,montecarlo,decoy,sweep,selftest}
    enumerate           exhaustive branch enumeration with exact probabilities
    montecarlo          sampled protocol runs vs the closed-form success rate
    decoy               decoy-photon eavesdropping detection statistics
    sweep               exact success probability (the oracle's stage 1: no
                        leaves built) over a (d, m, n) grid of random channels
    selftest            run the invariant battery

options:
  -h, --help            show this help message and exit
""",
    **{
        (kind,): _state_usage(kind) + "\n" + COMMON_HELP + POINT_HELP + """\
  --coeffs COEFFS      "uniform", "random:<seed>", or comma list
  --beta BETA          comma list, "basis:<k>", or "random:<seed>"
"""
        for kind in ("enumerate", "montecarlo")
    },
    ("decoy",): """\
usage: qteleport decoy [-h] [--config CONFIG] [--seed SEED] [--out OUT]
                       [--format {json,csv}] [--trials TRIALS] [--d D] [--m M]
                       [--n N] [--eve EVE]

""" + COMMON_HELP + POINT_HELP + """\
  --eve EVE            adversary action
""",
    ("sweep",): """\
usage: qteleport sweep [-h] [--config CONFIG] [--seed SEED] [--out OUT]
                       [--format {json,csv}] [--trials TRIALS] [--d D] [--m M]
                       [--n N]

""" + COMMON_HELP + """\
  --d D                comma list of dimensions, e.g. 2,3,4
  --m M                comma list of copy counts
  --n N                comma list of controller counts
""",
    ("selftest",): """\
usage: qteleport selftest [-h]

options:
  -h, --help  show this help message and exit
""",
}

ERRORS = [
    ([], TOP_USAGE + "qteleport: error: the following arguments are required: command\n"),
    (
        ["montecarlo", "--bogus", "1"],
        TOP_USAGE + "qteleport: error: unrecognized arguments: --bogus 1\n",
    ),
    (
        ["montecarlo", "--format", "xml"],
        _state_usage("montecarlo") + "qteleport montecarlo: error: argument --format: "
        "invalid choice: 'xml' (choose from 'json', 'csv')\n",
    ),
    (
        ["montecarlo", "--seed"],
        _state_usage("montecarlo")
        + "qteleport montecarlo: error: argument --seed: expected one argument\n",
    ),
    (["sweep", "--eve", "x"], TOP_USAGE + "qteleport: error: unrecognized arguments: --eve x\n"),
    (
        ["decoy", "--coeffs", "1"],
        TOP_USAGE + "qteleport: error: unrecognized arguments: --coeffs 1\n",
    ),
]


@pytest.mark.parametrize("command", sorted(HELP))
def test_help_text_is_pinned(command, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--help"])
    assert exit_.value.code == 0
    assert capsys.readouterr() == (HELP[command], "")


@pytest.mark.parametrize("argv, stderr", ERRORS)
def test_usage_errors_are_pinned(argv, stderr, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert capsys.readouterr() == ("", stderr)


COMMANDS = ["enumerate", "montecarlo", "decoy", "sweep", "selftest", "bogus"]
FLAGS = [
    "--config", "--seed", "--out", "--format", "--trials", "--d", "--m", "--n",
    "--coeffs", "--beta", "--eve",
]
ODD_FLAGS = ["--tri", "--co", "--for", "--bogus", "-h", "--help", "--d=3", "--x=y", "--", "-"]
VALUES = ["1", "", "json", "csv", "2,3", "uniform", "random:5", "x y"]
ODD_VALUES = ["-1", "-x", "xml"]


def _argparse(argv):
    """build_parser().parse_args(argv)'s namespace, or None where it exits."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return build_parser().parse_args(argv)
        except SystemExit:
            return None


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(COMMANDS),
    st.lists(
        st.tuples(st.sampled_from(FLAGS * 4 + ODD_FLAGS), st.sampled_from(VALUES * 4 + ODD_VALUES)),
        max_size=3,
    ),
    st.lists(st.sampled_from(FLAGS + ODD_FLAGS + VALUES + ODD_VALUES), max_size=1),
    st.integers(min_value=0),
)
@example("montecarlo", [("--d", "3"), ("--format", "csv"), ("--seed", "x")], [], 0)
@example("sweep", [("--d", "2,3"), ("--m", ""), ("--trials", "5")], [], 0)
@example("montecarlo", [], ["--seed", "-5"], 0)
@example("decoy", [], ["--eve"], 0)
def test_table_reader_agrees_with_argparse(command, pairs, loose, at):
    # Flag/value pairs, most of them well formed, with at most one loose
    # token let in anywhere.
    tokens = [token for pair in pairs for token in pair]
    at %= len(tokens) + 1
    argv = [command, *tokens[:at], *loose, *tokens[at:]]
    fast = cli._read_campaign(argv)
    slow = _argparse(argv)
    if fast is not None:
        assert slow is not None and vars(fast) == vars(slow)
    if slow is None:
        assert fast is None


WELL_FORMED = [
    ["enumerate", "--d", "2", "--n", "1", "--coeffs", "uniform", "--beta", "basis:1"],
    ["montecarlo", "--d", "3", "--m", "1", "--n", "2", "--trials", "5", "--seed", "1",
     "--format", "csv", "--coeffs", "random:2", "--beta", "random:1"],
    ["decoy", "--d", "5", "--eve", "none", "--trials", "4", "--format", "json"],
    ["sweep", "--d", "2,3", "--m", "1", "--n", "0,1", "--trials", "4"],
]


@pytest.mark.parametrize("argv", WELL_FORMED)
def test_well_formed_campaign_argv_skips_argparse(argv, monkeypatch, capsys):
    def unreachable():
        raise AssertionError("argparse read a well-formed campaign argv")

    expected = _argparse(argv)
    assert expected is not None and vars(cli._read_campaign(argv)) == vars(expected)
    monkeypatch.setattr(cli, "build_parser", unreachable)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


# Prints which of the modules a campaign must not load are loaded.
_LEAN_CHILD = """
import sys
from qteleport.cli import main
code = main(sys.argv[1:])
print(*sorted({"argparse", "dataclasses", "gettext"} & set(sys.modules)), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv", WELL_FORMED, ids=[argv[0] for argv in WELL_FORMED])
def test_campaign_imports_neither_argparse_nor_dataclasses(argv, tmp_path):
    src = os.path.dirname(os.path.dirname(qteleport.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", _LEAN_CHILD, *argv, "--out", str(tmp_path / "out")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "\n")


def test_python_dash_m_runs_the_command_line(capsys):
    # `python -m qteleport` is cli.main: the same stdout and exit code.
    argv = ["decoy", "--d", "2", "--trials", "5", "--seed", "1"]
    src = os.path.dirname(os.path.dirname(qteleport.__file__))

    def module(*args):
        return subprocess.run(
            [sys.executable, "-m", "qteleport", *args],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )

    code = main(argv)
    proc = module(*argv)
    assert (proc.returncode, proc.stdout) == (code, capsys.readouterr().out)
    assert module("decoy", "--bogus").returncode == 2

def test_both_value_fields_parse_before_their_records_validate(capsys):
    # The coeffs hold a zero coefficient and the beta directive does not
    # parse: the parse fault is reported, since the records validate last.
    argv = ["montecarlo", "--coeffs", "1.4142135623730951,0", "--beta", "random:x"]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: beta: malformed directive 'random:x'\n")
    assert cli.main(argv[:3]) == 1
    assert capsys.readouterr().err.startswith("error: coeffs: zero channel coefficient")
