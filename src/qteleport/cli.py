"""Command-line interface: enumerate, montecarlo, decoy, sweep, selftest.

Campaigns take --config <json> and a flag per key their kind reads
(config.KEYS), which wins over the config file.  argparse is imported
only for an argv that _read_campaign cannot read, so a well-formed
campaign never loads it.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from .campaign import run_campaign, write_output
from .config import (
    FORMATS, KEYS, ConfigError, load_config, parse_directive_index, read_config,
)
from .state import SizeGuardError

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_GUARD = 2
EXIT_SELFTEST = 3


def _parse_complex_list(text: str, fieldname: str) -> list:
    values = []
    for part in text.split(","):
        try:
            value = complex(part.strip())
        except ValueError:
            raise ConfigError(f"{fieldname}: cannot parse {part!r} as a number") from None
        values.append([value.real, value.imag])
    return values


def _coeffs_flag(text: str) -> object:
    if text == "uniform" or text.startswith("random:"):
        return text
    return _parse_complex_list(text, "coeffs")


def _beta_flag(text: str) -> object:
    if text.startswith("random:"):
        return text
    if text.startswith("basis:"):
        return {"basis": parse_directive_index(text, "beta")}
    return _parse_complex_list(text, "beta")


def _int_list(text: str, fieldname: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(
            f"{fieldname}: cannot parse {text!r} as a comma list of integers"
        ) from None


def _int_flag(text: str) -> int | str:
    """An integer flag's value; unparsable text passes through unchanged,
    so that the config, validated when built, names the field it fails."""
    try:
        return int(text)
    except ValueError:
        return text


SUBCOMMANDS = {
    "enumerate": "exhaustive branch enumeration with exact probabilities",
    "montecarlo": "sampled protocol runs vs the closed-form success rate",
    "decoy": "decoy-photon eavesdropping detection statistics",
    "sweep": "exact success probability (the oracle's stage 1: no leaves built) "
             "over a (d, m, n) grid of random channels",
    "selftest": "run the invariant battery",
}

# Every campaign flag, in the order --help lists it: (flag, the document
# key it sets, its add_argument keywords).  A campaign takes --config,
# which sets no key, and each row whose key its kind reads (config.KEYS);
# a sweep's --d, --m and --n set the axes of "sweep".  build_parser adds
# a campaign's rows to its subparser, and main reads a well-formed
# campaign argv straight from them (_read_campaign).
FLAGS = (
    ("--config", None, {"help": "path to a JSON experiment config"}),
    ("--seed", "seed", {"type": _int_flag, "help": "master seed"}),
    ("--out", "out", {"help": "output file (default: stdout)"}),
    ("--format", "format", {"choices": FORMATS, "dest": "fmt"}),
    ("--trials", "trials", {"type": _int_flag, "help": "trial/round/spec count"}),
    ("--d", "d", {"type": _int_flag, "help": "qudit dimension"}),
    ("--d", "sweep", {"help": "comma list of dimensions, e.g. 2,3,4"}),
    ("--m", "m", {"type": _int_flag, "help": "copies of the channel"}),
    ("--m", "sweep", {"help": "comma list of copy counts"}),
    ("--n", "n", {"type": _int_flag, "help": "controller count"}),
    ("--n", "sweep", {"help": "comma list of controller counts"}),
    ("--coeffs", "coeffs", {"help": '"uniform", "random:<seed>", or comma list'}),
    ("--beta", "beta", {"help": 'comma list, "basis:<k>", or "random:<seed>"'}),
    ("--eve", "eve", {"help": "adversary action"}),
)
# The keys whose flag text _build_doc reads into a document's form.
_FORMS = {"coeffs": _coeffs_flag, "beta": _beta_flag}

# campaign -> {flag: (dest, type, choices, key)}, read off the rows it takes.
_READERS = {
    kind: {
        flag: (options.get("dest", flag[2:]), options.get("type"), options.get("choices"), key)
        for flag, key, options in FLAGS if key in (None, *keys)
    }
    for kind, keys in KEYS.items()
}


def build_parser():
    import argparse  # only an argv that _read_campaign cannot read needs it

    parser = argparse.ArgumentParser(
        prog="qteleport",
        description="Multiparty-controlled qudit teleportation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, helptext in SUBCOMMANDS.items():
        p = sub.add_parser(kind, help=helptext)
        for flag, key, options in FLAGS:
            if kind in KEYS and key in (None, *KEYS[kind]):
                p.add_argument(flag, **options)
    return parser


def _read_campaign(argv: list) -> SimpleNamespace | None:
    """build_parser().parse_args(argv) for a well-formed campaign argv: the
    campaign, then whole "--flag value" pairs of its flags, no value
    starting with "-" and --format one of its choices.  None for any other
    argv, which argparse reads, rendering its help texts and errors."""
    flags = _READERS.get(argv[0]) if argv else None
    if flags is None or len(argv) % 2 == 0:
        return None
    values = {"command": argv[0]}
    values.update((dest, None) for dest, _, _, _ in flags.values())
    for flag, text in zip(argv[1::2], argv[2::2]):
        reader = flags.get(flag)
        if reader is None or text.startswith("-"):
            return None
        dest, convert, choices, _ = reader
        if choices is not None and text not in choices:
            return None
        values[dest] = text if convert is None else convert(text)
    return SimpleNamespace(**values)


def _build_doc(args) -> dict:
    """The config file's object (unvalidated) with args' inline flags merged
    over it, in FLAGS order, each at its row's key; load_config validates
    the result once."""
    doc = read_config(args.config) if args.config else {}
    doc["kind"] = args.command
    sweep = doc.get("sweep", {})
    if isinstance(sweep, dict):  # otherwise the config names the bad value
        sweep = doc["sweep"] = dict(sweep)
    for dest, _, _, key in _READERS[args.command].values():
        value = getattr(args, dest)
        if value is None or key is None:
            continue
        if key == "sweep":
            if isinstance(sweep, dict):
                sweep[dest] = _int_list(value, f"sweep.{dest}")
        else:
            doc[key] = _FORMS[key](value) if key in _FORMS else value
    return doc


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_campaign(argv)
    if args is None:
        args = build_parser().parse_args(argv)

    if args.command == "selftest":
        from .selftest import run_selftest  # campaigns never load the criteria
        results = run_selftest()
        failed = 0
        for name, ok, error in results:
            print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {error}" if error else ""))
            failed += 0 if ok else 1
        print(f"{len(results) - failed}/{len(results)} checks passed")
        return EXIT_OK if failed == 0 else EXIT_SELFTEST

    try:
        cfg = load_config(_build_doc(args))
        record = run_campaign(cfg)
        write_output(record, cfg.out, cfg.fmt)
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
