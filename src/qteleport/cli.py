"""Command-line interface.

Subcommands: enumerate, montecarlo, decoy, sweep, selftest.  Campaigns
take either --config <json> or inline flag overrides; inline flags win
over the config file.  Exit codes: 0 success, 1 validation error or
unreadable/unwritable file, 2 size/enumeration guard exceeded, 3
selftest failure.
"""

from __future__ import annotations

import argparse
import sys

from .campaign import run_campaign, write_output
from .config import ConfigError, load_config, read_config
from .selftest import run_selftest
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
        try:
            return {"basis": int(text.split(":", 1)[1])}
        except ValueError:
            raise ConfigError(f"beta: malformed directive {text!r}") from None
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
    so that load_config names the field it fails."""
    try:
        return int(text)
    except ValueError:
        return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--seed", type=_int_flag, help="master seed")
    parser.add_argument("--out", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), dest="fmt")
    parser.add_argument("--trials", type=_int_flag, help="trial/round/spec count")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qteleport",
        description="Multiparty-controlled qudit teleportation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for kind, helptext in (
        ("enumerate", "exhaustive branch enumeration with exact probabilities"),
        ("montecarlo", "sampled protocol runs vs the closed-form success rate"),
        ("decoy", "decoy-photon eavesdropping detection statistics"),
        ("sweep", "branch enumeration over a (d, m, n) grid of random channels"),
    ):
        p = sub.add_parser(kind, help=helptext)
        _add_common(p)
        if kind == "sweep":
            p.add_argument("--d", help="comma list of dimensions, e.g. 2,3,4")
            p.add_argument("--m", help="comma list of copy counts")
            p.add_argument("--n", help="comma list of controller counts")
        else:
            p.add_argument("--d", type=_int_flag, help="qudit dimension")
            p.add_argument("--m", type=_int_flag, help="copies of the channel")
            p.add_argument("--n", type=_int_flag, help="controller count")
        if kind in ("enumerate", "montecarlo"):
            p.add_argument("--coeffs", help='"uniform", "random:<seed>", or comma list')
            p.add_argument("--beta", help='comma list, "basis:<k>", or "random:<seed>"')
        if kind == "decoy":
            p.add_argument("--eve", help="adversary action")

    sub.add_parser("selftest", help="run the invariant battery")
    return parser


def _build_doc(args: argparse.Namespace) -> dict:
    """The config file's object (unvalidated) with the inline flags merged
    over it; load_config validates the result once."""
    doc = read_config(args.config) if args.config else {}
    doc["kind"] = args.command
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.out is not None:
        doc["out"] = args.out
    if args.fmt is not None:
        doc["format"] = args.fmt
    if args.trials is not None:
        doc["trials"] = args.trials
    if args.command == "sweep":
        sweep = doc.get("sweep", {})
        if isinstance(sweep, dict):  # otherwise load_config names the bad value
            sweep = dict(sweep)
            for key in ("d", "m", "n"):
                flag = getattr(args, key)
                if flag is not None:
                    sweep[key] = _int_list(flag, f"sweep.{key}")
            doc["sweep"] = sweep
    else:
        for key in ("d", "m", "n"):
            flag = getattr(args, key)
            if flag is not None:
                doc[key] = flag
    if getattr(args, "coeffs", None) is not None:
        doc["coeffs"] = _coeffs_flag(args.coeffs)
    if getattr(args, "beta", None) is not None:
        doc["beta"] = _beta_flag(args.beta)
    if getattr(args, "eve", None) is not None:
        doc["eve"] = args.eve
    return doc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "selftest":
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
        write_output(record, args.out if args.out is not None else cfg.out, cfg.fmt)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SizeGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
