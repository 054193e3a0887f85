"""The pulsepair command-line front end.

Subcommands: sweep (run a config file), preset (run a named figure
preset), negativity (one-shot diagonal-state evaluation), validate
(oracle and invariant suite).  Data goes to the output file or stdout;
diagnostics go to stderr.

Exit codes: 0 success, 1 argument or config parse failure or any other
input error, 2 unknown preset, 3 I/O failure (a file, or a write to
stdout), 4 unphysical state, 5 validation failure.  Commands raise; ``main``
alone turns a failure into its code and one ``error:`` line, if stderr takes it.
"""

import argparse
import gc
import os
import sys
from dataclasses import replace

import numpy as np

from .config import parse_config
from .entanglement import _clamp, zero_bloch_negativity_batch, zero_bloch_spectrum_batch
from .errors import InvalidConfig, PulsePairError, UnknownPreset, UnphysicalState, ValidationFailed
from .evolution import InitialState
from .pulses import CoefficientMode
from .scenarios import SweepConfig, paper_figure_presets, run_sweep
from .validation import VALIDATION_NOTES, run_validation

__all__ = [
    "build_parser",
    "cmd_negativity",
    "cmd_preset",
    "cmd_sweep",
    "cmd_validate",
    "entry",
    "main",
]

EXIT_PARSE = 1

# Exit code of each failure main reports; the first type that matches wins.
_EXIT_CODES = ((UnknownPreset, 2), (OSError, 3), (UnphysicalState, 4), (ValidationFailed, 5), (PulsePairError, 1))


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; this tool reserves
    # 2 for unknown presets, so parse failures are remapped to 1.
    def error(self, message: str) -> None:
        _diag(message, self.format_usage())
        raise SystemExit(EXIT_PARSE)

    # argparse drops an OSError of its own writes, which would lose a --help with exit 0
    def _print_message(self, message: str, file=None) -> None:
        if message:
            (file or sys.stderr).write(message)


def _diag(message: str, usage: str = "") -> None:
    text = f"error: {message}"
    if sys.stderr.isatty() and not os.environ.get("NO_COLOR"):
        text = f"\x1b[31m{text}\x1b[0m"
    try:
        print(usage + text, file=sys.stderr)
    except OSError:  # the code of the failure reported stays
        pass


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pulsepair",
        description="Entanglement dynamics of a driven two-qubit pair.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run a sweep described by a config file")
    sweep.add_argument("--config", required=True, help="key=value config file")
    sweep.add_argument("--out", required=True, help="CSV output path")
    sweep.set_defaults(func=cmd_sweep)

    preset = sub.add_parser("preset", help="run a named figure preset")
    preset.add_argument("name")
    preset.add_argument("--mode", choices=["literal", "unitary"], default="unitary")
    preset.add_argument("--out", default=None, help="CSV path (default <name>.csv)")
    preset.set_defaults(func=cmd_preset)

    neg = sub.add_parser("negativity", help="negativity of a diagonal state")
    neg.add_argument("cxx", type=float)
    neg.add_argument("cyy", type=float)
    neg.add_argument("czz", type=float)
    neg.set_defaults(func=cmd_negativity)

    val = sub.add_parser("validate", help="run the oracle and invariant checks")
    val.add_argument("--seed", type=int, default=0)
    val.set_defaults(func=cmd_validate)
    return parser


def _run_and_write(cfg: SweepConfig, out: str) -> None:
    result = run_sweep(cfg)
    try:
        result.write_csv(out)
    except OSError as exc:
        raise OSError(f"cannot write output to {out!r}: {exc.strerror or exc}") from exc


def cmd_sweep(args: argparse.Namespace) -> None:
    try:
        with open(args.config, encoding="ascii") as fh:
            cfg = parse_config(fh.read())
    except OSError as exc:
        raise OSError(f"cannot read config: {exc}") from exc
    except (InvalidConfig, UnicodeDecodeError) as exc:
        raise InvalidConfig(f"bad config: {exc}") from exc
    _run_and_write(cfg, args.out)


def cmd_preset(args: argparse.Namespace) -> None:
    presets = paper_figure_presets()
    if args.name not in presets:
        known = ", ".join(sorted(presets))
        raise UnknownPreset(f"unknown preset {args.name!r} (known: {known})")
    out = args.out if args.out is not None else f"{args.name}.csv"
    _run_and_write(replace(presets[args.name], mode=CoefficientMode(args.mode)), out)


def cmd_negativity(args: argparse.Namespace) -> None:
    state = InitialState.generalized_werner(args.cxx, args.cyy, args.czz)
    tensor = np.diag(state.correlations)
    for i, mu in enumerate(np.sort(zero_bloch_spectrum_batch(tensor)), start=1):
        print(f"mu_{i} = {mu:.12f}")
    print(f"E = {_clamp(zero_bloch_negativity_batch(tensor)):.12f}")


def cmd_validate(args: argparse.Namespace) -> None:
    results = run_validation(seed=args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"check {r.name} max_error={r.max_error:.3e} "
            f"tolerance={r.tolerance:.3e} status={status}"
        )
    for note in VALIDATION_NOTES:
        print(f"note: {note}")
    failed = [r for r in results if not r.passed]
    passed = len(results) - len(failed)
    print(f"validation: {passed}/{len(results)} checks passed (seed={args.seed})")
    if failed:
        first = failed[0]
        raise ValidationFailed(
            f"validation failed at check {first.name} "
            f"(max_error={first.max_error:.3e}, tolerance={first.tolerance:.3e})"
        )


def main(argv: list[str] | None = None) -> int:
    code = 0
    try:
        try:
            args = build_parser().parse_args(argv)
            args.func(args)
        except SystemExit as exc:  # argparse's own exit; also covers --help, which exits 0
            code = exc.code if isinstance(exc.code, int) else EXIT_PARSE
        sys.stdout.flush()  # on SystemExit too: a --help that stdout cannot take exits 3
    except (PulsePairError, OSError) as exc:
        _diag(str(exc))
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    return code


def entry() -> None:
    for name in ("stdout", "stderr"):
        if getattr(sys, name) is None:  # fd closed at start: its writes fail (EBADF) as those to /dev/full do (ENOSPC)
            setattr(sys, name, open(os.open(os.devnull, os.O_RDONLY), "w", encoding="utf-8"))
    code = main(sys.argv[1:])
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except OSError:  # the interpreter's flush at exit would fail again ("Exception ignored", exit 120)
            os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    gc.freeze()  # the collections at shutdown then skip the heap that the imports built
    sys.exit(code)


if __name__ == "__main__":
    entry()
