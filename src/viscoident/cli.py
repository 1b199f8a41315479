"""Command-line interface: argument declarations and the error boundary.

Options left unset are absent from the parsed arguments, so every default
is the one ``RunConfig`` declares. A ``ViscoidentError`` prints one
``error(<Class>): <message>`` line and exits with the class's
``exit_code``: 1 parse error, 2 validation error, 3 numerical error, 4 no
root bracketed. A failed validate report exits 2.
"""

from __future__ import annotations

import argparse
import sys

from .errors import ValidationError, ViscoidentError
from .pipeline import RUNNERS, RunConfig, run, write_output


def _parse_m_range(text: str) -> tuple:
    try:
        if ":" not in text:
            return tuple(int(p) for p in text.split(","))
        lo, hi = map(int, text.split(":"))
        if lo <= hi:  # an empty range is as malformed as a non-integer
            return tuple(range(lo, hi + 1))
    except ValueError:
        pass
    raise _format_error("LO:HI or M1,M2,...", text)


def _parse_grid(text: str) -> tuple:
    try:
        start, stop, count = text.split(":")
        return (float(start), float(stop), int(count))
    except ValueError:
        raise _format_error("START:STOP:N", text) from None


def _parse_levels(text: str) -> tuple:
    try:
        return tuple(float(p) for p in text.replace(";", ",").split(","))
    except ValueError:
        raise _format_error("E1,E2,...", text) from None


def _format_error(expected: str, text: str) -> argparse.ArgumentTypeError:
    """argparse prints this message instead of the parser's function name."""
    return argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="viscoident",
        description=(
            "Hereditary creep/relaxation kernel identification: spline "
            "approximation of kernel samples and weighted-residual "
            "estimation of the intensity and exponent parameters."
        ),
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--mode", choices=RUNNERS)
    p.add_argument("--input", help="kernel samples CSV (t,K; optional header)")
    p.add_argument("--isochrones", help="isochrone matrix CSV")
    p.add_argument("--model-samples",
                   help="independent unit-intensity kernel samples CSV; when "
                        "given, segments are fitted to it instead of to the data")
    p.add_argument("--output", help="report path (identify/table1/validate) "
                                    "or output file prefix (simulate)")
    p.add_argument("--lambda0", type=float, help="initial intensity guess (default 1)")
    p.add_argument("--q0", type=float, help="initial exponent guess (default 1)")
    p.add_argument("--m-range", type=_parse_m_range, metavar="LO:HI|M1,M2,...",
                   help="difference-moment orders scanned (default 2:8)")
    p.add_argument("--gamma", type=float,
                   help="target residual level (cancels from the estimate)")
    p.add_argument("--sigma-over-H", type=float, dest="sigma_over_h",
                   help="stress to modulus ratio entering eta")
    p.add_argument("--strain-levels", type=_parse_levels, metavar="E1,E2,...",
                   help="strain levels for the exponent stage when no "
                        "isochrone file is given")
    p.add_argument("--eval-at-knots", action="store_true",
                   help="evaluate segment terms at the knots instead of "
                        "interval midpoints")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit the timestamp for byte-identical reports")
    p.add_argument("--json", action="store_true", dest="json_output",
                   help="emit the report as JSON")
    sim = p.add_argument_group("simulate mode")
    sim.add_argument("--kind", choices=("creep", "relaxation"))
    sim.add_argument("--alpha", type=float)
    sim.add_argument("--beta", type=float)
    sim.add_argument("--lam", type=float, help="true hereditary intensity")
    sim.add_argument("--H", type=float)
    sim.add_argument("--q", type=float)
    sim.add_argument("--sigma", type=float, help="held stress for creep runs")
    sim.add_argument("--eps", type=float, help="held strain for relaxation runs")
    sim.add_argument("--grid", type=_parse_grid, metavar="START:STOP:N")
    return p


def main(argv=None) -> int:
    cfg = RunConfig(**vars(build_parser().parse_args(argv)))
    try:
        report = run(cfg)
        text = report.to_json() + "\n" if cfg.json_output else report.to_text()
        if cfg.output and cfg.mode != "simulate":
            write_output(cfg.output, text)
        else:
            sys.stdout.write(text)
    except ViscoidentError as exc:
        print(f"error({type(exc).__name__}): {exc}", file=sys.stderr)
        return exc.exit_code
    if cfg.mode == "validate" and report.result.get("failed", "none") != "none":
        return ValidationError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
