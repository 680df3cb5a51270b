"""Command-line interface.

Subcommands:

    run FILE      execute a .otto circuit file, print/write tap snapshots
    sweep         run the theta_V sweep and emit the CSV/JSON report
    tomo FILE     reconstruct a state from an intensity file
    golden        compare the 22.5 deg cycle against the bundled matrices

Exit codes: 0 on success, 1 on comparison/sweep failure, 2 on config or
parse errors.
"""

import argparse
import functools
import json
import os
import stat
import sys

from . import __version__
from .circuit import (
    CircuitCompileError,
    CircuitSyntaxError,
    compile_program,
    parse,
)
from .qcore import QuantumValueError
from .runner import (
    SweepConfig,
    _matrix_to_json,
    _theta_list,
    compare_golden,
    emit,
    load_config_file,
    run_sweep,
)
from .tomography import (
    read_intensity_file,
    reconstruct,
    stokes_from_intensities,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _usage_error(message):
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _write_out(data, out):
    """Write to the output path (or stdout); returns an exit code."""
    if out:
        try:  # over the old bytes, then cut: truncating first makes ext4 flush on close
            with open(os.open(out, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
                fh.write(data)
                if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):  # not /dev/null, a FIFO or a tty
                    fh.truncate()
        except OSError as exc:
            return _usage_error(f"cannot write {out}: {exc}")
    else:
        sys.stdout.write(data.decode())
    return EXIT_OK


# sweep option -> SweepConfig field it overrides (--theta-list is parsed apart); golden writes
# no report, so it takes neither --out nor --format, nor their config keys
_OVERRIDES = {"n": "n", "xc": "x_c", "noise": "noise_sigma", "seed": "seed", "out": "out",
              "format": "fmt"}


def _sweep_config(args, unused=()):
    overrides = {field: getattr(args, option, None) for option, field in _OVERRIDES.items()
                 if getattr(args, option, None) is not None}
    if args.theta_list is not None:
        overrides["theta_list_deg"] = _theta_list(args.theta_list)
    if args.config:
        return load_config_file(args.config, unused, **overrides)
    return SweepConfig(**overrides)


def _cmd_run(args):
    try:
        with open(args.circuit, encoding="utf-8", errors="replace") as fh:
            source = fh.read()
    except OSError as exc:
        return _usage_error(exc)
    try:
        program = parse(source)
        result = compile_program(program).run()
    except (CircuitSyntaxError, CircuitCompileError, QuantumValueError) as exc:
        return _usage_error(exc)
    doc = {
        "snapshots": {
            label: _matrix_to_json(state.matrix)
            for label, state in result.snapshots.items()
        },
        "final": _matrix_to_json(result.final.matrix) if result.final else None,
    }
    return _write_out((json.dumps(doc, indent=2) + "\n").encode(), args.out)


def _cmd_sweep(args):
    try:
        config = _sweep_config(args)
    except (QuantumValueError, OSError, ValueError) as exc:
        return _usage_error(exc)
    report = run_sweep(config)
    try:
        code = _write_out(emit(report, config.fmt), config.out)
    except QuantumValueError as exc:  # rows that one JSON key cannot hold apart
        return _usage_error(exc)
    if code != EXIT_OK:
        return code
    if report.failures:
        for theta, message in report.failures.items():
            print(f"FAILED theta_V={theta}: {message}", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _cmd_tomo(args):
    try:
        records = read_intensity_file(args.intensities)
        stokes = stokes_from_intensities(records)
        rho = reconstruct(stokes)
    except (QuantumValueError, OSError) as exc:
        return _usage_error(exc)
    doc = {
        "stokes": [stokes.s0, stokes.s1, stokes.s2, stokes.s3],
        "density_matrix": _matrix_to_json(rho.matrix),
    }
    return _write_out((json.dumps(doc, indent=2) + "\n").encode(), args.out)


def _cmd_golden(args):
    try:
        config = _sweep_config(args, unused=("out", "fmt"))
    except (QuantumValueError, OSError, ValueError) as exc:
        return _usage_error(exc)
    if 22.5 not in config.theta_list_deg:
        return _usage_error("golden comparison needs theta_V = 22.5 in the sweep")
    report = run_sweep(config)
    try:
        comparison = compare_golden(report)
    except QuantumValueError as exc:
        return _usage_error(exc)
    # the gate reads the sqrt-Uhlmann fidelity; the squared one is for reference
    for label in sorted(comparison.fidelities):
        print(
            f"{label}: fidelity {comparison.fidelities[label]:.6f} "
            f"(squared {comparison.fidelities_squared[label]:.6f})  "
            f"max entry delta {comparison.max_entry_deltas[label]:.6f}"
        )
    print(
        f"hot-stroke coherence: simulated {comparison.offdiag_simulated:.5f} "
        f"vs measured {comparison.offdiag_golden:.5f}"
    )
    print("PASS" if comparison.passed else "FAIL")
    return EXIT_OK if comparison.passed else EXIT_FAIL


def _add_sweep_flags(sub):
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--theta-list", help="comma-separated theta_V values in degrees")
    sub.add_argument("--n", type=float, help="gap ratio omega_fin/omega_ini")
    sub.add_argument("--xc", type=float, help="cold-bath scale x_c = hbar omega0 beta_c")
    sub.add_argument("--noise", type=float, help="relative tomography noise sigma")
    sub.add_argument("--seed", type=int, help="noise generator seed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ottosim",
        description="All-optical quantum Otto engine simulator",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p_run = commands.add_parser("run", help="execute a circuit file")
    p_run.add_argument("circuit", help=".otto circuit file")
    p_run.add_argument("--out", help="output path (default stdout)")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = commands.add_parser("sweep", help="run the theta_V sweep")
    _add_sweep_flags(p_sweep)
    p_sweep.add_argument("--out", help="output path (default stdout)")
    p_sweep.add_argument("--format", choices=("csv", "json"), help="report format")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_tomo = commands.add_parser("tomo", help="reconstruct from an intensity file")
    p_tomo.add_argument("intensities", help="file of 'basis i_alpha i_beta' lines")
    p_tomo.add_argument("--out", help="output path (default stdout)")
    p_tomo.set_defaults(func=_cmd_tomo)

    p_golden = commands.add_parser("golden", help="compare against bundled data")
    _add_sweep_flags(p_golden)
    p_golden.set_defaults(func=_cmd_golden)
    return parser


@functools.cache
def _parser():
    # parsing leaves the parser unchanged, so main builds it once
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
