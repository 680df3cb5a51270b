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
import dataclasses
import json
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


def _write_out(data, out):
    """Write to the output path (or stdout); returns an exit code."""
    if out:
        try:
            with open(out, "wb") as fh:
                fh.write(data)
        except OSError as exc:
            print(f"error: cannot write {out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        sys.stdout.write(data.decode())
    return EXIT_OK


def _sweep_config(args):
    config = load_config_file(args.config) if args.config else SweepConfig()
    overrides = {}
    if args.theta_list is not None:
        overrides["theta_list_deg"] = tuple(
            float(v) for v in args.theta_list.split(",") if v.strip()
        )
    if args.n is not None:
        overrides["n"] = args.n
    if args.xc is not None:
        overrides["x_c"] = args.xc
    if args.noise is not None:
        overrides["noise_sigma"] = args.noise
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["out"] = args.out
    if args.format is not None:
        overrides["fmt"] = args.format
    return dataclasses.replace(config, **overrides)


def _cmd_run(args):
    try:
        with open(args.circuit, encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        program = parse(source)
        result = compile_program(program).run()
    except (CircuitSyntaxError, CircuitCompileError, QuantumValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = run_sweep(config)
    code = _write_out(emit(report, config.fmt), config.out)
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    doc = {
        "stokes": [stokes.s0, stokes.s1, stokes.s2, stokes.s3],
        "density_matrix": _matrix_to_json(rho.matrix),
    }
    return _write_out((json.dumps(doc, indent=2) + "\n").encode(), args.out)


def _cmd_golden(args):
    try:
        config = _sweep_config(args)
    except (QuantumValueError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if 22.5 not in config.theta_list_deg:
        print("error: golden comparison needs theta_V = 22.5 in the sweep", file=sys.stderr)
        return EXIT_USAGE
    report = run_sweep(config)
    try:
        comparison = compare_golden(report)
    except QuantumValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), help="report format")


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
    p_sweep.set_defaults(func=_cmd_sweep)

    p_tomo = commands.add_parser("tomo", help="reconstruct from an intensity file")
    p_tomo.add_argument("intensities", help="file of 'basis i_alpha i_beta' lines")
    p_tomo.add_argument("--out", help="output path (default stdout)")
    p_tomo.set_defaults(func=_cmd_tomo)

    p_golden = commands.add_parser("golden", help="compare against bundled data")
    _add_sweep_flags(p_golden)
    p_golden.set_defaults(func=_cmd_golden)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
