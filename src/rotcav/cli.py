"""Command-line interface.

Subcommands: point, sweep, figure, eigen, optimal-g, fizeau.  All model
parameters are in units of kappa1 (which is pinned to 1 and not a
flag); SI quantities enter only through `fizeau`, which converts a
rotation rate to a Fizeau shift in rad/s and, given kappa1 in rad/s,
to simulation units.

Exit codes: 0 success, 1 invalid arguments or configuration, 2 solver
failure at any grid point (partial results are still written, with the
affected rows flagged).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from .hamiltonian import (
    DriveDirection,
    FizeauParams,
    SystemParams,
    build_h_lab,
    eigenlevels,
    finite_float,
    fizeau_shift,
    optimal_g,
)
from .fock import build_basis
from .dynamics import SteadyStateError
from .sweep import (
    DEFAULT_CUTOFFS,
    DEFAULT_FIXED,
    OUTPUT_NAMES,
    PRESET_NAMES,
    STATUS_OK,
    STATUS_VACUUM,
    SWEEPABLE,
    SweepAxis,
    SweepSpec,
    _integer,
    emit,
    figure_preset,
    max_rel_change,
    render,
    run_point,
    run_sweep,
    spec_from_dict,
)


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad arguments; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


_PARAM_HELP = {
    "delta": "pump detuning",
    "g": "mode hopping interaction",
    "kappa2": "second-harmonic loss rate",
    "drive_strength": "pump amplitude F",
    "delta_f": "signed Fizeau shift (< 0: right port)",
}


# fizeau's flags: flag, FizeauParams field (whose default the flag takes), help.
_FIZEAU_FLAGS = (
    ("--n", "n", "refractive index"),
    ("--radius", "r", "cavity radius, m"),
    ("--omega-rot", "omega_rot", "rotation rate, rad/s"),
    ("--wavelength", "wavelength", "pump wavelength, m"),
    ("--dn-dlambda", "dn_dlambda", "dispersion, 1/m"),
    ("--omega1", "omega1", "mode frequency (default 2 pi c / wavelength)"),
)


def _add_param_flags(parser: argparse.ArgumentParser, names=SWEEPABLE) -> None:
    for name in names:
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, type=float, default=None, help=_PARAM_HELP[name])


def _add_cutoff_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--na-cut", type=int, default=None, help="fundamental-mode cutoff")
    parser.add_argument("--nb-cut", type=int, default=None, help="second-harmonic cutoff")


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    _add_cutoff_flags(parser)
    parser.add_argument(
        "--convergence-check",
        action="store_true",
        default=None,
        help="re-run at doubled cutoffs and report the worst relative change",
    )


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output file (default: stdout)")
    parser.add_argument("--format", choices=["csv", "json"], default="csv")


def _params_from_args(args, base: SystemParams = DEFAULT_FIXED) -> SystemParams:
    """`base` with every parameter flag the user set.

    The parameter flags are the sweepable fields; each subcommand
    defines a subset of them.
    """
    changes = {
        name: getattr(args, name)
        for name in SWEEPABLE
        if getattr(args, name, None) is not None
    }
    return dataclasses.replace(base, **changes)


def _cutoffs_from_args(args, default=DEFAULT_CUTOFFS) -> tuple[int, int]:
    return (
        args.na_cut if args.na_cut is not None else default[0],
        args.nb_cut if args.nb_cut is not None else default[1],
    )


def _parse_axis(text: str) -> SweepAxis:
    """An axis name:start:stop:count, whose count is checked as a config
    axis's (a whole number such as 4.0 is accepted); an error names the
    field it rejects."""
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"axis must be name:start:stop:count, got '{text}'")
    numbers = []
    for key, part in zip(("start", "stop", "count"), parts[1:]):
        try:
            numbers.append(float(part))
        except ValueError:
            raise ValueError(f"axis {key} must be a number, got {part!r}") from None
    start, stop, count = numbers
    return SweepAxis(parts[0], start, stop, _integer(count, "count"))


def _fmt(value) -> str:
    return "undefined" if value is None else f"{value:.12g}"


def _fmt_change(value) -> str:
    return "undefined" if value is None else f"{value:.3e}"


def _cmd_point(args) -> int:
    params = _params_from_args(args)
    cutoffs = _cutoffs_from_args(args)
    stats = run_point(params, cutoffs)
    status = STATUS_VACUUM if stats.vacuum_undefined else STATUS_OK
    outputs = {name: getattr(stats, name) for name in ("n_a", "n_b", "g2_aa", "g2_bb")}
    for name, value in outputs.items():
        print(f"{name:<6} = {_fmt(value)}")
    print(f"status = {status}")
    # Written before the doubled-cutoff solve, whose failure keeps the result.
    if args.out:
        payload = {
            "params": dataclasses.asdict(params),
            "cutoffs": list(cutoffs),
            "outputs": outputs,
            "status": status,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    if args.convergence_check:
        fine = run_point(params, (2 * cutoffs[0], 2 * cutoffs[1]))
        for name in OUTPUT_NAMES:
            change = max_rel_change([(outputs[name], getattr(fine, name))])
            print(f"convergence {name}: rel change {_fmt_change(change)}")
    return 0


def _emit_result(result, args) -> int:
    if args.out:
        emit(result, args.format, args.out)
    else:
        sys.stdout.write(render(result, args.format))
    for row in result.rows:
        if row.error is not None:
            print(f"solver failure: {row.error}", file=sys.stderr)
    if result.convergence is not None:
        for name, change in result.convergence.items():
            print(f"convergence {name}: max rel change {_fmt_change(change)}", file=sys.stderr)
    if result.convergence_failures:
        count = result.convergence_failures
        print(f"solver failure at {count} point(s) at doubled cutoffs", file=sys.stderr)
    return 2 if result.any_failure or result.convergence_failures else 0


def _cmd_sweep(args) -> int:
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            config = spec_from_dict(json.load(handle))
    elif not args.axis1:
        raise ValueError("sweep needs --axis1 or --config")
    axis1 = _parse_axis(args.axis1) if args.axis1 else config.axis1
    spec = config if args.config else SweepSpec(axis1=axis1)

    # flags override config fields
    spec = dataclasses.replace(
        spec,
        axis1=axis1,
        axis2=_parse_axis(args.axis2) if args.axis2 else spec.axis2,
        fixed=_params_from_args(args, spec.fixed),
        outputs=tuple(args.outputs.split(",")) if args.outputs else spec.outputs,
        cutoffs=_cutoffs_from_args(args, spec.cutoffs),
        convergence_check=args.convergence_check or spec.convergence_check,
    )
    return _emit_result(run_sweep(spec), args)


def _cmd_figure(args) -> int:
    spec = figure_preset(args.name, count1=args.count1, count2=args.count2)
    spec = dataclasses.replace(
        spec,
        cutoffs=_cutoffs_from_args(args, spec.cutoffs),
        convergence_check=bool(args.convergence_check),
    )
    return _emit_result(run_sweep(spec), args)


def _cmd_eigen(args) -> int:
    basis = build_basis(*_cutoffs_from_args(args))
    levels = eigenlevels(build_h_lab(args.omega1, _params_from_args(args), basis), args.k)
    for energy in levels.energies:
        print(f"{energy:.12g}")
    return 0


def _cmd_optimal_g(args) -> int:
    p = _params_from_args(args)
    print(f"{optimal_g(p.kappa1, p.kappa2, p.drive_strength):.12g}")
    return 0


def _cmd_fizeau(args) -> int:
    kappa1_si = args.kappa1_si
    if kappa1_si is not None and not (math.isfinite(kappa1_si) and kappa1_si > 0):
        raise ValueError(f"--kappa1-si must be finite and positive, got {kappa1_si}")
    fp = FizeauParams(**{field: getattr(args, field) for _, field, _ in _FIZEAU_FLAGS})
    direction = DriveDirection(args.direction) if args.direction else DriveDirection.LEFT
    shift = fizeau_shift(fp, direction)
    lines = [f"fizeau_shift_rad_s = {shift:.12g}"]
    if kappa1_si is not None:
        named = f"fizeau_shift_kappa1 at {shift} rad/s, --kappa1-si {kappa1_si}"
        in_kappa1 = finite_float(shift / kappa1_si, named)
        lines.append(f"fizeau_shift_kappa1 = {in_kappa1:.12g}")
    print("\n".join(lines))  # nothing is printed before every line is checked
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rotcav",
        description="Steady-state photon statistics of a rotating two-mode chi(2) cavity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_point = sub.add_parser("point", help="evaluate one parameter point")
    _add_param_flags(p_point)
    _add_grid_flags(p_point)
    p_point.add_argument("--out", default=None, help="also save the result as JSON")
    p_point.set_defaults(func=_cmd_point)

    p_sweep = sub.add_parser("sweep", help="sweep one or two parameters")
    p_sweep.add_argument("--axis1", help="swept axis as name:start:stop:count")
    p_sweep.add_argument("--axis2", help="optional second axis, same syntax")
    p_sweep.add_argument("--outputs", help="comma-separated subset of g2_aa,g2_bb,n_a,n_b")
    p_sweep.add_argument("--config", help="JSON sweep specification (flags override)")
    _add_param_flags(p_sweep)
    _add_grid_flags(p_sweep)
    _add_output_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="run a preset reproducing a result figure")
    p_fig.add_argument("--name", required=True, choices=list(PRESET_NAMES))
    p_fig.add_argument("--count1", type=int, default=None, help="override axis1 resolution")
    p_fig.add_argument("--count2", type=int, default=None, help="override axis2 resolution")
    _add_grid_flags(p_fig)
    _add_output_flags(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_eig = sub.add_parser("eigen", help="lowest lab-frame eigenvalues")
    p_eig.add_argument("--omega1", type=float, required=True, help="fundamental frequency")
    p_eig.add_argument("--k", type=int, default=4, help="number of levels")
    _add_param_flags(p_eig, ("g", "delta_f"))
    _add_cutoff_flags(p_eig)
    p_eig.set_defaults(func=_cmd_eigen)

    p_opt = sub.add_parser("optimal-g", help="closed-form interference-optimal hopping")
    _add_param_flags(p_opt, ("kappa2", "drive_strength"))
    p_opt.set_defaults(func=_cmd_optimal_g)

    p_fiz = sub.add_parser("fizeau", help="SI Fizeau shift of the fundamental mode")
    for flag, field, text in _FIZEAU_FLAGS:
        default = getattr(FizeauParams, field)
        p_fiz.add_argument(flag, dest=field, type=float, default=default, help=text)
    p_fiz.add_argument("--direction", choices=["left", "right"], default=None)
    p_fiz.add_argument(
        "--kappa1-si", type=float, default=None, help="kappa1 in rad/s, to express the shift in kappa1 units"
    )
    p_fiz.set_defaults(func=_cmd_fizeau)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SteadyStateError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
