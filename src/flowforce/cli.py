"""Command-line front door: config files in, CSV/JSON artifacts out.

Subcommands: dispersion | kernel-check | branch | validate | reconstruct.
The config file is a sectioned key-value (INI) file; every section and
key is validated against the schema below and unknown entries are
rejected with their line number.  All numeric output is serialized with
full round-trip precision and no timestamps, so identical configs give
byte-identical artifacts.

Exit codes: 0 success, 2 validation failure (including a non-simple
kernel), 3 convergence failure (partial branch written), 4 config or
input-file error.
"""

import argparse
import configparser
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .continuation import trace_branch
from .dispersion import dispersion_table, kernel_is_simple
from .errors import ConfigError, KernelNotSimple
from .fields import (
    MIN_VALIDATION_ROWS,
    reconstruct,
    surface_curve,
    validate_solution,
)
from .params import PhysicalParams
from .spectral import PeriodicFunction, grid_nodes
from .surface_equation import TrialState

__all__ = ["RunConfig", "load_config", "main"]

_SCHEMA = {
    "physical": (
        "gravity",
        "surface_tension",
        "depth",
        "wavenumber",
        "atmospheric_pressure",
    ),
    "discretization": ("modes", "vertical_points"),
    "continuation": ("amplitude_max", "steps", "tolerance", "max_iterations"),
    "dispersion": ("k_min", "k_max", "k_count"),
    "kernel": ("scan_limit", "tolerance"),
    "output": ("directory",),
}

_ENV_OUT = "FLOWFORCE_OUT"


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters for every subcommand."""

    physical: PhysicalParams
    n_modes: int = 32
    vertical_points: int = 64
    amplitude_max: float = 1e-3
    steps: int = 4
    tolerance: float = 1e-11
    max_iterations: int = 25
    k_min: float = 1.0
    k_max: float = 100.0
    k_count: int = 100
    scan_limit: int = 1000
    scan_tol: float = 1e-10
    out_dir: str = "."


_DEFAULT_PHYSICAL = PhysicalParams(g=9.81, sigma=0.073, h=0.1, k=10.0, p_atm=0.0)


def _locate(path, *tokens, section=None):
    """Best-effort line number of the first config line naming a token
    (only lines under the [section] header count when section is given)."""
    try:
        with open(path, encoding="utf-8") as fh:
            inside = section is None
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if section is not None and stripped.startswith("["):
                    inside = stripped == f"[{section}]"
                if inside and any(stripped.startswith(token) for token in tokens):
                    return lineno
    except OSError:
        pass
    return None


def _reject(path, message, *tokens, section=None):
    lineno = _locate(path, *tokens, section=section)
    where = f"{path}:{lineno}" if lineno else str(path)
    raise ConfigError(f"{where}: {message}")


def _converted(path, section, key, raw, kind):
    try:
        if kind is int:
            return int(raw)
        return float(raw)
    except ValueError:
        _reject(
            path,
            f"value {raw!r} for {section}.{key} is not a valid {kind.__name__}",
            key,
        )


def load_config(path=None):
    """Parse and validate a config file; defaults when path is None."""
    values = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
        for section in parser.sections():
            if section not in _SCHEMA:
                _reject(path, f"unknown section [{section}]", f"[{section}]")
            for key in parser[section]:
                if key not in _SCHEMA[section]:
                    _reject(
                        path,
                        f"unknown key {key!r} in section [{section}]",
                        key,
                    )
                values[(section, key)] = parser[section][key]

    def get(section, key, default, kind=float):
        raw = values.get((section, key))
        if raw is None:
            return default
        if kind is str:
            return raw
        return _converted(path, section, key, raw, kind)

    try:
        physical = PhysicalParams(
            g=get("physical", "gravity", _DEFAULT_PHYSICAL.g),
            sigma=get("physical", "surface_tension", _DEFAULT_PHYSICAL.sigma),
            h=get("physical", "depth", _DEFAULT_PHYSICAL.h),
            k=get("physical", "wavenumber", _DEFAULT_PHYSICAL.k),
            p_atm=get(
                "physical", "atmospheric_pressure", _DEFAULT_PHYSICAL.p_atm
            ),
        )
        config = RunConfig(
            physical=physical,
            n_modes=get("discretization", "modes", 32, int),
            vertical_points=get("discretization", "vertical_points", 64, int),
            amplitude_max=get("continuation", "amplitude_max", 1e-3),
            steps=get("continuation", "steps", 4, int),
            tolerance=get("continuation", "tolerance", 1e-11),
            max_iterations=get("continuation", "max_iterations", 25, int),
            k_min=get("dispersion", "k_min", 1.0),
            k_max=get("dispersion", "k_max", 100.0),
            k_count=get("dispersion", "k_count", 100, int),
            scan_limit=get("kernel", "scan_limit", 1000, int),
            scan_tol=get("kernel", "tolerance", 1e-10),
            out_dir=get("output", "directory", ".", str),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc
    if config.steps < 1:
        _reject(
            path, f"continuation.steps = {config.steps} must be at least 1", "steps"
        )
    if config.n_modes < 1:
        _reject(
            path, f"discretization.modes = {config.n_modes} must be at least 1", "modes"
        )
    for key in ("k_min", "k_max"):
        if not getattr(config, key) > 0.0:
            _reject(
                path, f"dispersion.{key} = {getattr(config, key)} must be positive", key
            )
    if config.k_count < 1:
        _reject(path, f"dispersion.k_count = {config.k_count} must be at least 1", "k_count")
    if config.scan_limit < 2:
        _reject(
            path, f"kernel.scan_limit = {config.scan_limit} must be at least 2", "scan_limit"
        )
    if config.max_iterations < 0:
        _reject(
            path,
            f"continuation.max_iterations = {config.max_iterations} must not be negative",
            "max_iterations",
        )
    if not (math.isfinite(config.tolerance) and config.tolerance > 0.0):
        _reject(
            path,
            f"continuation.tolerance = {config.tolerance} must be positive and finite",
            "tolerance",
            section="continuation",  # [kernel] has a tolerance key too
        )
    if not math.isfinite(config.amplitude_max):
        _reject(
            path, f"continuation.amplitude_max = {config.amplitude_max} must be finite",
            "amplitude_max",
        )
    return config


def _apply_flags(config, args):
    physical = config.physical
    if args.k is not None:
        try:
            physical = physical.replace(k=args.k)
        except ValueError as exc:
            raise ConfigError(f"invalid --k: {exc}") from exc
        config = replace(config, physical=physical)
    if args.s_max is not None:
        if not math.isfinite(args.s_max):
            raise ConfigError(f"--s-max {args.s_max} must be finite")
        config = replace(config, amplitude_max=args.s_max)
    if args.steps is not None:
        if args.steps < 1:
            raise ConfigError("--steps must be at least 1")
        config = replace(config, steps=args.steps)
    if args.n_modes is not None:
        if args.n_modes < 1:
            raise ConfigError("--n-modes must be at least 1")
        config = replace(config, n_modes=args.n_modes)
    out = args.out or os.environ.get(_ENV_OUT) or config.out_dir
    return replace(config, out_dir=out)


def _check_command(config, args):
    """Limits that only the chosen command imposes, as located config errors."""
    rows = {"validate": MIN_VALIDATION_ROWS, "reconstruct": 2}.get(args.command)
    if rows is not None and config.vertical_points < rows:
        _reject(
            args.config,
            f"{args.command} needs discretization.vertical_points >= {rows}, "
            f"got {config.vertical_points}",
            "vertical_points",
        )
    if args.command == "branch":
        # the first predictor amplitude, bounded as in initial_guess
        first = abs(config.amplitude_max) / config.steps
        limit = 0.1 * config.physical.h
        if first > limit:
            message = (
                f"first amplitude step amplitude_max / steps = {first:.3e} exceeds "
                f"the small-amplitude limit 0.1 * depth = {limit:.3e}"
            )
            if args.s_max is not None:
                raise ConfigError(f"--s-max: {message}")
            _reject(args.config, message, "amplitude_max")


def _jsonable(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (np.floating,)):
        return _jsonable(float(value))
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_json(path, payload):
    _write_text(path, json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _fmt(value):
    if type(value) is float:
        return repr(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    return repr(float(value))


def _csv_lines(header, rows):
    lines = [header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _out_path(config, name):
    os.makedirs(config.out_dir, exist_ok=True)
    return os.path.join(config.out_dir, name)


_DISPERSION_HEADER = (
    "k [1/m],lambda_star [m^2/s^2],S0 [m^3/s^2],sqrt_lambda [m/s],"
    "sigma_over_gh2 [-],C [-],kernel_simple [-]"
)


def cmd_dispersion(config):
    k_grid = np.linspace(config.k_min, config.k_max, config.k_count)
    rows = dispersion_table(
        k_grid, config.physical, n_max=config.scan_limit, tol=config.scan_tol
    )
    table = [
        (
            r.k,
            r.onset_speed_sq,
            r.surface_flow_force,
            r.surface_speed,
            r.monotone_ratio,
            r.capillary_constant,
            r.kernel_simple,
        )
        for r in rows
    ]
    _write_text(
        _out_path(config, "dispersion.csv"), _csv_lines(_DISPERSION_HEADER, table)
    )
    return 0


def cmd_kernel_check(config):
    report = kernel_is_simple(
        config.physical.k,
        config.physical,
        n_max=config.scan_limit,
        tol=config.scan_tol,
    )
    payload = {
        "schema": "flowforce/kernel-v1",
        "k": config.physical.k,
        "simple": report.simple,
        "colliding_mode": report.colliding_mode,
        "min_relative_gap": report.min_relative_gap,
        "monotone_criterion": report.monotone_criterion,
        "monotone_ratio": report.monotone_ratio,
        "capillary_constant": report.capillary_constant,
        "scan_limit": report.scan_limit,
        "tol": report.tol,
    }
    _write_json(_out_path(config, "kernel_check.json"), payload)
    return 0 if report.simple else 2


def _branch_payload(branch):
    p = branch.params
    return {
        "schema": "flowforce/branch-v1",
        "params": {
            "g": p.g,
            "sigma": p.sigma,
            "h": p.h,
            "k": p.k,
            "p_atm": p.p_atm,
        },
        "n_modes": branch.n_modes,
        "onset_speed_sq": branch.onset_speed_sq,
        "transversality": branch.transversality,
        "failure": branch.failure,
        "points": [
            {
                "s": pt.amplitude,
                "lambda": pt.speed_sq,
                "mu": pt.bernoulli_shift,
                "residual_norm": pt.residual_norm,
                "newton_iters": pt.newton_iters,
                "cos_coeffs": pt.elevation.cos_coeffs,
            }
            for pt in branch.points
        ],
    }


def _profiles_lines(branch):
    rows = []
    for pt in branch.points:
        curve = surface_curve(pt.elevation, branch.params)
        x = grid_nodes(max(8, 4 * branch.n_modes))
        abscissa = curve.abscissa(x)
        height = curve.height(x)
        rows.extend(
            (pt.amplitude, xi, ai, hi)
            for xi, ai, hi in zip(x, abscissa, height)
        )
    return _csv_lines("s [m],x [rad],X [m],Y [m]", rows)


def cmd_branch(config):
    steps = 1 if config.amplitude_max == 0.0 else config.steps
    branch = trace_branch(
        config.amplitude_max,
        steps,
        config.physical,
        n_modes=config.n_modes,
        tol=config.tolerance,
        max_iter=config.max_iterations,
        scan_limit=config.scan_limit,
        scan_tol=config.scan_tol,
    )
    _write_json(_out_path(config, "branch.json"), _branch_payload(branch))
    _write_text(_out_path(config, "profiles.csv"), _profiles_lines(branch))
    if branch.failure is not None:
        print(f"branch truncated: {branch.failure}", file=sys.stderr)
        return 3
    return 0


def _load_branch(path):
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read branch file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: branch file is not valid JSON "
            f"({exc.msg})"
        ) from exc
    if payload.get("schema") != "flowforce/branch-v1":
        raise ConfigError(f"{path}: unrecognized branch schema {payload.get('schema')!r}")
    try:
        params = PhysicalParams(**payload["params"])
        points = [
            (
                float(rec["s"]),
                TrialState(
                    float(rec["lambda"]),
                    float(rec["mu"]),
                    PeriodicFunction.from_cosines(rec["cos_coeffs"]),
                ),
            )
            for rec in payload["points"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: malformed branch record ({exc})") from exc
    return params, points


def cmd_validate(config, branch_path):
    params, points = _load_branch(branch_path)
    reports = []
    all_passed = True
    for s, state in points:
        field = reconstruct(state, params, n_y=config.vertical_points)
        rep = validate_solution(field, state, params)
        all_passed = all_passed and rep.passed
        reports.append(
            {
                "s": s,
                "passed": rep.passed,
                "failures": list(rep.failures),
                "harmonic_defect": rep.harmonic_defect,
                "harmonic_defect_coarse": rep.harmonic_defect_coarse,
                "harmonic_defect_fine": rep.harmonic_defect_fine,
                "harmonic_ratio": rep.harmonic_ratio,
                "harmonic_order": rep.harmonic_order,
                "surface_trace_defect": rep.surface_trace_defect,
                "bottom_trace_defect": rep.bottom_trace_defect,
                "residual_sup": rep.residual_sup,
                "gauge_defect": rep.gauge_defect,
                "force_balance_coarse": rep.force_balance_coarse,
                "force_balance_fine": rep.force_balance_fine,
                "force_balance_order": rep.force_balance_order,
                "admissible": rep.admissibility.passed,
            }
        )
    payload = {
        "schema": "flowforce/validation-v1",
        "passed": all_passed,
        "points": reports,
    }
    _write_json(_out_path(config, "validation.json"), payload)
    return 0 if all_passed else 2


def cmd_reconstruct(config, branch_path, index):
    params, points = _load_branch(branch_path)
    if not points:
        raise ConfigError(f"{branch_path}: branch file holds no points")
    try:
        s, state = points[index]
    except IndexError:
        raise ConfigError(
            f"point index {index} out of range for {len(points)} points"
        ) from None
    field = reconstruct(state, params, n_y=config.vertical_points)
    n_x, n_rows = field.u.n_x, field.u.n_y + 1
    # one row per grid node, x fastest; tolist() hands _csv_lines Python
    # floats, whose repr is the same as that of the numpy scalars
    rows = np.column_stack(
        [
            np.tile(field.u.x_nodes, n_rows),
            np.repeat(field.u.y_nodes, n_x),
            field.u.values.ravel(),
            field.v.values.ravel(),
            field.harmonic_potential.values.ravel(),
            field.raw_force.values.ravel(),
            field.flow_force.values.ravel(),
        ]
    ).tolist()
    header = (
        "x [rad],y [-],X [m],Y [m],zeta [m^3/s^2],xi [m^3/s^2],S [m^3/s^2]"
    )
    _write_text(_out_path(config, "field.csv"), _csv_lines(header, rows))
    summary = {
        "schema": "flowforce/field-v1",
        "s": s,
        "surface_value": field.surface_value,
        "n_x": field.u.n_x,
        "n_y": field.u.n_y,
    }
    _write_json(_out_path(config, "field.json"), summary)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="flowforce",
        description="Spectral toolkit for steady capillary-gravity water waves "
        "in the flow-force formulation.",
    )
    parser.add_argument("--config", metavar="PATH", help="sectioned key-value config file")
    parser.add_argument("--out", metavar="DIR", help="output directory")
    parser.add_argument("--k", type=float, help="override the wavenumber")
    parser.add_argument("--s-max", type=float, dest="s_max",
                        help="override the maximal branch amplitude")
    parser.add_argument("--steps", type=int, help="override the amplitude step count")
    parser.add_argument("--n-modes", type=int, dest="n_modes",
                        help="override the spectral mode count")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("dispersion", help="tabulate onset values over a wavenumber grid")
    sub.add_parser("kernel-check", help="scan for kernel simplicity at the configured k")
    sub.add_parser("branch", help="trace the small-amplitude branch")
    val = sub.add_parser("validate", help="audit every point of a branch file")
    val.add_argument("branch_file", help="branch JSON produced by the branch command")
    rec = sub.add_parser("reconstruct", help="export the flow-force field of one point")
    rec.add_argument("branch_file", help="branch JSON produced by the branch command")
    rec.add_argument("--index", type=int, default=-1,
                     help="branch point index (default: last)")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = _apply_flags(load_config(args.config), args)
        _check_command(config, args)
        if args.command == "dispersion":
            return cmd_dispersion(config)
        if args.command == "kernel-check":
            return cmd_kernel_check(config)
        if args.command == "branch":
            return cmd_branch(config)
        if args.command == "validate":
            return cmd_validate(config, args.branch_file)
        return cmd_reconstruct(config, args.branch_file, args.index)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except KernelNotSimple as exc:
        print(f"kernel not simple: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
