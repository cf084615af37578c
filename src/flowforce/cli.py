"""Command-line front door: config files in, CSV/JSON artifacts out.

Subcommands: dispersion | kernel-check | branch | validate | reconstruct.
The config file is a sectioned key-value (INI) file; every section and
key is validated against the key table below and unknown entries are
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
from dataclasses import asdict, astuple, dataclass, replace

import numpy as np

from .continuation import trace_branch
from .dispersion import dispersion_table, kernel_is_simple
from .errors import ConfigError, FlowForceError, KernelNotSimple
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


def _at_least(low):
    return (lambda value: value >= low), f"must be at least {low}"


_FINITE = (math.isfinite, "must be finite")
_POSITIVE = (
    lambda value: math.isfinite(value) and value > 0.0,
    "must be positive and finite",
)

# (section, key) -> (field, type, bound); [physical] keys name PhysicalParams
# fields, which PhysicalParams bounds itself, and the rest RunConfig fields
_KEYS = {
    ("physical", "gravity"): ("g", float, None),
    ("physical", "surface_tension"): ("sigma", float, None),
    ("physical", "depth"): ("h", float, None),
    ("physical", "wavenumber"): ("k", float, None),
    ("physical", "atmospheric_pressure"): ("p_atm", float, None),
    ("discretization", "modes"): ("n_modes", int, _at_least(1)),
    ("discretization", "vertical_points"): ("vertical_points", int, None),
    ("continuation", "amplitude_max"): ("amplitude_max", float, _FINITE),
    ("continuation", "steps"): ("steps", int, _at_least(1)),
    ("continuation", "tolerance"): ("tolerance", float, _POSITIVE),
    ("continuation", "max_iterations"): ("max_iterations", int, _at_least(0)),
    ("dispersion", "k_min"): ("k_min", float, _POSITIVE),
    ("dispersion", "k_max"): ("k_max", float, _POSITIVE),
    ("dispersion", "k_count"): ("k_count", int, _at_least(1)),
    ("kernel", "scan_limit"): ("scan_limit", int, _at_least(2)),
    ("kernel", "tolerance"): ("scan_tol", float, _POSITIVE),
    ("output", "directory"): ("out_dir", str, None),
}


def _reject(path, message, section, token):
    """Raise a ConfigError naming the first line under [section] that starts
    with token (the header itself when token is "[section]"), if any."""
    where = str(path)
    try:
        with open(path, encoding="utf-8") as fh:
            inside = False
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if stripped.startswith("["):
                    inside = stripped == f"[{section}]"
                if inside and stripped.startswith(token):
                    where = f"{path}:{lineno}"
                    break
    except OSError:
        pass
    raise ConfigError(f"{where}: {message}")


def _bound_error(value, bound, name):
    """The message for a value that breaks its key's bound, else None."""
    if bound is not None and not bound[0](value):
        return f"{name} = {value} {bound[1]}"
    return None


def load_config(path=None):
    """Parse and validate a config file; defaults when path is None."""
    physical, run = {}, {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            with open(path, encoding="utf-8") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
        sections = {section for section, _ in _KEYS}
        for section in parser.sections():
            if section not in sections:
                _reject(path, f"unknown section [{section}]", section, f"[{section}]")
            for key, raw in parser[section].items():
                name = f"{section}.{key}"
                if (section, key) not in _KEYS:
                    _reject(path, f"unknown key {key!r} in section [{section}]", section, key)
                field, kind, bound = _KEYS[section, key]
                try:
                    value = kind(raw)
                except ValueError:
                    error = f"value {raw!r} for {name} is not a valid {kind.__name__}"
                else:
                    error = _bound_error(value, bound, name)
                if error:
                    _reject(path, error, section, key)
                (physical if section == "physical" else run)[field] = value
    try:
        return RunConfig(_DEFAULT_PHYSICAL.replace(**physical), **run)
    except ValueError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from exc


# flag destination -> the config key whose field and bound it overrides
_FLAG_KEYS = {
    "s_max": ("continuation", "amplitude_max"),
    "steps": ("continuation", "steps"),
    "n_modes": ("discretization", "modes"),
}


def _apply_flags(config, args):
    if args.k is not None:
        try:
            physical = config.physical.replace(k=args.k)
        except ValueError as exc:
            raise ConfigError(f"invalid --k: {exc}") from exc
        config = replace(config, physical=physical)
    for dest, entry in _FLAG_KEYS.items():
        value = getattr(args, dest)
        if value is not None:
            field, _, bound = _KEYS[entry]
            error = _bound_error(value, bound, "--" + dest.replace("_", "-"))
            if error:
                raise ConfigError(error)
            config = replace(config, **{field: value})
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
            "discretization",
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
            _reject(args.config, message, "continuation", "amplitude_max")


def _jsonable(value):
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, np.floating):
        return _jsonable(float(value))
    if isinstance(value, np.integer):
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
    table = [astuple(r) for r in rows]
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
    payload = {"schema": "flowforce/kernel-v1", "k": config.physical.k, **asdict(report)}
    _write_json(_out_path(config, "kernel_check.json"), payload)
    return 0 if report.simple else 2


def _branch_payload(branch):
    return {
        "schema": "flowforce/branch-v1",
        "params": asdict(branch.params),
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


def _point_error(branch_path, index, s, exc):
    """An input-file error for a stored point the toolkit cannot audit."""
    return ConfigError(f"{branch_path}: point {index} at s = {s!r}: {exc}")


def cmd_validate(config, branch_path):
    params, points = _load_branch(branch_path)
    reports = []
    all_passed = True
    for index, (s, state) in enumerate(points):
        try:
            field = reconstruct(state, params, n_y=config.vertical_points)
            rep = validate_solution(field, state, params)
        except FlowForceError as exc:
            raise _point_error(branch_path, index, s, exc) from exc
        all_passed = all_passed and rep.passed
        record = {"s": s, **asdict(rep)}
        record["admissible"] = record.pop("admissibility")["passed"]
        reports.append(record)
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
        index = range(len(points))[index]
    except IndexError:
        raise ConfigError(
            f"point index {index} out of range for {len(points)} points"
        ) from None
    s, state = points[index]
    try:
        field = reconstruct(state, params, n_y=config.vertical_points)
    except FlowForceError as exc:
        raise _point_error(branch_path, index, s, exc) from exc
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
