"""Command-line front door: config files in, CSV/JSON artifacts out.

Subcommands: dispersion | kernel-check | branch | validate | reconstruct.
The config file is a sectioned key-value (INI) file; every section and
key is validated against the key table below and unknown entries are
rejected with their line number.  All numeric output is serialized with
full round-trip precision and no timestamps, so identical configs give
byte-identical artifacts.  A CSV number is the repr of its float64, run
once per distinct bit pattern of its block and gathered back per cell; the
writer formats and writes one block at a time, a grid row of field.csv or
a branch point of profiles.csv.

Exit codes: 0 success, 2 validation failure (including a non-simple
kernel), 3 convergence failure (partial branch written), 4 config or
input-file error.
"""

import argparse
import configparser
import functools
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass, fields, replace
from itertools import repeat

import numpy as np

from .continuation import small_amplitude_limit, trace_branch
from .dispersion import DispersionRow, _require_simple, dispersion_table, kernel_is_simple
from .errors import (
    ConfigError, FlowForceError, InputFileError, InvalidSamples, KernelNotSimple,
)
from .fields import reconstruct, validate_solution
from .params import PhysicalParams
from .spectral import PeriodicFunction, collocation_size, grid_nodes, strip_nodes
from .surface_equation import TrialState, _surface_abscissa

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
    ("kernel", "tolerance"): ("scan_tol", float, _POSITIVE),
    ("output", "directory"): ("out_dir", str, None),
}


def _reject(path, message, section, key=None):
    """Raise a ConfigError naming the first line under [section] that sets
    key, read as configparser reads it (the text before the first = or :,
    stripped and lowercased), or the [section] header when key is None."""
    where = str(path)
    try:
        with open(path, encoding="utf-8") as fh:
            inside = False
            for lineno, line in enumerate(fh, start=1):
                stripped = line.strip()
                if stripped.startswith("["):
                    inside = stripped == f"[{section}]"
                    found = inside and key is None
                else:
                    name = re.split("[=:]", stripped, maxsplit=1)[0]
                    found = inside and name.strip().lower() == key
                if found:
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
        # no section is special: [DEFAULT] is an unknown section like any other
        parser = configparser.ConfigParser(interpolation=None, default_section="")
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
                _reject(path, f"unknown section [{section}]", section)
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
    if args.command == "reconstruct" and config.vertical_points < 2:
        _reject(
            args.config,
            "reconstruct needs discretization.vertical_points >= 2, "
            f"got {config.vertical_points}",
            "discretization", "vertical_points",
        )
    if args.command == "branch":
        # the first predictor amplitude, bounded as in initial_guess
        first = abs(config.amplitude_max) / config.steps
        limit = small_amplitude_limit(config.physical)
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


def _create(path):
    """Open an output file for writing, making its directory first; a
    location that cannot be created or written is a config error."""
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write output to {exc.filename!r}: {exc.strerror}") from exc


def _write_json(path, payload):
    with _create(path) as fh:
        fh.write(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")


def _cell_texts(values):
    """The repr of each float64 of an array, as nested lists in its shape: run
    once per distinct int64 view (bits, so -0.0 keeps its sign) and gathered
    back through np.unique's inverse, reshaped since numpy 1.x returns it flat."""
    bits = np.asarray(values, dtype=float).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array([repr(v) for v in distinct.view(float).tolist()], dtype=object)
    return text[inverse.reshape(bits.shape)].tolist()


def _write_csv(path, header, blocks):
    """Write a header line, then each block's lines in one write per block.

    A block is a list of equal-length columns: bool arrays, written as
    true/false; float arrays, formatted by one _cell_texts pass over all of
    the block's float cells; or cell texts, such as an axis column formatted
    once for the whole file.  Only formatting happens here, so the caller
    computes every number first."""
    with _create(path) as fh:
        fh.write(header + "\n")
        for block in blocks:
            arrays = [c for c in block if isinstance(c, np.ndarray)]
            texts = iter(_cell_texts([c for c in arrays if c.dtype != bool]))
            columns = [
                c if not isinstance(c, np.ndarray)
                else np.where(c, "true", "false").tolist() if c.dtype == bool
                else next(texts)
                for c in block
            ]
            fh.write("\n".join([*map(",".join, zip(*columns)), ""]))


def _out_path(config, name):
    return os.path.join(config.out_dir, name)


_DISPERSION_HEADER = (
    "k [1/m],lambda_star [m^2/s^2],S0 [m^3/s^2],sqrt_lambda [m/s],"
    "sigma_over_gh2 [-],C [-],kernel_simple [-]"
)


def cmd_dispersion(config):
    k_grid = np.linspace(config.k_min, config.k_max, config.k_count)
    rows = dispersion_table(k_grid, config.physical, tol=config.scan_tol)
    columns = [np.array([getattr(r, f.name) for r in rows]) for f in fields(DispersionRow)]
    _write_csv(_out_path(config, "dispersion.csv"), _DISPERSION_HEADER, [columns])
    return 0


def cmd_kernel_check(config):
    report = kernel_is_simple(config.physical.k, config.physical, tol=config.scan_tol)
    payload = {"schema": "flowforce/kernel-v1", "k": config.physical.k, **asdict(report)}
    _write_json(_out_path(config, "kernel_check.json"), payload)
    _require_simple(report, config.physical.k)
    return 0


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


def _write_profiles(path, branch):
    """Each point's (X, Y) = (x/k + C(w), depth + w), sampled as the solver samples
    it, one block per point; unchecked: each point passed the admissibility gate
    when it converged."""
    p, m = branch.params, collocation_size(branch.n_modes)
    stacked = [pt.elevation.cos_coeffs for pt in branch.points]
    coeffs = np.reshape(stacked, (-1, branch.n_modes + 1))  # (0, N + 1) with no points
    heights = [p.h + pt.elevation.samples(m) for pt in branch.points]
    abscissa = _surface_abscissa(coeffs, p, m)
    s = _cell_texts([pt.amplitude for pt in branch.points])
    x = _cell_texts(grid_nodes(m))
    blocks = ([repeat(s[i], m), x, abscissa[i], heights[i]] for i in range(len(s)))
    _write_csv(path, "s [m],x [rad],X [m],Y [m]", blocks)


def cmd_branch(config):
    steps = 1 if config.amplitude_max == 0.0 else config.steps
    branch = trace_branch(
        config.amplitude_max, steps, config.physical, n_modes=config.n_modes,
        tol=config.tolerance, max_iter=config.max_iterations, scan_tol=config.scan_tol,
    )
    _write_json(_out_path(config, "branch.json"), _branch_payload(branch))
    _write_profiles(_out_path(config, "profiles.csv"), branch)
    if branch.failure is not None:
        print(f"branch truncated: {branch.failure}", file=sys.stderr)
        return 3
    return 0


def _entry(container, key, kind):
    """container[key] as a JSON object (dict), array (list) or finite number
    (float; a string or a boolean is none); a ValueError naming the key otherwise."""
    nouns = {dict: "an object", list: "an array", float: "a finite number"}
    label = f"key {key!r}" if isinstance(key, str) else f"entry {key}"
    if isinstance(key, str) and key not in container:
        raise ValueError(f"missing {label}")
    value = container[key]
    if kind is float and type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return float(value)  # not NaN, not inf, not an int too large for a float
    if kind is not float and isinstance(value, kind):
        return value
    got = nouns[type(value)] if isinstance(value, (dict, list)) else json.dumps(value)
    raise ValueError(f"{label}: expected {nouns[kind]}, got {got}")


def _load_branch(path):
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InputFileError(f"cannot read branch file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFileError(
            f"{path}:{exc.lineno}:{exc.colno}: branch file is not valid JSON "
            f"({exc.msg})"
        ) from exc
    if not isinstance(payload, dict):
        raise InputFileError(f"{path}: branch file does not hold a JSON object")
    if payload.get("schema") != "flowforce/branch-v1":
        raise InputFileError(f"{path}: unrecognized branch schema {payload.get('schema')!r}")
    where, points = "", []  # where: the record being read, named by any error
    try:
        values, records = _entry(payload, "params", dict), _entry(payload, "points", list)
        where = "params: "
        params = PhysicalParams(**{key: _entry(values, key, float) for key in values})
        for index in range(len(records)):
            where = "key 'points': "
            record = _entry(records, index, dict)
            where = f"point {index}: "
            s, lam, mu = (_entry(record, key, float) for key in ("s", "lambda", "mu"))
            coeffs = _entry(record, "cos_coeffs", list)
            where += "key 'cos_coeffs': "
            coeffs = [_entry(coeffs, j, float) for j in range(len(coeffs))]
            points.append((s, TrialState(lam, mu, PeriodicFunction.from_cosines(coeffs))))
    except (TypeError, ValueError, InvalidSamples) as exc:
        raise InputFileError(f"{path}: malformed branch record: {where}{exc}") from exc
    if not points:
        raise InputFileError(f"{path}: branch file holds no points")
    return params, points


def _point_error(branch_path, index, s, exc):
    """An input-file error for a stored point the toolkit cannot audit or
    allocate for."""
    return InputFileError(f"{branch_path}: point {index} at s = {s!r}: {exc}")


def cmd_validate(config, branch_path):
    params, points = _load_branch(branch_path)
    reports = []
    for index, (s, state) in enumerate(points):
        try:
            rep = validate_solution(state, params)
        except (FlowForceError, MemoryError) as exc:
            raise _point_error(branch_path, index, s, exc) from exc
        if not rep.passed:
            failures = "; ".join(rep.failures)
            print(f"validation failed: point {index} at s = {s!r}: {failures}", file=sys.stderr)
        # a report's admissibility always passed: the gate raises otherwise
        values = {f.name: getattr(rep, f.name) for f in fields(rep) if f.name != "admissibility"}
        reports.append({"s": s, **values})
    passed = all(record["passed"] for record in reports)
    payload = {"schema": "flowforce/validation-v3", "passed": passed, "points": reports}
    _write_json(_out_path(config, "validation.json"), payload)
    return 0 if passed else 2


def cmd_reconstruct(config, branch_path, index):
    params, points = _load_branch(branch_path)
    try:
        index = range(len(points))[index]
    except IndexError:
        raise ConfigError(
            f"point index {index} out of range for {len(points)} points"
        ) from None
    s, state = points[index]
    try:
        field = reconstruct(state, params, n_y=config.vertical_points)
    except (FlowForceError, MemoryError) as exc:
        raise _point_error(branch_path, index, s, exc) from exc
    n_rows, n_x = field.u.shape
    # one line per grid node, x fastest, from the bed up: one block per row
    grids = (field.u, field.v, field.harmonic_potential, field.raw_force, field.flow_force)
    x = _cell_texts(grid_nodes(n_x))
    y = _cell_texts(strip_nodes(n_rows - 1, params.strip_depth))
    blocks = ([x, repeat(y[j], n_x), *(grid[j] for grid in grids)] for j in range(n_rows))
    header = "x [rad],y [-],X [m],Y [m],zeta [m^3/s^2],xi [m^3/s^2],S [m^3/s^2]"
    _write_csv(_out_path(config, "field.csv"), header, blocks)
    summary = {
        "schema": "flowforce/field-v1",
        "s": s,
        "surface_value": field.surface_value,
        "n_x": n_x,
        "n_y": n_rows - 1,
    }
    _write_json(_out_path(config, "field.json"), summary)
    return 0


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are config errors (exit 4)."""

    def error(self, message):
        raise ConfigError(message)


@functools.cache
def _build_parser():
    parser = _Parser(
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
    sub.add_parser("kernel-check", help="decide kernel simplicity at the configured k")
    sub.add_parser("branch", help="trace the small-amplitude branch")
    val = sub.add_parser("validate", help="audit every point of a branch file")
    val.add_argument("branch_file", help="branch JSON produced by the branch command")
    rec = sub.add_parser("reconstruct", help="export the flow-force field of one point")
    rec.add_argument("branch_file", help="branch JSON produced by the branch command")
    rec.add_argument("--index", type=int, default=-1,
                     help="branch point index (default: last)")
    return parser


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
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
    except InputFileError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, MemoryError) as exc:
        # a config value too large to allocate for (a k_count or grid size)
        print(f"config error: {exc}", file=sys.stderr)
        return 4
    except KernelNotSimple as exc:
        print(f"kernel not simple: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
