"""Seeded inputs, per-iteration plans and output checks for the workloads.

A workload is a list of CLI operations run once per iteration, plus
set-up operations run once per benchmark run and never timed.  The seed
jitters the physical parameters inside each workload's band; the mode
count, step count and vertical grid are fixed per workload, so every
seed asks for the same amount of work.  Every operation is expected to
exit 0: a regime the solver cannot trace is a failed operation.
"""

import io
import json
import math
import random
import shutil
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from flowforce.cli import main as flowforce_main
from flowforce.params import PhysicalParams
from flowforce.spectral import PeriodicFunction
from flowforce.surface_equation import TrialState, galerkin_residual

REFERENCE = Path(__file__).resolve().parent / "reference" / "desk-water-seed0-branch.json"
REFERENCE_SEED = 0
REFERENCE_RTOL = 1e-12

WATER = {"g": 9.81, "sigma": 0.073, "h": 0.1, "k": 10.0, "p_atm": 0.0}

# name -> physical parameters; every regime is traced at steepness k*s ~ 0.01
REGIMES = {
    "desk": WATER,
    "ocean": dict(WATER, h=100.0, k=0.01),
    "deep-ocean": dict(WATER, h=1000.0, k=0.01),
    "microcapillary": dict(WATER, h=1e-3, k=1000.0),
    "k300-h1": dict(WATER, h=1.0, k=300.0),
    "pure-capillary": dict(WATER, g=0.0),
    "pure-gravity": dict(WATER, sigma=0.0),
    "p-atm": dict(WATER, p_atm=101325.0),
}

JITTER = 0.02
TOLERANCE = 1e-11


@dataclass(frozen=True)
class Config:
    """A generated INI file and the values the output checks need."""

    path: Path
    modes: int
    steps: int
    vertical_points: int
    k_count: int = 100


@dataclass(frozen=True)
class Op:
    """One CLI command; `reads` names the op whose branch.json it audits."""

    label: str
    command: str
    config: Config
    reads: str | None = None


@dataclass
class Result:
    """Outcome of one operation."""

    label: str
    command: str
    seconds: float
    bytes_written: int = 0
    failure: str | None = None
    wrong_output: bool = False
    residual: float | None = None
    force_balance: float | None = None

    @property
    def ok(self):
        return self.failure is None


@dataclass
class Plan:
    """Configs (for the set-up timing), per-iteration ops and set-up results."""

    configs: list
    ops: list
    setup: list = field(default_factory=list)
    sources: dict = field(default_factory=dict)


def _jittered(rng, params, steepness):
    """Parameters with k and steepness k*s_max drawn within +-JITTER."""
    params = dict(params)
    params["k"] *= 1.0 + rng.uniform(-JITTER, JITTER)
    amplitude = steepness * (1.0 + rng.uniform(-JITTER, JITTER)) / params["k"]
    return params, amplitude


def write_config(path, params, amplitude, modes, steps, vertical_points=64):
    sections = {
        "physical": {
            "gravity": params["g"],
            "surface_tension": params["sigma"],
            "depth": params["h"],
            "wavenumber": params["k"],
            "atmospheric_pressure": params["p_atm"],
        },
        "discretization": {"modes": modes, "vertical_points": vertical_points},
        "continuation": {
            "amplitude_max": amplitude,
            "steps": steps,
            "tolerance": TOLERANCE,
            "max_iterations": 25,
        },
        "dispersion": {"k_min": 1.0, "k_max": 100.0, "k_count": 100},
    }
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {value!r}" for key, value in values.items())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return Config(path, modes, steps, vertical_points)


def _desk_water_config(seed, path):
    rng = random.Random(f"desk-water:{seed}")
    params, amplitude = _jittered(rng, WATER, 0.01)
    return write_config(path, params, amplitude, modes=32, steps=4)


def prepare(workload, seed, workdir):
    """Write the seeded configs and run the untimed set-up operations."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "desk-water":
        cfg = _desk_water_config(seed, workdir / "desk-water.ini")
        ops = [
            Op("dispersion", "dispersion", cfg),
            Op("kernel-check", "kernel-check", cfg),
            Op("branch", "branch", cfg),
            Op("validate", "validate", cfg, reads="branch"),
            Op("reconstruct", "reconstruct", cfg, reads="branch"),
        ]
        plan = Plan([cfg], ops)
        ref_cfg = _desk_water_config(REFERENCE_SEED, workdir / "reference.ini")
        result = run_op(Op("reference", "branch", ref_cfg), workdir / "reference", {})
        if result.ok:
            mismatch = compare_reference(workdir / "reference" / "branch.json")
            if mismatch:
                result.failure, result.wrong_output = mismatch, True
        plan.setup.append(result)
        return plan
    if workload == "fine-branch":
        params, amplitude = _jittered(rng, WATER, 0.04)
        cfg = write_config(workdir / "fine-branch.ini", params, amplitude, modes=128, steps=8)
        return Plan([cfg], [Op("branch", "branch", cfg)])
    if workload == "fine-audit":
        params, amplitude = _jittered(rng, WATER, 0.01)
        cfg = write_config(workdir / "fine-audit.ini", params, amplitude, modes=64, steps=1)
        ops = [
            Op("validate", "validate", cfg, reads="setup-branch"),
            Op("reconstruct", "reconstruct", cfg, reads="setup-branch"),
        ]
        plan = Plan([cfg], ops)
        out = workdir / "setup-branch"
        plan.setup.append(run_op(Op("setup-branch", "branch", cfg), out, {}))
        plan.sources["setup-branch"] = out
        return plan
    if workload == "regime-sweep":
        configs, ops = [], []
        for name, base in REGIMES.items():
            params, amplitude = _jittered(rng, base, 0.01)
            cfg = write_config(workdir / f"{name}.ini", params, amplitude, modes=32, steps=4)
            configs.append(cfg)
            ops.append(Op(f"branch:{name}", "branch", cfg))
        return Plan(configs, ops)
    raise ValueError(f"unknown workload {workload!r}")


def run_iteration(plan, iter_dir, tracer=None):
    """Run every op of the plan once; outputs are removed afterwards."""
    sources = dict(plan.sources)
    results = []
    try:
        for op in plan.ops:
            out = iter_dir / op.label.replace(":", "-")
            results.append(run_op(op, out, sources, tracer))
            sources[op.label] = out
    finally:
        shutil.rmtree(iter_dir, ignore_errors=True)
    return results


def run_op(op, out, sources, tracer=None):
    """Time one CLI command in-process, then check what it wrote."""
    argv = ["--config", str(op.config.path), "--out", str(out), op.command]
    if op.reads is not None:
        argv.append(str(sources[op.reads] / "branch.json"))
    stderr = io.StringIO()
    error = None
    code = None
    start = perf_counter()
    try:
        with redirect_stderr(stderr):
            if tracer is None:
                code = flowforce_main(argv)
            else:
                # installed only around the command, so the checks below
                # (which call into flowforce too) are not traced
                tracer.command += 1
                with tracer:
                    code = tracer.call(f"cli.{op.command}", flowforce_main, argv)
    except Exception as exc:  # a crashing command is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    result = Result(op.label, op.command, seconds)
    if out.is_dir():
        result.bytes_written = sum(p.stat().st_size for p in out.iterdir())
    if error is not None:
        result.failure = error
    elif code != 0:
        last = stderr.getvalue().strip().splitlines()
        result.failure = f"exit {code}" + (f": {last[-1]}" if last else "")
    try:
        _check(op, out, result)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        if result.ok:
            result.failure, result.wrong_output = f"unreadable output: {exc}", True
    return result


def _check(op, out, result):
    """Record accuracy values and flag outputs that are wrong.

    A branch that stopped early still has its converged points checked,
    so a failed regime cannot hide a bad residual.
    """
    problem = None
    if op.command == "branch" and (out / "branch.json").is_file():
        payload = json.loads((out / "branch.json").read_text(encoding="utf-8"))
        result.residual = max_residual(payload)
        if result.residual is not None and result.residual > TOLERANCE:
            problem = f"recomputed residual {result.residual:.3e} above tolerance"
        elif result.ok and len(payload["points"]) != op.config.steps:
            problem = f"{len(payload['points'])} of {op.config.steps} points"
    if not result.ok:
        if problem is not None:
            result.failure += f"; {problem}"
            result.wrong_output = True
        return
    if op.command == "dispersion":
        data = (out / "dispersion.csv").read_bytes()
        if data.count(b"\n") != op.config.k_count + 1 or b"nan" in data:
            problem = "dispersion table malformed"
    elif op.command == "kernel-check":
        if json.loads((out / "kernel_check.json").read_text(encoding="utf-8"))["simple"] is not True:
            problem = "kernel reported not simple"
    elif op.command == "validate":
        payload = json.loads((out / "validation.json").read_text(encoding="utf-8"))
        balances = [pt["force_balance_fine"] for pt in payload["points"]]
        if payload["passed"] is not True or not balances or None in balances:
            problem = "validation did not pass"
        else:
            result.force_balance = max(balances)
    elif op.command == "reconstruct":
        summary = json.loads((out / "field.json").read_text(encoding="utf-8"))
        data = (out / "field.csv").read_bytes()
        rows = (summary["n_y"] + 1) * summary["n_x"] + 1
        if summary["n_y"] != op.config.vertical_points or data.count(b"\n") != rows:
            problem = "field export has the wrong shape"
        elif b"nan" in data or b"inf" in data:
            problem = "field export holds non-finite values"
    if problem is not None:
        result.failure, result.wrong_output = problem, True


def max_residual(payload):
    """Worst sup-norm Galerkin residual over the stored points, or None."""
    params = PhysicalParams(**payload["params"])
    worst = None
    for rec in payload["points"]:
        state = TrialState(
            float(rec["lambda"]), float(rec["mu"]),
            PeriodicFunction.from_cosines(rec["cos_coeffs"]),
        )
        r = galerkin_residual(state, params, n_modes=payload["n_modes"])
        value = float(np.max(np.abs(r)))
        worst = value if worst is None else max(worst, value)
    return worst


def compare_reference(path):
    """Mismatch description against the stored seed-0 branch, or None."""
    got = json.loads(path.read_text(encoding="utf-8"))
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))

    def close(a, b, scale):
        return abs(a - b) <= REFERENCE_RTOL * max(abs(b), scale)

    if (got["n_modes"], got["failure"], len(got["points"])) != (
        ref["n_modes"], ref["failure"], len(ref["points"])
    ):
        return "branch shape differs from the reference"
    for key in ("onset_speed_sq", "transversality"):
        if not close(got[key], ref[key], 0.0):
            return f"{key} differs from the reference"
    for g_pt, r_pt in zip(got["points"], ref["points"]):
        for key in ("s", "lambda", "mu"):
            if not close(g_pt[key], r_pt[key], 0.0):
                return f"{key} differs from the reference at s = {r_pt['s']!r}"
        scale = max(abs(c) for c in r_pt["cos_coeffs"])
        if len(g_pt["cos_coeffs"]) != len(r_pt["cos_coeffs"]) or not all(
            close(a, b, scale) for a, b in zip(g_pt["cos_coeffs"], r_pt["cos_coeffs"])
        ):
            return f"cos_coeffs differ from the reference at s = {r_pt['s']!r}"
    return None


def neglog10(value):
    return -math.log10(max(value, 1e-300))
