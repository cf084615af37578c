"""End-to-end exercises of the command-line interface.

Every test drives main() in process and inspects the files it writes;
serialization is full precision, so parse-back comparisons are exact.
"""

import filecmp
import json
import math
import os
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from flowforce import (
    PhysicalParams, check_admissibility, cli, dispersion_table, onset_speed_sq, reconstruct,
    surface_equation,
)
from flowforce import fields as field_module
from flowforce.cli import _KEYS, RunConfig, _build_parser, _write_csv, load_config, main
from flowforce.fields import SurfaceCurve
from flowforce.spectral import (
    PeriodicFunction, collocation_size, grid_nodes, strip_nodes,
)
from flowforce.surface_equation import TrialState, _surface_abscissa

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        parsed = []
        for tok in line.split(","):
            if tok in ("true", "false"):
                parsed.append(tok == "true")
            else:
                parsed.append(float(tok))
        rows.append(parsed)
    return header, rows


PROFILES_HEADER = "s [m],x [rad],X [m],Y [m]"

SMALL_BRANCH = """
[continuation]
amplitude_max = 1e-3
steps = 1

[discretization]
modes = 16
vertical_points = 16
"""


def test_example_config_matches_defaults():
    example = os.path.join(ROOT, "example_config.ini")
    assert load_config(example) == load_config(None)


def test_config_keys_cover_every_field_once():
    """example_config.ini names each key of the table once, and each key
    reaches one field of the annotated type."""
    listed, section = [], None
    with open(os.path.join(ROOT, "example_config.ini"), encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line.startswith("["):
                section = line[1:-1]
            elif line and not line.startswith("#"):
                listed.append((section, line.split("=")[0].strip()))
    assert sorted(listed) == sorted(_KEYS)
    owners = {"physical": PhysicalParams}
    reached = []
    for (section, _), (field, kind, _) in _KEYS.items():
        types = {f.name: f.type for f in fields(owners.get(section, RunConfig))}
        assert types[field] is kind
        reached.append((section == "physical", field))
    expected = [(True, f.name) for f in fields(PhysicalParams)]
    expected += [(False, f.name) for f in fields(RunConfig) if f.name != "physical"]
    assert sorted(reached) == sorted(expected)


def test_dispersion_csv_round_trip(tmp_path, water):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", "[dispersion]\nk_count = 20\nk_max = 40.0\n")
    assert main(["--config", cfg, "--out", str(out), "dispersion"]) == 0
    header, rows = _read_csv(out / "dispersion.csv")
    assert header[0] == "k [1/m]"
    assert len(rows) == 20
    table = dispersion_table(np.linspace(1.0, 40.0, 20), water)
    for row, ref in zip(rows, table):
        assert row[0] == ref.k
        assert row[1] == ref.onset_speed_sq
        assert row[2] == ref.surface_flow_force
        assert row[3] == ref.surface_speed
        assert row[6] is ref.kernel_simple


def test_dispersion_pure_gravity_column(tmp_path):
    out = tmp_path / "out"
    cfg = _write(
        tmp_path / "c.ini",
        "[physical]\nsurface_tension = 0.0\n"
        "[dispersion]\nk_min = 1.0\nk_max = 10.0\nk_count = 10\n",
    )
    assert main(["--config", cfg, "--out", str(out), "dispersion"]) == 0
    _, rows = _read_csv(out / "dispersion.csv")
    for row in rows:
        k = row[0]
        assert row[1] == pytest.approx(
            (9.81 / k) * math.tanh(k * 0.1), rel=1e-14
        )


def test_kernel_check_water_simple(tmp_path):
    out = tmp_path / "out"
    assert main(["--out", str(out), "kernel-check"]) == 0
    payload = json.loads((out / "kernel_check.json").read_text())
    assert payload["schema"] == "flowforce/kernel-v1"
    assert payload["k"] == 10.0
    assert payload["simple"] is True
    assert payload["colliding_mode"] is None
    assert payload["min_relative_gap"] > payload["tol"]


def test_kernel_check_collision_exit_code(tmp_path, capsys, gravity_collision):
    p, tol = gravity_collision
    out = tmp_path / "out"
    cfg = _write(
        tmp_path / "c.ini",
        "[physical]\n"
        "surface_tension = 0.0\n"
        f"depth = {p.h!r}\n"
        f"wavenumber = {p.k!r}\n"
        f"[kernel]\ntolerance = {tol!r}\n",
    )
    assert main(["--config", cfg, "--out", str(out), "kernel-check"]) == 2
    payload = json.loads((out / "kernel_check.json").read_text())
    assert payload["simple"] is False
    assert payload["colliding_mode"] == 2
    # the line branch prints on the same config
    err = capsys.readouterr().err
    assert err.startswith(f"kernel not simple: mode 2 shares the onset value at k = {p.k}")
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 2
    assert capsys.readouterr().err == err


def test_k_flag_overrides_config(tmp_path):
    out = tmp_path / "out"
    assert main(["--k", "25.0", "--out", str(out), "kernel-check"]) == 0
    payload = json.loads((out / "kernel_check.json").read_text())
    assert payload["k"] == 25.0


def test_branch_zero_amplitude(tmp_path, water):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", "[continuation]\namplitude_max = 0.0\n")
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 0
    payload = json.loads((out / "branch.json").read_text())
    assert payload["schema"] == "flowforce/branch-v1"
    assert payload["failure"] is None
    assert len(payload["points"]) == 1
    rec = payload["points"][0]
    assert rec["s"] == 0.0
    assert rec["lambda"] == onset_speed_sq(1, 10.0, water)
    assert rec["mu"] == 0.0
    assert all(c == 0.0 for c in rec["cos_coeffs"])


def test_branch_profiles_have_one_crest(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", SMALL_BRANCH.replace("steps = 1", "steps = 2"))
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 0
    payload = json.loads((out / "branch.json").read_text())
    assert len(payload["points"]) == 2
    for rec in payload["points"]:
        assert rec["residual_norm"] < 1e-10
    heights = {}
    for s, _x, _bigx, y in np.load(out / "profiles.npy").tolist():
        heights.setdefault(s, []).append(y)
    assert set(heights) == {5e-4, 1e-3}
    for y in heights.values():
        y = np.asarray(y)
        up = y > np.roll(y, 1)
        down = y > np.roll(y, -1)
        assert int(np.sum(up & down)) == 1
        assert int(np.sum((~up) & (~down))) == 1


def _profile(curve, x):
    """(x/k + C(w)(x), depth + w(x)) of a curve by direct summation: the
    oracle of its abscissa, independent of _surface_abscissa."""
    conj, w = curve._conjugate.eval_at(x), curve.elevation.eval_at(x)
    return x / curve.params.k + conj, curve.params.h + w


def _branch_and_profiles(tmp_path, text, *flags):
    """Run branch on a config; its branch.json payload and profiles.npy
    reshaped to (points, nodes, 4)."""
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", text)
    assert main(["--config", cfg, "--out", str(out), *flags, "branch"]) == 0
    payload = json.loads((out / "branch.json").read_text())
    table = np.load(out / "profiles.npy")
    m = collocation_size(payload["n_modes"])
    assert table.dtype == np.float64 and table.shape == (len(payload["points"]) * m, 4)
    return payload, table.reshape(len(payload["points"]), m, 4)


@pytest.mark.parametrize(
    "text, flags",
    [
        ("", ()),
        ("[physical]\nsurface_tension = 0.0\n", ()),
        ("", ("--n-modes", "128")),
    ],
    ids=["water", "pure_gravity", "n128_zero_tail"],
)
def test_profiles_match_surface_curve(tmp_path, text, flags):
    # profiles.npy is synthesized from the stacked points as the solver
    # samples them; at the nodes it agrees with the curve's summed series
    # (_profile, Reinsch's recurrence) to 4 eps of each column's scale
    payload, profiles = _branch_and_profiles(
        tmp_path, text + "[continuation]\nsteps = 2\n", *flags
    )
    params = PhysicalParams(**payload["params"])
    x = grid_nodes(collocation_size(payload["n_modes"]))
    assert len(payload["points"]) == 2
    for rec, block in zip(payload["points"], profiles):
        a = rec["cos_coeffs"]
        if payload["n_modes"] == 128:
            # the 16-mode Newton level leaves the tail exactly zero
            assert not any(a[17:]) and any(a[2:17])
        assert np.all(block[:, 0] == rec["s"])
        assert np.array_equal(block[:, 1], x)
        curve = SurfaceCurve(PeriodicFunction.from_cosines(a), params)
        for column, ref in zip(block[:, 2:].T, _profile(curve, x)):
            scale = np.max(np.abs(ref))
            assert np.max(np.abs(column - ref)) <= 4 * np.finfo(float).eps * scale


def test_profile_abscissa_is_the_admissibility_abscissa(tmp_path, monkeypatch):
    # the X column is _surface_abscissa of the stacked points, bit for bit,
    # and the monotone-graph test of check_admissibility reads that helper
    payload, profiles = _branch_and_profiles(tmp_path, SMALL_BRANCH)
    params = PhysicalParams(**payload["params"])
    coeffs = np.array([rec["cos_coeffs"] for rec in payload["points"]])
    abscissa = _surface_abscissa(coeffs, params, collocation_size(16))
    assert np.array_equal(profiles[:, :, 2], abscissa)
    w = PeriodicFunction.from_cosines(coeffs[0])
    assert check_admissibility(w, params).monotone_graph
    helper = surface_equation._surface_abscissa
    monkeypatch.setattr(
        surface_equation, "_surface_abscissa", lambda *args: helper(*args)[:, ::-1]
    )
    assert not check_admissibility(w, params).monotone_graph


def _write_profiles_csv(path, branch):
    """profiles.csv as the branch command wrote it before profiles.npy: one
    block of repr texts per point, s and x formatted once, by the CSV writer."""
    p, m = branch.params, collocation_size(branch.n_modes)
    coeffs = np.reshape([pt.elevation.cos_coeffs for pt in branch.points], (-1, branch.n_modes + 1))
    abscissa = _surface_abscissa(coeffs, p, m)
    s = cli._cell_texts([pt.amplitude for pt in branch.points])
    x = cli._cell_texts(grid_nodes(m))
    blocks = (
        [[s[i]] * m, x, abscissa[i], p.h + pt.elevation.samples(m)]
        for i, pt in enumerate(branch.points)
    )
    _write_csv(path, PROFILES_HEADER, blocks)


@pytest.mark.parametrize(
    "text, code, points",
    [("", 0, 4), ("[continuation]\nmax_iterations = 1\n", 3, 3)],
    ids=["complete", "truncated"],
)
def test_profiles_npy_holds_the_csv_floats(tmp_path, monkeypatch, text, code, points):
    # profiles.npy holds, bit for bit and in the same row and column order,
    # the floats that the text of the former profiles.csv parses back to;
    # at max_iterations = 1 the fourth point needs a second update
    branches, writer = [], cli._write_profiles

    def capture(path, branch):
        branches.append(branch)
        writer(path, branch)

    monkeypatch.setattr(cli, "_write_profiles", capture)
    out = tmp_path / "out"
    assert main(["--config", _write(tmp_path / "c.ini", text), "--out", str(out), "branch"]) == code
    _write_profiles_csv(tmp_path / "profiles.csv", branches[0])
    header, rows = _read_csv(tmp_path / "profiles.csv")
    table = np.load(out / "profiles.npy")
    assert table.dtype == np.float64 and table.shape == (points * collocation_size(32), 4)
    assert np.array_equal(table.view(np.int64), np.array(rows).view(np.int64))
    assert sorted(os.listdir(out)) == ["branch.json", "profiles.npy"]


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # the cached parser carries nothing from one main() call to the next:
    # a command, an argv that exits 4 and another command give the files
    # and messages of runs that each build a fresh parser
    assert _build_parser() is _build_parser()
    cfg = _write(tmp_path / "c.ini", "[dispersion]\nk_count = 5\n")
    results = {}
    for run in ("reused", "fresh"):
        out = tmp_path / run
        texts = []
        for argv in (
            ["--k", "25.0", "--out", str(out / "one"), "kernel-check"],
            ["--steps", "x", "branch"],
            ["--config", cfg, "--out", str(out / "two"), "dispersion"],
        ):
            if run == "fresh":
                _build_parser.cache_clear()
            code = main(argv)
            texts.append((code, *capsys.readouterr()))
        for name in ("one/kernel_check.json", "two/dispersion.csv"):
            texts.append((out / name).read_text(encoding="utf-8"))
        results[run] = texts
    assert [text[0] for text in results["reused"][:3]] == [0, 4, 0]
    assert "invalid int value" in results["reused"][1][2]
    assert results["reused"] == results["fresh"]


@pytest.mark.parametrize(
    "argv, detail",
    [
        (["--n-modes", "abc", "branch"], "invalid int value: 'abc'"),
        (["--bogus", "branch"], "unrecognized arguments: --bogus"),
        (["validate"], "the following arguments are required: branch_file"),
        (["bogus"], "invalid choice: 'bogus'"),
    ],
    ids=["bad-int", "unknown-flag", "missing-branch-file", "unknown-command"],
)
def test_usage_errors_are_config_errors(tmp_path, capsys, argv, detail):
    # usage errors follow the exit-code contract: 4 with `config error:`,
    # returned from main rather than raised as SystemExit
    assert main(["--out", str(tmp_path), *argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and detail in captured.err
    assert not any(tmp_path.iterdir())


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["-h"])
    assert info.value.code == 0
    assert "usage: flowforce" in capsys.readouterr().out


def _per_value_csv(header, columns):
    """The CSV writer's output as one repr per cell, bools as true/false."""
    def text(v):
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        return repr(float(v))

    rows = [",".join(text(v) for v in row) for row in zip(*columns)]
    return "\n".join([header] + rows) + "\n"


@pytest.mark.parametrize(
    "columns, sizes",
    [
        ([[0.0, -0.0, 0.0, -0.0], [-0.0, -0.0, 0.0, 1.0]], (2, 2)),
        ([[math.nan, math.inf, -math.inf, 5e-324], [-5e-324, math.nan, 1.0, math.inf]], (1, 3)),
        ([[1e16, 1e-5, 9999999999999998.0, 9.999999999999999e-06],
          [1e-5, 1e16, 1e-5, -1e16]], (4,)),
        ([[True, False, False, True], [0.5, 0.5, 0.1 + 0.2, 0.3]], (3, 1)),
        ([np.array([], dtype=float), np.array([], dtype=bool)], ()),
    ],
    ids=["signed_zero", "non_finite_and_subnormal", "exponent_switch", "bool", "no_rows"],
)
def test_csv_writer_matches_per_value_repr(tmp_path, columns, sizes):
    # the writer formats each distinct bit pattern once per block; the text
    # must be that of repr on every cell, -0.0 and nan included, for a value
    # repeated in two blocks (signed_zero) and in a one-row block.  No
    # blocks give the header line alone, as a branch that fails at step 1
    # writes it
    bounds = np.cumsum((0, *sizes))
    blocks = [[np.asarray(c)[lo:hi] for c in columns] for lo, hi in zip(bounds, bounds[1:])]
    path = tmp_path / "t.csv"
    _write_csv(path, "a,b", blocks)
    assert path.read_text(encoding="utf-8") == _per_value_csv("a,b", columns)


def test_field_writer_holds_less_than_the_file(tmp_path):
    # field.csv is formatted and written one grid row at a time, so the
    # memory reconstruct allocates stays below the size of the file; the
    # N = 64 point with 256 vertical points writes about 8 MB
    out = tmp_path / "out"
    text = "[continuation]\nsteps = 1\n[discretization]\nmodes = 64\nvertical_points = 256\n"
    cfg = _write(tmp_path / "c.ini", text)
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 0
    tracemalloc.start()
    try:
        code = main(["--config", cfg, "--out", str(out), "reconstruct", str(out / "branch.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert json.loads((out / "field.json").read_text())["n_y"] == 256
    assert peak < (out / "field.csv").stat().st_size


def test_branch_outputs_are_byte_deterministic(tmp_path):
    cfg = _write(
        tmp_path / "c.ini",
        SMALL_BRANCH + "[dispersion]\nk_count = 5\nk_max = 20.0\n",
    )
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        for command in ("branch", "dispersion", "kernel-check"):
            assert main(["--config", cfg, "--out", str(d), command]) == 0
        for command in ("validate", "reconstruct"):
            assert main(
                ["--config", cfg, "--out", str(d), command, str(d / "branch.json")]
            ) == 0
    names = (
        "branch.json", "profiles.npy", "dispersion.csv", "kernel_check.json",
        "validation.json", "field.csv", "field.json",
    )
    for name in names:
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name


def _parent_jsonable(value):
    """cli._jsonable as it was when the JSON artifacts were written with
    indent=2: every array element converted on its own, non-finite to None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, np.floating):
        return _parent_jsonable(float(value))
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_parent_jsonable(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_parent_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _parent_jsonable(v) for k, v in value.items()}
    return value


@pytest.mark.parametrize(
    "text, command, artifact",
    [
        (SMALL_BRANCH, "kernel-check", "kernel_check.json"),
        ("[physical]\ngravity = 0.0\n", "kernel-check", "kernel_check.json"),
        (SMALL_BRANCH, "branch", "branch.json"),
        (SMALL_BRANCH, "validate", "validation.json"),
        (SMALL_BRANCH, "reconstruct", "field.json"),
    ],
    ids=["kernel_check.json", "kernel_check.json-capillary", "branch.json",
         "validation.json", "field.json"],
)
def test_json_artifact_parses_as_its_indented_text(tmp_path, monkeypatch, text, command, artifact):
    # a JSON artifact is one line with sorted keys, from json's C encoder, and
    # parses to what the indent=2 text of the same payload parsed to
    payloads, writer = {}, cli._write_json

    def capture(path, payload):
        payloads[os.path.basename(path)] = payload
        writer(path, payload)

    monkeypatch.setattr(cli, "_write_json", capture)
    out = tmp_path / "out"
    argv = ["--config", _write(tmp_path / "c.ini", text), "--out", str(out)]
    if command in ("validate", "reconstruct"):
        assert main([*argv, "branch"]) == 0
        assert main([*argv, command, str(out / "branch.json")]) == 0
    else:
        assert main([*argv, command]) == 0
    written = (out / artifact).read_text(encoding="utf-8")
    indented = json.dumps(_parent_jsonable(payloads[artifact]), indent=2, sort_keys=True)
    assert json.loads(written) == json.loads(indented)
    assert written == json.dumps(json.loads(written), sort_keys=True) + "\n"


def test_kernel_check_writes_null_for_infinite_criteria(tmp_path):
    # at g = 0 the monotone ratio sigma/(g h^2) and k^2 sigma/g are inf,
    # which JSON cannot hold: they are written as null
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", "[physical]\ngravity = 0.0\n")
    assert main(["--config", cfg, "--out", str(out), "kernel-check"]) == 0
    text = (out / "kernel_check.json").read_text(encoding="utf-8")
    assert '"monotone_ratio": null' in text and '"capillary_constant": null' in text
    payload = json.loads(text)
    assert payload["monotone_ratio"] is None and payload["capillary_constant"] is None


def test_jsonable_maps_non_finite_floats_to_null():
    assert cli._jsonable(np.array([1.0, np.inf, np.nan])) == [1.0, None, None]
    value = {"a": np.array([[1.0], [-np.inf]]), "b": np.float64(np.nan), "c": np.int64(3)}
    assert cli._jsonable(value) == {"a": [[1.0], [None]], "b": None, "c": 3}
    assert cli._jsonable(np.array([0.5, -0.0])) == [0.5, -0.0]


def test_default_field_csv_is_per_cell_repr(tmp_path):
    # golden check of the writer on the default config: field.csv is the
    # repr of every cell of the reconstructed arrays, row-major from the bed
    out = tmp_path / "out"
    assert main(["--out", str(out), "branch"]) == 0
    assert main(["--out", str(out), "reconstruct", str(out / "branch.json")]) == 0
    payload = json.loads((out / "branch.json").read_text())
    rec = payload["points"][-1]
    state = TrialState(
        rec["lambda"], rec["mu"], PeriodicFunction.from_cosines(rec["cos_coeffs"])
    )
    params = PhysicalParams(**payload["params"])
    field = reconstruct(state, params, n_y=load_config().vertical_points)
    n_rows, n_x = field.u.shape
    grids = [
        g.tolist()
        for g in (field.u, field.v, field.harmonic_potential,
                  field.raw_force, field.flow_force)
    ]
    lines = (out / "field.csv").read_text(encoding="utf-8").split("\n")
    assert lines[0] == "x [rad],y [-],X [m],Y [m],zeta [m^3/s^2],xi [m^3/s^2],S [m^3/s^2]"
    assert lines[-1] == ""
    expected = [
        ",".join(repr(v) for v in [x, y] + [grid[j][i] for grid in grids])
        for j, y in enumerate(strip_nodes(n_rows - 1, params.strip_depth).tolist())
        for i, x in enumerate(grid_nodes(n_x).tolist())
    ]
    assert lines[1:-1] == expected


def test_validate_traced_branch(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", SMALL_BRANCH)
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 0
    assert main(
        ["--config", cfg, "--out", str(out), "validate", str(out / "branch.json")]
    ) == 0
    payload = json.loads((out / "validation.json").read_text())
    assert payload["schema"] == "flowforce/validation-v3"
    assert payload["passed"] is True
    assert len(payload["points"]) == 1
    point = payload["points"][0]
    assert sorted(point) == [
        "audit_rows", "failures", "force_balance_fine", "harmonic_defect",
        "passed", "residual_sup", "s", "surface_trace_defect",
    ]
    assert point["passed"] is True
    assert point["failures"] == []
    assert point["residual_sup"] < 1e-9
    assert point["audit_rows"] == 16


def test_validate_tampered_branch(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", SMALL_BRANCH)
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 0
    branch_file = out / "branch.json"
    payload = json.loads(branch_file.read_text())
    payload["points"][0]["cos_coeffs"][2] += 1e-3
    branch_file.write_text(json.dumps(payload))
    assert main(
        ["--config", cfg, "--out", str(out), "validate", str(branch_file)]
    ) == 2
    report = json.loads((out / "validation.json").read_text())
    assert report["passed"] is False
    assert report["points"][0]["failures"]
    s = report["points"][0]["s"]
    assert f"validation failed: point 0 at s = {s!r}: " in capsys.readouterr().err


def test_validate_names_each_failing_point(tmp_path, capsys):
    # four modes do not resolve desk water at k s = 0.1: the Galerkin
    # residual converges, but the field's surface trace misses the surface
    # flow force, so every point fails and stderr says why, one line each
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", "[continuation]\namplitude_max = 1e-2\nsteps = 4\n")
    assert main(["--config", cfg, "--n-modes", "4", "--out", str(out), "branch"]) == 0
    capsys.readouterr()
    code = main(["--config", cfg, "--out", str(out), "validate", str(out / "branch.json")])
    assert code == 2
    lines = capsys.readouterr().err.splitlines()
    points = json.loads((out / "validation.json").read_text())["points"]
    assert len(lines) == len(points) == 4
    for index, (line, point) in enumerate(zip(lines, points)):
        assert not point["passed"]
        assert "surface trace deviates from the surface flow force" in point["failures"]
        expect = f"validation failed: point {index} at s = {point['s']!r}: "
        assert line == expect + "; ".join(point["failures"])


def test_reconstruct_outputs(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", SMALL_BRANCH)
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 0
    assert main(
        [
            "--config", cfg, "--out", str(out),
            "reconstruct", str(out / "branch.json"), "--index", "0",
        ]
    ) == 0
    summary = json.loads((out / "field.json").read_text())
    assert summary["schema"] == "flowforce/field-v1"
    assert summary["s"] == 1e-3
    header, rows = _read_csv(out / "field.csv")
    assert header[-1] == "S [m^3/s^2]"
    assert len(rows) == (summary["n_y"] + 1) * summary["n_x"]


@pytest.mark.parametrize(
    "command, flags, coefficient",
    [
        ("validate", [], 0.15),
        ("reconstruct", ["--index", "0"], 0.15),
        ("validate", [], 1e160),
        ("reconstruct", ["--index", "0"], 1e160),
    ],
    ids=["validate-flags0", "reconstruct-flags1", "validate-overflow", "reconstruct-overflow"],
)
def test_inadmissible_branch_point_rejected(tmp_path, capsys, command, flags, coefficient):
    # a first coefficient of 0.15 over depth 0.1 pushes the trough through
    # the bed, so the stored point is no admissible surface; at 1e160 its
    # squared slope overflows too, and the gate still rejects it, with no
    # warning (an error under pytest)
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", SMALL_BRANCH)
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 0
    branch_file = out / "branch.json"
    payload = json.loads(branch_file.read_text())
    payload["points"][0]["cos_coeffs"][1] = coefficient
    branch_file.write_text(json.dumps(payload))
    code = main(
        ["--config", cfg, "--out", str(out), command, str(branch_file), *flags]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {branch_file}: point 0 at s = 0.001:")
    assert "admissible" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command, callee, flags",
    [("validate", "validate_solution", []), ("reconstruct", "reconstruct", ["--index", "0"])],
    ids=["validate", "reconstruct"],
)
def test_point_too_large_to_allocate_is_an_input_error(
    tmp_path, capsys, monkeypatch, command, callee, flags
):
    # a stored point too large to allocate for, as with a vertical_points too
    # large for its grid, is named with its file, as an input error; the
    # callee raises what numpy raises, without allocating
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", SMALL_BRANCH)
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 0

    def refuse(*args, **kwargs):
        raise MemoryError("Unable to allocate 11.9 GiB for an array with shape (20001, 80004)")

    monkeypatch.setattr(cli, callee, refuse)
    branch_file = out / "branch.json"
    code = main(["--config", cfg, "--out", str(out), command, str(branch_file), *flags])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {branch_file}: point 0 at s = 0.001: Unable to allocate")
    assert "Traceback" not in err


def _one_point_branch(**record):
    point = {"s": 1e-3, "lambda": 1.3, "mu": 0.0, "cos_coeffs": [0.0, 1e-4]}
    return {
        "schema": "flowforce/branch-v1",
        "params": {"g": 9.81, "sigma": 0.073, "h": 0.1, "k": 10.0, "p_atm": 0.0},
        "points": [{**point, **record}],
    }


def _third_point_branch(**record):
    payload = _one_point_branch()
    good = payload["points"][0]
    return {**payload, "points": [good, good, {**good, **record}]}


_NUMBER = "expected a finite number, got"


@pytest.mark.parametrize("command", ["validate", "reconstruct"])
@pytest.mark.parametrize(
    "payload, detail",
    [
        ([], "JSON object"),
        (
            _one_point_branch(cos_coeffs=[0.0, math.nan]),
            f"point 0: key 'cos_coeffs': entry 1: {_NUMBER} NaN",
        ),
        (_one_point_branch(s=math.inf), f"point 0: key 's': {_NUMBER} Infinity"),
        (_one_point_branch(s=math.nan), f"point 0: key 's': {_NUMBER} NaN"),
        (_one_point_branch(mu=math.inf), f"point 0: key 'mu': {_NUMBER} Infinity"),
        (_one_point_branch(mu=math.nan), f"point 0: key 'mu': {_NUMBER} NaN"),
        (
            _one_point_branch(**{"lambda": math.inf}),
            f"point 0: key 'lambda': {_NUMBER} Infinity",
        ),
        ({**_one_point_branch(), "points": []}, "branch file holds no points"),
        (_one_point_branch(s="1e-3"), f"point 0: key 's': {_NUMBER} \"1e-3\""),
        (
            _one_point_branch(cos_coeffs=["0.0", "1e-4"]),
            f"point 0: key 'cos_coeffs': entry 0: {_NUMBER} \"0.0\"",
        ),
        (
            _one_point_branch(cos_coeffs=[False, 1e-4]),
            f"point 0: key 'cos_coeffs': entry 0: {_NUMBER} false",
        ),
        (_one_point_branch(mu=True), f"point 0: key 'mu': {_NUMBER} true"),
        (
            {**_one_point_branch(), "params": {"g": True, "sigma": 0.073, "h": 0.1, "k": 10.0}},
            f"params: key 'g': {_NUMBER} true",
        ),
        (
            {**_one_point_branch(), "params": [9.81]},
            "key 'params': expected an object, got an array",
        ),
        (_third_point_branch(s="1e-3"), f"point 2: key 's': {_NUMBER} \"1e-3\""),
        (
            _one_point_branch(cos_coeffs="0.5"),
            "point 0: key 'cos_coeffs': expected an array, got \"0.5\"",
        ),
        (
            {**_one_point_branch(), "points": [{"s": 1e-3, "lambda": 1.3, "cos_coeffs": [0.0]}]},
            "point 0: missing key 'mu'",
        ),
        (
            {**_one_point_branch(), "points": {"0": _one_point_branch()["points"][0]}},
            "key 'points': expected an array, got an object",
        ),
        (
            {**_one_point_branch(), "points": [5]},
            "key 'points': entry 0: expected an object, got 5",
        ),
        (_third_point_branch(s=10**400), f"point 2: key 's': {_NUMBER} {10**400}"),
        (
            _third_point_branch(cos_coeffs=[0.5, 1e-4]),
            "point 2: key 'cos_coeffs': elevation must have zero mean",
        ),
        (_third_point_branch(cos_coeffs=[]), "point 2: key 'cos_coeffs': no coefficients"),
    ],
    ids=[
        "not_an_object", "nan_coefficient", "infinite_s", "nan_s",
        "infinite_mu", "nan_mu", "infinite_lambda", "no_points",
        "string_s", "string_coefficients", "boolean_coefficient", "boolean_mu",
        "boolean_param", "params_not_an_object", "string_s_in_point_2",
        "string_coefficient_list", "missing_mu", "points_not_a_list",
        "point_not_an_object", "integer_s_too_large", "nonzero_mean_in_point_2",
        "empty_coefficients",
    ],
)
def test_malformed_branch_file_rejected(tmp_path, capsys, payload, detail, command):
    branch_file = tmp_path / "branch.json"
    # Infinity and NaN are written, and parsed back
    branch_file.write_text(json.dumps(payload))
    # main returns rather than raises: no traceback reaches the terminal
    assert main(["--out", str(tmp_path), command, str(branch_file)]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {branch_file}: ")
    # a bad record is named by its point (or params) and its key
    assert detail in err
    if detail.startswith(("point", "params", "key")):
        assert err == f"input error: {branch_file}: malformed branch record: {detail}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["branch.json"]  # no artifact


def test_reconstruct_index_out_of_range(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", SMALL_BRANCH)
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 0
    code = main(
        [
            "--config", cfg, "--out", str(out),
            "reconstruct", str(out / "branch.json"), "--index", "7",
        ]
    )
    assert code == 4
    assert "out of range" in capsys.readouterr().err


def test_unknown_config_section_rejected(tmp_path, capsys):
    cfg = _write(tmp_path / "c.ini", "[physical]\ngravity = 9.81\n\n[oceanography]\nfoo = 1\n")
    assert main(["--config", cfg, "--out", str(tmp_path), "dispersion"]) == 4
    err = capsys.readouterr().err
    assert "config error" in err
    assert "oceanography" in err
    assert f"{cfg}:4" in err


@pytest.mark.parametrize(
    "text, line",
    [
        ("[DEFAULT]\nfoo = 1\n", 1),
        # configparser's default section would lend gravity = 1 to [physical]
        ("[physical]\ndepth = 0.1\n\n[DEFAULT]\ngravity = 1\n", 4),
    ],
    ids=["alone", "after-physical"],
)
def test_default_config_section_rejected(tmp_path, capsys, text, line):
    """[DEFAULT] is an unknown section like any other, not one whose keys
    every section inherits."""
    cfg = _write(tmp_path / "c.ini", text)
    assert main(["--config", cfg, "--out", str(tmp_path), "kernel-check"]) == 4
    assert f"config error: {cfg}:{line}: unknown section [DEFAULT]" in capsys.readouterr().err
    assert not (tmp_path / "kernel_check.json").exists()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = _write(tmp_path / "c.ini", "[physical]\ngravity = 9.81\ngravify = 1.0\n")
    assert main(["--config", cfg, "--out", str(tmp_path), "dispersion"]) == 4
    err = capsys.readouterr().err
    assert "gravify" in err
    assert f"{cfg}:3" in err


def test_bad_config_value_rejected(tmp_path, capsys):
    cfg = _write(tmp_path / "c.ini", "[physical]\ngravity = fast\n")
    assert main(["--config", cfg, "--out", str(tmp_path), "dispersion"]) == 4
    err = capsys.readouterr().err
    assert "not a valid float" in err
    # the [kernel] tolerance line comes first and must not be the one named
    cfg = _write(
        tmp_path / "c.ini",
        "[kernel]\ntolerance = 1e-10\n\n[continuation]\ntolerance = fast\n",
    )
    assert main(["--config", cfg, "--out", str(tmp_path), "branch"]) == 4
    err = capsys.readouterr().err
    assert "continuation.tolerance" in err
    assert f"{cfg}:5:" in err


def test_malformed_config_rejected(tmp_path, capsys):
    cfg = _write(tmp_path / "c.ini", "gravity = 9.81\n")
    assert main(["--config", cfg, "--out", str(tmp_path), "dispersion"]) == 4
    assert "malformed config" in capsys.readouterr().err


def test_invalid_physical_config_rejected(tmp_path, capsys):
    cfg = _write(tmp_path / "c.ini", "[physical]\ndepth = -1.0\n")
    assert main(["--config", cfg, "--out", str(tmp_path), "dispersion"]) == 4
    assert "config error" in capsys.readouterr().err


def test_out_env_honored_and_flag_wins(tmp_path, monkeypatch):
    env_dir = tmp_path / "env_out"
    flag_dir = tmp_path / "flag_out"
    monkeypatch.setenv("FLOWFORCE_OUT", str(env_dir))
    assert main(["kernel-check"]) == 0
    assert (env_dir / "kernel_check.json").exists()
    assert main(["--out", str(flag_dir), "kernel-check"]) == 0
    assert (flag_dir / "kernel_check.json").exists()


@pytest.mark.parametrize("source", ["flag", "env", "config"])
def test_output_directory_naming_a_file_rejected(tmp_path, capsys, monkeypatch, source):
    """An output directory that names an existing file cannot be created:
    a config error names it, wherever the location came from."""
    monkeypatch.delenv("FLOWFORCE_OUT", raising=False)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    argv = ["kernel-check"]
    if source == "flag":
        argv = ["--out", str(taken), *argv]
    elif source == "env":
        monkeypatch.setenv("FLOWFORCE_OUT", str(taken))
    else:
        argv = ["--config", _write(tmp_path / "c.ini", f"[output]\ndirectory = {taken}\n"), *argv]
    assert main(argv) == 4
    assert f"config error: cannot write output to '{taken}': " in capsys.readouterr().err


def test_output_file_that_cannot_be_written_rejected(tmp_path, capsys):
    target = tmp_path / "kernel_check.json"
    target.mkdir()
    assert main(["--out", str(tmp_path), "kernel-check"]) == 4
    assert f"config error: cannot write output to '{target}': " in capsys.readouterr().err


def test_profiles_npy_that_cannot_be_written_rejected(tmp_path, capsys):
    # profiles.npy is opened in binary mode through the same error handling
    target = tmp_path / "profiles.npy"
    target.mkdir()
    cfg = _write(tmp_path / "c.ini", SMALL_BRANCH)
    assert main(["--config", cfg, "--out", str(tmp_path), "branch"]) == 4
    assert f"config error: cannot write output to '{target}': " in capsys.readouterr().err


def test_branch_convergence_failure_exit_code(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(
        tmp_path / "c.ini",
        "[continuation]\namplitude_max = 1e-3\nsteps = 1\nmax_iterations = 0\n"
        "[discretization]\nmodes = 16\n",
    )
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 3
    assert "branch truncated" in capsys.readouterr().err
    payload = json.loads((out / "branch.json").read_text())
    assert payload["failure"] is not None
    assert payload["points"] == []
    assert np.load(out / "profiles.npy").shape == (0, 4)


def test_branch_singular_quotient_exit_code(tmp_path, capsys):
    # microcapillary scale: the first Newton step hits a quotient below
    # its floor, which must truncate the branch instead of escaping
    out = tmp_path / "out"
    cfg = _write(
        tmp_path / "c.ini",
        "[physical]\ndepth = 1e-3\nwavenumber = 1000.0\n"
        "[continuation]\namplitude_max = 1e-5\nsteps = 4\n",
    )
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 3
    assert "denominator" in capsys.readouterr().err
    payload = json.loads((out / "branch.json").read_text())
    assert payload["failure"].startswith("step 1 ")
    assert payload["points"] == []
    assert np.load(out / "profiles.npy").shape == (0, 4)


def test_branch_singular_jacobian_exit_code(tmp_path, capsys, rank_deficient_jacobian):
    # a Jacobian with two equal columns stops the first Newton step on its
    # condition number; the branch truncates with exit code 3
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", SMALL_BRANCH)
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 3
    assert "Galerkin Jacobian condition" in capsys.readouterr().err
    payload = json.loads((out / "branch.json").read_text())
    assert payload["failure"].startswith("step 1 ")
    assert payload["points"] == []
    assert np.load(out / "profiles.npy").shape == (0, 4)


@pytest.mark.filterwarnings("error")
def test_branch_overflowing_residual_truncates(tmp_path, capsys):
    # surface_tension = 1e300: the residual's squared tangential term
    # overflows; under warnings-as-errors it reads inf, not a warning, and
    # the non-finite sample gate truncates the branch at step 1 (exit 3)
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", "[physical]\nsurface_tension = 1e300\n")
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 3
    assert capsys.readouterr().err == (
        "branch truncated: step 1 at amplitude 2.500000e-04: non-finite sample values\n"
    )
    assert np.load(out / "profiles.npy").shape == (0, 4)


@pytest.mark.filterwarnings("error")
def test_depth_whose_square_overflows(tmp_path):
    # depth = 1e160, above the 1.34e154 where depth**2 overflows: deep
    # water, whose kernel is simple and whose branch is traced
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", "[physical]\ndepth = 1e160\n[dispersion]\nk_count = 5\n")
    for command in ("dispersion", "kernel-check", "branch"):
        assert main(["--config", cfg, "--out", str(out), command]) == 0
    report = json.loads((out / "kernel_check.json").read_text())
    assert report["simple"] and not report["monotone_criterion"]
    _, rows = _read_csv(out / "dispersion.csv")
    assert [row[4] for row in rows] == [0.073 / 9.81 / 1e160 / 1e160] * 5
    assert len(json.loads((out / "branch.json").read_text())["points"]) == 4


@pytest.mark.filterwarnings("error")
def test_deep_branch_audit_is_an_input_error(tmp_path, capsys):
    # depth = 1e160: the audit's boundary data (g/2)(depth + w)^2 overflows;
    # it reads inf, not a warning, and the non-finite sample gate makes
    # validate and reconstruct input errors (exit 4)
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", "[physical]\ndepth = 1e160\n")
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 0
    branch = str(out / "branch.json")
    for command, point in (("validate", "point 0 at s = 0.00025"),
                           ("reconstruct", "point 3 at s = 0.001")):
        capsys.readouterr()
        assert main(["--config", cfg, "--out", str(out), command, branch]) == 4
        assert capsys.readouterr().err == (
            f"input error: {branch}: {point}: non-finite sample values\n"
        )
    assert sorted(os.listdir(out)) == ["branch.json", "profiles.npy"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "text, commands",
    [
        ("surface_tension = 1e-320\n", ("dispersion", "kernel-check", "branch")),
        ("surface_tension = 1e-300\nwavenumber = 1e-6\n", ("kernel-check", "branch")),
    ],
    ids=["sigma_1e-320", "sigma_1e-300_k_1e-6"],
)
def test_surface_tension_below_the_kernel_check_range(tmp_path, capsys, text, commands):
    # 1 + g/(sigma k^2), the bound of the onset curve's crossing, times k is
    # not a finite float: a config error (exit 4) that writes nothing
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", "[physical]\n" + text)
    for command in commands:
        assert main(["--config", cfg, "--out", str(out), command]) == 4
        err = capsys.readouterr().err
        assert err.startswith("config error: sigma = ") and "too small for the kernel check" in err
    assert not out.exists()


def test_validate_non_harmonic_potential(tmp_path, capsys, monkeypatch):
    # v^2 is not harmonic (its Laplacian is 2 |grad v|^2), so adding a small
    # multiple of it to zeta fails only the harmonicity audit: exit 2
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", SMALL_BRANCH)
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 0
    assemble = field_module._assemble

    def non_harmonic(*args, **kwargs):
        field = assemble(*args, **kwargs)
        zeta = field.harmonic_potential + 1e-3 * field.v**2
        return replace(field, harmonic_potential=zeta)

    monkeypatch.setattr(field_module, "_assemble", non_harmonic)
    capsys.readouterr()
    code = main(["--config", cfg, "--out", str(out), "validate", str(out / "branch.json")])
    assert code == 2
    point = json.loads((out / "validation.json").read_text())["points"][0]
    assert point["failures"] == ["potential layer fails the harmonicity audit"]
    assert capsys.readouterr().err == (
        f"validation failed: point 0 at s = {point['s']!r}: "
        "potential layer fails the harmonicity audit\n"
    )


def test_zero_steps_in_config_rejected(tmp_path, capsys):
    cfg = _write(tmp_path / "c.ini", "[continuation]\nsteps = 0\n")
    assert main(["--config", cfg, "--out", str(tmp_path), "branch"]) == 4
    err = capsys.readouterr().err
    assert "continuation.steps" in err
    assert f"{cfg}:2" in err
    # configparser lowercases keys, so the line is found by its key as
    # configparser reads it, whatever its case in the file
    cfg = _write(tmp_path / "c.ini", "[continuation]\ntolerance = 1e-11\nSteps = 0\n")
    assert main(["--config", cfg, "--out", str(tmp_path), "branch"]) == 4
    err = capsys.readouterr().err
    assert "continuation.steps" in err
    assert f"{cfg}:3:" in err


def test_zero_modes_in_config_rejected(tmp_path, capsys):
    cfg = _write(tmp_path / "c.ini", "[discretization]\nmodes = 0\n")
    assert main(["--config", cfg, "--out", str(tmp_path), "branch"]) == 4
    err = capsys.readouterr().err
    assert "discretization.modes" in err
    assert f"{cfg}:2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, artifact", [("reconstruct", "field.csv")], ids=["reconstruct"])
def test_reconstruct_needs_two_vertical_points(tmp_path, capsys, command, artifact):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", SMALL_BRANCH)
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 0
    flat = _write(tmp_path / "flat.ini", "[discretization]\nvertical_points = 1\n")
    code = main(["--config", flat, "--out", str(out), command, str(out / "branch.json")])
    assert code == 4
    err = capsys.readouterr().err
    assert f"{command} needs discretization.vertical_points >= 2" in err
    assert f"{flat}:2" in err
    assert "Traceback" not in err
    assert not (out / artifact).exists()
    coarse = _write(tmp_path / "coarse.ini", "[discretization]\nvertical_points = 2\n")
    assert main(["--config", coarse, "--out", str(out), command, str(out / "branch.json")]) == 0
    assert (out / artifact).exists()


def test_validation_ignores_vertical_points(tmp_path):
    # the audit builds its field on its own Chebyshev rows, so validate
    # reads no vertical_points: 1 and 64 write the same validation.json
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", SMALL_BRANCH)
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 0
    reports = []
    for n_y in (1, 64):
        vp = _write(tmp_path / "vp.ini", f"[discretization]\nvertical_points = {n_y}\n")
        run = tmp_path / f"vp{n_y}"
        assert main(["--config", vp, "--out", str(run), "validate", str(out / "branch.json")]) == 0
        reports.append((run / "validation.json").read_bytes())
    assert reports[0] == reports[1]


def test_nonpositive_k_min_rejected(tmp_path, capsys):
    cfg = _write(tmp_path / "c.ini", "[dispersion]\nk_min = 0.0\n")
    assert main(["--config", cfg, "--out", str(tmp_path), "dispersion"]) == 4
    err = capsys.readouterr().err
    assert "dispersion.k_min" in err
    assert f"{cfg}:2" in err
    assert "Traceback" not in err
    assert not (tmp_path / "dispersion.csv").exists()


def test_amplitude_beyond_small_range_rejected(tmp_path, capsys):
    """amplitude_max / steps above a tenth of the depth (0.01 here), from
    the config file and from the --s-max flag."""
    cfg = _write(
        tmp_path / "c.ini", "[continuation]\namplitude_max = 0.05\nsteps = 4\n"
    )
    assert main(["--config", cfg, "--out", str(tmp_path / "a"), "branch"]) == 4
    err = capsys.readouterr().err
    assert "amplitude_max" in err
    assert f"{cfg}:2" in err
    assert "Traceback" not in err
    code = main(
        ["--s-max", "0.05", "--steps", "1", "--out", str(tmp_path / "b"), "branch"]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert "--s-max" in err
    assert "Traceback" not in err
    assert not (tmp_path / "a" / "branch.json").exists()
    assert not (tmp_path / "b" / "branch.json").exists()


@pytest.mark.parametrize(
    "text, command, key, line",
    [
        # the retired scan bound is now an unknown key, rejected at its line
        ("[kernel]\nscan_limit = 1\n", "kernel-check",
         "unknown key 'scan_limit' in section [kernel]", 2),
        ("[dispersion]\nk_count = -3\n", "dispersion", "dispersion.k_count", 2),
        ("[continuation]\nmax_iterations = -1\n", "branch",
         "continuation.max_iterations", 2),
        # the [kernel] tolerance line comes first and must not be the one named
        ("[kernel]\ntolerance = 1e-10\n\n[continuation]\ntolerance = nan\n", "branch",
         "continuation.tolerance", 5),
        ("[continuation]\namplitude_max = nan\n", "branch",
         "continuation.amplitude_max", 2),
        ("[kernel]\ntolerance = nan\n", "kernel-check", "kernel.tolerance", 2),
        ("[kernel]\ntolerance = -1\n", "dispersion", "kernel.tolerance", 2),
        ("[dispersion]\nk_min = inf\n", "dispersion", "dispersion.k_min", 2),
        ("[dispersion]\nk_count = 5\nk_max = inf\n", "dispersion",
         "dispersion.k_max", 3),
    ],
    ids=[
        "scan_limit", "k_count", "max_iterations", "tolerance", "amplitude_max",
        "kernel_tolerance_nan", "kernel_tolerance_negative", "k_min_inf", "k_max_inf",
    ],
)
def test_out_of_range_config_value_rejected(tmp_path, capsys, text, command, key, line):
    cfg = _write(tmp_path / "c.ini", text)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), command]) == 4
    err = capsys.readouterr().err
    assert key in err
    assert f"{cfg}:{line}:" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "text, command",
    [
        # no longer a key, so rejected before anything is allocated from it
        ("[kernel]\nscan_limit = 100000000000000\n", "kernel-check"),
        ("[dispersion]\nk_count = 100000000000000\n", "dispersion"),
    ],
    ids=["scan_limit", "k_count"],
)
def test_config_value_too_large_to_allocate_rejected(tmp_path, capsys, text, command):
    # numpy refuses the 728 TiB array before allocating anything
    cfg = _write(tmp_path / "c.ini", text)
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out), command]) == 4
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--steps", "--n-modes"])
def test_zero_count_flag_rejected(tmp_path, capsys, flag):
    assert main([flag, "0", "--out", str(tmp_path / "out"), "branch"]) == 4
    err = capsys.readouterr().err
    assert flag in err
    assert "must be at least 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_non_finite_s_max_rejected(tmp_path, capsys):
    assert main(["--s-max", "nan", "--out", str(tmp_path / "out"), "branch"]) == 4
    err = capsys.readouterr().err
    assert "--s-max" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_missing_branch_file_rejected(tmp_path, capsys):
    code = main(["--out", str(tmp_path), "validate", str(tmp_path / "nope.json")])
    assert code == 4
    assert "cannot read branch file" in capsys.readouterr().err


def test_invalid_branch_json_rejected(tmp_path, capsys):
    bad = tmp_path / "branch.json"
    bad.write_text("{not json", encoding="utf-8")
    code = main(["--out", str(tmp_path), "validate", str(bad)])
    assert code == 4
    assert ":1:" in capsys.readouterr().err
