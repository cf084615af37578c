"""End-to-end exercises of the command-line interface.

Every test drives main() in process and inspects the files it writes;
serialization is full precision, so parse-back comparisons are exact.
"""

import filecmp
import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest

from flowforce import PhysicalParams, dispersion_table, onset_speed_sq
from flowforce.cli import _KEYS, RunConfig, load_config, main

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


def test_kernel_check_collision_exit_code(tmp_path, gravity_collision):
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
    _, rows = _read_csv(out / "profiles.csv")
    heights = {}
    for s, _x, _bigx, y in rows:
        heights.setdefault(s, []).append(y)
    assert set(heights) == {5e-4, 1e-3}
    for y in heights.values():
        y = np.asarray(y)
        up = y > np.roll(y, 1)
        down = y > np.roll(y, -1)
        assert int(np.sum(up & down)) == 1
        assert int(np.sum((~up) & (~down))) == 1


def test_branch_outputs_are_byte_deterministic(tmp_path):
    cfg = _write(
        tmp_path / "c.ini",
        SMALL_BRANCH + "[dispersion]\nk_count = 5\nk_max = 20.0\n",
    )
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        assert main(["--config", cfg, "--out", str(d), "branch"]) == 0
        assert main(["--config", cfg, "--out", str(d), "dispersion"]) == 0
        assert main(["--config", cfg, "--out", str(d), "kernel-check"]) == 0
    for name in ("branch.json", "profiles.csv", "dispersion.csv", "kernel_check.json"):
        assert filecmp.cmp(d1 / name, d2 / name, shallow=False), name


def test_validate_traced_branch(tmp_path):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", SMALL_BRANCH)
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 0
    assert main(
        ["--config", cfg, "--out", str(out), "validate", str(out / "branch.json")]
    ) == 0
    payload = json.loads((out / "validation.json").read_text())
    assert payload["schema"] == "flowforce/validation-v1"
    assert payload["passed"] is True
    assert len(payload["points"]) == 1
    point = payload["points"][0]
    assert point["passed"] is True
    assert point["failures"] == []
    assert point["residual_sup"] < 1e-9


def test_validate_tampered_branch(tmp_path):
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
    "command, flags", [("validate", []), ("reconstruct", ["--index", "0"])]
)
def test_inadmissible_branch_point_rejected(tmp_path, capsys, command, flags):
    # a first coefficient of 0.15 over depth 0.1 pushes the trough through
    # the bed, so the stored point is no admissible surface
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", SMALL_BRANCH)
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 0
    branch_file = out / "branch.json"
    payload = json.loads(branch_file.read_text())
    payload["points"][0]["cos_coeffs"][1] = 0.15
    branch_file.write_text(json.dumps(payload))
    code = main(
        ["--config", cfg, "--out", str(out), command, str(branch_file), *flags]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert f"{branch_file}: point 0 at s = 0.001:" in err
    assert "admissible" in err


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


def test_zero_steps_in_config_rejected(tmp_path, capsys):
    cfg = _write(tmp_path / "c.ini", "[continuation]\nsteps = 0\n")
    assert main(["--config", cfg, "--out", str(tmp_path), "branch"]) == 4
    err = capsys.readouterr().err
    assert "continuation.steps" in err
    assert f"{cfg}:2" in err


def test_validate_needs_eight_vertical_points(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", SMALL_BRANCH)
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 0
    coarse = _write(tmp_path / "coarse.ini", "[discretization]\nvertical_points = 7\n")
    code = main(
        ["--config", coarse, "--out", str(out), "validate", str(out / "branch.json")]
    )
    assert code == 4
    assert "vertical_points" in capsys.readouterr().err
    assert not (out / "validation.json").exists()


def test_zero_modes_in_config_rejected(tmp_path, capsys):
    cfg = _write(tmp_path / "c.ini", "[discretization]\nmodes = 0\n")
    assert main(["--config", cfg, "--out", str(tmp_path), "branch"]) == 4
    err = capsys.readouterr().err
    assert "discretization.modes" in err
    assert f"{cfg}:2" in err
    assert "Traceback" not in err


def test_reconstruct_needs_two_vertical_points(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _write(tmp_path / "c.ini", SMALL_BRANCH)
    assert main(["--config", cfg, "--out", str(out), "branch"]) == 0
    flat = _write(tmp_path / "flat.ini", "[discretization]\nvertical_points = 1\n")
    code = main(
        ["--config", flat, "--out", str(out), "reconstruct", str(out / "branch.json")]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert "vertical_points" in err
    assert f"{flat}:2" in err
    assert "Traceback" not in err
    assert not (out / "field.csv").exists()


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
        ("[kernel]\nscan_limit = 1\n", "kernel-check", "kernel.scan_limit", 2),
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
