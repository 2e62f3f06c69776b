"""CLI behavior: parsing, exit codes, determinism, golden regression."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ellab import cli
from ellab.errors import ConfigError

GOLDEN = Path(__file__).parent / "golden"


def run(argv):
    return cli.main(argv)


# --- parsing -----------------------------------------------------------------

def test_parse_nonlinearity_shorthand():
    spec = cli.parse_nonlinearity("power:2")
    assert spec.family.alpha == 2.0
    spec = cli.parse_nonlinearity("powersum:1,2;1,3")
    assert spec.family.terms == ((1.0, 2.0), (1.0, 3.0))
    spec = cli.parse_nonlinearity("lich:1,1,3,0,0.5")
    assert spec.family.sigma == 3.0
    spec = cli.parse_nonlinearity('{"family":"power","alpha":2.0}')
    assert spec.family.alpha == 2.0


def test_parse_space_shorthand():
    sp = cli.parse_space("flat:4")
    assert sp.n == 4 and sp.N == 4.0
    sp = cli.parse_space("flat:4:5.0")
    assert sp.N == 5.0
    sp = cli.parse_space("appendix:5,2,1")
    assert sp.weight_kind == "appendix"


# inline JSON that decodes to no reaction or space, one for each kind of
# exception that parsing it raises
BAD_INLINE_F = ['{"family":"bogus"}',                     # ValueError
                '{"family":"power"}',                     # KeyError
                '{bad']                                   # JSONDecodeError
BAD_INLINE_SPACE = ['{"n":4,"N":5,"weight":{"kind":"bogus"}}',  # ValueError
                    '{"n":4,"weight":1}']                       # AttributeError


def test_parse_errors():
    with pytest.raises(ConfigError):
        cli.parse_nonlinearity("nope:1")
    with pytest.raises(ConfigError):
        cli.parse_space("sphere:3")
    for text in BAD_INLINE_F:
        with pytest.raises(ConfigError, match="bad nonlinearity"):
            cli.parse_nonlinearity(text)
    for text in BAD_INLINE_SPACE:
        with pytest.raises(ConfigError, match="bad space"):
            cli.parse_space(text)


# --- commands ------------------------------------------------------------------

def test_indices_command(tmp_path):
    out = tmp_path / "idx.json"
    assert run(["indices", "--f", "power:2", "--N", "5", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["indices"]["lower_index"] == 2.0
    assert data["indices"]["upper_index"] == 2.0
    assert data["indices"]["second_order_index"] == 2.0
    assert data["exponents"]["p"] == 2.0
    assert data["exponents"]["p_S"] == pytest.approx(7.0 / 3.0)
    assert not data["hypotheses"]["1.3"]["satisfied"]
    assert data["hypotheses"]["1.7"]["satisfied"]


def test_appendix_command(tmp_path):
    out = tmp_path / "app.json"
    assert run(["appendix", "--N", "5", "--alpha", "2", "--K", "1",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["space"]["mu"] == pytest.approx(2**0.5, abs=1e-14)
    assert data["max_relative_residual"] <= 1e-10
    assert data["sharpness_ratio"] == pytest.approx(8.0, abs=1e-8)


def test_verify_command(tmp_path):
    out = tmp_path / "est.json"
    code = run(["verify", "--theorem", "1.9", "--space", "flat:4",
                "--f", "power:2", "--R", "1", "--grid", "512",
                "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert data["kind"] == "gradient-strong"


def test_solve_command_csv(tmp_path):
    out = tmp_path / "prof.csv"
    assert run(["solve", "--f", "power:2", "--space", "flat:4", "--R", "1",
                "--bv", "0.5", "--grid", "128", "--out", str(out),
                "--emit-plot-data"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,u,du,Q,F,G"
    assert len(lines) == 130
    # the plot data is the profile's r and Q columns, cell for cell
    cells = [line.split(",") for line in lines]
    r, q = cells[0].index("r"), cells[0].index("Q")
    assert out.with_suffix(".plot.csv").read_text().splitlines() == (
        ["r,diag"] + [f"{row[r]},{row[q]}" for row in cells[1:]])


def test_solve_above_the_branch_names_its_maximum(tmp_path, capsys):
    # flat:4 at R = 1: the Lane-Emden branch folds at boundary value 0.8587
    out = tmp_path / "prof.csv"
    assert run(["solve", "--f", "power:2", "--space", "flat:4", "--R", "1",
                "--bv", "0.9", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failure: no solution: boundary value 0.9 "
                          "exceeds the branch maximum 0.8587")
    assert not out.exists()


def test_solve_names_an_overflowing_residual(tmp_path, capsys):
    # f = t^2 overflows at 1e160, and with it the residual's tolerance
    out = tmp_path / "prof.csv"
    assert run(["solve", "--f", "power:2", "--space", "flat:4", "--R", "1",
                "--bv", "1e160", "--out", str(out), "--emit-plot-data"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("check failure: the residual overflows at boundary "
                          "value 1e+160")
    assert not out.exists() and not out.with_suffix(".plot.csv").exists()


def test_certify_command_exit_codes(tmp_path):
    out = tmp_path / "cert.json"
    assert run(["certify", "--f", "power:2", "--N", "4", "--theorem", "1.3",
                "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["status"] == "certified"
    # supercritical request: a lab error, reported as check failure
    assert run(["certify", "--f", "power:4", "--N", "5", "--theorem", "1.3",
                "--out", str(tmp_path / "x.json")]) == 1


def test_usage_errors_exit_two(tmp_path):
    assert run(["certify", "--f", "power:2"]) == 2          # missing --N
    assert run(["solve", "--f", "nope:2", "--space", "flat:4",
                "--R", "1", "--bv", "1"]) == 2              # bad nonlinearity


@pytest.mark.parametrize("argv", [
    ["solve", "--f", "power:2", "--space", "flat:4", "--R", "1", "--bv", "-1"],
    ["solve", "--f", "power:2", "--space", "flat:4", "--R", "1", "--bv", "0.5",
     "--grid", "2"],
    ["solve", "--f", "power:2", "--space", "flat:4", "--R", "0", "--bv", "0.5"],
    ["indices", "--f", "power:2", "--N", "0.5"],
    ["certify", "--f", "power:2", "--N", "0.5", "--theorem", "1.3"],
    ["verify", "--theorem", "1.9", "--space", "flat:4", "--f", "power:2",
     "--R", "-1"],
    ["implications", "--f", "power:2", "--space", "flat:4", "--R", "1",
     "--K", "-1"],
    ["implications", "--f", "power:2", "--space", "flat:4", "--R", "1",
     "--bv", "0"],
    ["appendix", "--N", "3", "--alpha", "2", "--K", "1"],
    ["appendix", "--N", "5", "--alpha", "2", "--K", "-1"],
    ["verify", "--theorem", "1.9", "--space", "flat:4", "--f", "power:2",
     "--R", "1", "--N", "3"],
    ["implications", "--f", "power:2", "--space", "flat:4", "--R", "1",
     "--N", "3"],
    ["solve", "--f", "power:2", "--space", "flat:4", "--R", "1", "--bv", "0.5",
     "--tol", "-1"],
] + [["indices", "--f", text, "--N", "5"] for text in BAD_INLINE_F] + [
    ["verify", "--theorem", "1.9", "--space", text, "--f", "power:2", "--R", "1"]
    for text in BAD_INLINE_SPACE])
def test_out_of_range_flags_exit_two(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("power, alpha", [("1.5", "3.5"), ("3.5", "1.5")])
@pytest.mark.parametrize("command", [
    ["certify", "--N", "3"],
    ["verify", "--space", "flat:3", "--R", "1"],
])
def test_theorem_19_alpha_must_match_the_power(tmp_path, capsys, command,
                                                power, alpha):
    # 1.9 certifies power(--alpha), which a pure power --f of another
    # exponent contradicts
    out = tmp_path / "out.json"
    argv = command + ["--theorem", "1.9", "--f", f"power:{power}",
                      "--out", str(out)]
    assert run(argv + ["--alpha", alpha]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()
    assert run(argv + ["--alpha", power]) == 0


def test_config_file(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"f": "power:2", "N": 5.0, "alpha": 2.0}))
    out = tmp_path / "idx.json"
    assert run(["indices", "--config", str(cfg), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert "1.5" in data["hypotheses"]


def test_config_sets_grid_and_tol(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"f": "power:2", "space": "flat:4", "R": 1.0,
                               "bv": 0.5, "grid": 64, "tol": 1e-9}))
    out = tmp_path / "prof.csv"
    assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 66


def test_default_grid_and_tol_keep_config_hash(tmp_path):
    base = ["verify", "--theorem", "1.9", "--space", "flat:4", "--f", "power:2",
            "--R", "1"]
    out1, out2 = tmp_path / "d.json", tmp_path / "e.json"
    assert run(base + ["--out", str(out1)]) == 0
    assert run(base + ["--grid", "1024", "--tol", "1e-11", "--out", str(out2)]) == 0
    assert (json.loads(out1.read_text())["config_hash"]
            == json.loads(out2.read_text())["config_hash"])


@pytest.mark.parametrize("bad", [{"grid": "64"}, {"grid": 64.5}, {"R": "1"},
                                 {"bv": True}, {"emit_plot_data": 1},
                                 {"f": 2}])
def test_mistyped_config_value_is_a_config_error(tmp_path, capsys, bad):
    values = {"f": "power:2", "space": "flat:4", "R": 1.0, "bv": 0.5}
    values.update(bad)
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(values))
    out = tmp_path / "prof.csv"
    assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(next(iter(bad))) in err
    assert not out.exists()


def test_config_file_must_hold_an_object(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(["power:2"]))
    assert run(["indices", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_config_does_not_override_explicit_zero(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"seed": 5}))
    base = ["indices", "--f", "power:2", "--N", "5"]
    outs = [tmp_path / f"i{k}.json" for k in range(3)]
    assert run(base + ["--seed", "0", "--config", str(cfg),
                       "--out", str(outs[0])]) == 0
    assert run(base + ["--seed", "0", "--out", str(outs[1])]) == 0
    assert run(base + ["--seed", "5", "--out", str(outs[2])]) == 0
    h = [json.loads(o.read_text())["config_hash"] for o in outs]
    assert h[0] == h[1] != h[2]


def test_shared_parser_keeps_no_state_between_calls(tmp_path):
    # every main call in a process parses with the one cached parser
    assert cli.build_parser() is cli.build_parser()
    out = tmp_path / "prof.csv"
    solve = ["solve", "--f", "power:2", "--space", "flat:4", "--R", "1",
             "--bv", "0.5", "--grid", "64", "--out", str(out)]
    assert run(solve + ["--emit-plot-data"]) == 0
    out.with_suffix(".plot.csv").unlink()
    assert run(solve) == 0
    assert out.exists() and not out.with_suffix(".plot.csv").exists()

    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"f": "lich:1,1,3,0,0.5", "N": 2.5,
                               "theorem": "1.5", "alpha": 2.8, "seed": 7}))
    assert run(["certify", "--config", str(cfg),
                "--out", str(tmp_path / "c.json")]) == 0
    golden = tmp_path / "cert_13_N4_power2.json"
    assert run(["certify", "--f", "power:2", "--N", "4", "--theorem", "1.3",
                "--out", str(golden)]) == 0
    assert golden.read_bytes() == (GOLDEN / golden.name).read_bytes()

    with pytest.raises(SystemExit) as exc:
        run(["certify", "--no-such-flag"])
    assert exc.value.code == 2
    assert run(["indices", "--f", "power:2",
                "--out", str(tmp_path / "i.json")]) == 0


def _run_probe(tmp_path, probe):
    """Run `probe` in a fresh interpreter, so modules imported by other tests
    do not count, and assert that it exits 0."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


_CHEAP_PROBE = """
import sys
from ellab import cli

for argv in (["indices", "--f", "power:2", "--N", "5", "--out", "i.json"],
             ["certify", "--f", "power:2", "--N", "4", "--theorem", "1.3",
              "--out", "c.json"]):
    assert cli.main(argv) == 0, argv
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, sorted(loaded)[:3]
solver = {"ellab.acceptance", "ellab.pdelab", "ellab.relations"} & set(sys.modules)
assert not solver, sorted(solver)
"""


def test_cheap_commands_load_no_scipy(tmp_path):
    _run_probe(tmp_path, _CHEAP_PROBE)


# the README arguments of the solver, curvature and suite commands
_SOLVER_PROBE = """
import sys
from ellab import cli
from ellab import modelspace as ms

for argv in (["solve", "--f", "power:2", "--space", "flat:4", "--R", "1",
              "--bv", "0.5", "--out", "profile.csv"],
             ["verify", "--theorem", "1.9", "--space", "flat:4",
              "--f", "power:2", "--R", "1"],
             ["appendix", "--N", "5", "--alpha", "2", "--K", "1"],
             ["implications", "--f", "power:2", "--space", "flat:4",
              "--R", "1"],
             ["suite", "--out", "suite.json"]):
    assert cli.main(argv) == 0, argv
ms.table_weight_space(4, 5.0, [0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 2.0, 4.5])
packages = {"scipy", "scipy.linalg", "scipy.optimize", "scipy.interpolate"}
assert not packages & set(sys.modules), sorted(packages & set(sys.modules))
"""


def test_solver_commands_load_no_scipy_package(tmp_path):
    # pdelab loads only the compiled LAPACK module, the curvature minimum
    # uses modelspace's own bounded minimizer, and the scaling check and
    # tabulated weights use pdelab's own cubic spline
    _run_probe(tmp_path, _SOLVER_PROBE)


_DGTSV_PROBE = """
import sys
import numpy as np
from ellab import pdelab

# two lanes of one tridiagonal system, uncoupled across the lane boundary
rng = np.random.default_rng(3)
m = 8
dl, du = rng.uniform(0.5, 1.0, 2 * m - 1), rng.uniform(0.5, 1.0, 2 * m - 1)
dl[m - 1] = du[m - 1] = 0.0
d = -rng.uniform(3.0, 4.0, 2 * m)
b = rng.normal(size=2 * m)
loaded = pdelab._dgtsv()(dl, d, du, b)
assert "scipy.linalg" not in sys.modules

import scipy.linalg
from scipy.linalg.lapack import dgtsv
assert dgtsv is pdelab._dgtsv()
assert scipy.linalg.lapack._flapack is sys.modules["scipy.linalg._flapack"]
reference = dgtsv(dl, d, du, b)
assert loaded[-1] == reference[-1] == 0
assert all(np.array_equal(x, y) for x, y in zip(loaded, reference))
"""


def test_loaded_dgtsv_is_scipys(tmp_path):
    _run_probe(tmp_path, _DGTSV_PROBE)


def test_determinism_byte_identical(tmp_path):
    def once(name):
        out = tmp_path / name
        run(["verify", "--theorem", "1.9", "--space", "flat:4", "--f", "power:2",
             "--R", "1", "--grid", "256", "--seed", "7", "--out", str(out)])
        return out.read_bytes()

    assert once("a.json") == once("b.json")


def test_config_hash_tracks_config(tmp_path):
    out1, out2 = tmp_path / "i1.json", tmp_path / "i2.json"
    run(["indices", "--f", "power:2", "--N", "5", "--out", str(out1)])
    run(["indices", "--f", "power:2", "--N", "4", "--out", str(out2)])
    h1 = json.loads(out1.read_text())["config_hash"]
    h2 = json.loads(out2.read_text())["config_hash"]
    assert h1 != h2


def test_suite_exit_code(tmp_path, monkeypatch, capsys):
    out = tmp_path / "suite.json"
    assert run(["suite", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["all_passed"] is True
    assert len(data["criteria"]) == 11

    from ellab import acceptance

    def failing():
        return acceptance.CriterionResult(99, "forced failure", False)

    monkeypatch.setattr(acceptance, "CRITERIA", [failing])
    assert run(["suite"]) == 1


# --- golden certificates ----------------------------------------------------------

@pytest.mark.parametrize("name,argv", [
    ("cert_13_N4_power2.json",
     ["certify", "--f", "power:2", "--N", "4", "--theorem", "1.3"]),
    ("cert_17_N5_power2.json",
     ["certify", "--f", "power:2", "--N", "5", "--theorem", "1.7"]),
    ("cert_8_N4_allen_cahn.json",
     ["certify", "--f", "lich:1,1,3,0,0.5", "--N", "4", "--theorem", "8"]),
    ("cert_15_N2.5_allen_cahn.json",
     ["certify", "--f", "lich:1,1,3,0,0.5", "--N", "2.5", "--theorem", "1.5",
      "--alpha", "2.8"]),
    ("indices_N5_powersum23.json",
     ["indices", "--f", "powersum:1,2;1,3", "--N", "5"]),
    ("indices_N4_lich_b0.json",
     ["indices", "--f", "lich:1,0,3,2,0.5", "--N", "4"]),
])
def test_golden_certificates(tmp_path, name, argv):
    out = tmp_path / name
    assert run(argv + ["--out", str(out)]) == 0
    expected = (GOLDEN / name).read_text()
    assert out.read_text() == expected
