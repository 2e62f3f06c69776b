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


def test_parse_errors():
    with pytest.raises(ConfigError):
        cli.parse_nonlinearity("nope:1")
    with pytest.raises(ConfigError):
        cli.parse_space("sphere:3")


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
    assert out.with_suffix(".plot.csv").exists()


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
])
def test_out_of_range_flags_exit_two(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


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


_IMPORT_PROBE = """
import sys
from ellab import cli

def run_all(*argvs):
    for argv in argvs:
        assert cli.main(argv) == 0, argv

run_all(["indices", "--f", "power:2", "--N", "5", "--out", "i.json"],
        ["certify", "--f", "power:2", "--N", "4", "--theorem", "1.3",
         "--out", "c.json"])
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, sorted(loaded)[:3]
run_all(["solve", "--f", "power:2", "--space", "flat:4", "--R", "1",
         "--bv", "0.5", "--grid", "128", "--out", "p.csv"],
        ["verify", "--theorem", "1.9", "--space", "flat:4", "--f", "power:2",
         "--R", "1", "--grid", "128", "--out", "v.json"])
loaded = [m for m in sys.modules
          if m.split(".")[:2] in (["scipy", "optimize"], ["scipy", "interpolate"])]
assert not loaded, sorted(loaded)[:3]
"""


def test_cheap_commands_load_no_scipy(tmp_path):
    # a fresh interpreter, so modules imported by other tests do not count
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
