"""CLI behavior: parsing, exit codes, determinism, golden regression."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ellab import cli
from ellab.constants import MARGIN_TOL
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


def test_second_index_is_a_limit_at_zero(tmp_path):
    # for t^2 + t^10 every pair sum of exponents is above 1, so t^2 f''/f
    # rises from its limit 2 * 1 at t -> 0
    out = tmp_path / "idx.json"
    assert run(["indices", "--f", "powersum:1,2;1,10", "--N", "5",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["indices"]["second_order_index"] == 2.0
    out = tmp_path / "cert.json"
    run(["certify", "--f", "powersum:1,2;1,10", "--N", "1.2", "--theorem", "1.3",
         "--out", str(out)])
    data = json.loads(out.read_text())
    assert data["indices"]["second_order_index"] == 2.0
    assert isinstance(data["notes"]["H_at_choice"], float)


@pytest.mark.parametrize("f,lower,upper", [("powersum:1,45;1,50", 45.0, 50.0),
                                           ("powersum:1,2;1,45", 2.0, 45.0)])
def test_indices_of_high_exponents(tmp_path, f, lower, upper):
    # t^45 under- and overflows for t far from 1; f stays positive, and
    # the RuntimeWarning filter fails the test on any overflow warning.
    # Every pair sum of exponents is above 1, so the second index is the
    # limit lower * (lower - 1) at t -> 0, exactly
    out = tmp_path / "idx.json"
    assert run(["indices", "--f", f, "--N", "5", "--out", str(out)]) == 0
    idx = json.loads(out.read_text())["indices"]
    assert (idx["lower_index"], idx["upper_index"]) == (lower, upper)
    assert idx["second_order_index"] == lower * (lower - 1)


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


def test_implications_below_the_coarse_branch_bottom_reaches_newton(tmp_path,
                                                                    capsys):
    # f = t + 2 sqrt(t): the coarse march bottoms out at 0.0031, but the
    # refined branch reaches below 1e-3, so the sweep passes its lower check
    # and the Newton solve from a constant start fails by name
    out = tmp_path / "impl.json"
    assert run(["implications", "--f", "lich:1,0,3,2,0.5", "--space", "flat:4",
                "--R", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "no positive iterate with residual decrease" in err
    assert "below 0.0031" not in err
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
    # at 0.99999 of (1, p_S(5)) the exact W0 margin, on the big side of the
    # small-set edge, is 4.9e-12: below the tolerance
    top = tmp_path / "top.json"
    assert run(["certify", "--f", "power:2.3333200000000005", "--N", "5",
                "--theorem", "1.9", "--out", str(top)]) == 1
    data = json.loads(top.read_text())
    ver = data["verification"]
    assert data["status"] == "infeasible" and ver["worst_floor"] == "W0"
    assert 0 < ver["worst_margin"] < MARGIN_TOL
    assert ver["worst_at"]["small_set"] is False


@pytest.mark.parametrize("argv, message", [
    (["--N", "2", "--theorem", "1.9"],
     "u f'/f or u^2 f''/f is not finite at u = 1e-06"),
    (["--N", "3", "--theorem", "1.5", "--alpha", "1.5"],
     "AM-GM slots not finite at u = 1e-06"),
])
def test_certify_refuses_overflowing_ratios(tmp_path, capsys, argv, message):
    # t^(+-1e6) overflows on the grid, so the ratios and the slots built
    # from them are NaN; a NaN margin must not certify, and no
    # RuntimeWarning may escape (pytest turns one into an error)
    out = tmp_path / "cert.json"
    assert run(["certify", "--f", "powersum:1,-1e6;1,0.5;1,1e6", *argv,
                "--out", str(out)]) == 1
    assert f"check failure: {message}" in capsys.readouterr().err
    assert not out.exists()


# --- the command table ----------------------------------------------------------

README_OPS = {
    "indices": ["--f", "power:2", "--N", "5"],
    "certify": ["--f", "power:2", "--N", "4", "--theorem", "1.3"],
    "solve": ["--f", "power:2", "--space", "flat:4", "--R", "1", "--bv", "0.5"],
    "verify": ["--theorem", "1.9", "--space", "flat:4", "--f", "power:2",
               "--R", "1"],
    "appendix": ["--N", "5", "--alpha", "2", "--K", "1"],
    "implications": ["--f", "power:2", "--space", "flat:4", "--R", "1"],
    "suite": [],
}


@pytest.mark.parametrize("command, extra, named", [
    ("indices", ["--grid", "7"], "--grid"),
    ("certify", ["--space", "flat:4"], "--space"),
    ("solve", ["--N", "5"], "--N"),
    ("verify", ["--seed", "3"], "--seed"),
    ("appendix", ["--f", "power:2"], "--f"),
    ("implications", ["--tol", "1e-3"], "--tol"),
    ("suite", ["--f", "power:2"], "--f"),
    ("solve", ["--emit-plot-data", "--seed", "0"], "--seed"),
])
def test_unread_flag_is_a_config_error(tmp_path, capsys, command, extra, named):
    out = tmp_path / "out.json"
    argv = [command] + README_OPS[command] + extra + ["--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {command} does not read {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["grid", "seed", "command", "config", "bogus"])
def test_unread_config_key_is_a_config_error(tmp_path, capsys, key):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"f": "power:2", "N": 5.0, key: 7}))
    out = tmp_path / "idx.json"
    assert run(["indices", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: indices does not read config key {key!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, missing", [
    (["indices", "--N", "5"], "--f"),
    (["solve", "--f", "power:2", "--R", "1"], "--space, --bv"),
    (["verify", "--theorem", "1.9", "--f", "power:2", "--R", "1"], "--space"),
    (["implications", "--f", "power:2", "--R", "1"], "--space"),
    (["certify", "--f", "power:2"], "--N, --theorem"),
    (["appendix", "--N", "5", "--K", "1"], "--alpha"),
])
def test_missing_needed_flag_is_a_config_error(tmp_path, capsys, argv, missing):
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == 2
    command = argv[0]
    assert capsys.readouterr().err == f"config error: {command} needs {missing}\n"
    assert not out.exists()


def test_command_table_matches_the_parser():
    parser = cli.build_parser()
    flags = {a.dest for a in parser._actions} - {"help", "command"}
    read = set()
    for _, reads, needs in cli.COMMANDS.values():
        assert set(needs) <= set(reads) <= flags
        read |= set(reads)
    assert flags - read == {"out", "config"}
    assert sorted(cli.COMMANDS) == sorted(README_OPS)


def test_readme_lists_the_flags_each_command_reads():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    for name, (_, reads, needs) in cli.COMMANDS.items():
        row = next(line for line in readme.splitlines()
                   if line.startswith(f"| `{name}` |"))
        listed = row.split("|")[2].replace("*", "").replace("`", "")
        listed = [f.strip() for f in listed.split(",") if f.strip() != "none"]
        assert sorted(listed) == sorted("--" + k.replace("_", "-") for k in reads)
        for key in needs:
            assert f"**`--{key}`**" in row


# the config_hash of each README report op; `solve` writes no report and the
# `suite` report has no hash.  `verify` and `implications` hash their --bv
# (and --R) defaults, so each equals the hash of its op with those given.
README_HASHES = {
    "indices": "7feadc5a04bf2cb2a0a313d9376395ebc9519ba4a0b665080cf2656020b36ba8",
    "certify": "80d9abad3bb229d8623c1407cc2fa2a287031d245b5f5ba2db117e7d1445ffe1",
    "verify": "13231ea17ee66ca3ba937a12062afd54dd6558bfd0f8cc9ec05f14604a3859a9",
    "appendix": "5e5192059726a1d9bd8e018f32ec19b47cb0226f0bf708699a5ac785cc0461c5",
    "implications": "bae7bc3aee7136b2ff9982fc7283f18547f506d9dd664fd0dbc1bc3df2b9fdc8",
}


@pytest.mark.parametrize("command", sorted(README_HASHES))
def test_readme_config_hashes_are_pinned(tmp_path, command):
    out = tmp_path / "out.json"
    assert run([command] + README_OPS[command] + ["--out", str(out)]) == 0
    assert json.loads(out.read_text())["config_hash"] == README_HASHES[command]


@pytest.mark.parametrize("argv, defaults", [
    (["verify", "--theorem", "1.9", "--space", "flat:4", "--f", "power:2",
      "--R", "1"], ["--bv", "0.5"]),
    (["implications", "--f", "power:2", "--space", "flat:4"],
     ["--R", "1", "--bv", "1e-3"]),
])
def test_default_flags_hash_like_given_ones(tmp_path, argv, defaults):
    reports = []
    for extra in ([], defaults):
        out = tmp_path / f"{len(extra)}.json"
        assert run(argv + extra + ["--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


def test_verify_hash_covers_delta(tmp_path):
    base = ["verify", "--theorem", "8", "--f", "lich:1,1,3,0,0.5",
            "--space", "flat:4", "--R", "1", "--bv", "1"]
    reports = []
    for delta in ("0.3", "0.6"):
        out = tmp_path / f"d{delta}.json"
        assert run(base + ["--delta", delta, "--out", str(out)]) == 0
        reports.append(json.loads(out.read_text()))
    a, b = reports
    assert a["certificate"]["delta"] != b["certificate"]["delta"]
    assert a["config_hash"] != b["config_hash"]


@pytest.mark.parametrize("command", [
    ["certify", "--f", "power:2", "--N", "4"],
    ["verify", "--f", "power:2", "--space", "flat:4", "--R", "1"],
])
@pytest.mark.parametrize("theorem, flag", [
    ("1.3", "--alpha"), ("1.7", "--alpha"), ("8", "--alpha"),
    ("1.3", "--delta"), ("1.5", "--delta"), ("1.9", "--delta"),
])
def test_theorem_rejects_a_flag_it_does_not_read(tmp_path, capsys, command,
                                                 theorem, flag):
    out = tmp_path / "out.json"
    argv = command + ["--theorem", theorem, flag, "0.1", "--out", str(out)]
    assert run(argv) == 2
    assert capsys.readouterr().err == (f"config error: theorem {theorem} "
                                       f"does not read {flag}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["certify", "--f", "power:2", "--N", "4"],
    ["verify", "--f", "power:2", "--space", "flat:4", "--R", "1"],
])
def test_unknown_theorem_is_a_config_error(tmp_path, capsys, command):
    out = tmp_path / "out.json"
    assert run(command + ["--theorem", "2.1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: unknown theorem id "
                                       "'2.1'\n")
    assert not out.exists()


def test_indices_alpha_needs_n(tmp_path, capsys):
    out = tmp_path / "out.json"
    assert run(["indices", "--f", "power:2", "--alpha", "2.5",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == ("config error: indices reads --alpha "
                                       "only with --N\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, named", [
    (["indices", "--N", "5", "--f", '{"family":"power","alpha":2,"beta":7}'],
     "unknown key 'beta'"),
    (["verify", "--theorem", "1.9", "--f", "power:2", "--R", "1", "--space",
      '{"n":4,"N":5,"wieght":{"kind":"appendix","alpha":2,'
      '"mu":1.4142135623730951}}'], "unknown key 'wieght'"),
    (["verify", "--theorem", "1.9", "--f", "power:2", "--R", "1", "--space",
      '{"n":4,"N":5,"weight":{"kind":"appendix","alpha":2,"mu":1.5,"K":1}}'],
     "unknown key 'K'"),
])
def test_unknown_inline_json_key_is_a_config_error(tmp_path, capsys, argv,
                                                  named):
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: bad ") and named in err
    assert not out.exists()


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


VERIFY_19 = ["verify", "--theorem", "1.9", "--f", "power:2", "--R", "0.5"]


@pytest.mark.parametrize("argv, named", [
    (["implications", "--f", "power:2", "--space", "flat:4:nan", "--R", "1",
      "--grid", "64"], "'flat:4:nan'"),
    (VERIFY_19 + ["--space", "appendix:5,2,nan"], "'appendix:5,2,nan'"),
    (["indices", "--f", "lich:1,1,3,0,nan", "--N", "5"], "'lich:1,1,3,0,nan'"),
    (["indices", "--f", "power:inf", "--N", "5"], "'power:inf'"),
    (["indices", "--f", "powersum:1,2;-inf,3", "--N", "5"],
     "'powersum:1,2;-inf,3'"),
    (["indices", "--f", '{"family": "power", "alpha": NaN}', "--N", "5"],
     '\'{"family": "power", "alpha": NaN}\''),
    (VERIFY_19 + ["--space", '{"n": 4, "N": Infinity}'],
     '\'{"n": 4, "N": Infinity}\''),
    (VERIFY_19 + ["--space", '{"n": 4, "N": 5, "weight": {"kind": "appendix", '
                             '"alpha": 2, "mu": NaN}}'], '"mu": NaN'),
    (VERIFY_19 + ["--space", '{"n": 4, "N": 5, "weight": {"kind": "appendix", '
                             '"alpha": Infinity, "mu": 1}}'], "alpha must be finite"),
    (VERIFY_19 + ["--space", "appendix:5,2,inf"], "'appendix:5,2,inf'"),
] + [((["indices", "--f", "power:2"] if flag in ("N", "alpha")
       else VERIFY_19 + ["--space", "flat:4"]) + [f"--{flag}={value}"],
      f"--{flag} must be finite")
     for flag, value in [("R", "inf"), ("bv", "inf"), ("N", "inf"), ("K", "inf"),
                         ("alpha", "nan"), ("delta", "inf"), ("tol", "inf"),
                         ("alpha", "-inf")]])
def test_non_finite_input_is_a_config_error(tmp_path, capsys, argv, named):
    out = tmp_path / "out.json"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err
    assert not out.exists()


def test_non_finite_config_value_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"f": "power:2", "space": "flat:4", "R": 1.0,
                               "bv": float("nan")}))
    out = tmp_path / "prof.csv"
    assert run(["solve", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: --bv must be finite, got nan")
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
    base = ["appendix", "--N", "5", "--alpha", "2", "--K", "1"]
    outs = [tmp_path / f"a{k}.json" for k in range(3)]
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
                               "theorem": "1.5", "alpha": 2.8}))
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
from pathlib import Path
from ellab import cli, reporting

ellab = {m for m in sys.modules if m.split(".")[0] == "ellab"}
assert ellab == {"ellab", "ellab.cli", "ellab.errors", "ellab.nonlinearity",
                 "ellab.reporting"}, sorted(ellab)
assert "numpy" not in sys.modules
for f in ("power:2", "powersum:1,2;1,3", "lich:1,1,3,0,0.5"):
    for flags in ([], ["--N", "4"], ["--N", "4", "--alpha", "2.5"]):
        assert cli.main(["indices", "--f", f, *flags, "--out", "i.json"]) == 0
# without numpy the emitter writes the goldens' bytes
for name, f, N in (("indices_N5_powersum23.json", "powersum:1,2;1,3", "5"),
                   ("indices_N4_allen_cahn.json", "lich:1,1,3,0,0.5", "4")):
    assert cli.main(["indices", "--f", f, "--N", N, "--out", name]) == 0
    assert Path(name).read_bytes() == (Path(GOLDEN) / name).read_bytes(), name
assert "numpy" not in sys.modules
sample = {"x": [0.1, -0.0, float("nan"), float("-inf"), 2**70, True, None],
          "s": "a\\n", "e": {}}
plain = reporting.dumps(sample)

for argv in (["--f", "power:2", "--N", "4", "--theorem", "1.3"],
             ["--f", "power:2", "--N", "5", "--theorem", "1.7"],
             ["--f", "power:2.5", "--N", "4", "--theorem", "1.9"],
             ["--f", "lich:1,1,3,0,0.5", "--N", "4", "--theorem", "8"],
             ["--f", "lich:1,1,3,0,0.5", "--N", "2.5", "--theorem", "1.5",
              "--alpha", "2.8"]):
    assert cli.main(["certify", *argv, "--out", "c.json"]) == 0, argv
assert "numpy" in sys.modules and reporting.dumps(sample) == plain
loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
assert not loaded, sorted(loaded)[:3]
unused = {"ellab.modelspace", "ellab.pdelab", "ellab.relations",
          "ellab.acceptance"} & set(sys.modules)
assert not unused, sorted(unused)
"""

_APPENDIX_PROBE = """
import sys
from ellab import cli

assert cli.main(["appendix", "--N", "5", "--alpha", "2", "--K", "1",
                 "--out", "a.json"]) == 0
unused = {"ellab.constants", "ellab.pdelab"} & set(sys.modules)
assert not unused, sorted(unused)
"""


def test_cheap_commands_load_only_what_they_run(tmp_path):
    # `import ellab.cli` loads no numpy and `indices` runs on math alone;
    # `certify` loads no space, solver or battery, `appendix` no constants
    _run_probe(tmp_path, f"GOLDEN = {str(GOLDEN)!r}\n" + _CHEAP_PROBE)
    _run_probe(tmp_path, _APPENDIX_PROBE)


_TABLES_PROBE = """
import sys
from ellab import cli

for argv in (["indices", "--f", "power:2", "--N", "5", "--out", "i.json"],
             ["certify", "--f", "power:2", "--N", "4", "--theorem", "1.3",
              "--out", "c.json"],
             ["appendix", "--N", "5", "--alpha", "2", "--K", "1",
              "--out", "a.json"]):
    assert cli.main(argv) == 0, argv
assert "ellab._csvtables" not in sys.modules
"""


def test_cold_commands_build_no_csv_tables(tmp_path):
    # the CSV writer's module builds its tables when it loads, on the
    # first CSV written
    _run_probe(tmp_path, _TABLES_PROBE)


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
table = ms.table_weight_space(4, 5.0, [0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 2.0, 4.5])
ms.curvature_bound(table, 3.0)
packages = {"scipy", "scipy.linalg", "scipy.optimize", "scipy.interpolate"}
assert not packages & set(sys.modules), sorted(packages & set(sys.modules))
"""


def test_solver_commands_load_no_scipy_package(tmp_path):
    # pdelab loads only the compiled LAPACK module, the curvature minimum
    # takes candidate radii from closed forms and numpy's polynomial roots,
    # and tabulated weights use pdelab's own cubic spline
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
    def once(argv, name):
        out = tmp_path / name
        assert run(argv + ["--out", str(out)]) == 0
        return out.read_bytes()

    # verify reads no seed; appendix seeds its sampled eigenvalue check
    for argv in (["verify", "--theorem", "1.9", "--space", "flat:4",
                  "--f", "power:2", "--R", "1", "--grid", "256"],
                 ["appendix", "--N", "5", "--alpha", "2", "--K", "1",
                  "--seed", "7"]):
        assert once(argv, "a.json") == once(argv, "b.json")


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


# --- in-process caches ----------------------------------------------------------

def caches():
    """The memoized grid-independent steps of a run: imported here, so the
    module's probes of what a cheap command loads stay untouched."""
    from ellab import modelspace as ms
    from ellab import pdelab as pde
    return cli.parse_space, ms.curvature_bound, pde.branch


def test_caches_are_bounded():
    for cache in caches():
        assert isinstance(cache.cache_parameters()["maxsize"], int)


@pytest.mark.parametrize("argv", [
    ["implications", "--f", "power:2", "--space", "appendix:5,2,1", "--R", "1",
     "--grid", "512"],
    ["verify", "--theorem", "1.9", "--space", "appendix:5,2,1", "--f",
     "power:2", "--R", "1"],
])
def test_a_warm_run_writes_the_bytes_of_a_cold_one(tmp_path, argv):
    parse_space, curvature_bound, branch = caches()
    for cache in caches():
        cache.cache_clear()
    written = []
    for name in ("cold", "warm"):
        out = tmp_path / f"{name}.json"
        assert run(argv + ["--out", str(out)]) == 0
        written.append([p.read_bytes() for p in (out, out.with_suffix(".csv"))
                        if p.exists()])
    assert written[0] == written[1]
    assert parse_space.cache_info().hits == 1
    assert curvature_bound.cache_info().hits == 1
    assert branch.cache_info().hits == (argv[0] == "implications")


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
    ("indices_N4_allen_cahn.json",
     ["indices", "--f", "lich:1,1,3,0,0.5", "--N", "4"]),
    ("implications_flat4_power2.json",
     ["implications", "--f", "power:2", "--space", "flat:4", "--R", "1",
      "--grid", "512"]),
    ("appendix_N5_alpha2_K1.json",
     ["appendix", "--N", "5", "--alpha", "2", "--K", "1"]),
])
def test_golden_certificates(tmp_path, name, argv):
    out = tmp_path / name
    assert run(argv + ["--out", str(out)]) == 0
    expected = (GOLDEN / name).read_text()
    assert out.read_text() == expected
    # a command that writes a CSV beside its report has a golden CSV too
    csv = out.with_suffix(".csv")
    if csv.exists():
        assert csv.read_text() == (GOLDEN / csv.name).read_text()
