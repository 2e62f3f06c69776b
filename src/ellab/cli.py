"""Batch command-line front door.

Subcommands map one-to-one onto the library: `indices` (structural indices
and hypothesis tables), `certify` (parameter synthesis plus grid
certification), `solve` (radial profiles to CSV), `verify` (estimate checks),
`appendix` (the exact-family verification bundle), `implications` (corpus
arrow checks), and `suite` (the acceptance battery).

Reports are canonical JSON (sorted keys, 17 significant digits) embedding a
content hash of the run configuration, so identical configurations produce
byte-identical files.  Exit codes: 0 success, 1 a verification failed,
2 usage or configuration error, an out-of-range numeric flag included.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import constants as ct
from . import modelspace as ms
from . import nonlinearity as nl
from . import reporting
from .errors import ConfigError, InvalidAlpha, LabError

# acceptance, pdelab and relations are imported inside the commands that use
# them, so `indices` and `certify` load neither the solver nor the battery.

DEFAULT_GRID = 1024
DEFAULT_TOL = 1e-11

# lower limits of the numeric flags: (flag, limit, whether the limit is allowed)
FLAG_RANGES = (("R", 0.0, False), ("bv", 0.0, False), ("grid", 3, True),
               ("N", 1.0, True), ("K", 0.0, True), ("tol", 0.0, False))


# what a malformed --f or --space raises while it is parsed; JSONDecodeError
# is a ValueError, and an inline JSON space whose weight is not an object
# fails on its `.get` with an AttributeError
PARSE_ERRORS = (ValueError, KeyError, TypeError, AttributeError, LabError)


def parse_nonlinearity(text: str) -> nl.NonlinearitySpec:
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    try:
        if text.strip().startswith("{"):
            return nl.from_json(json.loads(text))
        if kind == "power":
            return nl.power(float(rest))
        if kind == "powersum":
            terms = [tuple(float(x) for x in grp.split(","))
                     for grp in rest.split(";")]
            return nl.power_sum(terms)
        if kind in ("lich", "lichnerowicz"):
            a, b, sigma, c, tau = (float(x) for x in rest.split(","))
            return nl.lichnerowicz(a, b, sigma, c, tau)
    except PARSE_ERRORS as exc:
        raise ConfigError(f"bad nonlinearity {text!r}: {exc}") from exc
    raise ConfigError(f"unknown nonlinearity {text!r}")


def parse_space(text: str) -> ms.WeightedSpace:
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    try:
        if text.strip().startswith("{"):
            return ms.from_json(json.loads(text))
        if kind == "flat":
            parts = rest.split(":")
            n = int(parts[0])
            N = float(parts[1]) if len(parts) > 1 else None
            return ms.flat(n, N)
        if kind == "appendix":
            N, alpha, K = (float(x) for x in rest.split(","))
            return ms.appendix_space(N, alpha, K).space
    except PARSE_ERRORS as exc:
        raise ConfigError(f"bad space {text!r}: {exc}") from exc
    raise ConfigError(f"unknown space {text!r}")


def _write_report(obj: dict, out: str | None, default_name: str) -> Path:
    path = Path(out) if out else Path(default_name)
    reporting.dump(obj, path)
    return path


def _dimension(args, space: ms.WeightedSpace) -> float:
    """--N, or the space's own N; the curvature condition needs N >= n."""
    if args.N is None:
        return float(space.N)
    if args.N < space.n:
        raise ConfigError(f"--N must be >= the space's dimension {space.n}, "
                          f"got {args.N!r}")
    return args.N


def _certificate(args, spec: nl.NonlinearitySpec, N: float) -> ct.Certificate:
    """The --theorem certificate, synthesized and checked against --f."""
    idx = nl.compute_indices(spec)
    # 1.9 builds its certificate for power(--alpha) but checks it against --f,
    # so a pure power of another exponent contradicts --alpha
    if (nl.normalize_theorem(args.theorem) == "1.9" and args.alpha is not None
            and idx.lower == idx.upper != args.alpha):
        raise ConfigError(f"--alpha {args.alpha:g} contradicts the power "
                          f"{idx.upper:g} of --f for theorem 1.9")
    cert = ct.synthesize(N, idx, args.theorem, spec=spec,
                         alpha=args.alpha, delta=args.delta)
    return ct.certify(cert, spec, N)


def _config_dict(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


# --- subcommands -------------------------------------------------------------


def cmd_indices(args) -> int:
    spec = parse_nonlinearity(args.f)
    idx = nl.compute_indices(spec)
    N = args.N
    report = {"nonlinearity": nl.to_json(spec), "indices": idx.as_dict()}
    if N is not None:
        upper = idx.upper if idx.upper_finite else None
        es = nl.critical_exponents(N, upper if N > 1 else None)
        report["exponents"] = es.as_dict()
        hyp = {}
        for thm in ("1.3", "1.7"):
            hyp[thm] = nl.check_hypotheses(spec, N, thm, indices=idx).as_dict()
        if args.alpha is not None:
            hyp["1.5"] = nl.check_hypotheses(spec, N, "1.5", alpha=args.alpha,
                                             indices=idx).as_dict()
        report["hypotheses"] = hyp
    cfg = _config_dict(args, ("f", "N", "alpha", "seed"))
    report["config_hash"] = reporting.config_hash(cfg)
    path = _write_report(report, args.out, "indices.json")
    print(f"wrote {path}")
    return 0


def cmd_certify(args) -> int:
    spec = parse_nonlinearity(args.f)
    if args.N is None:
        raise ConfigError("certify needs --N")
    if args.theorem is None:
        raise ConfigError("certify needs --theorem")
    cert = _certificate(args, spec, args.N)
    report = cert.as_dict()
    report["nonlinearity"] = nl.to_json(spec)
    cfg = _config_dict(args, ("f", "N", "theorem", "alpha", "delta", "seed"))
    report["config_hash"] = reporting.config_hash(cfg)
    path = _write_report(report, args.out, f"certificate_{cert.theorem}.json")
    print(f"wrote {path} (status: {cert.status}, "
          f"worst margin {cert.verification['worst_margin']:.3e})")
    return 0 if cert.status == "certified" else 1


def cmd_solve(args) -> int:
    from . import pdelab as pde

    spec = parse_nonlinearity(args.f)
    space = parse_space(args.space)
    if args.R is None or args.bv is None:
        raise ConfigError("solve needs --R and --bv")
    cfg = pde.SolverConfig(m=args.grid, tol=args.tol)
    prof = pde.solve_radial_bvp(space, spec, args.R, args.bv, cfg)
    header, cols = pde.profile_table(prof)
    path = Path(args.out) if args.out else Path("profile.csv")
    plot_path = path.with_suffix(".plot.csv")
    tables = [(path, header, cols)]
    if args.emit_plot_data:
        # the plot's diagnostic is the profile's Q column
        plot = [cols[header.index(name)] for name in ("r", "Q")]
        tables.append((plot_path, ["r", "diag"], plot))
    reporting.write_csv_tables(tables)
    print(f"wrote {path} (residual {prof.residual_norm:.3e}, "
          f"{prof.meta['newton_iterations']} Newton steps)")
    if args.emit_plot_data:
        print(f"wrote {plot_path}")
    return 0


def cmd_verify(args) -> int:
    from . import pdelab as pde

    spec = parse_nonlinearity(args.f)
    space = parse_space(args.space)
    if args.R is None or args.theorem is None:
        raise ConfigError("verify needs --R and --theorem")
    N = _dimension(args, space)
    cert = _certificate(args, spec, N)
    K = args.K if args.K is not None else ms.curvature_bound(space, 2 * args.R).K
    bv = args.bv if args.bv is not None else 0.5
    prof = pde.solve_radial_bvp(space, spec, args.R, bv,
                                pde.SolverConfig(m=args.grid, tol=args.tol))
    kind = pde._KIND_FOR_THEOREM[cert.theorem][0]
    rep = pde.check_estimate(prof, cert, K, args.R, kind)
    report = rep.as_dict()
    report["certificate"] = cert.as_dict()
    cfg = _config_dict(args, ("f", "space", "N", "K", "R", "theorem", "alpha",
                              "bv", "grid", "tol", "seed"))
    report["config_hash"] = reporting.config_hash(cfg)
    path = _write_report(report, args.out, "estimate.json")
    print(f"wrote {path} (kind {rep.kind}: measured {rep.measured:.6g} "
          f"vs bound {rep.bound:.6g} -> {'pass' if rep.passed else 'FAIL'})")
    return 0 if rep.passed else 1


def cmd_appendix(args) -> int:
    if args.N is None or args.alpha is None or args.K is None:
        raise ConfigError("appendix needs --N, --alpha and --K")
    try:
        asp = ms.appendix_space(args.N, args.alpha, args.K)
    except (ValueError, InvalidAlpha) as exc:
        raise ConfigError(f"bad appendix space: {exc}") from exc
    rel_res = ms.appendix_relative_residual(asp)
    rng = np.random.default_rng(args.seed if args.seed is not None else 0)
    worst_eig = ms.eigenvalue_deviation(asp.space, rng, 100)
    curv = ms.curvature_bound(asp.space, 50.0 * asp.mu)
    sup, ratio, argmax = ms.sharpness_quantity(asp)
    checks = {
        "residual_ok": rel_res <= 1e-10,
        "eigenvalues_ok": worst_eig <= 1e-10,
        "curvature_round_trip_ok": abs(curv.K - args.K) <= 1e-10 * args.K,
    }
    report = {
        "space": asp.as_dict(),
        "max_relative_residual": rel_res,
        "worst_eigenvalue_deviation": worst_eig,
        "recovered_K": curv.K,
        "sharpness_sup": sup,
        "sharpness_ratio": ratio,
        "sharpness_argmax_r": argmax,
        "checks": checks,
    }
    cfg = _config_dict(args, ("N", "alpha", "K", "seed"))
    report["config_hash"] = reporting.config_hash(cfg)
    path = _write_report(report, args.out, "appendix.json")
    ok = all(checks.values())
    print(f"wrote {path} (mu {asp.mu:.12g}, residual {rel_res:.3e}, "
          f"sharpness ratio {ratio:.9g})")
    return 0 if ok else 1


def cmd_implications(args) -> int:
    from . import relations as rel

    spec = parse_nonlinearity(args.f)
    space = parse_space(args.space)
    R = args.R if args.R is not None else 1.0
    N = _dimension(args, space)
    K = args.K if args.K is not None else ms.curvature_bound(space, 2 * R).K
    lo = args.bv if args.bv is not None else 1e-3
    _, corpus = rel.boundary_sweep(space, spec, R, args.grid, lo)
    rep = rel.implication_suite(corpus, N, spec, K, R)
    report = rep.as_dict()
    cfg = _config_dict(args, ("f", "space", "N", "K", "R", "bv", "grid", "seed"))
    report["config_hash"] = reporting.config_hash(cfg)
    path = _write_report(report, args.out, "implications.json")
    header, cols = rep.csv_matrix()
    csv_path = path.with_suffix(".csv")
    reporting.write_csv(csv_path, header, cols)
    ok = rep.arrows["gradient_to_harnack"]["sharp_bound_holds"]
    print(f"wrote {path} and {csv_path} "
          f"({len(rep.rows)} profiles, arrows "
          f"{'hold' if ok else 'VIOLATED'})")
    return 0 if ok else 1


def cmd_suite(args) -> int:
    from . import acceptance

    results = acceptance.run_suite(printer=print)
    report = {"criteria": [
        {"number": r.number, "name": r.name, "passed": r.passed,
         "details": r.details}
        for r in results]}
    report["all_passed"] = all(r.passed for r in results)
    if args.out:
        _write_report(report, args.out, "suite.json")
        print(f"wrote {args.out}")
    total = len(results)
    good = sum(r.passed for r in results)
    print(f"{good}/{total} criteria passed")
    return 0 if good == total else 1


COMMANDS = {
    "indices": cmd_indices,
    "certify": cmd_certify,
    "solve": cmd_solve,
    "verify": cmd_verify,
    "appendix": cmd_appendix,
    "implications": cmd_implications,
    "suite": cmd_suite,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: building it costs about ten times a
    `parse_args` call, and neither `parse_args` nor `_merge_config` changes
    it, so every `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="ellab",
        description="estimate laboratory for semilinear elliptic equations "
                    "on weighted model spaces")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--f", help="nonlinearity: power:2 | powersum:1,2;1,3 "
                                    "| lich:a,b,sigma,c,tau | JSON")
    parser.add_argument("--space", help="space: flat:n[:N] | appendix:N,alpha,K | JSON")
    parser.add_argument("--N", type=float, help="synthetic dimension")
    parser.add_argument("--K", type=float, help="curvature constant")
    parser.add_argument("--R", type=float, help="estimate radius (domain is [0, 2R])")
    parser.add_argument("--theorem", help="estimate id: 1.3 | 1.5 | 1.7 | 1.8 | 1.9 | 8")
    parser.add_argument("--alpha", type=float, help="power/comparison exponent")
    parser.add_argument("--delta", type=float, help="quadratic-loss parameter")
    parser.add_argument("--bv", type=float, help="boundary value")
    parser.add_argument("--grid", type=int,
                        help=f"grid intervals (default {DEFAULT_GRID})")
    parser.add_argument("--tol", type=float,
                        help=f"solver tolerance (default {DEFAULT_TOL:g})")
    parser.add_argument("--out", help="output path")
    parser.add_argument("--emit-plot-data", action="store_true",
                        help="also write (r, diagnostic) tables")
    parser.add_argument("--seed", type=int, help="seed for sampled checks")
    parser.add_argument("--config", help="JSON file with the same keys as the flags")
    return parser


def _merge_config(parser: argparse.ArgumentParser, args) -> None:
    """Fill the flags left unset on the command line from the --config file."""
    try:
        loaded = json.loads(Path(args.config).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(str(exc)) from exc
    if not isinstance(loaded, dict):
        raise ConfigError("the file must hold a JSON object")
    flag_type = {a.dest: bool if a.const is True else a.type or str
                 for a in parser._actions}
    for key, value in loaded.items():
        key = key.replace("-", "_")
        if not hasattr(args, key):
            raise ConfigError(f"unknown key {key!r}")
        kind = flag_type[key]
        # a JSON integer is a valid float (converted, as argparse would);
        # bool is an int subclass, so it passes only for a bool flag
        accepted = (int, float) if kind is float else kind
        if (not isinstance(value, accepted)
                or isinstance(value, bool) != (kind is bool)):
            raise ConfigError(f"key {key!r} needs a {kind.__name__}, "
                              f"got {value!r}")
        # an explicit flag wins, including one equal to 0
        if getattr(args, key) is None or getattr(args, key) is False:
            setattr(args, key, kind(value))


def _check_ranges(args) -> None:
    """Reject an out-of-range numeric flag before any command runs."""
    for key, low, closed in FLAG_RANGES:
        value = getattr(args, key)
        # written as `not in range` so that NaN is rejected too
        if value is not None and not (value >= low if closed else value > low):
            raise ConfigError(f"--{key} must be {'>=' if closed else '>'} "
                              f"{low:g}, got {value!r}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _merge_config(parser, args)
        # defaults resolve after the merge so a config file can set them
        if args.grid is None:
            args.grid = DEFAULT_GRID
        if args.tol is None:
            args.tol = DEFAULT_TOL
        _check_ranges(args)
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
