"""Batch command-line front door.

Subcommands map one-to-one onto the library: `indices` (structural indices
and hypothesis tables), `certify` (parameter synthesis plus grid
certification), `solve` (radial profiles to CSV), `verify` (estimate checks),
`appendix` (the exact-family verification bundle), `implications` (corpus
arrow checks), and `suite` (the acceptance battery).

Each command accepts only the flags it reads, as its entry in `COMMANDS`
states.  Reports are canonical JSON (sorted keys, 17 significant digits)
embedding a content hash of the flags the command read, so identical
configurations produce byte-identical files.  Exit codes: 0 success, 1 a
verification failed, 2 usage or configuration error, an out-of-range numeric
flag, a flag the command does not read and a missing needed flag included.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import nonlinearity as nl
from . import reporting
from .errors import ConfigError, InvalidAlpha, LabError

# numpy and the modules that need it are imported inside the commands that use
# them: `indices` runs on `math` alone, and `certify` loads no solver or space.

# defaults of the flags that have one, filled in for the commands that read
# them after the --config merge, so a config file can set them and the config
# hash covers them; a command's own default wins over the shared one
DEFAULTS = {"grid": 1024, "tol": 1e-11}
COMMAND_DEFAULTS = {"verify": {"bv": 0.5},
                    "implications": {"R": 1.0, "bv": 1e-3}}

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


# spaces parsed from the same text are one object, so the caches keyed by a
# space (the curvature bound, the coarse branch) serve repeated commands
@functools.lru_cache(maxsize=32)
def parse_space(text: str) -> ms.WeightedSpace:
    from . import modelspace as ms

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
    from . import constants as ct

    theorem = nl.normalize_theorem(args.theorem)
    for flag, value, readers in (("--alpha", args.alpha, ("1.5", "1.9")),
                                 ("--delta", args.delta, ("8",))):
        if value is not None and theorem not in readers:
            raise ConfigError(f"theorem {theorem} does not read {flag}")
    idx = nl.compute_indices(spec)
    # 1.9 builds its certificate for power(--alpha) but checks it against --f,
    # so a pure power of another exponent contradicts --alpha
    if (theorem == "1.9" and args.alpha is not None
            and idx.lower == idx.upper != args.alpha):
        raise ConfigError(f"--alpha {args.alpha:g} contradicts the power "
                          f"{idx.upper:g} of --f for theorem 1.9")
    cert = ct.synthesize(N, idx, args.theorem, spec=spec,
                         alpha=args.alpha, delta=args.delta)
    return ct.certify(cert, spec, N)


# --- subcommands -------------------------------------------------------------


def cmd_indices(args) -> int:
    if args.alpha is not None and args.N is None:
        raise ConfigError("indices reads --alpha only with --N")
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
    report["config_hash"] = args.config_hash
    path = _write_report(report, args.out, "indices.json")
    print(f"wrote {path}")
    return 0


def cmd_certify(args) -> int:
    spec = parse_nonlinearity(args.f)
    cert = _certificate(args, spec, args.N)
    report = cert.as_dict()
    report["nonlinearity"] = nl.to_json(spec)
    report["config_hash"] = args.config_hash
    path = _write_report(report, args.out, f"certificate_{cert.theorem}.json")
    print(f"wrote {path} (status: {cert.status}, "
          f"worst margin {cert.verification['worst_margin']:.3e})")
    return 0 if cert.status == "certified" else 1


def cmd_solve(args) -> int:
    from . import pdelab as pde

    spec = parse_nonlinearity(args.f)
    space = parse_space(args.space)
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
    from . import modelspace as ms
    from . import pdelab as pde

    spec = parse_nonlinearity(args.f)
    space = parse_space(args.space)
    N = _dimension(args, space)
    cert = _certificate(args, spec, N)
    K = args.K if args.K is not None else ms.curvature_bound(space, 2 * args.R).K
    prof = pde.solve_radial_bvp(space, spec, args.R, args.bv,
                                pde.SolverConfig(m=args.grid, tol=args.tol))
    kind = pde._KIND_FOR_THEOREM[cert.theorem][0]
    rep = pde.check_estimate(prof, cert, K, args.R, kind)
    report = rep.as_dict()
    report["certificate"] = cert.as_dict()
    report["config_hash"] = args.config_hash
    path = _write_report(report, args.out, "estimate.json")
    print(f"wrote {path} (kind {rep.kind}: measured {rep.measured:.6g} "
          f"vs bound {rep.bound:.6g} -> {'pass' if rep.passed else 'FAIL'})")
    return 0 if rep.passed else 1


def cmd_appendix(args) -> int:
    import numpy as np
    from . import modelspace as ms

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
    report["config_hash"] = args.config_hash
    path = _write_report(report, args.out, "appendix.json")
    ok = all(checks.values())
    print(f"wrote {path} (mu {asp.mu:.12g}, residual {rel_res:.3e}, "
          f"sharpness ratio {ratio:.9g})")
    return 0 if ok else 1


def cmd_implications(args) -> int:
    from . import modelspace as ms
    from . import relations as rel

    spec = parse_nonlinearity(args.f)
    space = parse_space(args.space)
    N = _dimension(args, space)
    K = args.K if args.K is not None else ms.curvature_bound(space, 2 * args.R).K
    _, corpus = rel.boundary_sweep(space, spec, args.R, args.grid, args.bv)
    rep = rel.implication_suite(corpus, N, spec, K, args.R)
    report = rep.as_dict()
    report["config_hash"] = args.config_hash
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


# name: (function, flags it reads, flags it needs), flags by their argparse
# dest.  Every command also takes --out, and --config sets only flags it reads.
COMMANDS = {
    "indices": (cmd_indices, ("f", "N", "alpha"), ("f",)),
    "certify": (cmd_certify, ("f", "N", "theorem", "alpha", "delta"),
                ("f", "N", "theorem")),
    "solve": (cmd_solve, ("f", "space", "R", "bv", "grid", "tol",
                          "emit_plot_data"), ("f", "space", "R", "bv")),
    "verify": (cmd_verify, ("f", "space", "N", "K", "R", "theorem", "alpha",
                            "delta", "bv", "grid", "tol"),
               ("f", "space", "R", "theorem")),
    "appendix": (cmd_appendix, ("N", "alpha", "K", "seed"), ("N", "alpha", "K")),
    "implications": (cmd_implications, ("f", "space", "N", "K", "R", "bv",
                                        "grid"), ("f", "space")),
    "suite": (cmd_suite, (), ()),
}
# the arguments every command takes
COMMON = ("command", "out", "config")


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
    parser.add_argument("--R", type=float, help="estimate radius (domain is [0, 2R]; "
                                               "implications default 1)")
    parser.add_argument("--theorem", help="estimate id: 1.3 | 1.5 | 1.7 | 1.8 | 1.9 | 8")
    parser.add_argument("--alpha", type=float, help="power/comparison exponent")
    parser.add_argument("--delta", type=float, help="quadratic-loss parameter")
    parser.add_argument("--bv", type=float,
                        help="boundary value (verify default 0.5), or the "
                             "lowest one of the implications sweep (default 1e-3)")
    parser.add_argument("--grid", type=int,
                        help=f"grid intervals (default {DEFAULTS['grid']})")
    parser.add_argument("--tol", type=float,
                        help=f"solver tolerance (default {DEFAULTS['tol']:g})")
    parser.add_argument("--out", help="output path")
    parser.add_argument("--emit-plot-data", action="store_true",
                        help="also write (r, diagnostic) tables")
    parser.add_argument("--seed", type=int, help="seed for sampled checks")
    parser.add_argument("--config", help="JSON file whose keys are flags the "
                                         "command reads")
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
    reads = COMMANDS[args.command][1]
    for key, value in loaded.items():
        key = key.replace("-", "_")
        if key not in reads and key != "out":
            raise ConfigError(f"{args.command} does not read config key {key!r}")
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


def _checked_config(parser: argparse.ArgumentParser, args) -> dict:
    """Check the flags against the command's entry in `COMMANDS` before it
    runs, fill the defaults of the flags it reads, and return those that are
    set: the input of its config hash."""
    _, reads, needs = COMMANDS[args.command]
    defaults = {**DEFAULTS, **COMMAND_DEFAULTS.get(args.command, {})}
    config = {}
    for action in parser._actions:
        key = action.dest
        if key in COMMON:
            continue
        value = getattr(args, key, None)
        if value is None and key in reads:
            value = defaults.get(key)
            setattr(args, key, value)
        if value is None or value is False:
            continue
        flag = action.option_strings[0]
        if key not in reads:
            raise ConfigError(f"{args.command} does not read {flag}")
        if action.type is float and not math.isfinite(value):
            raise ConfigError(f"{flag} must be finite, got {value!r}")
        config[key] = value
    for key, low, closed in FLAG_RANGES:
        value = config.get(key)
        # written as `not in range` so that NaN is rejected too
        if value is not None and not (value >= low if closed else value > low):
            raise ConfigError(f"--{key} must be {'>=' if closed else '>'} "
                              f"{low:g}, got {value!r}")
    missing = [f"--{key}" for key in needs if key not in config]
    if missing:
        raise ConfigError(f"{args.command} needs {', '.join(missing)}")
    return config


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _merge_config(parser, args)
        args.config_hash = reporting.config_hash(_checked_config(parser, args))
        return COMMANDS[args.command][0](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"check failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
