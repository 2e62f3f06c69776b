"""Seeded workloads: the ellab command lines each run sends, and their checks.

Each workload is an endless sequence of rounds.  A round holds a fixed mix
of op kinds in an order drawn from the seed; continuous inputs (exponents,
grid sizes) are drawn from the seed per op, stratified.  A run stops at the
end of a round, so every run has the same mix, whatever the seed.

An op is an argv for `ellab` without `--out`; the runner appends a fresh
output path.  `check_output` returns None for a correct op or the reason it
failed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

README_OPS = (
    ("indices", "--f", "power:2", "--N", "5"),
    ("certify", "--f", "power:2", "--N", "4", "--theorem", "1.3"),
    ("solve", "--f", "power:2", "--space", "flat:4", "--R", "1", "--bv", "0.5"),
    ("verify", "--theorem", "1.9", "--space", "flat:4", "--f", "power:2", "--R", "1"),
    ("appendix", "--N", "5", "--alpha", "2", "--K", "1"),
    ("implications", "--f", "power:2", "--space", "flat:4", "--R", "1"),
    ("suite",),
)
COMMANDS = tuple(op[0] for op in README_OPS)
DEFAULT_GRID = 1024          # `ellab solve` without --grid

# Export checks the appendix-space profile against the closed form.  The
# space is appendix:5,2,1 at R = 0.5, as in acceptance criterion 06: at
# R = 1 the closed form lies on the upper solution branch, which the solver
# does not reach from its constant start.
EXPORT_APPENDIX = (5.0, 2.0, 1.0)
EXPORT_R = 0.5
# |u - u_exact| <= H2_CONST h^2 + 10 eps max|u| / h^2: the measured
# discretization constant is 13.5, and the second term is pdelab's residual
# floor, at which the solver may stop one Newton step early on fine grids.
H2_CONST = 20.0


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]

    @property
    def cmd(self) -> str:
        return self.argv[0]

    def flag(self, name: str, default=None):
        if name in self.argv:
            return self.argv[self.argv.index(name) + 1]
        return default

    @property
    def suffix(self) -> str:
        return ".csv" if self.cmd == "solve" else ".json"


class Draws:
    """Seeded draws.  Each named input is stratified over blocks of BLOCK
    draws, so every run samples its whole range evenly whatever the seed."""

    BLOCK = 16

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self._strata: dict[str, list[float]] = {}

    def unit(self, key: str) -> float:
        """Next draw in [0, 1) for the input named `key`."""
        queue = self._strata.setdefault(key, [])
        if not queue:
            queue.extend((self.rng.permutation(self.BLOCK)
                          + self.rng.random(self.BLOCK)) / self.BLOCK)
        return float(queue.pop())

    def open_interval(self, key: str, lo: float, hi: float) -> float:
        # unit() is in [0, 1), so lo is never drawn
        return lo + (hi - lo) * (1.0 - self.unit(key))

    def log_int(self, key: str, lo: int, hi: int) -> int:
        return int(round(lo * (hi / lo) ** self.unit(key)))

    def shuffled(self, ops: list) -> list:
        return [ops[i] for i in self.rng.permutation(len(ops))]


def _p_threshold(N: float) -> float:
    return (N + 3.0) / (N - 1.0)


def _p_sobolev(N: float) -> float:
    return (N + 2.0) / (N - 2.0)


def _cli_cold_round(d: Draws):
    return d.shuffled([Op(op) for op in README_OPS])


def _corpus_round(d: Draws):
    ops = []
    for space in ("flat:3", "flat:4", "appendix:5,2,1"):
        m = d.log_int(f"implications {space}", 512, 2048)
        ops.append(Op(("implications", "--f", "power:2", "--space", space,
                       "--R", "1", "--grid", str(m))))
    # two verify ops per implications op keep the median inside the verify
    # mode and the upper tail inside the implications mode
    for _ in range(2):
        for thm, space in (("1.9", "flat:4"), ("1.9", "appendix:5,2,1"),
                           ("1.3", "flat:4")):
            m = d.log_int(f"verify {thm} {space}", 1024, 32768)
            ops.append(Op(("verify", "--theorem", thm, "--space", space,
                           "--f", "power:2", "--R", "1", "--grid", str(m))))
    return d.shuffled(ops)


CERTIFY_DIMS = (3, 4, 5, 6, 8)
# Known defect: `certify --theorem 1.9` exits with Infeasible for alpha in
# the top 0.75% or less of (1, p_S(N)) at every N above (from 0.99255 of the
# interval at N = 3 to 0.9943 at N = 8), although the estimate claims the
# whole interval.  The timed ops draw alpha below CERTIFY_19_TOP of the
# interval, so that no timed op fails; FINDING_OPS keep the defect in every
# certify run's output.
CERTIFY_19_TOP = 0.99
FINDING_ALPHA = 0.999


def _alpha_19(N: float, share: float) -> float:
    return 1.0 + share * (_p_sobolev(N) - 1.0)


FINDING_OPS = tuple(
    Op(("certify", "--f", f"power:{_alpha_19(N, FINDING_ALPHA)!r}",
        "--N", str(N), "--theorem", "1.9"))
    for N in CERTIFY_DIMS)


def _certify_round(d: Draws):
    ops = []
    for N in CERTIFY_DIMS:
        for thm, top in (("1.3", _p_threshold(N)),
                         ("1.9", _alpha_19(N, CERTIFY_19_TOP))):
            a = d.open_interval(f"{thm} {N}", 1.0, top)
            ops.append(Op(("certify", "--f", f"power:{a!r}", "--N", str(N),
                           "--theorem", thm)))
    # the fixed 1.5, 1.7 and 8 cases of acceptance criterion 05
    ops += [
        Op(("certify", "--f", "power:2", "--N", "3", "--theorem", "1.5",
            "--alpha", "2.5")),
        Op(("certify", "--f", "power:2", "--N", "5", "--theorem", "1.7")),
        Op(("certify", "--f", "power:3.5", "--N", "3", "--theorem", "1.7")),
        Op(("certify", "--f", "lich:1,1,3,0,0.5", "--N", "4", "--theorem", "8")),
    ]
    N = CERTIFY_DIMS[int(d.unit("indices N") * len(CERTIFY_DIMS))]
    a = d.open_interval("indices power", 1.0, 3.0)
    ops += [
        Op(("indices", "--f", f"power:{a!r}", "--N", str(N))),
        Op(("indices", "--f", "lich:1,1,3,0,0.5", "--N", "4")),
    ]
    # Two ops on the sampled path (~1.5 ms, over twice any other op) are 11%
    # of a round, so op_p90_ms lies inside their mode, not in the jitter
    # tail of the 0.5 ms ops.
    N2 = CERTIFY_DIMS[int(d.unit("indices powersum N") * len(CERTIFY_DIMS))]
    for n in (N, N2):
        a1 = d.open_interval("indices powersum 1", 1.0, 2.0)
        a2 = d.open_interval("indices powersum 2", 2.0, 3.0)
        ops.append(Op(("indices", "--f", f"powersum:1,{a1!r};1,{a2!r}",
                       "--N", str(n))))
    return d.shuffled(ops)


def export_boundary_value() -> float:
    from ellab import modelspace as ms
    asp = ms.appendix_space(*EXPORT_APPENDIX)
    u = ms.appendix_solution(asp, np.array([2.0 * EXPORT_R]))[0]
    return float(u[0])


def _export_round(d: Draws, bv_appendix: float):
    return d.shuffled([
        Op(("solve", "--f", "power:2", "--space", "flat:4", "--R", "1",
            "--bv", "0.5", "--grid", str(d.log_int("flat", 4096, 32768)),
            "--emit-plot-data")),
        Op(("solve", "--f", "power:2", "--space", "appendix:5,2,1",
            "--R", repr(EXPORT_R), "--bv", repr(bv_appendix),
            "--grid", str(d.log_int("appendix", 4096, 32768)),
            "--emit-plot-data")),
    ])


@dataclass(frozen=True)
class Workload:
    name: str
    in_process: bool
    warmup: Op           # the op timed with the import for setup_s
    findings: tuple = ()  # untimed, uncounted ops of a known defect

    def rounds(self, seed: int):
        """Endless sequence of op rounds drawn from `seed`."""
        d = Draws(seed)
        if self.name == "cli-cold":
            make = _cli_cold_round
        elif self.name == "corpus":
            make = _corpus_round
        elif self.name == "certify":
            make = _certify_round
        else:
            bv = export_boundary_value()
            make = lambda d: _export_round(d, bv)  # noqa: E731
        while True:
            yield make(d)


WORKLOADS = {w.name: w for w in (
    Workload("cli-cold", False, Op(README_OPS[0])),
    Workload("corpus", True, Op(("implications", "--f", "power:2", "--space",
                                  "flat:4", "--R", "1", "--grid", "1024"))),
    Workload("certify", True, Op(README_OPS[1]), FINDING_OPS),
    Workload("export", True, Op(("solve", "--f", "power:2", "--space", "flat:4",
                                  "--R", "1", "--bv", "0.5", "--grid", "4096",
                                  "--emit-plot-data"))),
)}


# --- checks ------------------------------------------------------------------


def _csv_rows(path: Path) -> tuple[list[str], int]:
    """Header and number of data rows of a CSV file."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        return header, sum(1 for _ in fh)


def _check_solve(op: Op, out: Path):
    m = int(op.flag("--grid", DEFAULT_GRID))
    header, rows = _csv_rows(out)
    if rows != m + 1:
        return f"profile CSV has {rows} rows, expected {m + 1}"
    if "--emit-plot-data" in op.argv:
        _, rows = _csv_rows(out.with_suffix(".plot.csv"))
        if rows != m + 1:
            return f"plot CSV has {rows} rows, expected {m + 1}"
    if op.flag("--space") == "appendix:5,2,1" and op.flag("--R") == repr(EXPORT_R):
        from ellab import modelspace as ms
        asp = ms.appendix_space(*EXPORT_APPENDIX)
        r, u = np.loadtxt(out, delimiter=",", skiprows=1, unpack=True,
                          usecols=(header.index("r"), header.index("u")))
        exact = ms.appendix_solution(asp, r)[0]
        h = 2.0 * EXPORT_R / m
        tol = H2_CONST * h * h + 10.0 * np.finfo(float).eps * np.max(exact) / (h * h)
        err = float(np.max(np.abs(u - exact)))
        if not err <= tol:
            return f"u deviates from the closed form by {err:.3e} > {tol:.3e}"
    return None


def _check_report(op: Op, rep: dict, out: Path):
    cmd = op.cmd
    if cmd == "indices":
        return None if "indices" in rep else "no indices in report"
    if cmd == "certify":
        status = rep.get("status")
        return None if status == "certified" else f"certificate status {status!r}"
    if cmd == "verify":
        return None if rep.get("passed") is True else "verify result not passed"
    if cmd == "appendix":
        checks = rep.get("checks") or {}
        bad = [k for k, v in checks.items() if v is not True]
        return None if checks and not bad else f"appendix checks failed: {bad}"
    if cmd == "implications":
        arrows = rep["arrows"]
        if not (arrows["gradient_to_harnack"]["sharp_bound_holds"] is True
                and arrows["bound_to_gradient"]["all_finite"] is True
                and arrows["harnack_to_bound"]["all_finite"] is True):
            return "implication arrows do not hold"
        with open(out.with_suffix(".csv"), encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != len(rep["rows"]):
            return f"implications CSV has {rows} rows for {len(rep['rows'])} profiles"
        return None
    if cmd == "suite":
        return None if rep.get("all_passed") is True else "acceptance suite failed"
    return f"no check for {cmd!r}"


def check_output(op: Op, code, out: Path):
    """None when the op's exit code and output are correct, else the reason."""
    if code != 0:
        return f"exit code {code!r}"
    try:
        if op.cmd == "solve":
            return _check_solve(op, out)
        rep = json.loads(out.read_text(encoding="utf-8"))
        return _check_report(op, rep, out)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
