"""ellab benchmark: run one seeded workload and print its metrics.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Ops run one after another, as a closed loop with one client.  `cli-cold`
starts a fresh `python -m ellab.cli` process per op; the other workloads
call `ellab.cli.main(argv)` in this process.  Every op writes to a fresh
path in a temporary directory inside the checkout, and every output is
checked.  The last line of standard output is one JSON object:
`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
metrics of a traced replay (see NOTES.md).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import select
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_BASE = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 9
IMPORT_REPEATS = 3
INTERP_REPEATS = 5
DETERMINISM_PROBES = 3
TAIL_SAMPLES = 10            # samples required beyond the tail percentile
OP_TIMEOUT_S = 120

END_TO_END = {
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _per_layer_units() -> dict[str, str]:
    from spans import TARGETS
    from workloads import COMMANDS
    units = {"cli.interp_ms": "ms", "cli.import_ms": "ms",
             "cli.import_scipy_ms": "ms", "cli.modules_loaded": "count"}
    units.update({f"cli.{cmd}.p50_ms": "ms" for cmd in COMMANDS})
    units["cli.main.self_ms"] = "ms"
    for mod_name, names in TARGETS.items():
        if mod_name != "cli":
            units.update({f"{mod_name}.{fn}.self_ms": "ms" for fn in names})
    units.update({
        "nonlinearity.evaluate_many.calls": "count/op",
        "constants.certify.calls": "count/op",
        "constants.certify.points": "count/op",
        "pdelab.solve_radial_bvp.calls": "count/op",
        "pdelab.solve_radial_bvp.failed_ms": "ms",
        "pdelab.solve_radial_bvp.useful_frac": "frac",
        "pdelab.newton_iterations": "count/op",
        "pdelab.nodes_per_s": "1/s",
        "reporting.dump.bytes": "B/op",
        "reporting.write_csv.bytes": "B/op",
        "trace.overhead_frac": "frac",
        "trace.op_ms": "ms",
        "trace.outside_ms": "ms",
    })
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def wait_child(cmd: list, **kwargs) -> int:
    """Run `cmd` to its end and return its exit code; kill it after
    OP_TIMEOUT_S.

    Waits on a pidfd: Popen.wait(timeout) polls at up to 50 ms intervals,
    which would round every timed process up to that grain.
    """
    with subprocess.Popen(cmd, **kwargs) as proc:
        fd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([fd], [], [], OP_TIMEOUT_S)
        finally:
            os.close(fd)
        if not ready:
            proc.kill()
        return proc.wait()


def tail_rank(n: int) -> int:
    """1-based rank of p90, or of the highest percentile with ten samples
    beyond it; never below the median's rank."""
    return max(math.ceil(0.5 * n), min(math.ceil(0.9 * n), n - TAIL_SAMPLES))


class Run:
    """One benchmark run: fresh output paths, ops, checks and failures."""

    def __init__(self, workload, tmp: Path):
        self.workload = workload
        self.tmp = tmp
        self.env = child_env()
        self.count = 0
        self.attempted = 0
        self.failures: list[tuple] = []
        self.kept: list[tuple] = []       # (op, bytes) for the determinism probe
        self.sink = open(os.devnull, "w")
        self.cli = None
        if workload.in_process:
            import ellab.cli
            self.cli = ellab.cli

    def close(self):
        self.sink.close()

    def fresh_path(self, op) -> Path:
        self.count += 1
        return self.tmp / f"op{self.count:07d}{op.suffix}"

    def call(self, op, out: Path, spans_path: Path | None = None):
        """Run one op; returns its exit code (or the exception it raised)."""
        argv = [*op.argv, "--out", str(out)]
        if self.cli is None:
            if spans_path is None:
                cmd = [sys.executable, "-m", "ellab.cli", *argv]
            else:
                cmd = [sys.executable, str(HERE / "child.py"), "trace",
                       str(spans_path), *argv]
            return wait_child(cmd, cwd=self.tmp, env=self.env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        with contextlib.redirect_stdout(self.sink), \
                contextlib.redirect_stderr(self.sink):
            try:
                return self.cli.main(argv)
            except SystemExit as exc:
                return exc.code
            except Exception as exc:  # noqa: BLE001 - a failed op, the run goes on
                return repr(exc)

    def finish(self, op, code, out: Path, keep: bool = True):
        """Check an op's output, count it, then delete the output."""
        from workloads import check_output
        self.attempted += 1
        reason = check_output(op, code, out)
        if reason is not None:
            self.failures.append((op.argv, reason))
        elif keep and op.suffix == ".json" and len(self.kept) < DETERMINISM_PROBES:
            self.kept.append((op, out.read_bytes()))
        for path in (out, out.with_suffix(".csv"), out.with_suffix(".plot.csv")):
            path.unlink(missing_ok=True)
        return reason is None

    def timed_ops(self, rounds, seconds: float):
        """Run whole rounds of ops until their summed wall time reaches `seconds`.

        Whole rounds keep the op mix of every run the same.
        Returns [(op, wall_s, ok)].
        """
        done = []
        total = 0.0
        for ops in rounds:
            for op in ops:
                out = self.fresh_path(op)
                t0 = perf_counter()
                code = self.call(op, out)
                wall = perf_counter() - t0
                done.append((op, wall, self.finish(op, code, out)))
                total += wall
            if total >= seconds:
                return done

    def determinism_probe(self):
        """Rerun kept JSON ops; their reports must be byte-identical."""
        for op, first in self.kept:
            out = self.fresh_path(op)
            code = self.call(op, out)
            again = out.read_bytes() if out.exists() else b""
            if self.finish(op, code, out, keep=False) and again != first:
                self.failures.append((op.argv, "report differs between two runs"))

    def finding_probe(self):
        """Run the workload's known-defect ops, untimed and uncounted, and
        say how many still fail."""
        from workloads import check_output
        ops = self.workload.findings
        if not ops:
            return
        still = 0
        for op in ops:
            out = self.fresh_path(op)
            still += check_output(op, self.call(op, out), out) is not None
            out.unlink(missing_ok=True)
        print(f"{self.workload.name}: known defect still fails in {still} of "
              f"{len(ops)} untimed ops, first: {' '.join(ops[0].argv)}")

    def warm_up(self):
        """One untimed op, so in-process runs time no first-call costs."""
        if self.cli is not None:
            op = self.workload.warmup
            out = self.fresh_path(op)
            self.finish(op, self.call(op, out), out, keep=False)

    def setup_seconds(self) -> float:
        """Median over fresh interpreters of `import ellab.cli` plus the warm-up op."""
        samples = []
        for _ in range(SETUP_REPEATS):
            op = self.workload.warmup
            out = self.fresh_path(op)
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), "setup",
                 *op.argv, "--out", str(out)],
                cwd=self.tmp, env=self.env, capture_output=True, text=True,
                timeout=OP_TIMEOUT_S)
            try:
                res = json.loads(proc.stdout.strip().splitlines()[-1])
                code = res["code"] if proc.returncode == 0 else proc.returncode
                samples.append(res["setup_s"])
            except (IndexError, ValueError, KeyError):
                code = f"setup probe exited {proc.returncode}"
            self.finish(op, code, out, keep=False)
        if not samples:
            raise RuntimeError("no setup probe reported its time")
        return statistics.median(samples)


def end_to_end(run: Run, seed: int, seconds: float) -> dict:
    setup_s = run.setup_seconds()
    run.warm_up()
    done = run.timed_ops(run.workload.rounds(seed), seconds)
    run.determinism_probe()
    run.finding_probe()
    walls = sorted(w for _, w, _ in done)
    n = len(walls)
    k = tail_rank(n)
    total = sum(walls)
    who = resource.RUSAGE_SELF if run.cli is not None else resource.RUSAGE_CHILDREN
    rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    print(f"{run.workload.name}: {n} ops in {total:.3f} s; "
          f"p50 {1000 * statistics.median(walls):.3f} ms; "
          f"op_p90_ms is p{100.0 * k / n:.1f} ({n - k} of {n} ops beyond); "
          f"error_rate {len(run.failures) / max(run.attempted, 1):.4g} "
          f"({len(run.failures)}/{run.attempted})")
    return {
        "op_p50_ms": 1000.0 * statistics.median(walls),
        "op_p90_ms": 1000.0 * walls[k - 1],
        "ops_per_s": sum(ok for _, _, ok in done) / total,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


# --- traced run ----------------------------------------------------------------


def _importtime(code: str, env: dict) -> list[tuple[int, str, int]]:
    """(depth, module, cumulative us) per line of `python -X importtime -c code`."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          env=env, capture_output=True, text=True,
                          timeout=OP_TIMEOUT_S, check=True)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), int(cumulative)))
    return rows


def _outermost_us(rows, match) -> int:
    """Summed cumulative time of matching modules not imported by a matching one."""
    total = 0
    stack: list[tuple[int, bool]] = []    # (depth, matched) of ancestors
    for depth, name, cumulative in reversed(rows):   # parents before children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        hit = match(name)
        if hit and not any(m for _, m in stack):
            total += cumulative
        stack.append((depth, hit))
    return total


def import_breakdown(env: dict) -> dict:
    base = {name for _, name, _ in _importtime("pass", env)}
    import_ms, scipy_ms, loaded = [], [], 0
    for _ in range(IMPORT_REPEATS):
        rows = _importtime("import ellab.cli", env)
        import_ms.append(_outermost_us(
            rows, lambda s: s == "ellab" or s.startswith("ellab.")) / 1000.0)
        scipy_ms.append(_outermost_us(
            rows, lambda s: s == "scipy" or s.startswith("scipy.")) / 1000.0)
        loaded = sum(1 for _, name, _ in rows if name not in base)
    interp = []
    for _ in range(INTERP_REPEATS):
        t0 = perf_counter()
        if wait_child([sys.executable, "-c", "pass"], env=env) != 0:
            raise RuntimeError("the bare interpreter failed")
        interp.append(perf_counter() - t0)
    return {
        "cli.interp_ms": 1000.0 * statistics.median(interp),
        "cli.import_ms": statistics.median(import_ms),
        "cli.import_scipy_ms": statistics.median(scipy_ms),
        "cli.modules_loaded": loaded,
    }


def traced_replay(run: Run, ops: list) -> tuple:
    """Replay `ops` with spans recorded; returns (LayerTotals, absent names)."""
    import spans
    totals = spans.LayerTotals()
    rec = None
    absent: set[str] = set()
    if run.cli is not None:
        rec = spans.Recorder()
        rec.install()
        absent.update(rec.absent)
    try:
        for op in ops:
            out = run.fresh_path(op)
            spans_path = run.tmp / f"spans{run.count:07d}.json"
            if rec is not None:
                rec.active = True
                t0 = perf_counter()
                code = run.call(op, out)
                t1 = perf_counter()
                rec.active = False
                child = rec.take()
            else:
                t0 = perf_counter()
                code = run.call(op, out, spans_path)
                t1 = perf_counter()
                try:
                    data = json.loads(spans_path.read_text(encoding="utf-8"))
                    child = data["spans"]
                    absent.update(data["absent"])
                    spans_path.unlink()
                except (OSError, ValueError, KeyError):
                    child = []
            root = ["op", t0, t1, -1, code == 0, None]
            totals.add_op(spans.reparent(root, child))
            run.finish(op, code, out)
    finally:
        if rec is not None:
            rec.uninstall()
    return totals, sorted(absent)


def per_layer(run: Run, seed: int, seconds: float) -> dict:
    from workloads import COMMANDS
    metrics = import_breakdown(run.env)
    run.warm_up()
    plain = run.timed_ops(run.workload.rounds(seed), seconds / 2.0)
    for cmd in COMMANDS:
        walls = [w for op, w, _ in plain if op.cmd == cmd]
        metrics[f"cli.{cmd}.p50_ms"] = (1000.0 * statistics.median(walls)
                                        if walls else 0.0)
    totals, absent = traced_replay(run, [op for op, _, _ in plain])
    run.determinism_probe()
    layer = totals.metrics()
    metrics.update(layer)
    plain_ms = 1000.0 * sum(w for _, w, _ in plain) / len(plain)
    metrics["trace.overhead_frac"] = layer["trace.op_ms"] / plain_ms - 1.0
    self_sum = sum(v for k, v in layer.items() if k.endswith(".self_ms"))
    print(f"{run.workload.name}: {len(plain)} ops replayed with spans; "
          f"layer self times {self_sum:.4f} ms + outside "
          f"{layer['trace.outside_ms']:.4f} ms per op against a traced op of "
          f"{layer['trace.op_ms']:.4f} ms and an untraced op of {plain_ms:.4f} ms"
          + (f"; absent: {', '.join(absent)}" if absent else ""))
    return metrics


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "ellab" / "cli.py").is_file():
        print(f"perfbench: no ellab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    TMP_BASE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_BASE))
    run = Run(WORKLOADS[args.workload], tmp)
    try:
        if args.trace:
            values = per_layer(run, args.seed, args.seconds)
            units = _per_layer_units()
        else:
            values = end_to_end(run, args.seed, args.seconds)
            units = END_TO_END
    finally:
        run.close()
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_BASE.rmdir()          # only when no other run is using it
    kinds: dict[str, list] = {}
    for argv_, reason in run.failures:
        kinds.setdefault(f"{argv_[0]}: {reason.split(':')[0]}", []).append(argv_)
    for kind, argvs in kinds.items():
        print(f"failed {len(argvs)}x {kind}; first: {' '.join(argvs[0])}",
              file=sys.stderr)
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
