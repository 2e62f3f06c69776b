"""Child-process entry points of the benchmark.

    python perfbench/child.py setup ARGV...        time `import ellab.cli` plus one op
    python perfbench/child.py trace SPANS ARGV...  run one op with spans recorded

`setup` prints one JSON object with the op's exit code and the elapsed
seconds.  `trace` writes the recorded spans to SPANS as JSON and exits with
the op's exit code.  The caller puts the checkout's src/ on PYTHONPATH.
"""

import contextlib
import json
import os
import sys
from time import perf_counter


def run_main(cli, argv) -> int:
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2


def setup(argv) -> None:
    t0 = perf_counter()
    import ellab.cli
    code = run_main(ellab.cli, argv)
    elapsed = perf_counter() - t0
    print(json.dumps({"code": code, "setup_s": elapsed}))


def trace(spans_path, argv) -> int:
    import spans
    rec = spans.Recorder()
    rec.install()
    import ellab.cli
    rec.active = True
    try:
        code = run_main(ellab.cli, argv)
    finally:
        rec.active = False
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rec.spans, "absent": rec.absent}, fh)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2:])
    elif sys.argv[1] == "trace":
        sys.exit(trace(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit(f"unknown mode {sys.argv[1]!r}")
