"""Process entry point for one program process of a benchmark run.

    python3 perfbench/child.py --out REC.json [--trace] [--ask-file F] -- <repro CLI args>

Imports ``repro.cli`` from the checkout's ``src/`` (timed: the
``setup.import_s`` layer), installs the hooks of :mod:`hooks`, then
hands the remaining arguments to ``repro.cli.main`` — the same code path
as the ``repro`` console script.  SIGINT ends a long-running command
(``repro serve``, ``repro worker``) the way an operator's Ctrl-C would.
When the command returns, the markers, spans, counters and the
process's peak resident set are written to ``REC.json``.  With
``--ask-file`` the first ask's time is also written to ``F`` the moment
it happens (a set-up probe reads it and kills the process).
"""

from __future__ import annotations

import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv: "list[str]") -> int:
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1 :]
    out = opts[opts.index("--out") + 1]
    trace = "--trace" in opts
    ask_file = opts[opts.index("--ask-file") + 1] if "--ask-file" in opts else None

    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    start = time.monotonic()
    import repro.cli

    import_s = time.monotonic() - start
    if not os.path.abspath(repro.cli.__file__).startswith(SRC + os.sep):
        print(f"repro imported from outside {SRC}: {repro.cli.__file__}", file=sys.stderr)
        return 2

    import hooks

    rec = hooks.Recorder(trace)
    hooks.install(rec, ask_file)
    rc = 1
    try:
        rc = repro.cli.main(cli_args)
    except KeyboardInterrupt:
        rc = 0
    finally:
        rec.dump(
            out,
            {
                "rc": rc,
                "pid": os.getpid(),
                "import_s": import_s,
                "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            },
        )
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
