"""One benchmark process: the conecert CLI as a user runs it, fresh and cold.

    python3 perfbench/child.py [--probe] [--trace-out FILE] -- ARGV...

The process imports `conecert.cli` and calls `cli.main(ARGV)` with stdout
going wherever the parent sent it.

--probe       exit at once where `cli.main` would be entered, so the
              process's CPU time is its set-up time
--trace-out   wrap the package's public functions first and write the
              recorded spans and counts to this file when main returns
"""

from __future__ import annotations

import argparse
import os
import sys


def _parse(argv):
    ap = argparse.ArgumentParser(prog="child.py")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    if args.cli_argv[:1] == ["--"]:
        args.cli_argv = args.cli_argv[1:]
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    import conecert.cli as cli

    if args.probe:
        os._exit(0)
    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        return cli.main(args.cli_argv)
    finally:
        sys.stdout.flush()
        if tracer is not None:
            tracer.write(args.trace_out)


if __name__ == "__main__":
    sys.exit(main())
