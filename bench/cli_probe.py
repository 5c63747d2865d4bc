"""Traced stand-in for the ``cutofflab`` console script.

Usage: python bench/cli_probe.py SPAWN_TIME VERB [ARGS...]

Runs ``cutofflab.cli:main`` on VERB ARGS exactly as the console script does
(same stdout and exit code), with the library's public boundaries traced.
SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process; on Linux that clock is the system-wide CLOCK_MONOTONIC, so
the gap to this script's first statement is interpreter start-up.  The spans
go to stderr as the last line, prefixed with ``SPANS ``.
"""
import time

_T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    spawn = float(sys.argv[1])
    argv = sys.argv[2:]
    t_import = time.perf_counter()
    import cutofflab.cli as cli  # the import is what is timed
    t_imported = time.perf_counter()

    from spans import CLI_TARGETS, TARGETS, Tracer

    tracer = Tracer()
    tracer.add("cli.interp", spawn, _T0)
    tracer.add("cli.import", t_import, t_imported)
    real_dumps, real_print = json.dumps, print
    with tracer.installed(TARGETS + CLI_TARGETS):
        cli.json = _JsonProxy(tracer.wrap(real_dumps, "cli.dumps"))
        cli.print = tracer.wrap(real_print, "cli.print")
        try:
            with tracer.span("cli.main"):
                code = cli.main(argv)
        finally:
            cli.json = json
            del cli.print
    sys.stdout.flush()
    print("SPANS " + tracer.to_json(), file=sys.stderr)
    return code


class _JsonProxy:
    """The ``json`` module with ``dumps`` replaced, seen only by cli.py."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


if __name__ == "__main__":
    sys.exit(main())
