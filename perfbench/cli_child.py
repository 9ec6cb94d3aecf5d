"""Traced margraph CLI process: ``cli_child.py SPANS ARG...``.

Runs ``margraph.cli.main(ARG...)`` with the tracer installed, writes the
spans and counts to SPANS at exit, and exits with the command's code.
"""

from __future__ import annotations

import sys

import spans


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    import margraph.cli

    tracer = spans.Tracer()
    tracer.install()
    tracer.begin_op(0, "cli", "cli")
    try:
        return margraph.cli.main(argv)
    finally:
        tracer.end_op()
        tracer.uninstall()
        tracer.write(path)


if __name__ == "__main__":
    raise SystemExit(main())
