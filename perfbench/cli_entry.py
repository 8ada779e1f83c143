"""Traced ``rigidity`` CLI child: python3 cli_entry.py SPANS_JSON ARGS...

Installs the span wrappers, runs ``rigidity.cli.main(ARGS)`` exactly as the
console script does, writes the spans to SPANS_JSON and exits with the
CLI's code.  The benchmark starts it with PYTHONPATH pointing at ``src``.
"""

import sys

import tracing


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from rigidity import cli

    tracer = tracing.Tracer()
    tracer.install()
    code = cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
