"""Exact counts that repeat on every run, for count-based comparisons.

    python3 perfbench/counts.py

Prints JSON with, at the current commit:

* ``cli_smoothness``: discriminant and rational_roots calls per
  ``rigidity smoothness`` invocation on each bundled input;
* ``puiseux_levels``: Puiseux levels (substitute_puiseux calls + 1) of
  ``newton_puiseux_index`` on each bundled charpoly;
* ``census_connections``: saddle connections per ``flat_census`` op on each
  bundled origami at its census bound.

``baselines.json`` holds this output at the seed commit.
"""

import contextlib
import io
import json
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import tracing  # noqa: E402
from rigidity import cli, data, flatsurf, symdom  # noqa: E402


def _calls(fn):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            fn()
    finally:
        tracer.uninstall()
    return Counter(span[tracing.NAME] for span in tracer.spans)


def exact_counts():
    grid = gen.cli_grid()
    cli_smoothness = {}
    for key, argv in grid.items():
        if key.startswith("smoothness/"):
            calls = _calls(lambda: cli.main(argv))
            cli_smoothness[key] = {
                "discriminant": calls["exactpoly.discriminant"],
                "rational_roots": calls["exactpoly.rational_roots"],
            }
    levels = {}
    for name in sorted(gen.BUNDLED_CHARPOLY_K):
        P = data.charpoly(name)
        calls = _calls(lambda: symdom.newton_puiseux_index(P))
        levels[name] = calls["exactpoly.substitute_puiseux"] + 1
    connections = {
        f"{name}/L{L}": len(flatsurf.saddle_connections(data.origami(name), L))
        for name, L in gen.CENSUS_BUNDLED
    }
    return {"cli_smoothness": cli_smoothness, "puiseux_levels": levels,
            "census_connections": connections}


if __name__ == "__main__":
    print(json.dumps(exact_counts(), indent=1, sort_keys=True))
