"""Bundled example inputs: origamis, polynomial paths, and charpolys."""

import json
from importlib import resources


def _load(kind, name):
    path = resources.files(__package__) / kind / f"{name}.json"
    return json.loads(path.read_text(encoding="utf-8"))


def data_path(kind, name):
    """Filesystem path of a bundled JSON input (for CLI-style usage)."""
    return str(resources.files(__package__) / kind / f"{name}.json")


def origami(name):
    """A bundled origami by name (torus, cylinder_pair, l_shape_3, ...)."""
    from ..flatsurf import Origami

    return Origami.from_json(_load("origamis", name))


def origami_names():
    return sorted(
        p.name.removesuffix(".json")
        for p in (resources.files(__package__) / "origamis").iterdir()
        if p.name.endswith(".json")
    )


def matrix_path(name):
    """A bundled polynomial matrix path by name."""
    from ..symdom import PolynomialMatrixPath

    return PolynomialMatrixPath.from_json(_load("paths", name))


def charpoly(name):
    """A bundled bivariate polynomial by name."""
    from ..exactpoly import BivariatePolynomial

    return BivariatePolynomial.from_json(_load("charpolys", name))


def charpoly_names():
    return sorted(
        p.name.removesuffix(".json")
        for p in (resources.files(__package__) / "charpolys").iterdir()
        if p.name.endswith(".json")
    )
