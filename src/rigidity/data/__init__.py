"""Bundled example inputs, and read_json, the package's one JSON reader."""

import json


def _refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


def read_json(file):
    """Parsed JSON of the file at path ``file``, with each number that has a
    fraction or an exponent kept as its literal text, so exact parsers read
    its digits; NaN and Infinity, which JSON lacks, raise ValueError."""
    with open(file, encoding="utf-8") as fh:
        return json.load(fh, parse_float=str, parse_constant=_refuse_constant)


def data_path(kind, name):
    """Filesystem path of a bundled JSON input (for CLI-style usage)."""
    from importlib import resources

    return str(resources.files(__package__) / kind / f"{name}.json")


def _names(kind):
    from importlib import resources

    folder = resources.files(__package__) / kind
    return sorted(p.name[:-5] for p in folder.iterdir() if p.name.endswith(".json"))


def origami(name):
    """A bundled origami by name (torus, cylinder_pair, l_shape_3, ...)."""
    from ..flatsurf import Origami

    return Origami.from_json(read_json(data_path("origamis", name)))


def origami_names():
    return _names("origamis")


def matrix_path(name):
    """A bundled polynomial matrix path by name."""
    from ..symdom import PolynomialMatrixPath

    return PolynomialMatrixPath.from_json(read_json(data_path("paths", name)))


def charpoly(name):
    """A bundled bivariate polynomial by name."""
    from ..exactpoly import BivariatePolynomial

    return BivariatePolynomial.from_json(read_json(data_path("charpolys", name)))


def charpoly_names():
    return _names("charpolys")
