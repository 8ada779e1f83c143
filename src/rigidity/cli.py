"""Command-line interface.

Three subcommands expose the package's headline computations as
machine-readable reports:

``intersection``
    Samples the rotation profile of an origami's multicurve over a uniform
    angle grid, writes the profile as CSV and a JSON summary to stdout.
    The profile of any nonzero multicurve varies with the angle, and the
    summary flags whether the sampled spread refutes a constant value at
    one half.

``horocycle``
    Runs the unit-horocycle crossing experiment on the geodesic between
    two orthogonal boundary points and reports the crossing distance
    (log 2) and its exponential decay (1/2).  Exits with code 2 when the
    computed distance misses log 2 by more than the tolerance.

``smoothness``
    Analyzes the distance function along a polynomial matrix path (or a
    characteristic polynomial directly with ``--charpoly``): branching index
    by Newton polygon, an independent monodromy check, and residuals of the
    reparametrized and naive polynomial fits.  Exits with code 3 when the
    two branch indices disagree.

Exit codes: 0 success, 1 input or domain error, 2 tolerance violation,
3 oracle disagreement.  Identical configurations produce byte-identical
output (floats are rounded to 15 significant digits, keys are sorted).

Each subcommand imports only the module it runs, so ``intersection`` and
``horocycle`` never load ``symdom``, and neither of them loads numpy.
"""

import argparse
import json
import math
import re
import sys

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_TOLERANCE = 2
EXIT_DISAGREEMENT = 3

# every domain error in the package subclasses ValueError; OSError covers
# unreadable files
_DOMAIN_ERRORS = (ValueError, OSError)


def _round15(x):
    return float(f"{float(x):.15g}")


def _emit_json(payload, out_path=None):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _check_tolerance(tolerance):
    # argparse errors exit 2, which means a tolerance violation here
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")


def _parse_direction(text):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"direction must look like 'p,q', got {text!r}")
    return int(parts[0]), int(parts[1])


def cmd_intersection(args):
    from . import flatsurf
    from .data import read_json

    _check_tolerance(args.tolerance)
    origami = flatsurf.Origami.from_json(read_json(args.origami))
    direction = _parse_direction(args.direction)
    multicurve = flatsurf.FlatMulticurve.from_cylinders(
        flatsurf.cylinder_decomposition(origami, direction)
    )
    # unlike profile_nonconstancy, any grid of >= 1 angles is taken, and a
    # flat sampled profile is reported, not raised
    thetas, values, ext = flatsurf.sample_profile(multicurve, args.samples)

    summary = {
        "max": _round15(ext.max),
        "min": _round15(ext.min),
        "witness_theta": _round15(ext.witness_theta),
        "constant_half_refuted": bool(ext.max - ext.min > args.tolerance),
    }
    if args.length_bound is not None:
        summary["saddle_connection_count"] = flatsurf.saddle_connection_count(
            origami, args.length_bound)

    lines = ["theta,value"]
    lines += [f"{th:.15g},{val:.15g}" for th, val in zip(thetas, values)]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    _emit_json(summary)
    return EXIT_OK


def cmd_horocycle(args):
    from . import chplane

    _check_tolerance(args.tolerance)
    result = chplane.step2_verify(theta_twist=args.theta_twist)
    payload = {k: (_round15(v) if isinstance(v, float) else [_round15(x) for x in v])
               for k, v in result.to_json_dict().items()}
    _emit_json(payload, args.out)
    if abs(result.dist - math.log(2)) > args.tolerance:
        print(
            f"distance {result.dist!r} misses log(2) by more than {args.tolerance}",
            file=sys.stderr,
        )
        return EXIT_TOLERANCE
    return EXIT_OK


def cmd_smoothness(args):
    from . import symdom
    from .data import read_json
    from .exactpoly import MAX_DEGREE_Y, BivariatePolynomial

    data = read_json(args.path)
    if args.charpoly:
        source = BivariatePolynomial.from_json(data)
        degree_y, report_of = source.degree_y, symdom.smoothness_report_from_charpoly
    else:
        source = symdom.PolynomialMatrixPath.from_json(data)
        degree_y, report_of = source.cols, symdom.smoothness_report
    # the monodromy check takes the discriminant, so refuse before any stage
    if degree_y > MAX_DEGREE_Y:
        raise ValueError(f"degree {degree_y} in y is over the discriminant's cap {MAX_DEGREE_Y}")
    report = report_of(source, args.epsilon)
    polygon_k = report.branch.K
    monodromy_k = symdom.monodromy_index(report.charpoly, args.epsilon)
    agreement = polygon_k == monodromy_k
    payload = {
        "K": report.K,
        "newton_puiseux_K": polygon_k,
        "monodromy_K": monodromy_k,
        "agreement": agreement,
        "fit_residual": _round15(report.fit_residual),
        "naive_residual": _round15(report.naive_residual),
        "epsilon": _round15(report.epsilon),
    }
    _emit_json(payload, args.out)
    if not agreement:
        print(
            f"branch index mismatch: polygon {polygon_k}, monodromy {monodromy_k}",
            file=sys.stderr,
        )
        return EXIT_DISAGREEMENT
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rigidity",
        description="flat-surface profiles, horocycle distances, and "
                    "matrix-ball smoothness reports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser("intersection", help="rotation profile of a multicurve")
    p_int.add_argument("--origami", required=True, help="origami JSON file")
    p_int.add_argument("--samples", type=int, default=360,
                       help="angle grid size, at least 1; a flat sampled "
                            "profile is reported, not an error")
    p_int.add_argument("--tolerance", type=float, default=1e-9)
    p_int.add_argument("--direction", default="1,0",
                       help="cylinder direction for the multicurve, as 'p,q'")
    p_int.add_argument("--length-bound", type=float, default=None,
                       help="also report the saddle connection count up to this length")
    p_int.add_argument("--out", default="profile.csv", help="CSV output path")
    p_int.set_defaults(func=cmd_intersection)

    p_hor = sub.add_parser("horocycle", help="unit-horocycle crossing distance")
    p_hor.add_argument("--tolerance", type=float, default=1e-9)
    p_hor.add_argument("--theta-twist", type=float, default=0.0,
                       help="twist angle applied to the first boundary point")
    p_hor.add_argument("--out", default=None, help="optional JSON output path")
    p_hor.set_defaults(func=cmd_horocycle)

    p_smo = sub.add_parser("smoothness", help="branch index and fit residuals")
    p_smo.add_argument("--path", required=True,
                       help="polynomial matrix path JSON file")
    p_smo.add_argument("--charpoly", action="store_true",
                       help="interpret the file as a bivariate polynomial instead")
    p_smo.add_argument("--epsilon", type=float, default=0.1)
    p_smo.add_argument("--out", default=None, help="optional JSON output path")
    p_smo.set_defaults(func=cmd_smoothness)

    return parser


def _attach_signed_values(argv):
    """argv (sys.argv[1:] if None) with `--opt -1,2` as `--opt=-1,2`: argparse
    reads only plain numbers as negative values, and -1,2, -1e-3 or -inf as
    options.  Glued are values that start with `-` and a digit or `.`, and
    -inf, -infinity and -nan in any case."""
    out = []
    for arg in sys.argv[1:] if argv is None else argv:
        glued = (out and re.fullmatch(r"--[^=]+", out[-1])
                 and re.match(r"-(\.?\d|(inf|infinity|nan)\Z)", arg, re.IGNORECASE))
        out.append(out.pop() + "=" + arg if glued else arg)
    return out


def main(argv=None):
    args = build_parser().parse_args(_attach_signed_values(argv))
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
