"""Command-line front end.

Exit codes: 0 = success / property holds, 1 = property violated (witness
emitted), 2 = usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import io, svgout
from .chordbound import (inscribed_hexagon, lm, lm_sweep, maxmin_search,
                         reuleaux)
from .curvekit import (Polyline, bisector_sample, check_increasing_chords,
                       check_increasing_wrt_set, convexify)
from .errors import GeometryError, InvalidDiskError, UnsupportedDiskError
from .highdim import (chebyshev_arclength, check_increasing_chords_dd,
                      hypercube_curve)
from .involute import build_involute
from .normplane import (DEFAULT_RESOLUTION, TWO_PI, ConvexBody, gauge,
                        unit_vector)
from .verify import run_battery

_F = io._F


def _vec(text: str) -> np.ndarray:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("expected 'x,y', got %r" % text)
    return np.array([float(parts[0]), float(parts[1])])


def _load_base(token: str, resolution: int) -> ConvexBody:
    """Involute base: a builtin/JSON disk token, or a CSV whose rows are
    the vertices of a closed convex polygon (taken as exact)."""
    if token.startswith("builtin:") or token.endswith(".json"):
        return ConvexBody.from_disk(io.load_disk(token, resolution))
    return ConvexBody(io.read_curve_csv(token), exact_polygon=True)


def _maybe_svg(path, layers) -> None:
    if path:
        svgout.write(path, layers)


def _disk_layer(disk, stroke="#888888"):
    return {"points": disk.vertices, "closed": True, "stroke": stroke,
            "width": 1.0}


# -- command handlers -----------------------------------------------------

def _cmd_gauge(args, disk) -> int:
    print(_F % gauge(disk, _vec(args.vec)))
    return 0


def _cmd_check(args, disk) -> int:
    curve = Polyline(io.read_curve_csv(args.curve))
    rep = check_increasing_chords(disk, curve, tol=args.tol)
    io.emit(io.report_json(rep) + "\n", args.out)
    _maybe_svg(args.svg, [{"points": curve.points, "stroke": "#004488",
                           "width": 2.0}])
    return 0 if rep.holds else 1


def _cmd_check_wrt(args, disk) -> int:
    curve = Polyline(io.read_curve_csv(args.curve))
    anchors = io.read_curve_csv(args.anchors)
    rep = check_increasing_wrt_set(disk, curve, anchors, tol=args.tol)
    io.emit(io.report_json(rep) + "\n", args.out)
    return 0 if rep.holds else 1


def _cmd_involute(args, disk) -> int:
    base = _load_base(args.base, args.resolution)
    cu = build_involute(disk, base, _vec(args.point), args.theta_min,
                        args.theta_max, args.samples)
    io.emit(io.involute_csv(cu.thetas, cu.points.points), args.out)
    _maybe_svg(args.svg, [
        {"points": base.vertices, "closed": True, "stroke": "#888888",
         "width": 1.0},
        {"points": cu.points.points, "stroke": "#004488", "width": 2.0},
        {"points": cu.p[None, :], "stroke": "#cc3300"},
    ])
    return 0


def _cmd_lm(args, disk) -> int:
    print("%.6f" % lm(disk, args.dir))
    return 0


def _cmd_sweep(args, disk) -> int:
    prof = lm_sweep(disk, args.samples)
    if args.out:
        io.emit(io.profile_csv(prof), args.out)
    print(io.profile_summary(prof))
    _maybe_svg(args.svg, [_disk_layer(disk, "#004488")])
    return 0


def _cmd_hexagon(args, disk) -> int:
    hxg = inscribed_hexagon(disk, unit_vector(disk, args.dir))
    io.emit(io.hexagon_json(hxg) + "\n", args.out)
    _maybe_svg(args.svg, [
        _disk_layer(disk),
        {"points": hxg.vertices, "closed": True, "stroke": "#004488",
         "width": 2.0},
    ])
    return 0


def _cmd_reuleaux(args, disk) -> int:
    hxg = inscribed_hexagon(disk, unit_vector(disk, args.dir))
    body, per = reuleaux(disk, hxg)
    p, q = hxg.vertices[0], hxg.vertices[1]
    corners = ", ".join("[%s, %s]" % (_F % x, _F % y)
                        for x, y in (np.zeros(2), p, q))
    print('{"perimeter": %s, "corners": [%s]}' % (_F % per, corners))
    if args.out:
        io.emit(io.curve_csv(body.vertices), args.out)
    _maybe_svg(args.svg, [
        _disk_layer(disk),
        {"points": disk.vertices + p, "closed": True, "stroke": "#bbbbbb",
         "width": 1.0, "dash": "4 3"},
        {"points": disk.vertices + q, "closed": True, "stroke": "#bbbbbb",
         "width": 1.0, "dash": "4 3"},
        {"points": body.vertices, "closed": True, "stroke": "#004488",
         "width": 2.5},
    ])
    return 0


def _cmd_maxmin(args) -> int:
    res = maxmin_search(args.k, args.budget, seed=args.seed,
                        sweep_n=args.samples)
    io.emit(io.maxmin_json(res) + "\n", args.out)
    _maybe_svg(args.svg, [_disk_layer(res.disk, "#004488")])
    return 0


def _cmd_hypercube(args) -> int:
    cu = hypercube_curve(args.d)
    length = int(round(chebyshev_arclength(cu)))
    if args.out:
        io.emit(io.curve_csv(cu.points), args.out)
    if not args.check:
        print("length=%d" % length)
        return 0
    rep = check_increasing_chords_dd(cu, args.samples_per_edge, args.tol)
    print("length=%d increasing_chords=%s"
          % (length, "OK" if rep.holds else "FAIL"))
    return 0 if rep.holds else 1


def _cmd_convexify(args) -> int:
    out = convexify(Polyline(io.read_curve_csv(args.curve)))
    io.emit(io.curve_csv(out.points), args.out)
    return 0


def _cmd_bisector(args, disk) -> int:
    rng = _vec(args.range)
    bs = bisector_sample(disk, _vec(args.a), _vec(args.b),
                         (rng[0], rng[1]), args.samples)
    io.emit(io.curve_csv(bs.samples.points), args.out)
    return 0


def _cmd_verify_all(args) -> int:
    ok, results = run_battery(resolution=args.resolution, seed=args.seed)
    for name, good, detail in results:
        print("%s %-20s %s" % ("PASS" if good else "FAIL", name, detail))
    return 0 if ok else 1


# -- parser ---------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parse_args returns a fresh
    namespace on every call, and no action keeps state between calls."""
    ap = argparse.ArgumentParser(
        prog="mchords",
        description="Geometry of curves with increasing chords in normed "
                    "planes: gauges, involutes, chord-length bounds.")
    sub = ap.add_subparsers(dest="command", required=True)

    def new(name, handler, help_, disk=True):
        """Subcommand name.  With disk, it takes --disk and --resolution
        and its handler is called as handler(args, disk) on the loaded
        disk; without, as handler(args)."""
        p = sub.add_parser(name, help=help_)
        p.set_defaults(handler=handler)
        if disk:
            p.set_defaults(handler=lambda args: handler(
                args, io.load_disk(args.disk, args.resolution)))
            p.add_argument("--disk", default="builtin:euclidean",
                           help="unit disk: path to JSON, builtin:NAME, or "
                                "builtin:lp:P (default builtin:euclidean)")
            p.add_argument("--resolution", type=int,
                           default=DEFAULT_RESOLUTION,
                           help="boundary polygonization for smooth disks")
        return p

    p = new("gauge", _cmd_gauge, "norm of a vector in the disk's gauge")
    p.add_argument("--vec", required=True, help="vector as 'x,y'")

    p = new("check", _cmd_check, "test a curve for increasing chords")
    p.add_argument("--curve", required=True, help="curve CSV (header x,y)")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out", help="write the JSON report here instead of stdout")
    p.add_argument("--svg")

    p = new("check-wrt", _cmd_check_wrt,
            "test increasing chords with respect to an anchor set")
    p.add_argument("--curve", required=True)
    p.add_argument("--anchors", required=True, help="anchor-point CSV")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--out")

    p = new("involute", _cmd_involute, "unroll the involute of a convex base")
    p.add_argument("--base", required=True,
                   help="base body: disk token or boundary-vertex CSV")
    p.add_argument("--point", required=True, help="anchor boundary point 'x,y'")
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=TWO_PI)
    p.add_argument("-n", "--samples", type=int, default=512)
    p.add_argument("--out")
    p.add_argument("--svg")

    p = new("lm", _cmd_lm, "maximal increasing-chord length for a direction")
    p.add_argument("--dir", type=float, required=True, help="direction, radians")

    p = new("sweep", _cmd_sweep, "length bound over a sweep of directions")
    p.add_argument("-n", "--samples", type=int, default=360)
    p.add_argument("--out", help="write the per-direction CSV here")
    p.add_argument("--svg")

    p = new("hexagon", _cmd_hexagon, "affinely regular inscribed hexagon")
    p.add_argument("--dir", type=float, default=0.0,
                   help="direction of the first vertex, radians")
    p.add_argument("--out")
    p.add_argument("--svg")

    p = new("reuleaux", _cmd_reuleaux, "Reuleaux triangle from three disks")
    p.add_argument("--dir", type=float, default=0.0)
    p.add_argument("--out", help="write the boundary CSV here")
    p.add_argument("--svg")

    p = new("maxmin", _cmd_maxmin,
            "search disks maximizing the minimal direction bound", disk=False)
    p.add_argument("-k", type=int, default=16,
                   help="edges per half of the mirrored 2k-gon")
    p.add_argument("--budget", type=int, default=60,
                   help="objective evaluations allowed")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-n", "--samples", type=int, default=360,
                   help="checked (at least 4) but unused: the objective is "
                        "exact at the disk's vertex directions")
    p.add_argument("--out")
    p.add_argument("--svg")

    p = new("hypercube", _cmd_hypercube,
            "Hamiltonian hypercube curve with increasing chords", disk=False)
    p.add_argument("-d", type=int, required=True, help="dimension")
    p.add_argument("--check", action="store_true",
                   help="verify the chord property and report OK/FAIL")
    p.add_argument("--samples-per-edge", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", help="write the vertex CSV here")

    p = new("convexify", _cmd_convexify,
            "sort the edges of an x-monotone curve by slope", disk=False)
    p.add_argument("--curve", required=True)
    p.add_argument("--out")

    p = new("bisector", _cmd_bisector, "sample a two-point norm bisector")
    p.add_argument("--a", required=True, help="first point 'x,y'")
    p.add_argument("--b", required=True, help="second point 'x,y'")
    p.add_argument("--range", required=True,
                   help="offset range 'lo,hi' across the segment")
    p.add_argument("-n", "--samples", type=int, default=64)
    p.add_argument("--out")

    p = new("verify-all", _cmd_verify_all,
            "run the built-in invariant battery", disk=False)
    p.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION,
                   help="boundary polygonization of the battery's smooth disks")
    p.add_argument("--seed", type=int, default=0)

    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except (InvalidDiskError, GeometryError, UnsupportedDiskError, ValueError,
            KeyError, OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
