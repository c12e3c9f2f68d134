"""Built-in verification battery and shared random-instance generators.

The battery exercises every module on the built-in disks; the CLI's
verify-all drives it, and the test suite reuses both the checks and the
generators.
"""

from __future__ import annotations

import math

import numpy as np

from .chordbound import (bounding_parallelogram, inscribed_hexagon, lm,
                         perimeter, reuleaux, reuleaux_two_sides)
from .curvekit import (Polyline, arclength, check_increasing_chords,
                       convexify, is_x_monotone)
from .highdim import (check_increasing_chords_dd, chebyshev_arclength,
                      hypercube_curve, PolylineD)
from .involute import build_involute
from .normplane import (ConvexBody, UnitDisk, boundary_arclength, gauge,
                        gauge_many, is_birkhoff_orthogonal, support,
                        unit_vector, unit_vectors, DEFAULT_RESOLUTION)

TWO_THIRDS_PI = 2.0 * math.pi / 3.0


def builtin_disks(resolution: int = DEFAULT_RESOLUTION) -> dict:
    return {
        "euclidean": UnitDisk.euclidean(resolution),
        "square": UnitDisk.square(),
        "hexagon": UnitDisk.regular_hexagon(),
        "lp4": UnitDisk.lp(4.0, resolution),
    }


# -- random instance generators -------------------------------------------

def convex_hull(points: np.ndarray) -> np.ndarray:
    """Strict convex hull (CCW, collinear points dropped)."""
    P = np.asarray(points, dtype=float)
    order = np.lexsort((P[:, 1], P[:, 0]))
    P = P[order]

    def chain(pts):
        out = []
        for p in pts:
            while len(out) >= 2:
                a, b = out[-2], out[-1]
                if (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0]) <= 0:
                    out.pop()
                else:
                    break
            out.append(p)
        return out

    lower = chain(P)
    upper = chain(P[::-1])
    return np.array(lower[:-1] + upper[:-1])


def random_polygon_disk(rng, m: int | None = None) -> UnitDisk:
    """Random origin-symmetric convex polygon disk."""
    if m is None:
        m = int(rng.integers(5, 13))
    ang = np.sort(rng.uniform(0.0, math.pi, m))
    rad = rng.uniform(0.4, 1.6, m)
    pts = rad[:, None] * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    sym = np.concatenate([pts, -pts])
    return UnitDisk.polygon(convex_hull(sym))


def random_smooth_disk(rng, n: int = 512) -> UnitDisk:
    """Random rounded disk: a polygon P blended with a ball along common
    outward normals, (1 - lam) P + lam B.  Not strictly convex: each edge
    of P stays, scaled by 1 - lam, as one long flat edge of the n-gon,
    which the sampled strictness test does not see, so is_strictly_convex
    reads True."""
    P = random_polygon_disk(rng)
    lam = float(rng.uniform(0.25, 0.6))
    nh = n // 2
    th = np.arange(nh) * (math.pi / nh)
    normals = np.stack([np.cos(th), np.sin(th)], axis=1)
    a = P.vertices[np.argmax(normals @ P.vertices.T, axis=1)]
    half = (1.0 - lam) * a + lam * normals
    return UnitDisk.from_boundary_samples(np.concatenate([half, -half]))


def random_disk(rng) -> UnitDisk:
    if rng.random() < 0.5:
        return random_polygon_disk(rng)
    return random_smooth_disk(rng)


def random_base_body(rng, exact: bool | None = None, n: int = 400) -> ConvexBody:
    """Random convex body (not necessarily symmetric) for involute bases."""
    if exact is None:
        exact = bool(rng.random() < 0.5)
    while True:
        k = int(rng.integers(6, 12))
        pts = rng.normal(0.0, 1.0, (k, 2)) * rng.uniform(0.6, 1.4, 2)
        hull = convex_hull(pts)
        if len(hull) >= 4:
            break
    if exact:
        return ConvexBody(hull, exact_polygon=True)
    lam = float(rng.uniform(0.2, 0.5))
    th = np.arange(n) * (2.0 * math.pi / n)
    normals = np.stack([np.cos(th), np.sin(th)], axis=1)
    a = hull[np.argmax(normals @ hull.T, axis=1)]
    return ConvexBody((1.0 - lam) * a + lam * normals, exact_polygon=False)


def random_xmonotone(rng, n: int | None = None, grid: int = 1 << 20) -> Polyline:
    """Random strictly x-monotone open polyline on a dyadic grid (all
    coordinates integer multiples of 1/grid), so edge bookkeeping in
    exact-arithmetic tests stays bitwise clean."""
    if n is None:
        n = int(rng.integers(3, 30))
    dx = rng.integers(1, grid // (2 * n), n - 1)
    xs = np.concatenate([[0], np.cumsum(dx)]).astype(float) / grid
    ys = rng.integers(-grid, grid, n).astype(float) / grid
    return Polyline(np.stack([xs, ys], axis=1))


def near_segment_curve(rng, q: np.ndarray, n: int = 12,
                       sigma: float = 0.02) -> Polyline:
    """Mild perpendicular perturbation of the segment 0 -> q; most draws
    keep increasing chords and get past the checker filter."""
    t = np.linspace(0.0, 1.0, n)
    base = t[:, None] * q[None, :]
    perp = np.array([-q[1], q[0]])
    bump = rng.normal(0.0, sigma, n) * np.sin(math.pi * t)
    return Polyline(base + bump[:, None] * perp[None, :])


# -- the battery ----------------------------------------------------------

def _check_gauge_axioms(disks, rng):
    worst = 0.0
    for disk in disks.values():
        V = rng.normal(0.0, 2.0, (200, 2))
        W = rng.normal(0.0, 2.0, (200, 2))
        g = gauge_many(disk, V)
        worst = max(worst, float(np.abs(gauge_many(disk, -V) - g).max()))
        t = 2.7
        worst = max(worst, float(np.abs(gauge_many(disk, t * V) - t * g).max()))
        tri = gauge_many(disk, V + W) - (g + gauge_many(disk, W))
        worst = max(worst, float(tri.max()))
    return worst <= 1e-9, "max axiom violation %.3g" % worst


def _check_unit_vectors(disks, rng):
    worst = 0.0
    for disk in disks.values():
        th = rng.uniform(-10.0, 10.0, 100)
        g = gauge_many(disk, unit_vectors(disk, th))
        worst = max(worst, float(np.abs(g - 1.0).max()))
    return worst <= 1e-12, "max |gauge(unit)-1| = %.3g" % worst


def _check_support(disks, rng):
    worst = 0.0
    for disk in disks.values():
        for _ in range(25):
            nrm = rng.normal(0.0, 1.0, 2)
            if math.hypot(*nrm) < 1e-3:
                continue
            line = support(disk, nrm)
            d = np.array([-line.direction[1], line.direction[0]])
            side = (disk.vertices - line.point) @ d
            worst = max(worst, -float(side.min()))
    return worst <= 1e-9, "max right-side overshoot %.3g" % worst


def _check_birkhoff(disks, rng):
    for name, disk in disks.items():
        V = disk.vertices
        m = len(V)
        for th in rng.uniform(0.0, 2.0 * math.pi, 25):
            x = unit_vector(disk, th)
            j = int(np.argmin(np.hypot(*(V - x).T))) if disk.is_polygonal else None
            if j is not None and math.hypot(*(V[j] - x)) <= 1e-9:
                e = V[(j + 1) % m] - V[j]
            else:
                jj = int(disk._T.cone(*x[:, None])[0])
                e = V[(jj + 1) % m] - V[jj]
            if not is_birkhoff_orthogonal(disk, x, e, tol=1e-7):
                return False, "%s: radial not orthogonal to boundary edge" % name
    return True, "radial/tangent pairs orthogonal on all builtins"


def _check_arc_additivity(disks, rng):
    worst = 0.0
    for disk in disks.values():
        per = perimeter(disk, disk.vertices)
        for _ in range(10):
            p = unit_vector(disk, rng.uniform(0, 2 * math.pi))
            q = unit_vector(disk, rng.uniform(0, 2 * math.pi))
            if math.hypot(*(p - q)) < 1e-6:
                continue
            s = boundary_arclength(disk, disk, p, q) + \
                boundary_arclength(disk, disk, q, p)
            worst = max(worst, abs(s - per) / per)
    return worst <= 1e-6, "max additivity error %.3g (relative)" % worst


def _check_chord_checker(disks, rng):
    square = disks["square"]
    t = np.linspace(0.0, 1.0, 9)
    seg = Polyline(np.stack([t, 0.3 * t], axis=1))
    rep = check_increasing_chords(square, seg)
    if not rep.holds:
        return False, "straight segment rejected (deficit %.3g)" % rep.max_deficit
    bad = np.stack([t, 0.3 * t], axis=1)
    bad[4] = (0.45, 0.5)
    bad[5] = (0.55, -0.5)
    rep2 = check_increasing_chords(square, Polyline(bad))
    if rep2.holds or not rep2.witnesses:
        return False, "notched curve accepted"
    return True, "segment holds, notch refused with %d witnesses" % len(rep2.witnesses)


def _check_circle_involute(disks, rng):
    # closed-form agreement at 1e-6 needs a fine polygonization (the
    # error is quadratic in the vertex step)
    euclid = UnitDisk.euclidean(max(8192, len(disks["euclidean"].vertices)))
    base = ConvexBody.from_disk(euclid)
    curve = build_involute(euclid, base, (0.0, -1.0), 0.0, 2.0 * math.pi, 256)
    th = curve.thetas
    exact = np.stack([np.sin(th) - th * np.cos(th),
                      -np.cos(th) - th * np.sin(th)], axis=1)
    dev = float(np.abs(curve.points.points - exact).max())
    return dev <= 1e-6, "max closed-form deviation %.3g" % dev


def _check_involute_anchor(disks, rng):
    worst = 0.0
    for disk in disks.values():
        base = random_base_body(rng, exact=True)
        p = base.vertices[0]
        cu = build_involute(disk, base, p, -1.0, 4.0, 200)
        worst = max(worst, float(np.abs(cu.point_at(0.0) - p).max()))
    return worst <= 1e-9, "max |involute(0) - p| = %.3g" % worst


def _check_lm_builtins(disks, rng):
    e = max(abs(lm(disks["euclidean"], th) - TWO_THIRDS_PI)
            for th in np.linspace(0, math.pi, 8, endpoint=False))
    if e > 1e-3:
        return False, "euclidean lm off by %.3g" % e
    sq0 = lm(disks["square"], 0.0)
    sq1 = lm(disks["square"], math.pi / 4.0)
    if abs(sq0 - 3.0) > 1e-9 or abs(sq1 - 2.0) > 1e-9:
        return False, "square lm: dir0 %.12g, dir pi/4 %.12g" % (sq0, sq1)
    hx = [lm(disks["hexagon"], th) for th in np.linspace(0, math.pi, 9)]
    dev = max(abs(v - 2.0) for v in hx)
    if dev > 1e-6:
        return False, "hexagon lm not constant 2 (dev %.3g)" % dev
    return True, "euclidean 2pi/3, square {2,3}, hexagon 2"


def _check_hexagons(disks, rng):
    for name, disk in disks.items():
        p = unit_vector(disk, 0.3)
        hxg = inscribed_hexagon(disk, p)
        v, w = hxg.vertices[0], hxg.vertices[1]
        pattern = np.array([v, w, w - v, -v, -w, v - w])
        if np.abs(hxg.vertices - pattern).max() > 1e-8:
            return False, "%s: hexagon not affinely regular" % name
        if np.abs(gauge_many(disk, hxg.vertices) - 1.0).max() > 1e-8:
            return False, "%s: hexagon vertex off the boundary" % name
    return True, "affine pattern and boundary membership hold"


def _check_reuleaux(disks, rng):
    vals = {}
    for name, disk in disks.items():
        hxg = inscribed_hexagon(disk, unit_vector(disk, 0.0))
        body, per = reuleaux(disk, hxg)
        vals[name] = per
    if abs(vals["euclidean"] - math.pi) > 1e-3:
        return False, "euclidean Reuleaux perimeter %.6f" % vals["euclidean"]
    if abs(vals["hexagon"] - 3.0) > 1e-9 or abs(vals["square"] - 4.0) > 1e-9:
        return False, "hexagon %.12g, square %.12g" % (vals["hexagon"], vals["square"])
    return True, "half-perimeter identity on all builtins"


def _check_two_sides(disks, rng):
    for name, disk in disks.items():
        hxg = inscribed_hexagon(disk, unit_vector(disk, 0.0))
        p, q = hxg.vertices[0], hxg.vertices[1]
        body, _ = reuleaux(disk, hxg)
        chain = reuleaux_two_sides(body, p, q)
        curve = Polyline(chain)
        rep = check_increasing_chords(disk, curve)
        if not rep.holds:
            return False, "%s: two-side curve fails the checker" % name
        d = math.atan2(q[1] - p[1], q[0] - p[0])
        bound = lm(disk, d)
        if arclength(disk, curve) > bound + 1e-6:
            return False, "%s: two-side curve longer than the bound" % name
    return True, "two-side curves hold and meet the length bound"


def _check_golab(disks, rng):
    worst_lo, worst_hi = np.inf, -np.inf
    for _ in range(20):
        disk = random_disk(rng)
        per = perimeter(disk, disk.vertices)
        worst_lo = min(worst_lo, per)
        worst_hi = max(worst_hi, per)
    ok = worst_lo >= 6.0 - 1e-3 and worst_hi <= 8.0 + 1e-9
    return ok, "self-perimeter range [%.6f, %.6f]" % (worst_lo, worst_hi)


def _check_lens_envelope(disks, rng):
    worst_lo, worst_hi, cert = np.inf, -np.inf, -np.inf
    for _ in range(10):
        disk = random_disk(rng)
        for th in rng.uniform(0.0, math.pi, 8):
            v = lm(disk, th)
            worst_lo = min(worst_lo, v)
            worst_hi = max(worst_hi, v)
            q = unit_vector(disk, th)
            corners = bounding_parallelogram(disk, np.zeros(2), q)
            cert = max(cert, gauge(disk, corners[0] - np.zeros(2)))
    ok = worst_lo >= 2.0 - 1e-6 and worst_hi <= 3.0 + 1e-6 and cert <= 1.0 + 1e-9
    return ok, "lm range [%.6f, %.6f], max corner gauge %.9f" % (
        worst_lo, worst_hi, cert)


def _check_hypercube(disks, rng):
    for d in range(1, 11):
        if chebyshev_arclength(hypercube_curve(d)) != float(2 ** d - 1):
            return False, "length mismatch at d=%d" % d
    for d in range(1, 5):
        if not check_increasing_chords_dd(hypercube_curve(d), 4, 1e-9).holds:
            return False, "chord property fails at d=%d" % d
    pts = hypercube_curve(3).points.copy()
    pts[3] = pts[3] + np.array([0.3, 0.0, 0.0])
    rep = check_increasing_chords_dd(PolylineD(pts), 4, 1e-9)
    if rep.holds or not rep.witnesses:
        return False, "perturbed curve not refused"
    return True, "lengths exact to d=10, checker sound"


def _check_convexify(disks, rng):
    for _ in range(30):
        cu = random_xmonotone(rng)
        out = convexify(cu)
        if not is_x_monotone(out):
            return False, "output not x-monotone"
        ein = cu.points[1:] - cu.points[:-1]
        eout = out.points[1:] - out.points[:-1]
        cross = ein[:, 0][:, None] * ein[:, 1][None, :] - \
            ein[:, 1][:, None] * ein[:, 0][None, :]
        np.fill_diagonal(cross, 1.0)
        if np.all(cross != 0.0):  # no exact-parallel pair, so no merging
            si = np.lexsort((ein[:, 1], ein[:, 0]))
            so = np.lexsort((eout[:, 1], eout[:, 0]))
            if not np.array_equal(ein[si], eout[so]):
                return False, "edge multiset changed"
        if np.abs(out.points[0] - cu.points[0]).max() != 0.0 or \
           np.abs(out.points[-1] - cu.points[-1]).max() != 0.0:
            return False, "endpoints moved"
        E = out.points[1:] - out.points[:-1]
        ang = np.arctan2(E[:, 1], E[:, 0])
        if not np.all(np.diff(ang) < 0):
            return False, "output edges not slope-sorted"
        for disk in disks.values():
            if abs(arclength(disk, out) - arclength(disk, cu)) > 1e-9:
                return False, "norm length changed"
    return True, "multiset, endpoints and lengths preserved on 30 draws"


BATTERY = [
    ("gauge-axioms", _check_gauge_axioms),
    ("unit-vectors", _check_unit_vectors),
    ("support-lines", _check_support),
    ("birkhoff-tangents", _check_birkhoff),
    ("arc-additivity", _check_arc_additivity),
    ("chord-checker", _check_chord_checker),
    ("circle-involute", _check_circle_involute),
    ("involute-anchor", _check_involute_anchor),
    ("lm-builtins", _check_lm_builtins),
    ("inscribed-hexagons", _check_hexagons),
    ("reuleaux", _check_reuleaux),
    ("two-side-curves", _check_two_sides),
    ("golab-bounds", _check_golab),
    ("lens-envelope", _check_lens_envelope),
    ("hypercube", _check_hypercube),
    ("convexify", _check_convexify),
]


def run_battery(resolution: int = DEFAULT_RESOLUTION, seed: int = 0):
    """Run every named check; returns (all_ok, list of (name, ok, detail))."""
    disks = builtin_disks(resolution)
    results = []
    for name, fn in BATTERY:
        rng = np.random.default_rng(seed + 1)
        try:
            ok, detail = fn(disks, rng)
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
        results.append((name, bool(ok), detail))
    return all(ok for _, ok, _ in results), results
