import math

import numpy as np
import pytest
from scipy.spatial import HalfspaceIntersection

from mchords import UnitDisk, boundary_arclength, gauge, unit_vector
from mchords.chordbound import (_SCAN, Hexagon, _arcs, _corners,
                                _family_params, _line_intersections, _lm_at,
                                _min_lm, _parallelograms,
                                bounding_parallelogram, inscribed_hexagon,
                                intersect_translates,
                                lens_corners, lm, lm_sweep, maxmin_search,
                                perimeter, reuleaux, reuleaux_two_sides)
from mchords.curvekit import Polyline, arclength, check_increasing_chords
from mchords.errors import GeometryError
from mchords.involute import ConvexBody
from mchords.normplane import _Stack, gauge_many, unit_vectors
from mchords.verify import (builtin_disks, convex_hull, random_disk,
                            random_polygon_disk, random_smooth_disk)

import oracles

TWO_THIRDS_PI = 2.0 * math.pi / 3.0
SQRT3 = math.sqrt(3.0)


def test_intersect_square_translates():
    sq = UnitDisk.square()
    body = intersect_translates(sq, (0, 0), (1, 1))
    got = sorted(map(tuple, np.round(body.vertices, 9)))
    assert got == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]


def test_intersect_coincident_translates():
    sq = UnitDisk.square()
    body = intersect_translates(sq, (2, 1), (2, 1))
    assert np.allclose(body.vertices, sq.vertices + np.array([2.0, 1.0]))


def test_intersect_rejects_disjoint():
    eu = UnitDisk.euclidean(1024)
    with pytest.raises(GeometryError):
        intersect_translates(eu, (0, 0), (2.5, 0))
    with pytest.raises(GeometryError):
        intersect_translates(eu, (0, 0), (2.0, 0))  # degenerate touching


def test_lens_corners_euclid():
    eu = UnitDisk.euclidean(4096)
    cp, cm = lens_corners(eu, (0, 0), (1, 0))
    assert np.allclose(cp, (0.5, SQRT3 / 2), atol=1e-6)
    assert np.allclose(cm, (0.5, -SQRT3 / 2), atol=1e-6)
    for c in (cp, cm):
        assert abs(gauge(eu, c) - 1.0) <= 1e-6
        assert abs(gauge(eu, c - np.array([1.0, 0.0])) - 1.0) <= 1e-6


def test_perimeter_self():
    eu = UnitDisk.euclidean(4096)
    sq = UnitDisk.square()
    hx = UnitDisk.regular_hexagon()
    assert abs(perimeter(eu, eu.vertices) - 2.0 * math.pi) <= 2e-6
    assert perimeter(sq, sq.vertices) == 8.0
    assert perimeter(hx, hx.vertices) == 6.0


def test_perimeter_needs_ring():
    sq = UnitDisk.square()
    with pytest.raises(GeometryError):
        perimeter(sq, np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_lm_values():
    eu = UnitDisk.euclidean(4096)
    sq = UnitDisk.square()
    for d in (0.0, 0.4, math.pi / 2):
        assert abs(lm(eu, d) - TWO_THIRDS_PI) <= 1e-5
    assert abs(lm(sq, 0.0) - 3.0) <= 1e-9
    assert abs(lm(sq, math.pi / 4) - 2.0) <= 1e-9


def test_arc_tables_are_built_once_per_disk():
    # the edge gauges and their running sums are kept on the disk at its
    # first lm, and on a ring stack at its first _lm_at; every later call
    # reads the same table and returns the same bits as a fresh disk
    rng = np.random.default_rng(41)
    for new_disk in (lambda: UnitDisk.lp(3.0, 1024), UnitDisk.regular_hexagon,
                     lambda: random_polygon_disk(np.random.default_rng(5))):
        disk = new_disk()
        assert disk._T._arcs is None
        dirs = rng.uniform(0.0, math.pi, 8)
        first = [lm(disk, d) for d in dirs]
        tables = disk._T._arcs
        assert tables is not None
        assert [lm(disk, d) for d in dirs] == first
        assert lm_sweep(disk, 90).values.tobytes() == lm_sweep(new_disk(), 90).values.tobytes()
        assert disk._T._arcs is tables and disk._T.arcs() is tables
        assert [lm(new_disk(), d) for d in dirs] == first
    rings = np.stack([random_polygon_disk(np.random.default_rng(5)).vertices * s
                      for s in (1.0, 0.5, 3.0)])
    T = _Stack(rings)
    W, start, total = T.arcs()
    assert T.arcs() is T.arcs()
    for b, ring in enumerate(rings):
        rows = slice(b * len(ring), (b + 1) * len(ring))
        W1, start1, total1 = UnitDisk.polygon(ring)._T.arcs()
        assert W[rows].tobytes() == W1.tobytes()
        assert start[rows].tobytes() == start1.tobytes()
        assert total[b] == total1[0]


def test_lm_refuses_a_non_finite_direction():
    for d in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="direction"):
            lm(UnitDisk.square(), d)


def test_lm_sweep_profiles():
    eu = UnitDisk.euclidean(4096)
    pe = lm_sweep(eu, 360)
    assert pe.max - pe.min < 1e-6
    assert abs(pe.min - TWO_THIRDS_PI) <= 1e-5
    sq = lm_sweep(UnitDisk.square(), 360)
    assert abs(sq.min - 2.0) <= 1e-9
    assert abs(sq.max - 3.0) <= 1e-9
    assert np.isclose(sq.argmin, math.pi / 4, atol=1e-9)
    assert np.isclose(sq.argmax, 0.0, atol=1e-9)
    hx = lm_sweep(UnitDisk.regular_hexagon(), 360)
    assert abs(hx.min - 2.0) <= 1e-9
    assert hx.max - hx.min <= 1e-12
    for prof in (pe, sq, hx):
        assert np.all(prof.values > 0)
        assert prof.min - 1e-12 <= prof.values.min()
        assert prof.values.max() <= prof.max + 1e-12
    with pytest.raises(ValueError):
        lm_sweep(eu, 3)



def _fine_and_flat_disks():
    """Fine, flat-sided and random disks for the corner solver, from seeds."""
    rng = np.random.default_rng(2024)
    disks = [UnitDisk.euclidean(4096), UnitDisk.lp(4.0, 4096),
             UnitDisk.lp(1.0, 64), UnitDisk.lp(30.0, 512),
             UnitDisk.square(), UnitDisk.regular_hexagon()]
    disks += [random_polygon_disk(rng) for _ in range(3)]
    disks += [random_polygon_disk(rng, 2) for _ in range(8)]  # parallelograms
    disks += [random_smooth_disk(rng, 2048) for _ in range(3)]
    return disks


def _boundary_rows(disk, rng, m):
    """m seeded boundary points, then vertices and edge midpoints (every
    one on a coarse disk, 64 of each on a fine one)."""
    V = disk.vertices[::max(1, len(disk.vertices) // 64)]
    return np.concatenate([unit_vectors(disk, rng.uniform(0.0, 2.0 * math.pi, m)),
                           V, 0.5 * (V + np.roll(V, -1, axis=0))])


def test_corner_search_matches_scan():
    # a batch of more than _SCAN entries takes the two bisections; the
    # same rows in blocks of at most _SCAN entries are scanned whole
    rng = np.random.default_rng(5)
    for disk in _fine_and_flat_disks():
        n = len(disk.vertices)
        rows = _SCAN // n
        m = rows + 37
        q = _boundary_rows(disk, rng, m)
        scale = max(1.0, float(np.abs(disk.vertices).max()))
        for c in (0.5, 1.0, 1.5):
            W = c * q
            X = _corners(disk._T, q, W)
            Y = np.concatenate([_corners(disk._T, q[i:i + rows], W[i:i + rows])
                                for i in range(0, len(q), rows)])
            assert np.abs(gauge_many(disk, X) - 1.0).max() <= 1e-13
            assert np.abs(gauge_many(disk, X - W) - 1.0).max() <= 1e-13
            assert np.abs(X[:m] - Y[:m]).max() <= 1e-13 * scale
            # at vertices and midpoints a flat stretch of the boundary can
            # lie at distance 1 from W, where "first" is decided by
            # rounding; there the two corners must share the stretch
            for i in np.nonzero(np.abs(X - Y).max(axis=1) > 1e-13 * scale)[0]:
                A, keep = _arcs(disk._T, np.array([X[i], Y[i]]), np.array([Y[i], X[i]]))
                assert min(np.abs(gauge_many(disk, A[r, keep[r]] - W[i]) - 1.0).max()
                           for r in (0, 1)) <= 1e-13
        prof = lm_sweep(disk, rows + 1)
        assert len(prof.directions) * n > _SCAN
        picks = np.unique(np.concatenate([
            [np.argmin(prof.values), np.argmax(prof.values)],
            rng.integers(0, len(prof.directions), 64)]))
        for i in picks:
            assert abs(prof.values[i] - lm(disk, prof.directions[i])) <= 1e-13


def test_corner_distance_grows_towards_antipode():
    # the monotonicity lemma the bracketing bisection rests on: from
    # W = c U, U on edge j, the vertices V[j+1], ..., V[j+n/2] = -V[j]
    # are ever farther, up to a few ulps where a flat stretch keeps the
    # gauge constant
    rng = np.random.default_rng(13)
    for disk in _fine_and_flat_disks():
        V = disk.vertices
        n = len(V)
        q = _boundary_rows(disk, rng, 64)
        j = disk._T.cone(*q.T)
        P = V[(j[:, None] + 1 + np.arange(n // 2)) % n]
        for c in (1.0, *rng.uniform(0.0, 2.0, 3)):
            G = gauge_many(disk, P - c * q[:, None, :])
            assert np.diff(G, axis=1).min() >= -1e-14


def test_lm_sweep_matches_lens_oracle():
    # 360 directions: the fine disks sweep through the search, the
    # polygons through the scan
    rng = np.random.default_rng(31)
    disks = [UnitDisk.euclidean(4096), UnitDisk.lp(4.0, 4096)]
    disks += [random_smooth_disk(rng, 2048) for _ in range(2)]
    disks += [random_polygon_disk(rng) for _ in range(3)]
    large = set()
    for disk in disks:
        prof = lm_sweep(disk, 360)
        dirs = prof.directions
        large.add(len(dirs) * len(disk.vertices) > _SCAN)
        picks = [int(np.argmin(prof.values)), int(np.argmax(prof.values))]
        picks += [int(i) for i in rng.integers(0, len(dirs), 4)]
        for i in picks:
            ref = oracles.lens_lm(disk.vertices, dirs[i])
            assert abs(prof.values[i] - ref) <= 1e-9
    assert large == {False, True}

def test_inscribed_hexagon_euclid():
    eu = UnitDisk.euclidean(4096)
    h = inscribed_hexagon(eu, (1.0, 0.0))
    expect = [(1, 0), (0.5, SQRT3 / 2), (-0.5, SQRT3 / 2),
              (-1, 0), (-0.5, -SQRT3 / 2), (0.5, -SQRT3 / 2)]
    assert np.allclose(h.vertices, expect, atol=1e-6)
    assert h.q_unique


def test_inscribed_hexagon_square():
    sq = UnitDisk.square()
    h = inscribed_hexagon(sq, (1.0, 1.0))
    expect = [(1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1), (1, 0)]
    assert np.allclose(h.vertices, expect, atol=1e-9)
    assert h.q_unique
    # from an edge midpoint the root equation has a plateau of solutions
    h2 = inscribed_hexagon(sq, (1.0, 0.0))
    assert np.allclose(h2.vertices[1], (1.0, 1.0), atol=1e-9)
    assert not h2.q_unique


def test_hexagon_q_unique_in_flat_stretch():
    # p + M and M share a flat stretch from the vertex V to q; the vertex
    # rounds to gauge distance 0.9999999999999998 from p, so the corner
    # solver stops inside the stretch, where gauge(. - p) still grows
    # ahead of q but not behind it
    half = np.array([(0.7142942302224826, 0.6998455205764134),
                     (-0.9065087254856282, 0.4221870801178334)])
    disk = UnitDisk.polygon(np.concatenate([half, -half]))
    V = half[1]
    p = 0.5 * (half[0] + V)
    h = inscribed_hexagon(disk, p)
    assert abs(gauge(disk, V - p) - 1.0) <= 1e-15
    assert abs(gauge(disk, h.vertices[1] - p) - 1.0) <= 1e-15
    assert not h.q_unique
    # here q is the vertex where the stretch starts, and the wedge lookup
    # puts that vertex in the wedge before it
    half = np.array([(0.9045960747281319, 0.8501962740456461),
                     (-0.20612563982350315, 1.1561589090774518)])
    disk = UnitDisk.polygon(np.concatenate([half, -half]))
    h = inscribed_hexagon(disk, 0.5 * (half[0] - half[1]))
    assert np.array_equal(h.vertices[1], half[0])
    assert not h.q_unique


def test_inscribed_hexagon_rejects_interior_point():
    eu = UnitDisk.euclidean(1024)
    with pytest.raises(GeometryError):
        inscribed_hexagon(eu, (0.2, 0.1))


def test_hexagon_affine_regularity_random():
    rng = np.random.default_rng(11)
    for _ in range(15):
        disk = random_disk(rng)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        p = disk.vertices[int(ang / (2.0 * math.pi) * len(disk.vertices))]
        h = inscribed_hexagon(disk, p)
        v, w = h.vertices[0], h.vertices[1]
        pattern = np.array([v, w, w - v, -v, -w, v - w])
        assert np.abs(h.vertices - pattern).max() <= 1e-8
        assert np.abs(np.array([gauge(disk, x) for x in h.vertices]) - 1).max() <= 1e-8


def test_hexagon_arc_decomposition():
    # the six vertices cut the boundary into arcs with opposite arcs equal;
    # the hexagonal norm gives six arcs of unit length
    hx = UnitDisk.regular_hexagon()
    h = inscribed_hexagon(hx, (1.0, 0.0))
    arcs = [boundary_arclength(hx, hx, h.vertices[i], h.vertices[(i + 1) % 6])
            for i in range(6)]
    assert np.allclose(arcs, 1.0, atol=1e-12)
    eu = UnitDisk.euclidean(4096)
    he = inscribed_hexagon(eu, (1.0, 0.0))
    for i in range(3):
        a = boundary_arclength(eu, eu, he.vertices[i], he.vertices[i + 1])
        b = boundary_arclength(eu, eu, he.vertices[i + 3],
                               he.vertices[(i + 4) % 6])
        assert abs(a - math.pi / 3) <= 1e-5
        assert abs(a - b) <= 1e-6


def test_hexagon_lm_identity():
    # half-lens perimeter at the hexagon edge direction must equal
    # (perim - 2 * arc) / 2 for one of the three arc classes
    for disk in (UnitDisk.euclidean(4096), UnitDisk.square(),
                 UnitDisk.regular_hexagon()):
        h = inscribed_hexagon(disk, disk.vertices[0])
        per = perimeter(disk, disk.vertices)
        d = h.vertices[1] - h.vertices[0]
        ld = lm(disk, math.atan2(d[1], d[0]))
        cands = [(per - 2.0 * boundary_arclength(disk, disk, h.vertices[i],
                                                 h.vertices[i + 1])) / 2.0
                 for i in range(3)]
        assert min(abs(ld - c) for c in cands) <= 1e-6


def test_reuleaux_perimeters():
    eu = UnitDisk.euclidean(4096)
    sq = UnitDisk.square()
    hx = UnitDisk.regular_hexagon()
    cases = [(eu, (1.0, 0.0), math.pi, 1e-5),
             (sq, (1.0, 1.0), 4.0, 1e-9),
             (hx, (1.0, 0.0), 3.0, 1e-9)]
    for disk, p, expect, tol in cases:
        body, per = reuleaux(disk, inscribed_hexagon(disk, p))
        assert abs(per - expect) <= tol
        assert abs(per - perimeter(disk, body)) <= 1e-12


def test_reuleaux_rejects_bad_hexagon():
    eu = UnitDisk.euclidean(1024)
    h = inscribed_hexagon(eu, (1.0, 0.0))
    broken = Hexagon(vertices=h.vertices + np.array([0.01, 0.0]))
    with pytest.raises(ValueError):
        reuleaux(eu, broken)
    with pytest.raises(ValueError):
        reuleaux(eu, Hexagon(vertices=h.vertices[:5]))


def test_two_sides_curve_is_extremal():
    # walking two sides of the Reuleaux triangle from corner to corner is an
    # increasing-chord curve whose length attains the half-lens bound
    eu = UnitDisk.euclidean(4096)
    h = inscribed_hexagon(eu, (1.0, 0.0))
    body, _ = reuleaux(eu, h)
    a, b = h.vertices[0], h.vertices[1]
    chain = reuleaux_two_sides(body, a, b)
    assert np.allclose(chain[0], a, atol=1e-9)
    assert np.allclose(chain[-1], b, atol=1e-9)
    L = arclength(eu, Polyline(chain))
    d = b - a
    bound = lm(eu, math.atan2(d[1], d[0]))
    assert abs(L - bound) <= 1e-3
    assert L <= bound + 1e-6
    assert check_increasing_chords(eu, Polyline(chain)).holds
    with pytest.raises(GeometryError):
        reuleaux_two_sides(body, a, a)


def test_two_sides_chain_at_any_anchor():
    # corners inside an edge of the Reuleaux ring are ring points too: the
    # square at anchor 0.45 and random polygons at uniform anchors
    sq = UnitDisk.square()
    h = inscribed_hexagon(sq, unit_vector(sq, 0.45))
    a, b = h.vertices[0], h.vertices[1]
    chain = reuleaux_two_sides(reuleaux(sq, h)[0], a, b)
    t = math.tan(0.45)
    assert np.allclose(chain, [(1, t), (1, 0), (0, 0), (0, 1)], atol=1e-12)
    assert abs(lm(sq, math.atan2(*(b - a)[::-1])) - (2.0 + t)) <= 1e-12
    rng = np.random.default_rng(31)
    cases = [(random_polygon_disk(np.random.default_rng(0)), 0.0)]
    cases += [(sq, th) for th in rng.uniform(0.0, 2.0 * math.pi, 10)]
    cases += [(random_polygon_disk(rng), rng.uniform(0.0, 2.0 * math.pi))
              for _ in range(30)]
    for disk, th in cases:
        h = inscribed_hexagon(disk, unit_vector(disk, th))
        a, b = h.vertices[0], h.vertices[1]
        chain = reuleaux_two_sides(reuleaux(disk, h)[0], a, b)
        assert np.array_equal(chain[0], a) and np.array_equal(chain[-1], b)
        bound = lm(disk, math.atan2(*(b - a)[::-1]))
        assert abs(arclength(disk, Polyline(chain)) - bound) <= 1e-12
        assert check_increasing_chords(disk, Polyline(chain), tol=1e-9).holds


def test_two_sides_corners_on_one_edge_go_round():
    ring = ConvexBody([(0, 0), (1, 0), (1, 1), (0, 1)])
    chain = reuleaux_two_sides(ring, (0.25, 0.0), (0.75, 0.0))
    assert np.array_equal(chain, [(0.25, 0), (0, 0), (0, 1), (1, 1), (1, 0),
                                  (0.75, 0)])
    # (1, 1) is reported as the end (t = 1) of the edge before (0.5, 1)'s
    chain = reuleaux_two_sides(ring, (1.0, 1.0), (0.5, 1.0))
    assert np.array_equal(chain, [(1, 1), (1, 0), (0, 0), (0, 1), (0.5, 1)])
    chain = reuleaux_two_sides(ring, (0.75, 0.0), (0.25, 0.0))
    assert np.array_equal(chain, [(0.75, 0), (0.25, 0)])
    with pytest.raises(GeometryError):
        reuleaux_two_sides(ring, (0.5, 0.5), (1.0, 1.0))
    with pytest.raises(GeometryError):
        reuleaux_two_sides(ring, (1.0, 1.0), (1.0, 1.0 + 1e-14))


def _oracle_lens(V, p, q):
    """Vertices of (p + M) Intersect (q + M) by half-space intersection."""
    F = oracles.facet_functionals(V)
    hs = np.concatenate([np.column_stack([F, -1.0 - F @ p]),
                         np.column_stack([F, -1.0 - F @ q])])
    X = HalfspaceIntersection(hs, 0.5 * (p + q)).intersections
    c = X.mean(axis=0)
    X = X[np.argsort(np.arctan2(X[:, 1] - c[1], X[:, 0] - c[0]))]
    keep = np.hypot(*(X - np.roll(X, 1, axis=0)).T) > 1e-9
    return X[keep]


def test_lens_matches_halfspace_oracle():
    rng = np.random.default_rng(41)
    disks = [UnitDisk.square(), UnitDisk.regular_hexagon()]
    disks += [random_polygon_disk(rng) for _ in range(6)]
    disks += [random_smooth_disk(rng, 96) for _ in range(4)]
    for disk in disks:
        V = disk.vertices
        g = oracles.polygon_gauge(V)
        for d in (0.05, 0.3, 0.7, 1.3, 1.7, 1.95):
            p = rng.normal(0.0, 1.0, 2)
            q = p + d * oracles.unit_vector(g, rng.uniform(0.0, 2.0 * math.pi))
            X = _oracle_lens(V, p, q)
            body = intersect_translates(disk, p, q)
            B = body.vertices
            assert abs(perimeter(disk, body) - float(g(np.roll(X, -1, axis=0) - X).sum())) <= 1e-9
            # every oracle vertex is a ring point, every ring point is on
            # the boundary of the lens
            assert np.hypot(*(X[:, None, :] - B[None, :, :]).T).min(axis=0).max() <= 1e-9
            assert np.abs(np.maximum(g(B - p), g(B - q)) - 1.0).max() <= 1e-9
            x_plus, x_minus = lens_corners(disk, p, q)
            for x in (x_plus, x_minus):
                assert abs(g(x - p) - 1.0) <= 1e-9 and abs(g(x - q) - 1.0) <= 1e-9
                assert np.hypot(*(X - x).T).min() <= 1e-9
            w = q - p
            assert w[0] * (x_plus - p)[1] - w[1] * (x_plus - p)[0] > 0
            assert np.allclose(x_plus + x_minus, p + q, atol=1e-12)


def test_bounding_parallelogram_square():
    sq = UnitDisk.square()
    P = bounding_parallelogram(sq, (0.0, 0.0), (1.0, 0.0))
    assert np.allclose(P, [(0, 1), (0, -1), (1, 1), (1, -1)], atol=1e-9)
    assert gauge(sq, P[0] - np.array([0.0, 0.0])) == 1.0
    assert abs(perimeter(sq, P[[0, 1, 3, 2]]) - 6.0) <= 1e-12


def test_bounding_parallelogram_refuses_a_zero_chord():
    for q in ((0.2, 0.1), (0.2, 0.1 + 1e-15)):
        with pytest.raises(GeometryError, match="gauge length"):
            bounding_parallelogram(UnitDisk.square(), (0.2, 0.1), q)


def test_bounding_parallelogram_certificate_random():
    # containment plus the translate identity force the lens half-perimeter
    # under 3: the parallelogram has sides 2s and 1 with s <= 1
    rng = np.random.default_rng(23)
    for _ in range(20):
        disk = random_disk(rng)
        th = rng.uniform(0.0, math.pi)
        p = np.zeros(2)
        q = disk.vertices[int(th / (2.0 * math.pi) * len(disk.vertices))]
        P = bounding_parallelogram(disk, p, q)
        assert gauge(disk, P[0] - p) <= 1.0 + 1e-6
        assert np.allclose(P[2], P[0] + (q - p), atol=1e-9)
        assert np.allclose(P[3], P[1] + (q - p), atol=1e-9)
        per = perimeter(disk, P[[0, 1, 3, 2]])
        assert per <= 6.0 + 1e-6
        d = q - p
        assert 2.0 * lm(disk, math.atan2(d[1], d[0])) <= per + 1e-9


def _parallelogram_disks():
    rng = np.random.default_rng(33)
    return (list(builtin_disks(512).values())
            + [random_polygon_disk(rng) for _ in range(8)]
            + [random_smooth_disk(rng) for _ in range(8)])


def test_parallelogram_kernel_rows_match_the_single_calls():
    # a row's last bits depend on how many rows share the _corners call;
    # measured against the parallelogram's largest coordinate, a row of
    # eight stays within 4 ulps of its call alone
    rng = np.random.default_rng(34)
    for disk in _parallelogram_disks():
        Q = unit_vectors(disk, rng.uniform(0.0, math.pi, 8))
        for P in (np.zeros_like(Q), rng.normal(0.0, 1.0, Q.shape)):
            for s in (0.5, 1.0, 1.6):
                got = _parallelograms(disk, P, P + s * Q)
                one = np.array([bounding_parallelogram(disk, p, p + s * q)
                                for p, q in zip(P, Q)])
                for r in range(len(Q) if s == 1.0 else 0):
                    assert np.array_equal(
                        _parallelograms(disk, P[r:r + 1], P[r:r + 1] + s * Q[r:r + 1])[0],
                        one[r])
                ulp = np.spacing(np.abs(one).max(axis=(1, 2)))[:, None, None]
                assert (np.abs(got - one) <= 4 * ulp).all()


def test_arcs_rows_are_each_arc_alone():
    rng = np.random.default_rng(35)
    for disk in _parallelogram_disks():
        A, B = unit_vectors(disk, rng.uniform(0.0, 2.0 * math.pi, (2, 9)))
        A[0] = B[0] = disk.vertices[3]  # an empty arc, and vertices at both ends
        B[1] = disk.vertices[1]
        P, keep = _arcs(disk._T, A, B)
        for r in range(len(A)):
            P1, keep1 = _arcs(disk._T, A[r:r + 1], B[r:r + 1])
            assert np.array_equal(P[r, keep[r]], P1[0, keep1[0]])
            assert np.array_equal(P[r, keep[r]][[0, -1]], [A[r], B[r]])


def test_parallelogram_kernel_refuses_each_bad_row_with_its_message():
    disk = random_polygon_disk(np.random.default_rng(36))
    Q = unit_vectors(disk, np.linspace(0.0, 3.0, 5))
    P = np.zeros_like(Q)
    for bad, match in ((1e-15, "bounding_parallelogram: undefined for a chord of "
                               "gauge length"),
                       (2.0, "translates at gauge distance")):
        R = Q.copy()
        R[3] *= bad
        with pytest.raises(GeometryError) as single:
            bounding_parallelogram(disk, P[3], R[3])
        with pytest.raises(GeometryError) as batch:
            _parallelograms(disk, P, R)
        assert str(batch.value) == str(single.value)
        assert str(batch.value).startswith(match)
    # the support lines are never parallel on a valid disk; the line cut
    # refuses the row where they are
    d1 = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    d2 = np.array([[0.0, 1.0], [0.0, -2.0], [1.0, 0.0]])
    with pytest.raises(GeometryError, match="^parallel support lines do not meet$"):
        _line_intersections(np.zeros((3, 2)), d1, np.ones((3, 2)), d2)


def test_perimeter_monotone_on_nested_hulls():
    rng = np.random.default_rng(7)
    for _ in range(100):
        disk = random_disk(rng)
        X = rng.normal(0.0, 1.0, (8, 2))
        Y = rng.normal(0.0, 1.5, (5, 2))
        K = convex_hull(X)
        L = convex_hull(np.concatenate([X, Y]))
        if len(K) < 3 or len(L) < 3:
            continue
        assert perimeter(disk, K) <= perimeter(disk, L) + 1e-9


def test_golab_bounds_random_disks():
    rng = np.random.default_rng(19)
    for _ in range(100):
        disk = random_disk(rng)
        per = perimeter(disk, disk.vertices)
        assert 6.0 - 1e-3 <= per <= 8.0 + 1e-9


def test_lm_universal_bounds_random():
    rng = np.random.default_rng(3)
    for _ in range(20):
        disk = random_disk(rng)
        for th in (0.0, 0.5, 1.1, 2.2):
            v = lm(disk, th)
            assert 2.0 - 1e-6 <= v <= 3.0 + 1e-6


def test_maxmin_budget_zero_is_euclidean_start():
    res = maxmin_search(64, 0, seed=0, sweep_n=360)
    assert res.evaluations == 4
    assert abs(res.objective - TWO_THIRDS_PI) <= 2e-3
    assert res.objective >= TWO_THIRDS_PI - 2e-3
    assert res.objective <= 8.0 / 3.0 + 1e-6


def test_maxmin_search_improves_and_repeats():
    r1 = maxmin_search(16, 10, seed=0, sweep_n=180)
    assert abs(r1.objective - 2.096458677) <= 1e-6
    assert r1.evaluations == 14
    assert TWO_THIRDS_PI - 2e-3 <= r1.objective <= 8.0 / 3.0 + 1e-6
    assert len(r1.params.radii) == 16
    assert float(r1.params.radii.max()) == 1.0
    r2 = maxmin_search(16, 10, seed=0, sweep_n=180)
    assert r1.objective == r2.objective
    assert np.array_equal(r1.params.radii, r2.params.radii)


def test_maxmin_rejects_bad_args():
    with pytest.raises(ValueError):
        maxmin_search(2, 1)
    with pytest.raises(ValueError):
        maxmin_search(8, -1)
    with pytest.raises(ValueError):
        maxmin_search(8, 1, sweep_n=3)


def _polygons_and_family_disks():
    """Random polygons, parallelograms and seeded 2k-gons of the search
    family (near-regular and rough), k from 3 to 64."""
    rng = np.random.default_rng(41)
    disks = [random_polygon_disk(rng) for _ in range(12)]
    disks += [random_polygon_disk(rng, 2) for _ in range(2)]
    disks += [_family_params(rng.normal(0.0, s, 2 * k)).disk()
              for k in (3, 4, 5, 8, 12, 16, 24, 32, 48, 64) for s in (0.04, 0.3)]
    return disks


def test_min_lm_is_the_minimum_over_every_edge():
    # lm is concave along each edge, so no point of an edge lies below
    # the smaller of its ends; "never above" allows 16 ulps, because a
    # vertex in the dense batch may take the other corner path
    t = np.arange(64) / 64.0
    for disk in _polygons_and_family_disks():
        V = disk.vertices
        Q = (V[:, None, :] + t[None, :, None] * disk._T.E[:, None, :]).reshape(-1, 2)
        dense = _lm_at(disk._T, Q).min()
        m = _min_lm(disk)
        assert abs(m - dense) <= 1e-12
        assert m <= dense * (1.0 + 16 * np.finfo(float).eps)
        vals = _lm_at(disk._T, V[:len(V) // 2])
        i = int(np.argmin(vals))
        assert vals[i] == m
        assert abs(m - oracles.lens_lm(V, math.atan2(V[i, 1], V[i, 0]))) <= 1e-9


def test_lm_is_concave_along_every_edge():
    rng = np.random.default_rng(43)
    for disk in _polygons_and_family_disks():
        V, E = disk.vertices, disk._T.E
        a, b = rng.random((2, len(V), 16, 1))
        q0 = V[:, None, :] + a * E[:, None, :]
        q1 = V[:, None, :] + b * E[:, None, :]
        T = disk._T
        l0, l1, mid = (_lm_at(T, q.reshape(-1, 2)) for q in (q0, q1, 0.5 * (q0 + q1)))
        assert (0.5 * (l0 + l1) - mid).max() <= 1e-14


def test_min_lm_needs_an_exactly_symmetric_ring():
    V = np.array([[1.0, 0.0], [0.3, 0.9], [-0.8, 0.7]])
    ring = np.concatenate([V, -V])
    ring[4, 1] += 1e-14  # accepted by the disk's 1e-12 symmetry check
    with pytest.raises(GeometryError, match="symmetric"):
        _min_lm(UnitDisk.polygon(ring))


def test_maxmin_objective_is_the_sweep_minimum():
    for k, budget, seed in ((8, 30, 1), (16, 10, 0), (32, 20, 2)):
        res = maxmin_search(k, budget, seed=seed)
        assert abs(res.objective - lm_sweep(res.disk, 360).min) <= 1e-13
