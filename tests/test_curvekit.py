import math
import warnings

import numpy as np
import pytest

import mchords.curvekit as curvekit
from mchords import (GeometryError, Polyline, UnitDisk, UnsupportedDiskError,
                     arclength, bisector_sample, check_increasing_chords,
                     check_increasing_wrt_set, convexify, gauge, gauge_many,
                     is_x_monotone, unit_vector)
from mchords.highdim import check_increasing_chords_dd, hypercube_curve
from mchords.involute import ConvexBody, build_involute
from mchords.verify import (builtin_disks, near_segment_curve, random_smooth_disk,
                            random_xmonotone)

SQRT3 = math.sqrt(3.0)


def reuleaux_two_sides_points(n_per_arc=128):
    # Euclidean Reuleaux triangle on A=(0,0), B=(1,0), C=(0.5, sqrt(3)/2);
    # side A->B is the unit arc about C, side B->C the unit arc about A
    C = np.array([0.5, SQRT3 / 2])
    t1 = np.linspace(-2 * math.pi / 3, -math.pi / 3, n_per_arc)
    arc1 = C + np.stack([np.cos(t1), np.sin(t1)], axis=1)
    t2 = np.linspace(0.0, math.pi / 3, n_per_arc)
    arc2 = np.stack([np.cos(t2), np.sin(t2)], axis=1)
    return np.concatenate([arc1, arc2[1:]])


def reuleaux_two_sides_self_consistent(n=768):
    # same curve but built from the vertices of the n-gon disk itself, so
    # every curve edge lies on a unit sphere of the very norm being tested
    d = UnitDisk.euclidean(n)
    V = d.vertices
    ang = np.arctan2(V[:, 1], V[:, 0])
    C = np.array([0.5, SQRT3 / 2])
    m1 = (ang >= -2 * math.pi / 3 - 1e-9) & (ang <= -math.pi / 3 + 1e-9)
    m2 = (ang >= -1e-9) & (ang <= math.pi / 3 + 1e-9)
    return d, np.concatenate([C + V[m1], V[m2][1:]])


def test_polyline_basics():
    p = Polyline([(0.0, 0.0), (1.0, 0.0)])
    assert len(p) == 2
    assert np.allclose(p.edges(), [(1.0, 0.0)])
    Polyline([(2.0, 3.0)])  # single point is representable
    with pytest.raises(ValueError):
        Polyline([(0.0, 0.0), (0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(ValueError):
        Polyline([(0.0, 0.0), (np.nan, 1.0)])


def test_arclength_of_one_point_is_0():
    assert arclength(UnitDisk.square(), Polyline([(0.5, -2.0)])) == 0.0


def test_arclength_examples():
    sq = UnitDisk.square()
    assert arclength(sq, Polyline([(0, 0), (1, 0), (1, 1)])) == 2.0
    e = UnitDisk.euclidean(4096)
    assert abs(arclength(e, Polyline([(0, 0), (3, 4)])) - 5.0) < 1e-5
    hx = UnitDisk.regular_hexagon()
    # gauge oracle: the ray (0,1) exits through the edge y = sqrt(3)/2
    assert abs(arclength(hx, Polyline([(0, 0), (0, 1)])) - 2.0 / SQRT3) < 1e-12


def test_check_segment_holds():
    seg = Polyline([(0.0, 0.0), (1.0, 0.0)])
    for disk in builtin_disks(512).values():
        rep = check_increasing_chords(disk, seg)
        assert rep.holds and rep.witnesses == []
        assert rep.max_deficit <= rep.tol


def test_check_modes_and_default_tol():
    seg = Polyline([(0.0, 0.0), (1.0, 0.5)])
    rep = check_increasing_chords(UnitDisk.square(), seg)
    assert rep.mode == "exact_polygonal" and rep.tol == 1e-9
    rep = check_increasing_chords(UnitDisk.euclidean(512), seg)
    assert rep.mode == "tolerance" and rep.tol == 1e-6


def test_check_backtrack_fails():
    e = UnitDisk.euclidean(4096)
    rep = check_increasing_chords(e, Polyline([(0, 0), (1, 0), (0.5, 0.1)]))
    assert not rep.holds
    assert rep.max_deficit > rep.tol
    assert len(rep.witnesses) > 0
    # the vertex-level violation: chord (0,0)-(1,0) vs chord (0,0)-(0.5,0.1)
    quads = [w.quad for w in rep.witnesses]
    hits = [q for q in quads if np.allclose(q, [0, 0, 1, 2], atol=1e-9)]
    assert len(hits) == 1
    w = rep.witnesses[quads.index(hits[0])]
    assert abs(w.deficit - (1.0 - math.sqrt(0.26))) < 1e-5


def test_check_errors():
    e = UnitDisk.euclidean(256)
    with pytest.raises(ValueError):
        check_increasing_chords(e, Polyline([(0.0, 0.0)]))



def test_checkers_refuse_non_finite_and_negative_inputs():
    e = UnitDisk.euclidean(256)
    seg = Polyline([(0.0, 0.0), (1.0, 0.0)])
    for tol in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError, match="tol"):
            check_increasing_chords(e, seg, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            check_increasing_wrt_set(e, seg, [(0.0, 0.0)], tol=tol)
        with pytest.raises(ValueError, match="tol"):
            check_increasing_chords_dd(hypercube_curve(2), tol=tol)
    assert check_increasing_chords(e, seg, tol=0.0).holds
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="anchor row 1"):
            check_increasing_wrt_set(e, seg, [(0.0, 0.0), (bad, 0.0)])

def test_a_curve_too_wide_for_its_gauges_is_refused():
    # on the square |E| |w| overflows at 8e307 times this backtracking
    # curve; it is refused before any gauge, so no overflow warning
    C = np.array([(0.0, 0.0), (1.0, 0.0), (0.6, 0.3), (2.0, 0.3)])
    sq = UnitDisk.square()
    with pytest.raises(GeometryError, match="the points span"):
        check_increasing_chords(sq, Polyline(8e307 * C))
    # at 2e307 the report is kept: refused, the first witness carries the deficit
    rep = check_increasing_chords(sq, Polyline(2e307 * C))
    assert not rep.holds and rep.max_deficit == rep.witnesses[0].deficit == 2.8e307


def test_an_anchor_too_far_for_its_gauges_is_refused():
    sq = UnitDisk.square()
    seg = Polyline([(0.0, 0.0), (1.0, 0.0)])
    with pytest.raises(GeometryError, match="the points span 1e\\+308"):
        check_increasing_wrt_set(sq, seg, [(1e308, 0.0)])
    rep = check_increasing_wrt_set(sq, seg, [(1e307, 0.0)])
    assert not rep.holds and rep.max_deficit == rep.witnesses[0].deficit == 1.0


def anchored_cases():
    """(disk, points, anchors, tol) of anchored checks that hold and that
    are refused, with about 20 anchors."""
    rng = np.random.default_rng(2701)
    lp3 = UnitDisk.lp(3.0, 4096)
    walk = np.cumsum(np.stack([rng.uniform(0.5, 1.0, 80), rng.normal(0.0, 0.3, 80)],
                              axis=1), axis=0)
    behind = np.array([-60.0, 0.0]) + rng.normal(0.0, 5.0, (20, 2))
    around = rng.normal(0.0, 30.0, (20, 2)) + walk.mean(axis=0)
    eu = UnitDisk.euclidean(8192)
    base = ConvexBody.from_disk(eu)
    window = build_involute(eu, base, (0.0, -1.0), 0.0, math.pi, 300).points.points
    on_base = base.vertices[::410]
    return [(lp3, walk, behind, None), (lp3, walk, around, None),
            (eu, window, on_base, 3e-4), (eu, window, on_base, None)]


@pytest.mark.parametrize("per_chunk", [1, 3, 7])
def test_anchored_reports_do_not_depend_on_the_chunk_size(monkeypatch, per_chunk):
    # _BLOCK_ELEMS = k n puts k anchors in each chunk of the anchored loop
    # of an n-point curve; by default all of them share one chunk
    held = 0
    for disk, P, A, tol in anchored_cases():
        assert 18 <= len(A) <= 22
        want = check_increasing_wrt_set(disk, Polyline(P), A, tol).to_dict()
        with monkeypatch.context() as m:
            m.setattr(curvekit, "_BLOCK_ELEMS", per_chunk * len(P))
            assert check_increasing_wrt_set(disk, Polyline(P), A, tol).to_dict() == want
        held += want["holds"]
        assert want["holds"] or len({w["anchor"] for w in want["witnesses"]}) > per_chunk
    assert held == 2


def test_check_reuleaux_two_sides():
    # chord sampling dips inside the body by ~step^2/8 between samples, so
    # the tolerance has to cover the induced slope (~3.4e-5 at 255 points)
    e = UnitDisk.euclidean(4096)
    pts = reuleaux_two_sides_points(128)
    rep = check_increasing_chords(e, Polyline(pts), tol=1e-4)
    assert rep.holds
    assert abs(arclength(e, Polyline(pts)) - 2 * math.pi / 3) < 1e-3


def test_check_reuleaux_two_sides_exact_discretization():
    d, pts = reuleaux_two_sides_self_consistent(768)
    rep = check_increasing_chords(d, Polyline(pts))
    assert rep.holds and rep.max_deficit <= rep.tol
    assert abs(arclength(d, Polyline(pts)) - 2 * math.pi / 3) < 1e-3


def test_wrt_segment_examples():
    e = UnitDisk.euclidean(2048)
    rep = check_increasing_wrt_set(e, Polyline([(1, 0), (2, 0)]), [(0, 0)])
    assert rep.holds
    rep = check_increasing_wrt_set(e, Polyline([(2, 0), (1, 0)]), [(0, 0)])
    assert not rep.holds
    assert rep.max_deficit >= 1.0 - 1e-6
    assert any(np.allclose(w.quad, [0, 0, 1, 1]) and w.anchor == 0
               for w in rep.witnesses)
    with pytest.raises(ValueError):
        check_increasing_wrt_set(e, Polyline([(1, 0), (2, 0)]), [])


def test_wrt_multiple_anchors():
    # moving along +x away from a cluster of anchors near the origin
    e = UnitDisk.euclidean(1024)
    rng = np.random.default_rng(5)
    anchors = rng.uniform(-0.3, 0.3, (20, 2))
    curve = Polyline([(2.0, 0.0), (3.0, 0.2), (4.5, -0.1), (6.0, 0.0)])
    assert check_increasing_wrt_set(e, curve, anchors).holds


def test_bisector_euclidean():
    e = UnitDisk.euclidean(2048)
    bs = bisector_sample(e, (0, 0), (1, 0), (-1.0, 1.0), 3)
    assert np.allclose(bs.samples.points,
                       [(0.5, -1.0), (0.5, 0.0), (0.5, 1.0)], atol=1e-6)
    assert np.allclose(bs.seg, [(0.0, 0.0), (1.0, 0.0)])


def test_bisector_lp4_midpoint():
    lp4 = UnitDisk.lp(4.0, 1024)
    bs = bisector_sample(lp4, (0, 0), (1, 0), (0.0, 0.0), 1)
    assert np.allclose(bs.samples.points, [(0.5, 0.0)], atol=1e-9)


def test_bisector_equidistance_invariant():
    lp4 = UnitDisk.lp(4.0, 1024)
    rng = np.random.default_rng(17)
    for _ in range(5):
        a = rng.uniform(-1.0, 1.0, 2)
        b = a + rng.uniform(0.3, 1.0, 2)
        bs = bisector_sample(lp4, a, b, (-2.0, 2.0), 21)
        for x in bs.samples.points:
            assert abs(gauge(lp4, x - a) - gauge(lp4, x - b)) <= 1e-6


def test_bisector_affine_equivariance():
    # shear both the disk and the input; outputs must shear along
    T = np.array([[1.0, 1.0], [0.0, 1.0]])  # (x, y) -> (x + y, y)
    e = UnitDisk.euclidean(512)
    sheared = UnitDisk.from_boundary_samples(e.vertices @ T.T)
    assert sheared.is_strictly_convex
    orig = bisector_sample(e, (0, 0), (1, 0), (-0.8, 0.8), 7)
    mapped = bisector_sample(sheared, (0, 0), (1, 0), (-0.8, 0.8), 7)
    assert np.allclose(mapped.samples.points,
                       orig.samples.points @ T.T, atol=1e-8)


def test_bisector_refuses_a_non_finite_range():
    e = UnitDisk.euclidean(512)
    for y_range in ((math.nan, 1.0), (-math.inf, 1.0), (0.0, math.inf)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"offset range \[.*\] is not finite"):
                bisector_sample(e, (0, 0), (1, 0), y_range, 5)


def test_bisector_refuses_a_range_whose_brackets_overflow():
    # refused before the bracket doubling could overflow: no numpy warning
    e = UnitDisk.euclidean(512)
    for y_range in ((1e300, 1.0), (-1e300, 1e300)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as err:
                bisector_sample(e, (0, 0), (1, 0), y_range, 5)
        assert "offset range [%.17g, %.17g] is too wide" % y_range in str(err.value)


def test_bisector_names_the_line_it_cannot_bracket():
    # at offset 1e20 gauge(x - a) - gauge(x - b) rounds away, so no bracket
    # holds the root; the error names that line's offset, its range and why
    e = UnitDisk.euclidean(512)
    with pytest.raises(GeometryError) as err:
        bisector_sample(e, (0, 0), (1, 0), (1e20, 1.0), 3)
    assert ("failed to bracket the root on the line at offset 1e+20 of the offset "
            "range [1e+20, 1]: at that offset gauge(x - a) - gauge(x - b) rounds "
            "away") in str(err.value)


def test_bisector_rejects_polygonal():
    with pytest.raises(UnsupportedDiskError):
        bisector_sample(UnitDisk.square(), (0, 0), (1, 0), (-1, 1), 3)
    with pytest.raises(ValueError):
        bisector_sample(UnitDisk.lp(4, 256), (1, 1), (1, 1), (-1, 1), 3)
    with pytest.raises(ValueError):
        bisector_sample(UnitDisk.lp(4, 256), (0, 0), (1, 0), (-1, 1), 0)
    with pytest.raises(ValueError, match="offset range"):
        bisector_sample(UnitDisk.lp(4, 256), (0, 0), (1, 0), (0.25, 0.25), 3)


def _bisector_line_by_line(disk, a, b, y_range, n):
    # the scalar reference: one line at a time, bracket doubling and then
    # bisection with one gauge call per point
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    u = b - a
    perp = np.array([-u[1], u[0]]) / math.hypot(*u)
    mid = 0.5 * (a + b)
    gu = gauge(disk, u)

    def phi(base, s):
        x = base + s * u
        return gauge(disk, x - a) - gauge(disk, x - b)

    pts = np.empty((n, 2))
    for i, h in enumerate(np.linspace(float(y_range[0]), float(y_range[1]), n)):
        base = mid + h * perp
        K = (gauge(disk, h * perp) + 2.0) / gu + 2.0
        slo, shi = -K, K
        for _ in range(60):
            if phi(base, slo) < 0.0 <= phi(base, shi):
                break
            slo *= 2.0
            shi *= 2.0
        else:
            raise GeometryError("failed to bracket the root")
        while shi - slo > 1e-10 / gu:
            smid = 0.5 * (slo + shi)
            if phi(base, smid) < 0.0:
                slo = smid
            else:
                shi = smid
        pts[i] = base + 0.5 * (slo + shi) * u
    return pts


def test_bisector_matches_line_by_line_reference():
    # all lines bisect in lockstep with the same arithmetic per line, so
    # the points are bit-identical to the scalar reference
    rng = np.random.default_rng(59)
    disks = [UnitDisk.lp(3.3, 1024), UnitDisk.euclidean(4096),
             random_smooth_disk(rng, 512)]
    cases = [((0.0, 0.0), (1.0, 0.0), (-1.0, 1.0), (1, 2, 64)),
             ((0.1, 0.2), (0.4, 1.1), (0.25, 0.75), (1, 2)),
             ((-0.3, 0.5), (-0.31, 0.48), (-1000.0, 600.0), (1, 2, 17))]
    for disk in disks:
        for a, b, y_range, sizes in cases:
            for n in sizes:
                ref = _bisector_line_by_line(disk, a, b, y_range, n)
                got = bisector_sample(disk, a, b, y_range, n).samples.points
                assert np.array_equal(got, ref)


def test_bisector_far_lines_stop_at_float_spacing():
    # at offsets near 1e15 the bracket shrinks to the float spacing before
    # 1e-10; each line stops there instead of bisecting forever
    disk = random_smooth_disk(np.random.default_rng(7), 512)
    a = np.array([0.1, 0.2])
    b = a + np.array([math.cos(1.05), math.sin(1.05)])
    P = bisector_sample(disk, a, b, (-1e15, 1e15), 5).samples.points
    ga, gb = gauge_many(disk, P - a), gauge_many(disk, P - b)
    assert np.all(np.abs(ga - gb) <= 1e-10 * np.maximum(1.0, ga))


def test_is_x_monotone():
    assert is_x_monotone(Polyline([(0, 0), (0.5, 1), (1, 0)]))
    assert not is_x_monotone(Polyline([(0, 0), (1, 0), (0.5, 0.1)]))
    assert not is_x_monotone(Polyline([(0, 0), (0, 1)]))


def test_convexify_swap():
    out = convexify(Polyline([(0, 0), (0.5, -0.5), (1, 0)]))
    assert np.allclose(out.points, [(0, 0), (0.5, 0.5), (1, 0)], atol=0)


def test_convexify_identity_on_cap():
    pts = [(0.0, 0.0), (0.25, 0.4), (0.75, 0.6), (1.0, 0.5)]
    out = convexify(Polyline(pts))
    assert np.array_equal(out.points, np.asarray(pts))


def test_convexify_merges_exactly_parallel_edges():
    # the two (1, 1) edges meet after sorting; the vertex between them goes
    out = convexify(Polyline([(0, 0), (1, 1), (2, 0), (3, 1)]))
    assert np.array_equal(out.points, [(0, 0), (2, 2), (3, 1)])


def _angles_strictly_decrease(curve):
    E = curve.edges()
    return bool(np.all(np.diff(np.arctan2(E[:, 1], E[:, 0])) < 0))


def test_convexify_merges_edges_parallel_to_rounding():
    # b = c a with one ulp added to b[1]: the cross product of a and b is
    # not 0, yet their angles often round to one value
    rng = np.random.default_rng(2024)
    for _ in range(2000):
        a = rng.uniform(0.1, 2.0, 2)
        b = rng.uniform(0.1, 2.0) * a
        b[1] = np.nextafter(b[1], np.inf)
        P = np.cumsum([(0.0, 0.0), (1.0, -3.0), a, b], axis=0)
        out = convexify(Polyline(P))
        assert _angles_strictly_decrease(out)
        assert np.array_equal(out.points[[0, -1]], P[[0, -1]])


def test_convexify_keeps_float_endpoints_and_lengths():
    rng = np.random.default_rng(99)
    disks = (UnitDisk.square(), UnitDisk.regular_hexagon(),
             UnitDisk.euclidean(1024), UnitDisk.lp(4, 1024))
    for _ in range(300):
        n = int(rng.integers(3, 30))
        xs = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-3, 1.0, n - 1))])
        curve = Polyline(np.stack([xs, rng.normal(size=n)], axis=1))
        out = convexify(curve)
        assert np.array_equal(out.points[0], curve.points[0])
        assert np.array_equal(out.points[-1], curve.points[-1])
        assert is_x_monotone(out) and _angles_strictly_decrease(out)
        for disk in disks:
            ref = arclength(disk, curve)
            assert abs(arclength(disk, out) - ref) <= 1e-14 * ref


def test_convexify_keeps_a_curve_it_accepted():
    # the 3.6e-9 edge passes Polyline's rule at the input's scale (1e-12 *
    # 2000); the convexified curve reaches y = 4000, and measured at its
    # own scale it was refused: "points 1 and 2 coincide"
    P = np.array([(0.0, 0.0), (1.0, 2000.0), (2.0, 0.0), (3.0, 2000.0),
                  (3.0 + 3.6e-9, 2000.0 + 1e-9), (4.0, 0.0)])
    curve = Polyline(P)
    out = convexify(curve)
    # the two edges (1, 2000) are parallel and merge
    assert len(out) == 5 and out.points[:, 1].max() > 3999.0
    assert np.array_equal(out.points[0], P[0]) and np.array_equal(out.points[-1], P[-1])
    assert is_x_monotone(out) and _angles_strictly_decrease(out)
    for disk in (UnitDisk.square(), UnitDisk.euclidean(1024)):
        ref = arclength(disk, curve)
        assert abs(arclength(disk, out) - ref) <= 1e-14 * ref


def test_convexify_rejects_non_monotone():
    with pytest.raises(GeometryError):
        convexify(Polyline([(0, 0), (1, 0), (0.5, 0.1)]))


def test_convexify_random_preserves_length_and_convex():
    rng = np.random.default_rng(23)
    disks = builtin_disks(512)
    for _ in range(40):
        curve = random_xmonotone(rng, n=51)
        out = convexify(curve)
        # endpoints exactly
        assert np.array_equal(out.points[0], curve.points[0])
        assert np.array_equal(out.points[-1], curve.points[-1])
        # arclength in every norm within 1e-12
        for disk in disks.values():
            assert abs(arclength(disk, out) - arclength(disk, curve)) < 1e-12
        # weakly decreasing edge angles
        E = out.edges()
        ang = np.arctan2(E[:, 1], E[:, 0])
        assert np.all(np.diff(ang) < 1e-15)
        # on or above the chord through the endpoints
        p, q = out.points[0], out.points[-1]
        u = q - p
        cr = (out.points[:, 0] - p[0]) * u[1] - (out.points[:, 1] - p[1]) * u[0]
        assert cr.max() <= 1e-9 * max(1.0, float(np.abs(out.points).max()))


def _passing_instances(rng, disk, count):
    q = unit_vector(disk, 0.0)
    out = []
    while len(out) < count:
        c = near_segment_curve(rng, q, n=12, sigma=0.02)
        if check_increasing_chords(disk, c).holds:
            out.append((c, q))
    return out


def test_increasing_curves_live_in_lens():
    rng = np.random.default_rng(31)
    for key in ("euclidean", "square", "hexagon"):
        disk = builtin_disks(1024)[key]
        for curve, q in _passing_instances(rng, disk, 10):
            g0 = gauge_many(disk, curve.points)
            g1 = gauge_many(disk, curve.points - q[None, :])
            assert g0.max() <= 1.0 + 2e-6
            assert g1.max() <= 1.0 + 2e-6


def test_convexified_increasing_curve_in_lens():
    rng = np.random.default_rng(37)
    disk = builtin_disks(1024)["euclidean"]
    for curve, q in _passing_instances(rng, disk, 10):
        out = convexify(curve)
        assert gauge_many(disk, out.points).max() <= 1.0 + 1e-6
        assert gauge_many(disk, out.points - q[None, :]).max() <= 1.0 + 1e-6


def test_bisector_separation_along_increasing_curve():
    # points before t1 are (weakly) nearer f(t1) than f(t2); after t2 the
    # other way around
    rng = np.random.default_rng(41)
    disk = UnitDisk.lp(4.0, 1024)
    for curve, _q in _passing_instances(rng, disk, 5):
        P = curve.points
        n = len(P)
        for _ in range(20):
            t1, t2 = sorted(rng.choice(n, size=2, replace=False))
            if t1 == t2:
                continue
            d1 = gauge_many(disk, P - P[t1][None, :])
            d2 = gauge_many(disk, P - P[t2][None, :])
            assert np.all((d1 - d2)[: t1 + 1] <= 1e-6)
            assert np.all((d1 - d2)[t2:] >= -1e-6)


def test_wrt_boundary_implies_interior():
    # anchored property for a sampled boundary of S carries over to samples
    # of the interior of S
    rng = np.random.default_rng(43)
    e = UnitDisk.euclidean(1024)
    for _ in range(5):
        W = rng.normal(0.0, 0.4, (7, 2))
        hull_dirs = np.linspace(0.0, 2 * math.pi, 48, endpoint=False)
        U = np.stack([np.cos(hull_dirs), np.sin(hull_dirs)], axis=1)
        boundary = W[np.argmax(U @ W.T, axis=1)]  # support points of conv W
        lam = rng.uniform(0.0, 1.0, (60, len(W)))
        lam /= lam.sum(axis=1, keepdims=True)
        interior = lam @ W
        curve = Polyline([(3.0, 0.0), (4.0, 0.3), (5.5, -0.2), (7.0, 0.0)])
        rb = check_increasing_wrt_set(e, curve, boundary)
        ri = check_increasing_wrt_set(e, curve, interior)
        assert rb.holds
        assert ri.holds
