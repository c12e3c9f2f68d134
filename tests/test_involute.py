import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from mchords import UnitDisk, gauge, is_birkhoff_orthogonal, unit_vector
from mchords.curvekit import check_increasing_chords, check_increasing_wrt_set
from mchords.errors import GeometryError
from mchords.involute import (ConvexBody, _snap_to_boundary, build_involute,
                              involute_support_direction)
from mchords.normplane import _negligible, _shift, gauge_many, unit_vectors
from mchords.verify import random_base_body, random_polygon_disk, random_smooth_disk

import oracles

PI = math.pi


def circle_pair(resolution=8192):
    eu = UnitDisk.euclidean(resolution)
    return eu, ConvexBody.from_disk(eu)


def square_pair():
    base = ConvexBody([[0, 0], [1, 0], [1, 1], [0, 1]], exact_polygon=True)
    return UnitDisk.square(), base


def circle_involute_exact(t):
    t = np.asarray(t, dtype=float)
    return np.stack([np.sin(t) - t * np.cos(t),
                     -np.cos(t) - t * np.sin(t)], axis=-1)


def test_anchor_maps_to_p():
    eu, cbase = circle_pair(2048)
    sq, sbase = square_pair()
    hx = UnitDisk.regular_hexagon()
    cases = [
        (eu, cbase, (0.0, -1.0)),
        (sq, sbase, (1.0, 0.0)),
        (hx, sbase, (0.0, 1.0)),
        (UnitDisk.lp(4.0, 1024), cbase, unit_vector(eu, 0.3)),
    ]
    for norm, base, p in cases:
        cur = build_involute(norm, base, p, -1.0, 4.0, 200)
        assert np.abs(cur.point_at(0.0) - np.asarray(p)).max() <= 1e-9


def test_circle_closed_form():
    eu, cbase = circle_pair()
    cur = build_involute(eu, cbase, (0.0, -1.0), 0.0, 1.5 * PI, 1024)
    assert abs(cur.rotation) <= 1e-9
    dev = np.abs(cur.points.points - circle_involute_exact(cur.thetas)).max()
    assert dev <= 1e-6
    assert np.allclose(cur.point_at(PI / 2), (1.0, -PI / 2), atol=1e-6)


def test_circle_thread_length():
    # the segment from the tangency point back to the curve has gauge equal
    # to the boundary arc wound off so far; for the unit circle that is theta
    eu, cbase = circle_pair()
    cur = build_involute(eu, cbase, (0.0, -1.0), 0.0, 1.5 * PI, 400)
    for t in cur.thetas[::25]:
        q = np.array([math.sin(t), -math.cos(t)])
        assert abs(gauge(eu, cur.point_at(t) - q) - t) <= 2e-6


def test_square_base_euclid_arcs():
    # between vertex events the curve is a circular arc centered on the
    # vertex currently holding the taut thread, radius = unwound perimeter
    eu, _ = circle_pair()
    _, base = square_pair()
    cur = build_involute(eu, base, (1.0, 0.0), 0.0, 1.25 * PI, 512)
    assert abs(cur.rotation - PI / 4) <= 1e-12
    th = cur.thetas
    al = th + cur.rotation
    m1 = (al > PI / 2 + 1e-6) & (al < PI - 1e-6)
    exp1 = np.array([1.0, 1.0]) - np.stack([np.cos(al[m1]), np.sin(al[m1])], axis=1)
    assert m1.sum() > 50
    assert np.abs(cur.points.points[m1] - exp1).max() <= 1e-6
    m2 = (al > PI + 1e-6) & (al < 1.5 * PI - 1e-6)
    exp2 = np.array([0.0, 1.0]) - 2.0 * np.stack([np.cos(al[m2]), np.sin(al[m2])], axis=1)
    assert m2.sum() > 50
    assert np.abs(cur.points.points[m2] - exp2).max() <= 1e-6


def test_square_base_square_norm_exact_segments():
    sq, base = square_pair()
    cur = build_involute(sq, base, (1.0, 0.0), -0.5 * PI, 1.25 * PI, 256)
    assert cur.branch == "both"
    th = cur.thetas
    al = th + cur.rotation
    # first moving piece slides along y = 0
    m1 = (th > PI / 4 + 1e-6) & (th < PI / 2 - 1e-6)
    P1 = cur.points.points[m1]
    assert np.abs(P1[:, 1]).max() <= 1e-12
    assert np.abs(P1[:, 0] - (1.0 - 1.0 / np.tan(al[m1]))).max() <= 1e-12
    # then climbs the vertical x = 2
    m2 = (th > PI / 2 + 1e-6) & (th < 0.75 * PI - 1e-6)
    P2 = cur.points.points[m2]
    assert np.abs(P2[:, 0] - 2.0).max() <= 1e-12
    assert np.abs(P2[:, 1] - (1.0 + np.tan(al[m2]))).max() <= 1e-12
    # the norm-vertex event theta = pi/2 is itself a sample, with an exact corner
    assert np.any(np.isclose(th, PI / 2, atol=1e-12))
    assert np.allclose(cur.point_at(PI / 2), (2.0, 0.0), atol=1e-12)


def test_vertex_anchor_holds_curve():
    # a vertex anchor keeps the curve at p while the support line sweeps the
    # corner cone; the repeated samples are dropped, so no theta survives
    # strictly between 0 and the cone half-angle pi/4
    sq, base = square_pair()
    cur = build_involute(sq, base, (1.0, 0.0), 0.0, 1.25 * PI, 256)
    assert cur.branch == "positive"
    th = cur.thetas
    assert np.isclose(th[0], 0.0)
    assert not np.any((th > 1e-9) & (th < PI / 4 - 1e-9))
    assert np.allclose(cur.points.points[0], (1.0, 0.0))


def test_support_direction_euclid_perpendicular():
    eu, cbase = circle_pair()
    cur = build_involute(eu, cbase, (0.0, -1.0), 0.0, 1.5 * PI, 1024)
    for t in np.linspace(0.3, 1.2 * PI, 9):
        s = involute_support_direction(cur, t)
        assert s.unique
        e = np.array([math.sin(t), -math.cos(t)])  # closed-form tangent
        v = s.direction / np.hypot(*s.direction)
        assert abs(v @ np.array([-e[1], e[0]])) <= 5e-4


def test_support_direction_square_norm_cone():
    # with the thread pointing at the norm vertex (1,1) every line with
    # direction in the cone from (0,1) to (-1,0) supports the curve; the
    # bisecting representative comes back flagged non-unique
    sq, base = square_pair()
    cur = build_involute(sq, base, (1.0, 0.0), -0.5 * PI, 1.25 * PI, 256)
    s = involute_support_direction(cur, 0.0)
    assert not s.unique
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(s.direction, (-r, r), atol=1e-12)
    assert np.allclose(s.point, (1.0, 0.0))
    s2 = involute_support_direction(cur, 0.4 * PI)
    assert s2.unique
    assert np.allclose(s2.direction, (-1.0, 0.0), atol=1e-12)


def test_support_direction_is_unique_just_off_a_norm_vertex():
    # the corner rule is the chord kernel's ray test: only a direction on
    # the ray through a norm vertex (to 1e-12 relative) gets the bisector;
    # 1e-10 to either side lies inside an edge, whose direction is unique
    sq, base = square_pair()
    cur = build_involute(sq, base, (1.0, 0.0), -0.5 * PI, 1.25 * PI, 256)
    r = 1.0 / math.sqrt(2.0)
    for t, unique, w in ((0.0, False, (-r, r)), (1e-10, True, (-1.0, 0.0)),
                         (-1e-10, True, (0.0, 1.0))):
        s = involute_support_direction(cur, t)
        assert s.unique is unique
        assert np.allclose(s.direction, w, atol=1e-12)


def test_support_direction_lp4_birkhoff():
    lp4 = UnitDisk.lp(4.0, 4096)
    _, cbase = circle_pair(4096)
    cur = build_involute(lp4, cbase, unit_vector(lp4, -0.5 * PI), 0.0, PI, 512)
    for t in np.linspace(0.3, 0.9 * PI, 7):
        s = involute_support_direction(cur, t)
        assert s.unique
        u = unit_vector(lp4, t + cur.rotation)
        assert is_birkhoff_orthogonal(lp4, u, s.direction, tol=1e-5)


def test_support_direction_range_checks():
    eu, cbase = circle_pair(1024)
    cur = build_involute(eu, cbase, (0.0, -1.0), 0.0, PI, 128)
    for t in (0.0, PI, 2.0 * PI, -0.3):
        with pytest.raises(ValueError, match="outside"):
            involute_support_direction(cur, t)


def test_build_rejects_bad_input():
    eu, cbase = circle_pair(1024)
    sq, base = square_pair()
    with pytest.raises(GeometryError):
        build_involute(eu, cbase, (3.0, 0.0), 0.0, 1.0, 64)
    with pytest.raises(GeometryError, match="vertex"):
        build_involute(sq, base, (0.5, 0.0), 0.0, 1.0, 64)
    with pytest.raises(ValueError):
        build_involute(eu, cbase, (0.0, -1.0), 0.0, 1.0, 1)
    with pytest.raises(ValueError):
        build_involute(eu, cbase, (0.0, -1.0), 1.0, 1.0, 64)
    with pytest.raises(ValueError):
        cur = build_involute(eu, cbase, (0.0, -1.0), 0.0, 1.0, 64)
        cur.point_at(1.5)


def test_build_refuses_an_unbounded_theta_range():
    # the event ladder climbs one entry per base (and polygonal norm)
    # vertex per turn, so a range it cannot finish is refused up front
    eu, cbase = circle_pair(1024)
    for lo, hi in ((0.0, math.inf), (0.0, math.nan), (-math.inf, 0.0),
                   (math.nan, 1.0)):
        with pytest.raises(ValueError, match="not finite"):
            build_involute(eu, cbase, (0.0, -1.0), lo, hi, 8)
    for lo, hi in ((0.0, 1e300), (-1e300, 0.0), (1e17, 1e17 + 64.0)):
        with pytest.raises(ValueError, match="events"):
            build_involute(eu, cbase, (0.0, -1.0), lo, hi, 8)
    # square base and square norm: 8 events per turn, 2**17 - 2 turns at most
    sq, base = square_pair()
    with pytest.raises(ValueError, match="events"):
        build_involute(sq, base, (1.0, 0.0), 0.0, 2.0 * PI * (2 ** 17 - 1.9), 8)
    cur = build_involute(sq, base, (1.0, 0.0), -2.0 * PI * 500, 2.0 * PI * 500, 64)
    assert np.abs(cur.point_at(0.0) - [1.0, 0.0]).max() <= 1e-9


def _involute_by_loops(norm, base, p, theta_min, theta_max, n):
    # the step-by-step reference: the ladder walked one edge at a time out
    # from the anchor, norm events listed wrap by wrap
    W = base.vertices
    m = len(W)
    i0, p_snap, at_vertex = _snap_to_boundary(base, p)
    F = _shift(W) - W
    g = gauge_many(norm, F)
    beta = np.arctan2(F[:, 1], F[:, 0])
    turn = np.maximum(np.mod(_shift(beta) - beta + PI, 2.0 * PI) - PI, 0.0)
    phi0 = float(beta[i0])
    rot = phi0 - 0.5 * float(turn[(i0 - 1) % m]) if at_vertex else phi0
    lo_a, hi_a = rot + theta_min, rot + theta_max
    A = [phi0]
    D = [float(g[i0]) - (0.0 if at_vertex else gauge(norm, p_snap - W[i0]))]
    V = [(i0 + 1) % m]
    k = 0
    while A[-1] <= hi_a + 1e-9:
        A.append(A[-1] + float(turn[(i0 + k) % m]))
        k += 1
        D.append(D[-1] + float(g[(i0 + k) % m]))
        V.append((i0 + k + 1) % m)
    k = 0
    while A[0] >= lo_a - 1e-9:
        A.insert(0, A[0] - float(turn[(i0 + k - 1) % m]))
        D.insert(0, D[0] - float(g[(i0 + k) % m]))
        V.insert(0, (i0 + k) % m)
        k -= 1
    A, D, P = np.array(A), np.array(D), W[V]
    ev = list(A - rot) if base.exact_polygon else []
    if norm.is_polygonal:
        for a in norm._T.ang:
            lo_k = int(np.ceil((lo_a - a) / (2.0 * PI)))
            hi_k = int(np.floor((hi_a - a) / (2.0 * PI)))
            ev += [a + 2.0 * PI * w - rot for w in range(lo_k, hi_k + 1)]
    thetas = np.linspace(theta_min, theta_max, n)
    if ev:
        ev = np.array(ev)
        ev = ev[(ev > theta_min + 1e-12) & (ev < theta_max - 1e-12)]
        thetas = np.unique(np.concatenate([thetas, ev]))
        thetas = thetas[np.concatenate([[True], np.diff(thetas) > 1e-12])]

    def unroll(alpha):
        k = np.clip(np.searchsorted(A, alpha, side="right") - 1, 0, len(A) - 1)
        return P[k] - D[k, None] * unit_vectors(norm, alpha)

    pts = unroll(thetas + rot)
    tiny = _negligible(np.concatenate([W, pts]))  # of the base and the curve drawn
    keep = np.concatenate([[True], np.hypot(*(pts[1:] - pts[:-1]).T) > tiny])
    return (A, D, P), thetas[keep], pts[keep], lambda t: unroll(np.asarray(t) + rot)


def test_ladder_matches_step_by_step_reference():
    # the cumsum ladder adds in the walk's order, so every float agrees
    rng = np.random.default_rng(1804)
    collinear = ConvexBody([[0, 0], [0.5, 0], [1, 0], [1, 1], [0, 1]], exact_polygon=True)
    cases = [(UnitDisk.square(), collinear, (0.5, 0.0), -7.0, 12.0),
             (UnitDisk.euclidean(256), collinear, (1.0, 0.0), -30.0, -2.0),
             # both ends exactly two turns from the anchor's edge angle
             square_pair() + ((1.0, 0.0), 0.25 * PI - 4.0 * PI, 0.25 * PI + 4.0 * PI)]
    for i in range(48):
        norm = (random_polygon_disk(rng) if i % 4 == 0 else UnitDisk.regular_hexagon()
                if i % 4 == 1 else random_smooth_disk(rng, 256))
        base = random_base_body(rng, exact=i % 2 == 0)
        W = base.vertices
        j = int(rng.integers(len(W)))
        p = W[j] if base.exact_polygon else W[j] + rng.uniform() * (W[(j + 1) % len(W)] - W[j])
        a, b = np.sort(rng.uniform(0.0, 30.0, 2))
        cases.append((norm, base, p) + ((a, b), (-b, -a), (-a, b))[i % 3])
    for norm, base, p, lo, hi in cases:
        cu = build_involute(norm, base, p, lo, hi, 97)
        (A, D, P), thetas, pts, point_at = _involute_by_loops(norm, base, p, lo, hi, 97)
        q = rng.uniform(lo, hi, 16)
        for got, ref in ((cu._A, A), (cu._D, D), (cu._V, P), (cu.thetas, thetas),
                         (cu.points.points, pts), (cu.point_at(q), point_at(q))):
            assert np.array_equal(got, ref), (norm, base, lo, hi)


def test_convex_body_validation():
    with pytest.raises(GeometryError):
        ConvexBody([[0, 0], [2, 0], [1, 1], [2, 2], [0, 2]], exact_polygon=True)
    with pytest.raises(GeometryError):
        ConvexBody([[0, 0], [1, 0], [2, 0]], exact_polygon=True)


def test_injectivity_sampled():
    eu, cbase = circle_pair()
    cur = build_involute(eu, cbase, (0.0, -1.0), 0.0, 2.0 * PI, 1024)
    P = cur.points.points
    d, _ = cKDTree(P).query(P, k=2)
    assert d[:, 1].min() > 1e-6
    sq, base = square_pair()
    curp = build_involute(sq, base, (1.0, 0.0), 0.0, 2.0 * PI, 1024)
    Q = curp.points.points
    assert len(Q) == len(curp.thetas)
    d2, _ = cKDTree(Q).query(Q, k=2)
    assert d2[:, 1].min() > 1e-6


def window_min_cross(cur, width=PI):
    th, P = cur.thetas, cur.points.points
    worst = np.inf
    for a in np.linspace(cur.theta_min, cur.theta_max - width, 7):
        m = (th >= a - 1e-12) & (th <= a + width + 1e-12)
        Q = P[m]
        e1 = Q[1:-1] - Q[:-2]
        e2 = Q[2:] - Q[1:-1]
        cr = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        worst = min(worst, float(cr.min()))
    return worst


def test_convexity_windows():
    eu, cbase = circle_pair()
    cur = build_involute(eu, cbase, (0.0, -1.0), 0.0, 2.0 * PI, 1024)
    assert window_min_cross(cur) >= -1e-8
    sq, base = square_pair()
    curp = build_involute(sq, base, (1.0, 0.0), 0.0, 2.0 * PI, 1024)
    assert window_min_cross(curp) >= -1e-8


def test_strict_convexity_smooth_norm():
    # rounded norm: no three consecutive samples collinear away from the anchor
    eu, cbase = circle_pair()
    cur = build_involute(eu, cbase, (0.0, -1.0), 0.0, 2.0 * PI, 1024)
    m = cur.thetas >= 0.5
    Q = cur.points.points[m]
    e1 = Q[1:-1] - Q[:-2]
    e2 = Q[2:] - Q[1:-1]
    cr = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    assert cr.min() > 1e-9


def test_half_pi_windows_have_increasing_chords():
    eu, cbase = circle_pair()
    sq, sbase = square_pair()
    hx = UnitDisk.regular_hexagon()
    for norm, base, p in [(eu, cbase, (0.0, -1.0)), (sq, sbase, (1.0, 0.0)),
                          (hx, cbase, (0.0, -1.0))]:
        for t0 in (0.0, 0.7, 1.6, 3.0):
            cur = build_involute(norm, base, p, t0, t0 + 0.5 * PI, 200)
            rep = check_increasing_chords(norm, cur.points)
            assert rep.holds, (norm, t0, rep.max_deficit)


def test_a_half_pi_window_of_one_pair_is_refused():
    # width pi/2 is not enough for every (norm, base) pair: this one
    # refuses its window by 7.07e-4 at 512 norm samples (7.08e-4 at 2048
    # and 8192), as the facet-max oracle does, while width 1.3 holds
    rng = np.random.default_rng([13032, 8, 3])
    base = random_base_body(rng, exact=False)
    norm = random_smooth_disk(rng)
    t0 = 0.41608074454505695
    cur = build_involute(norm, base, base.vertices[0], t0, t0 + 0.5 * PI, 300)
    rep = check_increasing_chords(norm, cur.points)
    assert not rep.holds
    assert 7.0e-4 <= rep.max_deficit <= 7.2e-4
    oracle = oracles.chord_deficit(cur.points.points,
                                   oracles.polygon_gauge(norm.vertices))
    assert abs(oracle - rep.max_deficit) <= 1e-12
    cur = build_involute(norm, base, base.vertices[0], t0, t0 + 1.3, 300)
    assert check_increasing_chords(norm, cur.points).holds


def test_full_pi_window_can_fail():
    # width-pi windows are not chord-monotone in general: on the circle
    # involute the chord from theta=0.4 to theta=pi is longer than the one
    # from theta=0 even though 0 < 0.4, and the checker agrees
    d04 = np.hypot(*(circle_involute_exact(0.4) - circle_involute_exact(PI)))
    d00 = np.hypot(*(circle_involute_exact(0.0) - circle_involute_exact(PI)))
    assert d04 > d00 + 0.02
    eu, cbase = circle_pair()
    cur = build_involute(eu, cbase, (0.0, -1.0), 0.2, 0.2 + PI, 600)
    rep = check_increasing_chords(eu, cur.points)
    assert not rep.holds
    assert rep.max_deficit > 1e-3
    assert rep.witnesses


def test_increasing_wrt_base():
    # distance from the base never shrinks along the first half-turn; the
    # exact statement has equality exactly at the unwinding tangency, so the
    # sampled polyline dips below by the usual chord-sampling quadratic
    eu, cbase = circle_pair()
    cur = build_involute(eu, cbase, (0.0, -1.0), 0.0, PI, 512)
    anchors = np.concatenate([cbase.vertices[::128],
                              0.5 * cbase.vertices[::512],
                              [[0.0, 0.0]]])
    rep = check_increasing_wrt_set(eu, cur.points, anchors)
    assert rep.max_deficit <= 3e-4
    rep2 = check_increasing_wrt_set(eu, cur.points, anchors, tol=3e-4)
    assert rep2.holds


def test_support_line_single_side():
    # the returned direction really is a support line of the local width-pi
    # piece: every nearby sample sits on one weak side
    eu, cbase = circle_pair()
    cur = build_involute(eu, cbase, (0.0, -1.0), 0.0, 2.0 * PI, 1024)
    th, P = cur.thetas, cur.points.points
    rng = np.random.default_rng(5)
    for tau in rng.uniform(0.3, 2.0 * PI - 0.3, 64):
        s = involute_support_direction(cur, tau)
        w, G = s.direction, s.point
        m = (th >= max(0.0, tau - 0.5 * PI)) & (th <= min(2.0 * PI, tau + 0.5 * PI))
        Q = P[m]
        h = w[0] * (Q[:, 1] - G[1]) - w[1] * (Q[:, 0] - G[0])
        assert h.max() <= 1e-6


def test_thread_line_separates_neighbourhood():
    # the taut-thread line at Gamma(tau) splits the curve locally: the piece
    # wound before tau lies on its positive side, the piece after on the
    # negative side (windows of width pi/2, away from the anchor)
    eu, cbase = circle_pair()
    cur = build_involute(eu, cbase, (0.0, -1.0), 0.0, 2.0 * PI, 1024)
    th, P = cur.thetas, cur.points.points
    for tau in (1.2, 1.7, 2.4):
        u = unit_vector(eu, tau + cur.rotation)
        G = cur.point_at(tau)
        pre = P[(th >= tau - 0.5 * PI - 1e-12) & (th <= tau + 1e-12)]
        suf = P[(th >= tau - 1e-12) & (th <= tau + 0.5 * PI + 1e-12)]
        hp = u[0] * (pre[:, 1] - G[1]) - u[1] * (pre[:, 0] - G[0])
        hs = u[0] * (suf[:, 1] - G[1]) - u[1] * (suf[:, 0] - G[0])
        assert hp.min() >= -1e-6
        assert hs.max() <= 1e-6
