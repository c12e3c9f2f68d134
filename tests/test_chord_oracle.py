"""The chord checker against definition-level references.

perfbench/oracles.py computes the increasing-chord property straight from
its definition (all quadruples a <= b <= c <= d of the vertices and of
edge subsamples) with a facet-max polygon gauge; it does not import
mchords and is loaded by path in conftest.py.  The checker is compared with it on
small seeded curves over exact polygons, sampled smooth disks and the
Chebyshev norm of highdim, both holding and violating:

- a curve the checker passes has no oracle deficit above its tolerance;
- a curve whose vertices alone violate by more than the tolerance is
  refused;
- every reported witness is a real violation of its stated size.

The cone lookup and ray test of the fused kernel are also compared with
the plain searchsorted lookup of the gauge and its one-sided derivative,
and the kernel's tables, built once per disk, are checked for reuse.
Last, lm, one disk at a time and on stacks, is compared with the lens
perimeter in rational arithmetic on small integer polygons.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import mchords.curvekit as curvekit

from mchords import (Polyline, UnitDisk, check_increasing_chords,
                     check_increasing_wrt_set, inscribed_hexagon,
                     reuleaux, reuleaux_two_sides, unit_vector)
from mchords.chordbound import _lm_at, _min_lm_many
from mchords.highdim import PolylineD, check_increasing_chords_dd, hypercube_curve
from mchords.normplane import (_cross, _gauge_slopes, _wedge_of,
                               _wrapped_angle, gauge_many)
from mchords.verify import (convex_hull, near_segment_curve,
                            random_polygon_disk, random_smooth_disk)

import oracles


def cheb_gauge(W):
    return np.abs(np.asarray(W, dtype=float)).max(axis=-1)


def subsample_dd(P, per_edge):
    t = np.arange(per_edge + 1) / (per_edge + 1)
    inner = P[:-1, None, :] + t[None, :, None] * (P[1:] - P[:-1])[:, None, :]
    return np.concatenate([inner.reshape(-1, P.shape[1]), P[-1:]])


def chain_curve(disk, theta):
    hx = inscribed_hexagon(disk, unit_vector(disk, theta))
    body, _ = reuleaux(disk, hx)
    return reuleaux_two_sides(body, hx.vertices[0], hx.vertices[1])


def planar_curves(rng, disk):
    """Short curves of several kinds; some hold and some do not."""
    V = disk.vertices
    q = V[int(rng.integers(len(V)))] * rng.uniform(0.5, 2.0)
    for sigma in (0.003, 0.03, 0.2):
        yield near_segment_curve(rng, q, int(rng.integers(4, 14)), sigma).points
    # a random walk, and a walk on the disk's own vertex directions, whose
    # difference vectors often lie on the boundary rays of the cones
    yield np.cumsum(rng.normal(0.0, 1.0, (int(rng.integers(3, 9)), 2)), axis=0)
    steps = V[rng.integers(0, len(V) // 2, int(rng.integers(3, 9)))]
    yield np.concatenate([[(0.0, 0.0)], np.cumsum(steps, axis=0)])
    # a curve that comes back to its first point
    a, b = rng.normal(0.0, 1.0, (2, 2))
    yield np.array([a, b, 0.5 * (a + b) + rng.normal(0.0, 1.0, 2), a])
    ang = math.atan2(V[0, 1], V[0, 0])
    yield chain_curve(disk, ang)


def assert_witnesses_real(P, rep, gaugef, anchors=None):
    """Vertex witnesses (i, i, j, k) and (i, j, k, k) must show their
    deficit as a gauge difference; edge witnesses must show it as the
    drop rate of the chord at the edge end they name.  Anchored witnesses
    (j, j, k, k) and (j, j, j + 1e-6, j + 1e-6) show theirs as the drop of
    the gauge from their anchor from point j to point k, or as its drop
    rate at the start of edge j."""
    n = len(P)
    for w in rep.witnesses:
        a, b, c, d = w.quad
        vertex = all(float(x).is_integer() for x in w.quad)
        if w.anchor is not None:
            p, j = anchors[w.anchor], int(a)
            assert a == b == j and c == d and j < n - 1
            if vertex:
                k = int(c)
                assert j < k < n
                inner, outer = gaugef(P[j] - p), gaugef(P[k] - p)
                assert abs((inner - outer) - w.deficit) <= 1e-12 * max(1.0, inner)
                continue
            assert c == j + 1e-6
            base, e = P[j] - p, P[j + 1] - P[j]
        elif vertex:
            a, b, c, d = (int(x) for x in w.quad)
            assert a == b or c == d
            inner = gaugef(P[c] - P[b])
            outer = gaugef(P[d] - P[a])
            assert abs((inner - outer) - w.deficit) <= 1e-12 * max(1.0, inner)
            continue
        elif a == b:   # (i, i, j, j + 1e-6): anchor i, start of edge j
            i, j = int(a), int(c)
            assert d == j + 1e-6 and j < n - 1
            base, e = P[j] - P[i], P[j + 1] - P[j]
        else:        # (l - 1e-6, l, h, h): anchor h, end of edge l - 1
            l, i = int(b), int(c)
            assert d == c and a == n - 1 - ((n - 1 - l) + 1e-6) and l >= 1
            base, e = P[i] - P[l], P[l] - P[l - 1]
        t = 1e-7
        drop = (gaugef(base) - gaugef(base + t * e)) / t
        assert abs(drop - w.deficit) <= 1e-5 * max(1.0, w.deficit)


def assert_worst_first(rep):
    """A refused check lists at most 16 witnesses above its tolerance, in
    non-increasing deficit, and the first carries max_deficit."""
    assert not rep.holds
    deficits = [w.deficit for w in rep.witnesses]
    assert 1 <= len(deficits) <= 16
    assert deficits[0] == rep.max_deficit
    assert all(x >= y > rep.tol for x, y in zip(deficits, deficits[1:]))


def check_against_oracle(disk, P, rep, gaugef, facets):
    tol = rep.tol
    # the property, and the checker's deficit, do not see the direction
    rev = check_increasing_chords(disk, Polyline(P[::-1]))
    assert rev.holds == rep.holds
    assert abs(rev.max_deficit - rep.max_deficit) <= 1e-12 * max(1.0, rep.max_deficit)
    Q = oracles.chord_oracle_points(P, facets, budget=2e7)
    assert Q is not None
    if rep.holds:
        assert oracles.chord_deficit(Q, gaugef) <= tol + 1e-12
    if oracles.chord_deficit(P, gaugef) > tol:
        assert not rep.holds
    assert_witnesses_real(P, rep, gaugef)


@pytest.mark.parametrize("kind", ["polygon", "smooth"])
def test_planar_checker_matches_oracle(kind):
    rng = np.random.default_rng([271, kind == "smooth"])
    verdicts = []
    for _ in range(6):
        disk = (random_polygon_disk(rng) if kind == "polygon"
                else random_smooth_disk(rng, 256))
        gaugef = oracles.polygon_gauge(disk.vertices)
        for P in planar_curves(rng, disk):
            rep = check_increasing_chords(disk, Polyline(P))
            check_against_oracle(disk, P, rep, gaugef, len(disk.vertices))
            verdicts.append(rep.holds)
    assert 5 <= sum(verdicts) <= len(verdicts) - 5


def test_square_and_hexagon_lattice_walks():
    # dyadic steps along the vertex and edge directions of the builtin
    # polygons: many pairs sit exactly on cone boundary rays
    rng = np.random.default_rng(272)
    verdicts = []
    for disk in (UnitDisk.square(), UnitDisk.regular_hexagon()):
        gaugef = oracles.polygon_gauge(disk.vertices)
        dirs = np.concatenate([disk.vertices, disk._T.E / 2.0])
        for _ in range(12):
            steps = dirs[rng.integers(0, len(dirs), int(rng.integers(2, 8)))]
            steps = steps * rng.integers(1, 4, (len(steps), 1)) / 4.0
            P = np.concatenate([[(0.0, 0.0)], np.cumsum(steps, axis=0)])
            if np.any(np.abs(np.diff(P, axis=0)).max(axis=1) == 0.0):
                continue
            rep = check_increasing_chords(disk, Polyline(P))
            check_against_oracle(disk, P, rep, gaugef, len(disk.vertices))
            verdicts.append(rep.holds)
    assert 2 <= sum(verdicts) <= len(verdicts) - 2


def test_highdim_checker_matches_oracle():
    rng = np.random.default_rng(273)
    verdicts = []
    for d in (2, 3):
        for _ in range(8):
            P = hypercube_curve(d).points.copy()
            P = P + rng.normal(0.0, rng.choice([0.0, 0.02, 0.3]), P.shape)
            rep = check_increasing_chords_dd(PolylineD(P), samples_per_edge=3)
            tol = rep.tol
            if rep.holds:
                assert oracles.chord_deficit(subsample_dd(P, 8), cheb_gauge) <= tol + 1e-12
            if oracles.chord_deficit(P, cheb_gauge) > tol:
                assert not rep.holds
            aug = subsample_dd(P, 3)
            for w in rep.witnesses:
                q = [x * 4 for x in w.quad]
                if all(abs(x - round(x)) < 1e-9 for x in q):
                    a, b, c, e = (int(round(x)) for x in q)
                    diff = cheb_gauge(aug[c] - aug[b]) - cheb_gauge(aug[e] - aug[a])
                    assert abs(diff - w.deficit) <= 1e-12
            verdicts.append(rep.holds)
    assert 2 <= sum(verdicts) <= len(verdicts) - 2


def test_wrt_set_matches_definition():
    # gauge(f(t) - p) nondecreasing along the curve, sampled densely
    rng = np.random.default_rng(274)
    for disk in (random_polygon_disk(rng), random_smooth_disk(rng, 256)):
        gaugef = oracles.polygon_gauge(disk.vertices)
        for P in planar_curves(rng, disk):
            A = np.concatenate([rng.normal(0.0, 1.0, (3, 2)), P[:1], P[2:3]])
            rep = check_increasing_wrt_set(disk, Polyline(P), A)
            Q = oracles.subsample(P, 16)
            G = gaugef(Q[None, :, :] - A[:, None, :])
            drop = float((np.maximum.accumulate(G, axis=1) - G).max())
            if rep.holds:
                assert drop <= rep.tol + 1e-12
            if float((np.maximum.accumulate(G[:, ::17], axis=1) - G[:, ::17]).max()) > rep.tol:
                assert not rep.holds
            assert_witnesses_real(P, rep, gaugef, A)


# a long walk's worst violation lies past the first 64 violating lines of
# its scan, so witnesses kept in scan order and sorted afterwards miss it

def test_two_sided_witnesses_put_the_worst_first():
    disk = UnitDisk.lp(3.0, 4096)
    P = np.cumsum(np.random.default_rng(1).normal(size=(200, 2)), axis=0)
    rep = check_increasing_chords(disk, Polyline(P))
    assert_worst_first(rep)
    assert_witnesses_real(P, rep, oracles.polygon_gauge(disk.vertices))


def test_anchored_witnesses_put_the_worst_first():
    disk = UnitDisk.lp(3.0, 4096)
    rng = np.random.default_rng(3)
    P = np.cumsum(rng.normal(size=(60, 2)), axis=0)
    A = rng.normal(0.0, 5.0, (150, 2))
    rep = check_increasing_wrt_set(disk, Polyline(P), A)
    assert_worst_first(rep)
    assert_witnesses_real(P, rep, oracles.polygon_gauge(disk.vertices), A)


def reference_terms(disk, W, E):
    """The one-sided derivative of the gauge along E and the cone, from a
    lookup wrapping angles with np.mod and the ray test on every pair."""
    flat = W.reshape(-1, 2)
    e = np.broadcast_to(E, W.shape).reshape(-1, 2)
    V, G, m = disk.vertices, disk._T.grad, len(disk.vertices)
    a0 = disk._T.ang[0]
    r = a0 + np.mod(np.arctan2(flat[:, 1], flat[:, 0]) - a0, 2.0 * math.pi)
    j = np.clip(np.searchsorted(disk._T.ang, r, side="right") - 1, 0, m - 1)
    s = np.einsum("ij,ij->i", G[j], e)
    scale = np.hypot(flat[:, 0], flat[:, 1])
    for nb, ray in ((j - 1, j), ((j + 1) % m, (j + 1) % m)):
        on = np.abs(_cross(V[ray], flat)) <= 1e-12 * scale * np.hypot(*V[ray].T)
        s = np.where(on, np.maximum(s, np.einsum("ij,ij->i", G[nb], e)), s)
    return s, j


def thin_polygon(aspect, m=4096):
    """A regular m-gon squashed to the given aspect: its vertex angles
    crowd around 0 and pi, so some buckets of the kernel's cone lookup
    hold hundreds of cones."""
    t = np.arange(m) * (2.0 * math.pi / m)
    return UnitDisk.polygon(np.stack([np.cos(t), aspect * np.sin(t)], axis=1))


def rational_cone_gauge(V, j, w):
    """gauge(w) = s + t for w = s V_j + t V_(j+1), in rational arithmetic:
    the facet functional of edge j, which is 1 at both its ends."""
    (ax, ay), (bx, by) = (map(Fraction, V[k % len(V)]) for k in (j, j + 1))
    x, y = map(Fraction, w)
    return ((x * by - y * bx) + (ax * y - ay * x)) / (ax * by - ay * bx)


def exact_cone_gauge(V, j, w):
    """rational_cone_gauge rounded once."""
    return float(rational_cone_gauge(V, j, w))


def test_cone_lookup_and_ray_test_match_reference():
    rng = np.random.default_rng(275)
    # a circle sampled with most of its angles crowded into one corner:
    # thin cones next to wide ones
    half = np.sort(np.concatenate([rng.uniform(0.0, 1e-3, 40),
                                   np.linspace(0.01, 3.1, 9)]))
    crowded = UnitDisk.radial(np.concatenate([half, half + math.pi]),
                              np.ones(2 * len(half)))
    thin = [thin_polygon(aspect) for aspect in (1e-2, 1e-4, 1e-6)]
    disks = [UnitDisk.square(), UnitDisk.regular_hexagon(),
             UnitDisk.euclidean(4096), UnitDisk.lp(1.5, 512),
             random_polygon_disk(rng), random_smooth_disk(rng, 768), crowded] + thin
    fullest = []
    for disk in disks:
        terms = _gauge_slopes(disk)
        fullest.append(int(np.diff(np.append(terms.lut, len(disk._T.ang) - 1)).max()))
        # the index step alone, at the angles where it can go wrong: each
        # vertex angle and one ulp either side of it, and both ends of the
        # wrapped range [a0, a0 + 2 pi]
        ang = disk._T.ang
        a0, top = ang[0], ang[0] + 2.0 * math.pi
        r = np.concatenate([ang, np.nextafter(ang[1:], -np.inf),
                            np.nextafter(ang, np.inf),
                            [a0, np.nextafter(top, -np.inf), top]])
        np.testing.assert_array_equal(
            terms.cone(r), np.searchsorted(ang, r, side="right") - 1)
        V = disk.vertices
        # vertex directions, rotated by angles around the 1e-12 ray
        # threshold, plus random directions
        rot = np.array([0.0, 1e-16, 3e-13, 7e-13, 1e-12, 1.3e-12, 3e-12, 1e-9])
        rot = np.concatenate([rot, -rot])
        c, s = np.cos(rot), np.sin(rot)
        R = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        ray = np.einsum("rij,vj->rvi", R, V).reshape(-1, 2)
        # directions one ulp of angle either side of every vertex, and
        # just clockwise of the first one, whose angle wraps to just below
        # a0 + 2 pi
        near = np.concatenate([np.nextafter(ang, -np.inf), np.nextafter(ang, np.inf),
                               [a0 - 1e-15]])
        W = np.concatenate([ray * rng.uniform(0.1, 10.0, (len(ray), 1)),
                            rng.normal(0.0, 1.0, (2000, 2)),
                            np.stack([np.cos(near), np.sin(near)], axis=1)])
        E = rng.normal(0.0, 1.0, W.shape)
        s_ref, j_ref = reference_terms(disk, W, E)
        g, sf, sr = terms(W.T[:, None, :], E.T[:, None, :], E.T[:, None, :])
        if disk not in thin:
            g_ref = oracles.polygon_gauge(V)(W)
            np.testing.assert_allclose(g[0], g_ref, rtol=1e-14, atol=0.0)
        else:
            # on the thin gons the facet-max oracle errs by up to 1.5e-14
            # (its functionals reach 1e6), the kernel by 4.4e-16 (4000
            # rows measured): check rows in exact arithmetic
            rows = rng.choice(len(W), 300, replace=False)
            exact = [exact_cone_gauge(V, j_ref[i], W[i]) for i in rows]
            np.testing.assert_allclose(g[0, rows], exact, rtol=1e-15, atol=0.0)
        np.testing.assert_array_equal(sf[0], s_ref)
        np.testing.assert_array_equal(sr[0], s_ref)
        np.testing.assert_array_equal(_wedge_of(disk, *W.T), j_ref)
        # with the zero vector and the vertices themselves (the first at
        # angle a0 exactly), the kernel's gauge is gauge_many's and its
        # cone _wedge_of's
        W = np.concatenate([W, [(0.0, 0.0)], V])
        g = terms(W.T, None, None)[0]
        np.testing.assert_array_equal(g, gauge_many(disk, W))
        np.testing.assert_array_equal(terms.cone(_wrapped_angle(a0, *W.T)),
                                      _wedge_of(disk, *W.T))
    # the fullest buckets of the thin gons: 6, 10 and 11 bisection steps
    assert fullest[-3:] == [50, 940, 1024]


def test_slope_tables_are_built_once_per_disk():
    rng = np.random.default_rng(277)
    spec = {"kind": "builtin", "name": "lp", "p": 3.0}
    for new_disk, theta in ((lambda: UnitDisk.from_spec(spec, 1024), 0.4),
                            (UnitDisk.square, 0.0)):
        disk = new_disk()
        assert disk._T._slopes is None
        p = unit_vector(disk, theta)
        before = inscribed_hexagon(disk, p)
        tables = disk._T._slopes
        walk = np.cumsum(rng.normal(0.0, 1.0, (30, 2)), axis=0)
        anchors = rng.normal(0.0, 1.0, (3, 2))

        def reports(d):
            return ([check_increasing_chords(d, Polyline(P)).to_dict()
                     for P in (chain_curve(d, theta), walk)]
                    + [check_increasing_wrt_set(d, Polyline(walk), anchors).to_dict()])

        first = reports(disk)
        assert reports(disk) == first
        assert disk._T._slopes is tables and _gauge_slopes(disk) is tables
        # the same reports from a disk that has not run the kernel yet
        assert reports(new_disk()) == first
        after = inscribed_hexagon(disk, p)
        np.testing.assert_array_equal(after.vertices, before.vertices)
        assert after.q_unique == before.q_unique
    # the square's hexagon at a vertex has parallel flat sides
    assert not after.q_unique


def test_zero_difference_uses_edge_gauge():
    # a curve through the same point twice: the chord between the visits
    # is zero, and the right derivative there is the gauge of the edge
    # (the cone of the zero vector, looked up as angle 0, would give the
    # edge (-3, 0) slope -3)
    sq = UnitDisk.square()
    P = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0), (-3.0, 0.0)])
    rep = check_increasing_chords(sq, Polyline(P))
    assert not rep.holds
    assert rep.max_deficit == 1.0
    assert_witnesses_real(P, rep, oracles.polygon_gauge(sq.vertices))
    # an anchor on a curve point: the chord grows at the edge's rate
    rep = check_increasing_wrt_set(sq, Polyline(P[3:]), [P[3]])
    assert rep.holds and rep.max_deficit == 0.0


def test_reports_do_not_depend_on_the_block_size(monkeypatch):
    rng = np.random.default_rng(276)
    disk = random_smooth_disk(rng, 256)
    curves = [chain_curve(disk, 0.3),
              np.cumsum(rng.normal(0.0, 1.0, (60, 2)), axis=0),
              near_segment_curve(rng, disk.vertices[5], 90, 0.01).points]
    reports = []
    for rows in (1, 3, 7, 64):
        monkeypatch.setattr(curvekit, "_BLOCK_ROWS", rows)
        reports.append([check_increasing_chords(disk, Polyline(P)).to_dict()
                        for P in curves])
    assert all(r == reports[0] for r in reports[1:])
    assert [r["holds"] for r in reports[0]] == [True, False, False]


def test_tied_witnesses_keep_scan_order():
    # a zigzag on the square: every backward unit edge drops the chords
    # from the points before it at rate 2, so 16 of the 30 tied edge
    # lines are listed, forward rows up, then reversed columns down
    sq = UnitDisk.square()
    P = np.concatenate([[(0.0, 0.0)],
                        np.cumsum(np.tile([(2.0, 0.0), (-1.0, 0.0)], (15, 1)), axis=0)])
    n = len(P)
    rep = check_increasing_chords(sq, Polyline(P))
    assert_worst_first(rep)
    assert_witnesses_real(P, rep, oracles.polygon_gauge(sq.vertices))
    want = ([(l, l, l + 1, l + 1 + 1e-6) for l in range(1, 28, 2)]
            + [(n - 1 - ((n - 1 - l) + 1e-6), l, l + 1, l + 1) for l in (29, 27)])
    assert [w.quad for w in rep.witnesses] == want
    assert {w.deficit for w in rep.witnesses} == {2.0}


def rational_lens_lm(V, q):
    """lm(q) in rational arithmetic: half the M-perimeter of the lens
    M ∩ (q + M) of the polygon V.  The lens is M clipped by the facet
    half-planes of q + M, and the gauge of an edge is the largest of the
    facet functionals."""
    F = [(rational_cone_gauge(V, j, (1, 0)), rational_cone_gauge(V, j, (0, 1)))
         for j in range(len(V))]
    qx, qy = map(Fraction, q)
    P = [tuple(map(Fraction, v)) for v in V]
    for fx, fy in F:
        out = []
        for a, b in zip(P, P[1:] + P[:1]):
            fa = fx * (a[0] - qx) + fy * (a[1] - qy) - 1
            fb = fx * (b[0] - qx) + fy * (b[1] - qy) - 1
            if fa <= 0:
                out.append(a)
            if fa * fb < 0:
                t = fa / (fa - fb)
                out.append((a[0] + t * (b[0] - a[0]), a[1] + t * (b[1] - a[1])))
        P = out
    return sum(max(fx * (b[0] - a[0]) + fy * (b[1] - a[1]) for fx, fy in F)
               for a, b in zip(P, P[1:] + P[:1])) / 2


def integer_polygon_disk(rng, m, xmax, ymax):
    """The hull of m seeded integer points of [-xmax, xmax] x [-ymax, ymax]
    and their negations (thin when ymax << xmax), drawn again until it
    has an interior; exactly symmetric, with no collinear vertices."""
    while True:
        P = np.stack([rng.integers(-xmax, xmax + 1, m),
                      rng.integers(-ymax, ymax + 1, m)], axis=1)
        hull = convex_hull(np.concatenate([P, -P]))
        if len(hull) >= 4:
            return UnitDisk.polygon(hull)


def test_lm_matches_the_rational_lens_perimeter():
    # integer polygons, round and thin, at their vertices and at dyadic
    # points of their edges, all exact in floats; _lm_at one disk at a
    # time, _min_lm_many on stacks of the disks with one vertex count.
    # The square at the midpoint (1, 0) of an edge has a flat stretch of
    # its boundary at distance exactly 1 from q, and so does the affinely
    # regular hexagon; the half-cut square, doubled, has lm 13/6 at its
    # vertices and 7/3 at (2, 0).  Measured before setting the bounds: at
    # most 3.3 ulps on these round disks and 5.1 on the thin ones, and
    # over 12 other seeded sets of 42 disks 5.0 and 41 (a thin disk's arc
    # positions lose digits to its long edges)
    half_cut = UnitDisk.polygon([(2, -1), (2, 1), (1, 2), (-1, 2),
                                 (-2, 1), (-2, -1), (-1, -2), (1, -2)])
    assert rational_lens_lm(half_cut.vertices, (2, 1)) == Fraction(13, 6)
    assert rational_lens_lm(half_cut.vertices, (2, 0)) == Fraction(7, 3)
    hexagon = UnitDisk.polygon([(1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)])
    disks = [(UnitDisk.square(), False), (half_cut, False), (hexagon, False)]
    rng = np.random.default_rng(287)
    for xmax, ymax in ((3, 3), (6, 6), (20, 20), (40, 40), (60, 1), (300, 2), (5000, 1)):
        disks += [(integer_polygon_disk(rng, int(rng.integers(2, 13)), xmax, ymax),
                   ymax < xmax) for _ in range(4)]
    t = np.array([0.0, 0.125, 0.5, 0.875])

    def ulps(got, exact):
        return abs(Fraction(float(got)) - exact) / Fraction(math.ulp(float(exact)))

    least = {}
    for disk, thin in disks:
        V = disk.vertices
        Q = (V[:, None, :] + t[None, :, None] * disk._T.E[:, None, :]).reshape(-1, 2)
        exact = [rational_lens_lm(V, q) for q in Q]
        for got, want in zip(_lm_at(disk._T, Q), exact):
            assert ulps(got, want) <= (64 if thin else 8)
        # Q[::4] are the vertices, and lm(-q) = lm(q)
        least[disk] = min(exact[:len(Q) // 2:4]), thin
    for n in sorted({len(disk.vertices) for disk, _ in disks}):
        stack = [disk for disk, _ in disks if len(disk.vertices) == n]
        assert len(stack) > 1
        for disk, got in zip(stack, _min_lm_many(np.stack([d.vertices for d in stack]))):
            want, thin = least[disk]
            assert ulps(got, want) <= (64 if thin else 8)
