"""The chord checker against definition-level references.

perfbench/oracles.py computes the increasing-chord property straight from
its definition (all quadruples a <= b <= c <= d of the vertices and of
edge subsamples) with a facet-max polygon gauge; it does not import
mchords and is loaded here by path.  The checker is compared with it on
small seeded curves over exact polygons, sampled smooth disks and the
Chebyshev norm of highdim, both holding and violating:

- a curve the checker passes has no oracle deficit above its tolerance;
- a curve whose vertices alone violate by more than the tolerance is
  refused;
- every reported witness is a real violation of its stated size.

The cone lookup and ray test of the fused kernel are also compared with
the plain searchsorted lookup of the gauge and its one-sided derivative.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

import mchords.curvekit as curvekit

from mchords import (Polyline, UnitDisk, check_increasing_chords,
                     check_increasing_wrt_set, inscribed_hexagon,
                     reuleaux, reuleaux_two_sides, unit_vector)
from mchords.curvekit import _disk_pair_terms
from mchords.highdim import PolylineD, check_increasing_chords_dd, hypercube_curve
from mchords.normplane import _cross, _wedge_of
from mchords.verify import (near_segment_curve, random_polygon_disk,
                            random_smooth_disk)

_spec = importlib.util.spec_from_file_location(
    "perfbench_oracles", Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


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


def assert_witnesses_real(P, rep, gaugef):
    """Vertex witnesses (i, i, j, k) and (i, j, k, k) must show their
    deficit as a gauge difference; edge witnesses must show it as the
    drop rate of the chord at the edge end they name."""
    n = len(P)
    for w in rep.witnesses:
        a, b, c, d = w.quad
        if all(float(x).is_integer() for x in w.quad):
            a, b, c, d = (int(x) for x in w.quad)
            assert a == b or c == d
            inner = gaugef(P[c] - P[b])
            outer = gaugef(P[d] - P[a])
            assert abs((inner - outer) - w.deficit) <= 1e-12 * max(1.0, inner)
            continue
        if a == b:   # (i, i, j, j + 1e-6): anchor i, start of edge j
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
        dirs = np.concatenate([disk.vertices, disk._edge / 2.0])
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


def reference_terms(disk, W, E):
    """The facet-max gauge, the one-sided derivative of the gauge along E
    and the cone, from a lookup wrapping angles with np.mod and the ray
    test on every pair."""
    flat = W.reshape(-1, 2)
    e = np.broadcast_to(E, W.shape).reshape(-1, 2)
    V, G, m = disk.vertices, disk._grad, len(disk.vertices)
    a0 = disk._ang[0]
    r = a0 + np.mod(np.arctan2(flat[:, 1], flat[:, 0]) - a0, 2.0 * math.pi)
    j = np.clip(np.searchsorted(disk._ang, r, side="right") - 1, 0, m - 1)
    s = np.einsum("ij,ij->i", G[j], e)
    scale = np.hypot(flat[:, 0], flat[:, 1])
    for nb, ray in ((j - 1, j), ((j + 1) % m, (j + 1) % m)):
        on = np.abs(_cross(V[ray], flat)) <= 1e-12 * scale * np.hypot(*V[ray].T)
        s = np.where(on, np.maximum(s, np.einsum("ij,ij->i", G[nb], e)), s)
    return oracles.polygon_gauge(V)(flat), s, j


def test_cone_lookup_and_ray_test_match_reference():
    rng = np.random.default_rng(275)
    # a circle sampled with most of its angles crowded into one corner:
    # thin cones next to wide ones
    half = np.sort(np.concatenate([rng.uniform(0.0, 1e-3, 40),
                                   np.linspace(0.01, 3.1, 9)]))
    crowded = UnitDisk.radial(np.concatenate([half, half + math.pi]),
                              np.ones(2 * len(half)))
    disks = [UnitDisk.square(), UnitDisk.regular_hexagon(),
             UnitDisk.euclidean(4096), UnitDisk.lp(1.5, 512),
             random_polygon_disk(rng), random_smooth_disk(rng, 768), crowded]
    for disk in disks:
        V = disk.vertices
        # vertex directions, rotated by angles around the 1e-12 ray
        # threshold, plus random directions
        rot = np.array([0.0, 1e-16, 3e-13, 7e-13, 1e-12, 1.3e-12, 3e-12, 1e-9])
        rot = np.concatenate([rot, -rot])
        c, s = np.cos(rot), np.sin(rot)
        R = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
        ray = np.einsum("rij,vj->rvi", R, V).reshape(-1, 2)
        W = np.concatenate([ray * rng.uniform(0.1, 10.0, (len(ray), 1)),
                            rng.normal(0.0, 1.0, (2000, 2))])
        E = rng.normal(0.0, 1.0, W.shape)
        g_ref, s_ref, j_ref = reference_terms(disk, W, E)
        g, sf, sr = _disk_pair_terms(disk)(W.T[:, None, :], E.T[:, None, :],
                                           E.T[:, None, :])
        np.testing.assert_allclose(g[0], g_ref, rtol=1e-14, atol=0.0)
        np.testing.assert_array_equal(sf[0], s_ref)
        np.testing.assert_array_equal(sr[0], s_ref)
        np.testing.assert_array_equal(_wedge_of(disk, *W.T)[0], j_ref)


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
