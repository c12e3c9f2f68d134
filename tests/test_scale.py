"""Scaling by a power of two: the same verdicts, witnesses and refusals.

A norm is 1-homogeneous and scaling by 2^k is exact in floating point, so
a curve, an involute base or a disk scaled by 2^k must give the verdicts,
witness quads and refusals of the unscaled input, with every length and
deficit 2^k times the unscaled one, bit for bit.  Every negligible-length
test is measured against its own object (normplane._negligible), with no
absolute floor, which is what these tests pin.
"""

import numpy as np
import pytest

from mchords import (ConvexBody, GeometryError, InvalidDiskError, Polyline,
                     UnitDisk, build_involute, check_increasing_chords,
                     check_increasing_chords_dd, check_increasing_wrt_set,
                     hypercube_curve, inscribed_hexagon, lm, reuleaux,
                     reuleaux_two_sides, unit_vector)
from mchords.highdim import PolylineD
from mchords.svgout import render
from mchords.verify import (random_base_body, random_polygon_disk,
                            random_smooth_disk)

# a stride over [-60, 60] with -40 ... -36 and 40, where fixed floors bit
KS = sorted(set(range(-60, 61, 15)) | set(range(-40, -35)) | {-45, 40})
BACKTRACK = np.array([(0.0, 0.0), (1.0, 0.0), (0.6, 0.3), (2.0, 0.3)])


def _curves():
    walk = np.cumsum(np.random.default_rng(1).normal(size=(120, 2)), axis=0)
    t = np.linspace(0.0, 3.0, 400)
    wavy = np.stack([t, 0.3 * np.sin(5.0 * t)], axis=1)
    return [BACKTRACK, walk, wavy]


def _disks():
    return [(UnitDisk.square(), 1e-9), (UnitDisk.regular_hexagon(), 1e-9),
            (UnitDisk.euclidean(1024), 1e-6)]


def _scaled(rep, s):
    # the report's verdict, quads and anchors, and its deficits over s
    return (rep.holds, rep.max_deficit / s,
            [(w.quad, w.anchor, w.deficit / s) for w in rep.witnesses])


def test_planar_checkers_scale_exactly():
    for disk, tol in _disks():
        for P in _curves():
            A = P[::37]
            ref = (check_increasing_chords(disk, Polyline(P), tol),
                   check_increasing_wrt_set(disk, Polyline(P), A, tol))
            for k in KS:
                s = 2.0 ** k
                got = (check_increasing_chords(disk, Polyline(P * s), tol * s),
                       check_increasing_wrt_set(disk, Polyline(P * s), A * s, tol * s))
                for r, g in zip(ref, got):
                    assert _scaled(g, s) == _scaled(r, 1.0), (disk, k)
            if P is BACKTRACK:  # refused, with its witnesses, at every k
                assert not ref[0].holds and ref[0].witnesses


def _bent_cube():
    P = hypercube_curve(3).points.copy()
    P[3, 0] += 0.3
    return P


def test_chebyshev_checker_scales_exactly():
    for P in (_bent_cube(), hypercube_curve(4).points):
        ref = check_increasing_chords_dd(PolylineD(P), 4, 1e-9)
        for k in KS:
            s = 2.0 ** k
            got = check_increasing_chords_dd(PolylineD(P * s), 4, 1e-9 * s)
            assert _scaled(got, s) == _scaled(ref, 1.0), k
    assert len(check_increasing_chords_dd(PolylineD(_bent_cube()), 4, 1e-9).witnesses) == 16


def test_involute_scales_exactly():
    rng = np.random.default_rng(7)
    for i in range(6):
        base = random_base_body(rng)
        norm = random_polygon_disk(rng) if i % 2 else random_smooth_disk(rng, 256)
        W = base.vertices
        p = W[int(rng.integers(len(W)))]
        ref = build_involute(norm, base, p, -1.0, 2.5, 60)
        for k in KS:
            s = 2.0 ** k
            got = build_involute(norm, ConvexBody(W * s, base.exact_polygon),
                                 p * s, -1.0, 2.5, 60)
            assert np.array_equal(got.thetas, ref.thetas), (i, k)
            assert np.array_equal(got.points.points, ref.points.points * s), (i, k)
            assert got.rotation == ref.rotation


def test_involute_refuses_an_edge_anchor_at_every_scale():
    # (1, 0) lies mid-edge of an exact rectangle, so it is no vertex anchor
    rect = np.array([(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (0.0, 1.0)])
    norm = UnitDisk.euclidean(256)
    for k in KS:
        s = 2.0 ** k
        with pytest.raises(GeometryError, match="must be a vertex"):
            build_involute(norm, ConvexBody(rect * s, exact_polygon=True),
                           np.array([1.0, 0.0]) * s, 0.0, 1.0, 50)


def test_disk_constructions_scale_exactly():
    disks = [UnitDisk.square(), UnitDisk.regular_hexagon(),
             random_polygon_disk(np.random.default_rng(3)), UnitDisk.euclidean(256)]
    for d in disks:
        hx = inscribed_hexagon(d, unit_vector(d, 0.3))
        body, per = reuleaux(d, hx)
        chain = reuleaux_two_sides(body, hx.vertices[0], hx.vertices[1])
        assert hx.q_unique
        for k in KS:
            s = 2.0 ** k
            ds = UnitDisk.polygon(d.vertices * s)
            assert lm(ds, 0.3) == lm(d, 0.3) and lm(ds, 1.1) == lm(d, 1.1)
            h = inscribed_hexagon(ds, unit_vector(ds, 0.3))
            assert np.array_equal(h.vertices, hx.vertices * s), (d, k)
            assert h.q_unique == hx.q_unique, (d, k)
            b, pr = reuleaux(ds, h)
            assert np.array_equal(b.vertices, body.vertices * s) and pr == per, (d, k)
            c = reuleaux_two_sides(b, h.vertices[0], h.vertices[1])
            assert np.array_equal(c, chain * s), (d, k)


@pytest.mark.parametrize("ring, match", [
    ([(1.5, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)], "has no antipode"),
    ([(1.0, -1.0), (1.0, 1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (-1.0, -1.0)],
     "coincide"),
    ([(1.0, 0.0), (0.1, 0.1), (0.0, 1.0), (-1.0, 0.0), (-0.1, -0.1), (0.0, -1.0)],
     "right turn"),
])
def test_a_refused_ring_is_refused_at_every_scale(ring, match):
    for k in [0] + KS:
        with pytest.raises(InvalidDiskError, match=match):
            UnitDisk.polygon(np.array(ring) * 2.0 ** k)


def test_coincident_points_are_refused_at_every_scale():
    # a step of 5e-14 of the extent coincides, at every scale alike
    P = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1e-13), (2.0, 0.0)])
    for k in [0] + KS:
        s = 2.0 ** k
        with pytest.raises(ValueError, match="points 1 and 2 coincide"):
            Polyline(P * s)
        with pytest.raises(ValueError, match="points 1 and 2 coincide"):
            PolylineD(P * s)
        with pytest.raises(ValueError, match="repeated"):
            ConvexBody(np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1e-13), (0.0, 1.0)]) * s)


def test_svg_drawing_does_not_depend_on_scale():
    # the drawing fills the view box at any span; a lone point sits at the centre
    layers = [{"points": BACKTRACK, "closed": False, "stroke": "#000", "width": 1.0}]
    ref = render(layers)
    for k in KS:
        assert render([dict(layers[0], points=BACKTRACK * 2.0 ** k)]) == ref, k
    dot = render([{"points": BACKTRACK[1:2] * 2.0 ** -40, "stroke": "#000", "width": 1.0}])
    assert 'cx="500.00" cy="500.00"' in dot
