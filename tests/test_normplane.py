import json
import math
import re
import warnings

import numpy as np
import pytest

from mchords import (UnitDisk, bisector_sample, boundary_arclength,
                     build_involute, check_increasing_chords_dd, gauge,
                     gauge_many, hypercube_curve, inscribed_hexagon,
                     intersect_translates, is_birkhoff_orthogonal, lm_sweep,
                     maxmin_search, perimeter, reuleaux, support, unit_vector,
                     unit_vectors, InvalidDiskError, GeometryError)
from mchords.involute import ConvexBody
from mchords.normplane import (_Stack, _birkhoff_many, _boundary_arclengths,
                               _locate_many, _vertices_of, locate_on_boundary)
from mchords.verify import (builtin_disks, random_disk, random_polygon_disk,
                            random_smooth_disk)

import oracles

SQRT3 = math.sqrt(3.0)


def test_gauge_square():
    sq = UnitDisk.square()
    assert gauge(sq, (3.0, 1.0)) == 3.0
    assert gauge(sq, (-3.0, -1.0)) == 3.0
    assert gauge(sq, (0.0, 0.0)) == 0.0


def test_gauge_euclidean():
    e = UnitDisk.euclidean(4096)
    assert abs(gauge(e, (3.0, 4.0)) - 5.0) < 1e-5


def test_gauge_hexagon_oracle():
    # ray-edge intersection oracle: the ray along (0,1) leaves through the
    # top edge y = sqrt(3)/2, so the gauge is 1 / (sqrt(3)/2)
    hx = UnitDisk.regular_hexagon()
    hit_y = SQRT3 / 2.0
    expected = 1.0 / hit_y
    assert abs(gauge(hx, (0.0, 1.0)) - expected) < 1e-12
    assert abs(expected - 2.0 / SQRT3) < 1e-15


def test_gauge_axioms_random():
    rng = np.random.default_rng(42)
    for disk in builtin_disks(1024).values():
        A = rng.normal(0.0, 3.0, (10000, 2))
        B = rng.normal(0.0, 3.0, (10000, 2))
        ga, gb = gauge_many(disk, A), gauge_many(disk, B)
        assert np.abs(gauge_many(disk, -A) - ga).max() < 1e-9
        assert np.abs(gauge_many(disk, 1.75 * A) - 1.75 * ga).max() < 1e-9
        assert (gauge_many(disk, A + B) - (ga + gb)).max() < 1e-9


def test_unit_vector_examples():
    e = UnitDisk.euclidean(4096)
    assert np.allclose(unit_vector(e, math.pi / 2), (0.0, 1.0), atol=1e-9)
    sq = UnitDisk.square()
    assert np.allclose(unit_vector(sq, math.pi / 4), (1.0, 1.0), atol=1e-12)
    hx = UnitDisk.regular_hexagon()
    assert np.allclose(unit_vector(hx, math.pi / 2), (0.0, SQRT3 / 2), atol=1e-12)


def test_unit_vectors_refuse_non_finite_directions():
    sq = UnitDisk.square()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for theta in (math.inf, -math.inf, math.nan):
            for call in (lambda: unit_vector(sq, theta),
                         lambda: unit_vectors(sq, np.array([0.3, theta]))):
                with pytest.raises(ValueError, match="direction must be finite, got %r" % theta):
                    call()


def test_unit_vector_gauge_one():
    for disk in builtin_disks(1024).values():
        th = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
        g = gauge_many(disk, unit_vectors(disk, th))
        assert np.abs(g - 1.0).max() < 1e-9


def test_support_euclidean_top():
    e = UnitDisk.euclidean(4096)
    line = support(e, (0.0, 1.0))
    assert np.allclose(line.point, (0.0, 1.0), atol=1e-6)
    # oriented so the body lies on the left of the direction
    assert np.allclose(line.direction, (-1.0, 0.0), atol=1e-12)
    side = (e.vertices - line.point) @ np.array([line.direction[1],
                                                 -line.direction[0]])
    assert side.max() < 1e-9


def test_support_square_contacts():
    sq = UnitDisk.square()
    line = support(sq, (1.0, 0.0))
    assert line.is_segment
    assert np.allclose(line.contact, [(1.0, -1.0), (1.0, 1.0)], atol=1e-12)
    assert np.allclose(line.direction, (0.0, 1.0), atol=1e-12)

    corner = support(sq, (1.0, 1.0))
    assert not corner.is_segment
    assert np.allclose(corner.contact, (1.0, 1.0), atol=1e-12)


def test_support_contact_wraps_past_ring_index_0():
    # the ring starts at (-1, -1), so the left edge runs from its last
    # vertex to its first: the contact walks backwards past index 0
    sq = UnitDisk.square()
    assert np.array_equal(sq.vertices[0], (-1.0, -1.0))
    line = support(sq, (-1.0, 0.0))
    assert np.array_equal(line.contact, [(-1.0, 1.0), (-1.0, -1.0)])


def test_support_half_plane_invariant():
    rng = np.random.default_rng(7)
    for disk in builtin_disks(512).values():
        for th in rng.uniform(0.0, 2.0 * math.pi, 50):
            line = support(disk, (math.cos(th), math.sin(th)))
            normal = np.array([line.direction[1], -line.direction[0]])
            side = (disk.vertices - line.point) @ normal
            assert side.max() < 1e-9


def test_birkhoff_euclidean():
    e = UnitDisk.euclidean(4096)
    assert is_birkhoff_orthogonal(e, (1.0, 0.0), (0.0, 1.0))
    assert is_birkhoff_orthogonal(e, (2.0, 0.0), (0.0, -3.0))
    assert not is_birkhoff_orthogonal(e, (1.0, 0.0), (1.0, 1.0), tol=1e-5)


def test_birkhoff_square_cone():
    sq = UnitDisk.square()
    # at the corner (1,1) every direction from vertical to horizontal
    # supports the square, so the orthogonality cone is fat
    assert is_birkhoff_orthogonal(sq, (1.0, 1.0), (0.0, 1.0))
    assert is_birkhoff_orthogonal(sq, (1.0, 1.0), (1.0, 0.0))
    assert is_birkhoff_orthogonal(sq, (1.0, 1.0), (-1.0, 1.0))
    assert not is_birkhoff_orthogonal(sq, (1.0, 1.0), (1.0, 1.0), tol=1e-6)
    # edge midpoint: only the edge direction works
    assert is_birkhoff_orthogonal(sq, (1.0, 0.0), (0.0, 1.0))
    assert not is_birkhoff_orthogonal(sq, (1.0, 0.0), (1.0, 4.0), tol=1e-6)


def test_birkhoff_sign_invariance_and_grid_oracle():
    rng = np.random.default_rng(11)
    disks = builtin_disks(512)
    t_grid = np.linspace(-4.0, 4.0, 4001)
    for _ in range(250):
        disk = disks[rng.choice(list(disks))]
        v = rng.normal(0.0, 1.0, 2)
        u = rng.normal(0.0, 1.0, 2)
        if gauge(disk, v) < 1e-3 or gauge(disk, u) < 1e-3:
            continue
        got = is_birkhoff_orthogonal(disk, v, u)
        assert got == is_birkhoff_orthogonal(disk, v, -u)
        assert got == is_birkhoff_orthogonal(disk, -v, u)
        # brute-force the defining inequality on a dense grid
        vals = gauge_many(disk, v[None, :] + t_grid[:, None] * u[None, :])
        brute = vals.min() >= gauge(disk, v) - 1e-6
        if abs(vals.min() - gauge(disk, v)) > 1e-4:
            # keep clear of the decision boundary
            assert got == brute


def test_boundary_arclength_square_perimeter():
    sq = UnitDisk.square()
    assert boundary_arclength(sq, sq, (1.0, -1.0), (1.0, 1.0)) == 2.0
    # full loop comes back as 0, quarter turns add up
    a = boundary_arclength(sq, sq, (1.0, 1.0), (-1.0, 1.0))
    b = boundary_arclength(sq, sq, (1.0, -1.0), (-1.0, 1.0))
    assert a == 2.0 and b == 4.0


def test_boundary_arclength_from_a_point_to_itself_is_0():
    for disk in (UnitDisk.square(), UnitDisk.euclidean(256)):
        for p in (disk.vertices[1], unit_vector(disk, 0.7)):
            assert boundary_arclength(disk, disk, p, p) == 0.0


def test_boundary_arclength_euclid_quarter():
    e = UnitDisk.euclidean(4096)
    arc = boundary_arclength(e, e, (1.0, 0.0), (0.0, 1.0))
    assert abs(arc - math.pi / 2) < 1e-6


def test_boundary_arclength_mixed_norm():
    # square measured in the hexagon norm: horizontal/vertical edges have
    # hexagon-gauge sqrt(3) per half-edge... simpler: gauge of (0,2) and (2,0)
    hx = UnitDisk.regular_hexagon()
    sq = UnitDisk.square()
    top = gauge(hx, (-2.0, 0.0))
    right = gauge(hx, (0.0, 2.0))
    arc = boundary_arclength(hx, sq, (1.0, -1.0), (-1.0, 1.0))
    assert abs(arc - (right + top)) < 1e-12


def test_boundary_arclength_rejects_offside():
    sq = UnitDisk.square()
    with pytest.raises(GeometryError):
        boundary_arclength(sq, sq, (0.5, 0.5), (1.0, 1.0))


def _kernel_disks():
    rng = np.random.default_rng(29)
    return (list(builtin_disks(512).values())
            + [random_polygon_disk(rng) for _ in range(4)]
            + [random_smooth_disk(rng) for _ in range(2)])


def _tangent_pairs(disk, rng, k):
    """k unit vectors with the edge through each, and k random pairs."""
    V = disk.vertices
    X = unit_vectors(disk, rng.uniform(0.0, 2.0 * math.pi, k))
    j = disk._T.cone(*X.T)
    return (np.concatenate([X, rng.normal(0.0, 1.0, (k, 2))]),
            np.concatenate([V[(j + 1) % len(V)] - V[j], rng.normal(0.0, 1.0, (k, 2))]))


def test_birkhoff_kernel_rows_are_the_single_calls():
    rng = np.random.default_rng(30)
    for disk in _kernel_disks():
        v, u = _tangent_pairs(disk, rng, 12)
        for tol in (1e-9, 1e-3):
            got = _birkhoff_many(disk, v, u, tol)
            assert got.tolist() == [is_birkhoff_orthogonal(disk, a, b, tol)
                                    for a, b in zip(v, u)]
            assert [_birkhoff_many(disk, a[None], b[None], tol)[0]
                    for a, b in zip(v, u)] == got.tolist()
        assert _birkhoff_many(disk, v[:12], u[:12], 1e-7).all()


def test_locate_and_arc_kernels_rows_are_the_single_calls():
    rng = np.random.default_rng(31)
    for disk in _kernel_disks():
        hexagon = inscribed_hexagon(disk, unit_vector(disk, 0.4))
        for body in (disk, reuleaux(disk, hexagon)[0]):
            V = _vertices_of(body)
            e = rng.integers(0, len(V), 6)  # vertices, then points inside edges
            X = np.concatenate([V[e], V[e] + rng.uniform(0.0, 1.0, (6, 1))
                                * (V[(e + 1) % len(V)] - V[e])])
            i, t, snapped = _locate_many(V, X, "x")
            for r, x in enumerate(X):
                one = locate_on_boundary(V, x, "x")
                assert (i[r], t[r]) == one[:2] and np.array_equal(snapped[r], one[2])
            P, Q = X, X[rng.permutation(len(X))]
            arcs = _boundary_arclengths(disk, body, P, Q)
            assert arcs.tolist() == [boundary_arclength(disk, body, p, q)
                                     for p, q in zip(P, Q)]


def test_kernels_refuse_each_bad_row_with_its_message():
    disk = UnitDisk.euclidean(256)
    v, u = _tangent_pairs(disk, np.random.default_rng(32), 4)
    for zero in (v, u):
        zero[5] = 0.0
        with pytest.raises(ValueError, match=r"^is_birkhoff_orthogonal: zero vector$"):
            _birkhoff_many(disk, v, u, 1e-9)
        with pytest.raises(ValueError, match=r"^is_birkhoff_orthogonal: zero vector$"):
            is_birkhoff_orthogonal(disk, v[5], u[5])
        zero[5] = 1.0
    X = unit_vectors(disk, np.linspace(0.0, 3.0, 5))
    X[3] *= 0.9
    with pytest.raises(GeometryError) as single:
        locate_on_boundary(disk.vertices, X[3], "p")
    with pytest.raises(GeometryError) as batch:
        _locate_many(disk.vertices, X, "p")
    assert str(batch.value) == str(single.value)
    assert str(batch.value).startswith("p (%.17g, %.17g) is not on the boundary" % tuple(X[3]))
    with pytest.raises(GeometryError) as single:
        boundary_arclength(disk, disk, X[0], X[3])
    with pytest.raises(GeometryError) as batch:
        _boundary_arclengths(disk, disk, X[:3], X[2:])
    assert str(batch.value) == str(single.value)
    assert str(batch.value).startswith("boundary_arclength: point (%.17g, %.17g)" % tuple(X[3]))


def test_polygon_validation():
    with pytest.raises(InvalidDiskError):
        UnitDisk.polygon([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)])  # odd, asymmetric
    with pytest.raises(InvalidDiskError):
        UnitDisk.polygon([(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0),
                          (0.5, -0.8)])
    with pytest.raises(InvalidDiskError):
        # not origin symmetric
        UnitDisk.polygon([(2.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)])
    with pytest.raises(InvalidDiskError):
        # non-convex kite pair
        UnitDisk.polygon([(1.0, 0.0), (0.1, 0.1), (0.0, 1.0), (-1.0, 0.0),
                          (-0.1, -0.1), (0.0, -1.0)])


def test_from_spec_round_trip():
    obj = {"kind": "polygon",
           "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]}
    d = UnitDisk.from_spec(obj)
    assert gauge(d, (3.0, 1.0)) == 3.0
    r = UnitDisk.from_spec({"kind": "radial",
                            "angles_deg": [0, 60, 120, 180, 240, 300],
                            "radii": [1, 1, 1, 1, 1, 1]})
    assert len(r.vertices) == 6
    assert abs(gauge(r, (1.0, 0.0)) - 1.0) < 1e-12
    b = UnitDisk.from_spec({"kind": "builtin", "name": "euclidean"},
                           resolution=256)
    assert len(b.vertices) == 256
    with pytest.raises(InvalidDiskError):
        UnitDisk.from_spec({"kind": "trefoil"})
    with pytest.raises(InvalidDiskError):
        UnitDisk.from_spec(json.loads("[1, 2]"))


def test_from_spec_refuses_unknown_fields():
    square = [[1, 1], [-1, 1], [-1, -1], [1, -1]]
    ring = {"angles_deg": [0, 90, 180, 270], "radii": [1, 1, 1, 1]}
    bad = [({"kind": "builtin", "name": "euclidean", "p": 3}, "'p'"),
           ({"kind": "builtin", "name": "square", "p": 3}, "'p'"),
           ({"kind": "builtin", "name": "lp", "p": 3, "n": 64}, "'n'"),
           ({"kind": "polygon", "vertices": square, "p": 7}, "'p'"),
           ({"kind": "polygon", "vertices": square, "name": "square"}, "'name'"),
           ({"kind": "radial", **ring, "vertices": square}, "'vertices'"),
           ({"kind": ["polygon"], "vertices": square}, "unknown kind")]
    for spec, field in bad:
        with pytest.raises(InvalidDiskError, match=field):
            UnitDisk.from_spec(spec, 64)
    # the allowed fields still build the disk
    assert len(UnitDisk.from_spec({"kind": "builtin", "name": "lp", "p": 3}, 64).vertices) == 64
    assert len(UnitDisk.from_spec({"kind": "radial", **ring}).vertices) == 4
    assert len(UnitDisk.from_spec({"kind": "polygon", "vertices": square}).vertices) == 4


def test_from_boundary_samples_symmetry():
    th = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    pts = np.stack([np.cos(th) * 1.3, np.sin(th)], axis=1)
    d = UnitDisk.from_boundary_samples(pts)
    assert d.is_strictly_convex
    assert abs(gauge(d, (1.3, 0.0)) - 1.0) < 1e-12
    with pytest.raises(InvalidDiskError):
        UnitDisk.from_boundary_samples(pts[: len(pts) // 2])


def test_sampled_strict_convexity_does_not_depend_on_resolution():
    # a circle is strictly convex at every sampling; the samples on a side
    # of the l1 disk are collinear to rounding, so it is not
    for n in (1024, 8192, 65536):
        th = np.arange(n) * (2.0 * math.pi / n)
        u = np.stack([np.cos(th), np.sin(th)], axis=1)
        l1 = 1.0 / np.abs(u).sum(axis=1)
        assert UnitDisk.radial(th, np.ones(n)).is_strictly_convex
        assert UnitDisk.from_boundary_samples(u).is_strictly_convex
        assert not UnitDisk.radial(th, l1).is_strictly_convex
        assert not UnitDisk.from_boundary_samples(l1[:, None] * u).is_strictly_convex
    # builtins are flagged by construction, polygons never
    assert UnitDisk.euclidean(65536).is_strictly_convex
    assert UnitDisk.lp(16.0).is_strictly_convex and not UnitDisk.lp(1.0).is_strictly_convex
    sq = UnitDisk.square()
    assert sq.is_polygonal and not sq.is_strictly_convex
    assert not UnitDisk.euclidean(64).is_polygonal


def test_random_disks_are_valid():
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = random_disk(rng)
        V = d.vertices
        assert np.allclose(V, -np.roll(V, len(V) // 2, axis=0), atol=1e-12)
        g = gauge_many(d, rng.normal(0.0, 2.0, (64, 2)))
        assert np.all(np.isfinite(g)) and np.all(g >= 0.0)


def test_convex_body_wrapper():
    sq = UnitDisk.square()
    body = ConvexBody.from_disk(sq)
    assert np.allclose(body.vertices, sq.vertices)
    tri = ConvexBody([(0.0, 0.0), (2.0, 0.0), (1.0, 2.0)])
    assert len(tri.vertices) == 3


@pytest.mark.parametrize("offset", [3e6, 1e8])
def test_convex_body_validates_wherever_it_sits(offset):
    # the turn and area tests scale with the body's extent: scaled with
    # the coordinates instead, the area test called all of these
    # translated rings degenerate
    t = np.array([offset, -offset])
    for disk in (UnitDisk.square(), UnitDisk.regular_hexagon(),
                 UnitDisk.euclidean(1024)):
        V = disk.vertices
        body = ConvexBody(V + t, exact_polygon=disk.is_polygonal)
        assert np.array_equal(body.vertices, V + t)
        # boundary points between the vertices too: at 1e8 they are off
        # the ring by a last place of the coordinates
        for a, b in zip(unit_vectors(disk, np.arange(8.0)), V[::len(V) // 4]):
            arc = boundary_arclength(disk, body, a + t, b + t)
            assert abs(arc - boundary_arclength(disk, V, a, b)) < 1e-6
        q = 0.7 * V[1]
        lens = intersect_translates(disk, t, t + q)
        ref = intersect_translates(disk, (0.0, 0.0), q)
        assert abs(perimeter(disk, lens) - perimeter(disk, ref)) < 1e-6


def test_convex_body_refuses_a_translated_notch():
    # a right turn of cross product -2 in a body of extent 2: a turn test
    # scaled with the coordinates let it pass from about 1e5 on
    P = np.array([[0, 0], [2, 0], [1, 0.1], [2, 2], [0, 2]], dtype=float)
    for offset in (0.0, 1e5, 3e6, 1e8):
        with pytest.raises(GeometryError, match="right turn"):
            ConvexBody(P + offset)


def test_gauge_matches_facet_max_oracle():
    # the oracle's gauge is the max over the facet functionals
    rng = np.random.default_rng(277)
    disks = list(builtin_disks(4096).values())
    disks += [random_polygon_disk(rng) for _ in range(4)]
    disks += [random_smooth_disk(rng, n) for n in (64, 512, 2048)]
    for disk in disks:
        V = disk.vertices
        # random vectors at three magnitudes, vectors on the vertex rays,
        # and the zero vector
        W = np.concatenate([rng.normal(0.0, 1.0, (500, 2)) * s
                            for s in (1e-8, 1.0, 1e8)]
                           + [V * s for s in (1e-8, 0.5, 1.0, 3.0, 1e8)]
                           + [np.zeros((1, 2))])
        g, ref = gauge_many(disk, W), oracles.polygon_gauge(V)(W)
        assert g[-1] == ref[-1] == 0.0
        assert (np.abs(g[:-1] - ref[:-1]) / ref[:-1]).max() <= 1e-12


_RING4 = [0.0, 90.0, 180.0, 270.0]
_SQ = [(1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)]
_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("build, error, named", [
    # radial: shapes, count, and each sample refusal names its sample
    (lambda: UnitDisk.radial([0.0, 1.0], [1.0]), InvalidDiskError,
     "equal-length 1-d arrays"),
    (lambda: UnitDisk.radial([0.0, 1.0, 2.0], [1.0] * 3), InvalidDiskError,
     "got 3"),
    (lambda: UnitDisk.radial(_RING4, [1.0, _INF, 1.0, _INF], degrees=True),
     InvalidDiskError, "radius at sample 1 is not finite"),
    (lambda: UnitDisk.radial(_RING4, [1.0, 1.0, _NAN, 1.0], degrees=True),
     InvalidDiskError, "radius at sample 2 is not finite"),
    (lambda: UnitDisk.radial([0.0, _NAN, 180.0, 270.0], [1.0] * 4, degrees=True),
     InvalidDiskError, "angle at sample 1 is not finite"),
    (lambda: UnitDisk.radial(_RING4, [1.0, 1.0, 1.0, 0.0], degrees=True),
     InvalidDiskError, "radius at sample 3 is not positive"),
    (lambda: UnitDisk.radial([0.0, 90.0, 180.0, 360.0], [1.0] * 4, degrees=True),
     InvalidDiskError, "angle at sample 3 outside"),
    (lambda: UnitDisk.radial([0.0, 90.0, 90.0, 270.0], [1.0] * 4, degrees=True),
     InvalidDiskError, "not strictly increasing at sample 2"),
    (lambda: UnitDisk.radial([0.0, 90.0, 180.0, 280.0], [1.0] * 4, degrees=True),
     InvalidDiskError, "sample 1 has no partner"),
    (lambda: UnitDisk.radial(_RING4, [1.0, 1.0, 1.0, 2.0], degrees=True),
     InvalidDiskError, "radii at angle 1 and its antipode differ"),
    # boundary samples
    (lambda: UnitDisk.from_boundary_samples(_SQ[:3]), InvalidDiskError,
     "n >= 4"),
    (lambda: UnitDisk.from_boundary_samples([(1, 0), (_NAN, 1), (-1, 0), (0, -1)]),
     InvalidDiskError, "point 1 is not finite"),
    (lambda: UnitDisk.from_boundary_samples([(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1)]),
     InvalidDiskError, "even count"),
    (lambda: UnitDisk.from_boundary_samples([(1, 0), (0, 1), (-1, 0), (0, -2)]),
     InvalidDiskError, "not origin-symmetric"),
    # polygons
    (lambda: UnitDisk.polygon([(1, 0), (0, 1), (_INF, 0), (0, -1)]),
     InvalidDiskError, "vertex 2 is not finite"),
    (lambda: UnitDisk.polygon([(0, 0)] * 4), InvalidDiskError,
     "all vertices at the origin"),
    (lambda: UnitDisk.polygon([(1, 0), (1, 0), (-1, 0), (-1, 0)]),
     InvalidDiskError, "vertices 0 and 1 coincide"),
    (lambda: UnitDisk.polygon([(1, 0), (2, 0), (-1, 0), (-2, 0)]),
     InvalidDiskError, "origin is not strictly interior (edge starting at vertex 0)"),
    (lambda: UnitDisk.lp(0.5), InvalidDiskError, "exponent must be"),
    (lambda: UnitDisk.lp(_INF), InvalidDiskError, "exponent must be"),
    # specs missing a field
    (lambda: UnitDisk.from_spec({"kind": "polygon"}), InvalidDiskError,
     "polygon needs 'vertices'"),
    (lambda: UnitDisk.from_spec({"kind": "radial", "angles_deg": _RING4}),
     InvalidDiskError, "radial needs 'angles_deg' and 'radii'"),
    (lambda: UnitDisk.from_spec({"kind": "builtin", "name": "lp"}),
     InvalidDiskError, "builtin lp needs 'p'"),
    # convex bodies and vectors
    (lambda: ConvexBody([(0, 0), (1, 0)]), ValueError, "n >= 3"),
    (lambda: ConvexBody([(0, 0), (1, 0), (_NAN, 1)]), ValueError, "non-finite"),
    (lambda: ConvexBody([(0, 0), (1, 0), (1, 0), (0, 1)]), ValueError,
     "repeated consecutive"),
    (lambda: gauge(UnitDisk.square(), (1.0, 2.0, 3.0)), ValueError,
     "expected a 2-vector, got shape (3,)"),
    (lambda: gauge(UnitDisk.square(), (1.0, _NAN)), ValueError,
     "non-finite components"),
])
def test_refusals_name_their_cause(build, error, named):
    # each refusal comes before any arithmetic on the bad input: no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=re.escape(named)):
            build()


_CIRCLE = UnitDisk.euclidean(256)


@pytest.mark.parametrize("named, call, good", [
    ("lm_sweep: n", lambda n: lm_sweep(UnitDisk.square(), n), 8),
    ("hypercube_curve: d", hypercube_curve, 3),
    ("check_increasing_chords_dd: samples_per_edge",
     lambda n: check_increasing_chords_dd(hypercube_curve(2), n), 2),
    ("maxmin_search: k", lambda n: maxmin_search(n, 0), 3),
    ("maxmin_search: budget", lambda n: maxmin_search(3, n), 0),
    ("maxmin_search: sweep_n", lambda n: maxmin_search(3, 0, sweep_n=n), 720),
    ("build_involute: n", lambda n: build_involute(
        _CIRCLE, ConvexBody.from_disk(_CIRCLE), _CIRCLE.vertices[0], 0.0, 1.0, n), 5),
    ("bisector_sample: n",
     lambda n: bisector_sample(_CIRCLE, (0, 0), (1, 0), (-1.0, 1.0), n), 3),
    # 64.7 built a 64-gon and lp(3, 9.5) a 10-gon
    ("euclidean: resolution", UnitDisk.euclidean, 64),
    ("lp: resolution", lambda n: UnitDisk.lp(3.0, n), 10),
])
def test_counts_refuse_non_integral_values(named, call, good):
    # a count is taken through operator.index: numpy integers pass, while
    # 4.5 used to be truncated or mis-spaced and 3.0 to fail inside numpy
    call(np.int64(good))
    for bad in (good + 0.5, float(good)):
        with pytest.raises(ValueError, match=re.escape(named + " must be an integer")):
            call(bad)


def test_a_resolution_too_large_to_allocate_is_refused():
    # 2**70 used to fail inside numpy ("Maximum allowed size exceeded");
    # the check comes before any allocation
    spec = {"kind": "builtin", "name": "euclidean"}
    for build in (lambda n: UnitDisk.euclidean(n), lambda n: UnitDisk.lp(3.0, n),
                  lambda n: UnitDisk.from_spec(spec, n)):
        for n in (2 ** 70, 2 ** 60):
            with pytest.raises(InvalidDiskError, match="resolution too large to allocate"):
                build(n)
        with pytest.raises(InvalidDiskError, match="resolution too small: 6"):
            build(6)
    assert len(UnitDisk.lp(3.0, 9).vertices) == 10  # odd rounds up, as before


def test_stacked_cones_and_gauges_match_each_disks_own():
    # the cone rule is chosen by the stack size B: searchsorted over a
    # lone disk's angles, the complex keys (base, angle) for B >= 2; each
    # disk's rows of a stack must get its own stack's cones and gauge bits
    rng = np.random.default_rng(281)
    polygons = {}
    for _ in range(60):
        disk = random_polygon_disk(rng)
        polygons.setdefault(len(disk.vertices), []).append(disk)
    parallelogram = UnitDisk.polygon([(1.0, 0.0), (2.0, 1.0), (-1.0, 0.0), (-2.0, -1.0)])
    groups = [g for g in polygons.values() if len(g) >= 2] + [
        [parallelogram, UnitDisk.square(),
         UnitDisk.polygon([(1.0, -0.5), (0.2, 1.0), (-1.0, 0.5), (-0.2, -1.0)])],
        [UnitDisk.lp(1.0, 64), UnitDisk.euclidean(64), UnitDisk.lp(1.5, 64),
         UnitDisk.lp(8.0, 64), random_smooth_disk(rng, 64)]]
    assert len(groups) >= 4
    for group in groups:
        Ps = []
        for disk in group:
            V, E = disk.vertices, disk._T.E
            # vertex rays, edge midpoints and thirds (the flat stretches of
            # lp(1.0, 64) and the parallelogram's sides), the zero vector
            # and random vectors, at three scales
            Q = np.concatenate([V, V + 0.5 * E, V + E / 3.0, np.zeros((1, 2)),
                                rng.normal(0.0, 1.0, (16, 2))])
            Ps.append(np.concatenate([Q * s for s in (2.0 ** -40, 1.0, 2.0 ** 40)]))
        T = _Stack(np.stack([disk.vertices for disk in group]))
        assert T.B == len(group) >= 2
        P = np.concatenate(Ps)
        base = T.rows(len(P))
        cone, g = T.cone(*P.T, base), T.gauge(P, base)
        for b, (disk, Pb) in enumerate(zip(group, Ps)):
            rows = slice(b * len(Pb), (b + 1) * len(Pb))
            np.testing.assert_array_equal(cone[rows], disk._T.cone(*Pb.T))
            assert g[rows].tobytes() == disk._T.gauge(Pb).tobytes()
            assert g[rows].tobytes() == gauge_many(disk, Pb).tobytes()
