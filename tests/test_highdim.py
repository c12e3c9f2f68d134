import numpy as np
import pytest

from mchords.errors import GeometryError
from mchords.highdim import (PolylineD, check_increasing_chords_dd,
                             chebyshev_arclength, hypercube_curve)


def test_small_curves():
    c1 = hypercube_curve(1)
    assert c1.points.tolist() == [[0.0], [1.0]]
    assert chebyshev_arclength(c1) == 1.0
    c2 = hypercube_curve(2)
    assert c2.points.tolist() == [[0, 0], [1, 0], [1, 1], [0, 1]]
    assert chebyshev_arclength(c2) == 3.0
    c3 = hypercube_curve(3)
    assert len(c3) == 8
    assert chebyshev_arclength(c3) == 7.0


def test_lengths_exact():
    for d in range(1, 13):
        L = chebyshev_arclength(hypercube_curve(d))
        assert L == float(2 ** d - 1)


def test_doubling_structure():
    # first half in the z=0 facet, second half its reflected translate,
    # one bridge edge along the new coordinate
    for d in range(2, 8):
        V = hypercube_curve(d).points
        h = len(V) // 2
        assert np.all(V[:h, -1] == 0.0)
        assert np.all(V[h:, -1] == 1.0)
        low = hypercube_curve(d - 1).points
        assert np.array_equal(V[:h, :-1], low)
        assert np.array_equal(V[h:, :-1], low[::-1])
        bridge = V[h] - V[h - 1]
        assert np.abs(bridge[:-1]).max() == 0.0
        assert bridge[-1] == 1.0


def test_hamiltonian_path():
    for d in (3, 5, 8):
        V = hypercube_curve(d).points
        assert len(V) == 2 ** d
        assert len(set(map(tuple, V))) == 2 ** d
        assert np.all((V == 0.0) | (V == 1.0))
        E = np.abs(np.diff(V, axis=0))
        assert np.all(E.sum(axis=1) == 1.0)
        assert np.allclose(V[0], 0.0)
        assert V[-1, -1] == 1.0 and np.abs(V[-1, :-1]).max() == 0.0


def test_range_checks():
    with pytest.raises(ValueError):
        hypercube_curve(0)
    with pytest.raises(ValueError):
        hypercube_curve(21)
    assert len(hypercube_curve(14)) == 16384


def test_segment_arclength():
    seg = PolylineD([[0.0, 0.0, 0.0], [0.3, 0.7, 0.2]])
    assert abs(chebyshev_arclength(seg) - 0.7) <= 1e-15
    assert chebyshev_arclength(PolylineD([[1.0, 2.0]])) == 0.0


def test_polyline_d_validation():
    with pytest.raises(ValueError):
        PolylineD([[0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        PolylineD(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        PolylineD([[np.nan, 0.0]])


def test_increasing_chords_hold():
    for d in range(1, 7):
        rep = check_increasing_chords_dd(hypercube_curve(d), samples_per_edge=8)
        assert rep.holds, (d, rep.max_deficit)
        assert rep.max_deficit == 0.0
    diag = PolylineD(np.array([[0.0] * 4, [1.0] * 4]))
    assert check_increasing_chords_dd(diag, samples_per_edge=8).holds


def test_perturbed_curve_fails_with_witness():
    P = hypercube_curve(3).points.copy()
    P[3] = P[3] + np.array([0.3, 0.0, 0.0])
    rep = check_increasing_chords_dd(PolylineD(P), samples_per_edge=8)
    assert not rep.holds
    assert rep.witnesses
    assert abs(rep.max_deficit - 2.0 / 9.0) <= 1e-12
    quad = rep.witnesses[0].quad
    assert np.allclose(quad, (3 + 2 / 9, 4.0, 5 + 7 / 9, 5 + 7 / 9), atol=1e-12)


def test_checker_argument_validation():
    with pytest.raises(ValueError):
        check_increasing_chords_dd(hypercube_curve(2), samples_per_edge=0)
    with pytest.raises(ValueError):
        check_increasing_chords_dd(PolylineD([[0.0, 0.0]]))


def test_translate_distance_identity():
    # every point of one facet copy is at Chebyshev distance exactly 1 from
    # every point of the other
    for d in (2, 3, 5):
        V = hypercube_curve(d).points
        h = len(V) // 2
        cross = np.abs(V[:h, None, :] - V[None, h:, :]).max(axis=2)
        assert np.all(cross == 1.0)


def test_bridge_monotonicity():
    # walking the bridge, distances to the facet left behind never shrink
    # and distances to the facet ahead never grow
    for d in (2, 3, 4):
        V = hypercube_curve(d).points
        h = len(V) // 2
        ts = np.linspace(0.0, 1.0, 17)
        Z = V[h - 1][None, :] + ts[:, None] * (V[h] - V[h - 1])[None, :]
        dA = np.abs(Z[:, None, :] - V[None, :h, :]).max(axis=2)
        dB = np.abs(Z[:, None, :] - V[None, h:, :]).max(axis=2)
        assert np.all(np.diff(dA, axis=0) >= -1e-12)
        assert np.all(np.diff(dB, axis=0) <= 1e-12)


def test_a_curve_whose_differences_overflow_is_refused():
    # 1e308 - (-1e308) overflows: refused before the augmented points are
    # built, so no overflow warning and no infinite deficit
    with pytest.raises(GeometryError, match="the points span inf"):
        check_increasing_chords_dd(PolylineD([[0.0], [1e308], [-1e308]]), 2, 1e-9)
    rep = check_increasing_chords_dd(PolylineD([[0.0], [1e307], [-1e307]]), 2, 1e-9)
    assert not rep.holds and rep.max_deficit == rep.witnesses[0].deficit
