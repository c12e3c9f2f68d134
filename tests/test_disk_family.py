"""The mirrored 2k-gon family that maxmin_search walks.

The retraction onto convex radii is checked against a Qhull oracle, and
maxmin_search is pinned bit for bit to results recorded in
maxmin_pinned.json at commit d6b4a83, whose retraction was that oracle.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from mchords import DiskFamilyParams, UnitDisk
from mchords.chordbound import _family_rays, _repair_radii, maxmin_search

PINNED = json.loads((Path(__file__).with_name("maxmin_pinned.json")).read_text())


def qhull_retraction(r, U):
    """Radii of the convex hull of the points +-r_i U_i on the rays U,
    with the hull taken by Qhull and each ray cut by the nearest hull
    edge it crosses."""
    pts = r[:, None] * U
    sym = np.concatenate([pts, -pts])
    H = sym[ConvexHull(sym).vertices]  # CCW in 2-D
    E = np.roll(H, -1, axis=0) - H
    N = np.stack([E[:, 1], -E[:, 0]], axis=1)
    c = np.einsum("ij,ij->i", N, H)
    den = U @ N.T
    with np.errstate(divide="ignore"):
        cand = np.where(den > 1e-12, c[None, :] / np.where(den > 1e-12, den, 1.0),
                        np.inf)
    return cand.min(axis=1)


def _draws(seed, per_cell):
    """Radii exp(clip(N(0, sigma^2), +-1.5)) as the search makes them,
    for every k from 3 to 64 and sigma from 0 to 1.5."""
    rng = np.random.default_rng(seed)
    for k in range(3, 65):
        U = _family_rays(k)
        for sigma in np.linspace(0.0, 1.5, 7):
            for _ in range(per_cell):
                yield U, np.exp(np.clip(rng.normal(0.0, sigma, k), -1.5, 1.5))


def test_retraction_matches_qhull():
    # the same hull edges give the same bits; radii already on the hull
    # put collinear points on it, which either side may keep or drop
    for U, r in _draws(7, 3):
        out = _repair_radii(r, U)
        assert np.array_equal(out, qhull_retraction(r, U))
        assert np.abs(_repair_radii(out, U) - qhull_retraction(out, U)).max() <= 1e-14


def test_retraction_is_a_convex_idempotent_push_outward():
    # a radius on the hull comes back within 8 eps (relative) of itself
    eps = np.finfo(float).eps
    for U, r in _draws(8, 2):
        out = _repair_radii(r, U)
        assert np.all(out >= r * (1.0 - 8 * eps))
        assert np.abs(_repair_radii(out, U) - out).max() <= 1e-14
        half = out[:, None] * U
        UnitDisk.polygon(np.concatenate([half, -half]))


def test_retraction_of_a_dented_hexagon():
    # the middle ray of three is pushed out to the chord of its neighbours
    U = _family_rays(3)
    out = _repair_radii(np.array([1.0, 0.2, 1.0]), U)
    assert out[0] == 1.0 and out[2] == 1.0
    assert abs(out[1] - 0.5) <= 1e-15  # the chord from 1 at 0 to 1 at 2pi/3 crosses pi/3 at 1/2


@pytest.mark.parametrize("case", PINNED, ids=lambda c: "k%d-b%d-s%d" % (
    c["k"], c["budget"], c["seed"]))
def test_maxmin_search_is_pinned(case):
    res = maxmin_search(case["k"], case["budget"], seed=case["seed"])
    assert res.objective == case["objective"]
    assert res.evaluations == case["evaluations"]
    assert np.array_equal(res.params.radii, case["radii"])
    disk = DiskFamilyParams(case["k"], np.array(case["radii"])).disk()
    assert np.array_equal(disk.vertices, res.disk.vertices)
