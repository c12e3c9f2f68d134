"""The mirrored 2k-gon family that maxmin_search walks.

A family point is built from k edge vectors whose angles rise over less
than half a turn, so every point is a convex disk with no repair.  The
half-cut square of min lm 13/6 is a family point, and maxmin_search is
pinned bit for bit to results recorded in maxmin_pinned.json.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from mchords import DiskFamilyParams
from mchords.chordbound import _family_params, _lm_at, _min_lm, maxmin_search

PINNED = json.loads((Path(__file__).with_name("maxmin_pinned.json")).read_text())


def test_the_half_cut_square_is_a_family_point():
    # equal gaps and lengths (1, 1/sqrt 2, 1, 1/sqrt 2): the square
    # [-1, 1]^2 with each corner cut at 1/2, scaled to max radius 1
    x = np.concatenate([np.zeros(4), np.log([1.0, 0.5 ** 0.5, 1.0, 0.5 ** 0.5])])
    params = _family_params(x)
    want = np.array([[-0.5, -1.0], [0.5, -1.0], [1.0, -0.5], [1.0, 0.5]]) / math.sqrt(1.25)
    assert np.abs(params.vertices - want).max() <= 1e-15
    # lm is 13/6 at all four vertex directions.  Measured before setting
    # the bound: _min_lm returns the double nearest 13/6, 1/3 ulp from it;
    # the bound allows one ulp per summed edge gauge of the octagon
    ulp = math.ulp(13.0 / 6.0)
    disk = params.disk()
    assert abs(Fraction(_min_lm(disk)) - Fraction(13, 6)) <= 8 * ulp
    for v in _lm_at(disk, disk.vertices[:4]):
        assert abs(Fraction(float(v)) - Fraction(13, 6)) <= 8 * ulp


def test_family_disks_are_convex_by_construction():
    # UnitDisk.polygon refuses a right turn, a repeated vertex or a ring
    # that is not symmetric; no draw may need a repair
    rng = np.random.default_rng(7)
    for k in range(3, 65):
        for sigma in np.linspace(0.0, 10.0, 6):
            for _ in range(3):
                params = _family_params(rng.normal(0.0, sigma, 2 * k))
                V = params.disk().vertices
                assert np.array_equal(V[k:], -V[:k])
                assert params.k == k
                assert params.radii.max() == 1.0 and params.radii.min() > 0.0
                a = params.angles
                assert (np.diff(a) > 0.0).all() and a[-1] - a[0] < math.pi


@pytest.mark.parametrize("case", PINNED, ids=lambda c: "k%d-b%d-s%d" % (
    c["k"], c["budget"], c["seed"]))
def test_maxmin_search_is_pinned(case):
    res = maxmin_search(case["k"], case["budget"], seed=case["seed"])
    assert res.objective == case["objective"]
    assert res.evaluations == case["evaluations"]
    assert np.array_equal(res.params.vertices, case["vertices"])
    # one construction path: the disk returned is the disk scored
    assert res.objective == _min_lm(res.disk)
    assert res.params.radii.max() == 1.0
    disk = DiskFamilyParams(np.array(case["vertices"])).disk()
    assert np.array_equal(disk.vertices, res.disk.vertices)
