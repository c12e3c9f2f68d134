"""The mirrored 2k-gon family that maxmin_search walks.

A family point is built from k edge vectors whose angles rise over less
than half a turn, so every point is a convex disk with no repair.  The
half-cut square of min lm 13/6 is a family point, and maxmin_search is
pinned bit for bit to results recorded in maxmin_pinned.json.  Its
stacked scorer, _min_lm_many, equals _min_lm bit for bit, also for disks
too large to scan alone, the search equals a one-disk-at-a-time
reference, and it scores each start once.  The batched family builder
equals the one-row arithmetic, and a ring stack refuses a bad ring as
UnitDisk.polygon does.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from mchords import DiskFamilyParams, UnitDisk
from mchords import chordbound
from mchords.chordbound import (_SCAN, _family_params, _family_rings,
                                _lm_at, _min_lm, _min_lm_many, maxmin_search)
from mchords.errors import GeometryError, InvalidDiskError
from mchords.normplane import _Stack

import oracles

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
    for v in _lm_at(disk._T, disk.vertices[:4]):
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


def _family_row(x):
    """The family point of one x, by the one-row arithmetic the batched
    builder replaced."""
    k = len(x) // 2
    y = np.exp(np.minimum(np.maximum(x, -3.0), 3.0))
    g, L = y[:k], y[k:]
    th = (np.cumsum(g) - g) * (math.pi / g.sum())
    E = L[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
    H = np.cumsum(E, axis=0) - E - 0.5 * E.sum(axis=0)
    return H / np.hypot(H[:, 0], H[:, 1]).max()


def test_family_rings_equal_family_params_row_by_row():
    # each row's bytes do not depend on the batch, and equal the one-row
    # arithmetic; sigma 10 and the rows of +-3 and +-5 clip coordinates
    rng = np.random.default_rng(23)
    for k in range(3, 65):
        X = np.concatenate([rng.normal(0.0, sigma, (3, 2 * k))
                            for sigma in np.linspace(0.0, 10.0, 6)])
        X = np.concatenate([X, np.full((1, 2 * k), 3.0), np.full((1, 2 * k), -5.0),
                            rng.choice([-5.0, -3.0, 3.0, 5.0], (2, 2 * k))])
        assert (np.abs(X) > 3.0).any()
        H = _family_rings(X)
        assert H.shape == (len(X), k, 2)
        for x, h in zip(X, H):
            assert h.tobytes() == _family_params(x).vertices.tobytes()
            assert h.tobytes() == _family_row(x).tobytes()


def _bad_rings(ring):
    """(words of its error, ring) for each rule UnitDisk.polygon enforces,
    from a good ring of 12 vertices."""
    h = len(ring) // 2
    nan = ring.copy()
    nan[3, 1] = np.nan
    moved = ring.copy()
    moved[h + 2] += 1e-6
    repeated = ring.copy()
    repeated[[4, h + 4]] = repeated[[3, h + 3]]
    dented = ring.copy()
    dented[[3, h + 3]] *= 0.5
    line = np.arange(1.0, h + 1.0)[:, None] * np.array([1.0, 0.5])
    flat = np.concatenate([line, -line])
    return [("is not finite", nan), ("has no antipode", moved), ("coincide", repeated),
            ("right turn", dented), ("origin is not strictly interior", flat)]


def test_a_bad_ring_in_a_stack_raises_as_unit_disk_polygon():
    rng = np.random.default_rng(31)
    good = _family_rings(rng.normal(0.0, 0.3, (4, 12)))
    rings = np.concatenate([good, -good], axis=1)
    for what, bad in _bad_rings(rings[1]):
        with pytest.raises(InvalidDiskError, match=what) as alone:
            UnitDisk.polygon(bad)
        for at in (1, 2, 3):
            stack = rings.copy()
            stack[at] = bad
            for build in (_Stack, _min_lm_many):
                with pytest.raises(InvalidDiskError) as stacked:
                    build(stack)
                assert type(stacked.value) is type(alone.value), what
                assert str(stacked.value) == str(alone.value), what


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


def _regular(k):
    th = np.arange(k) * (math.pi / k)
    half = np.stack([np.cos(th), np.sin(th)], axis=1)
    return UnitDisk.polygon(np.concatenate([half, -half]))


def _rings(disks):
    return np.stack([disk.vertices for disk in disks])


def _bits(values):
    return [float(v).hex() for v in values]


def test_stacked_min_lm_equals_min_lm_bit_for_bit(monkeypatch):
    # bisections counts the stacks whose bracket was bisected, those whose
    # rows times vertices times disks exceed _SCAN; up to k = 64 a single
    # disk's table is scanned
    bisect = chordbound._bisect
    bisections = []

    def counted(hi, test):
        bisections.append(len(hi))
        return bisect(hi, test)

    monkeypatch.setattr(chordbound, "_bisect", counted)

    def check(disks, bisects):
        want = [_min_lm(disk) for disk in disks]
        bisections.clear()
        assert _bits(_min_lm_many(_rings(disks))) == _bits(want)
        assert bool(bisections) == bisects

    rng = np.random.default_rng(11)
    for k in range(3, 65):
        # the regular 2k-gon has unit chords, so flat stretches of the
        # boundary at distance 1, when 3 divides k
        disks = [_regular(k)] + [_family_params(rng.normal(0.0, sigma, 2 * k)).disk()
                                 for sigma in (0.0, 0.1, 0.5, 1.0, 3.0, 10.0)
                                 for _ in range(3)]
        check(disks, len(disks) ** 2 * k * 2 * k > _SCAN)
        check(disks[:math.isqrt(_SCAN // (k * 2 * k))], False)
    # stacks at the largest size whose gauge table is scanned, and one more
    for k in (8, 32, 64):
        m = math.isqrt(_SCAN // (k * 2 * k))
        disks = [_regular(k)] + [_family_params(rng.normal(0.0, 1.0, 2 * k)).disk()
                                 for _ in range(m)]
        check(disks[:m], False)
        check(disks, True)
    half = np.array([[-0.5, -1.0], [0.5, -1.0], [1.0, -0.5], [1.0, 0.5]])
    half_cut = UnitDisk.polygon(np.concatenate([half, -half]))
    check([half_cut, _regular(4), half_cut], False)
    # every disk's own table exceeds _SCAN from k = 91 on, so each is cut
    # on the search path, in a stack as alone; the family's regular
    # 2k-gon is pinned at the value recorded before stacks took such disks
    pinned = {91: 2.094139705112107, 96: 2.09458203331988, 128: 2.0944224049763944}
    for k, want in pinned.items():
        assert k * 2 * k > _SCAN
        disks = [_family_params(rng.normal(0.0, sigma, 2 * k)).disk()
                 for sigma in (0.0, 0.1, 1.0, 10.0) for _ in range(2)]
        check(disks, True)
        vals = _min_lm_many(_rings(disks))
        assert vals[0] == want
        for disk, val in zip(disks, vals):
            V = disk.vertices
            ref = min(oracles.lens_lm(V, math.atan2(y, x)) for x, y in V[:k])
            assert abs(val - ref) <= 1e-9


def test_stacked_min_lm_needs_exactly_symmetric_rings():
    th = np.arange(10) * (math.pi / 5)
    ring = np.stack([np.cos(th), np.sin(th)], axis=1)
    assert not np.array_equal(ring[5:], -ring[:5])  # within the disk's 1e-12
    with pytest.raises(GeometryError, match="symmetric"):
        _min_lm_many(_rings([_regular(5), UnitDisk.polygon(ring)]))


def _maxmin_one_at_a_time(k, budget, seed):
    """maxmin_search scoring one disk per call, with scipy's own initial
    simplex: the search before its starts and simplices were stacked."""
    rng = np.random.default_rng(seed)
    d = 2 * k
    starts = [np.zeros(d)] + [rng.normal(0.0, 0.12, size=d) for _ in range(3)]
    state = {"best": -np.inf, "params": None, "disk": None, "evals": 0}

    def objective(x):
        params = _family_params(x)
        disk = params.disk()
        val = _min_lm(disk)
        state["evals"] += 1
        if val > state["best"]:
            state.update(best=val, params=params, disk=disk)
        return val

    for x0 in starts:
        objective(x0)
    if budget > 0:
        runs = max(1, min(len(starts), budget // (d + 2)))
        for x0 in starts[:runs]:
            minimize(lambda x: -objective(x), x0, method="Nelder-Mead",
                     options={"maxfev": budget // runs, "xatol": 1e-4,
                              "fatol": 1e-7, "adaptive": True})
    return state


def test_maxmin_search_scores_each_start_once(monkeypatch):
    # row 0 of each run's simplex is the run's start, answered from the
    # start's score: every evaluation but those rows scores one disk
    stacked = chordbound._min_lm_many
    scored = []

    def counted(rings):
        scored.append(len(rings))
        return stacked(rings)

    monkeypatch.setattr(chordbound, "_min_lm_many", counted)
    for k, budget in ((3, 0), (3, 1), (3, 2), (3, 8), (3, 9), (3, 40), (8, 17),
                      (8, 18), (8, 100), (16, 34), (16, 200)):
        scored.clear()
        res = maxmin_search(k, budget, seed=1)
        runs = max(1, min(4, budget // (2 * k + 2))) if budget else 0
        assert sum(scored) == res.evaluations - runs, (k, budget)


@pytest.mark.parametrize("k", [3, 8, 16, 32])
@pytest.mark.parametrize("seed", [0, 1])
def test_maxmin_search_equals_one_disk_at_a_time(k, seed):
    # 6 (k + 1) is the benchmark's budget, 198 at k = 32
    for budget in (0, 1, 2 * k, 2 * k + 1, 2 * k + 2, 6 * (k + 1), 4 * (2 * k + 2), 200):
        res = maxmin_search(k, budget, seed=seed)
        ref = _maxmin_one_at_a_time(k, budget, seed)
        assert float(res.objective).hex() == float(ref["best"]).hex(), budget
        assert res.evaluations == ref["evals"], budget
        assert res.params.vertices.tobytes() == ref["params"].vertices.tobytes(), budget
        assert res.disk.vertices.tobytes() == ref["disk"].vertices.tobytes(), budget
