"""End-to-end acceptance runs, one per headline guarantee.

Each test prints a single "acceptance N: PASS/FAIL" line on top of its
assertions (visible under pytest -rA or on failure), so the suite doubles
as a release checklist.  Runtime ceilings are asserted alongside the
numeric tolerances.
"""

import math
import time

import numpy as np
from scipy.spatial import cKDTree

from mchords import UnitDisk, gauge, unit_vector
from mchords.chordbound import (inscribed_hexagon, lm, lm_sweep, maxmin_search,
                                perimeter, reuleaux, reuleaux_two_sides)
from mchords.curvekit import (Polyline, arclength, check_increasing_chords,
                              check_increasing_wrt_set, convexify,
                              is_x_monotone)
from mchords.highdim import (chebyshev_arclength, check_increasing_chords_dd,
                             hypercube_curve, PolylineD)
from mchords.involute import ConvexBody, build_involute
from mchords.verify import (builtin_disks, near_segment_curve,
                            random_base_body, random_disk)

PI = math.pi
TWO_PI_3 = 2.0 * PI / 3.0
GRID = 1 << 20
WINDOW_STARTS = (0.0, 0.9, 1.8, 2.7)


def _verdict(k, ok, detail):
    print("acceptance %d: %s (%s)" % (k, "PASS" if ok else "FAIL", detail))
    assert ok, "acceptance %d: %s" % (k, detail)


def test_criterion_1_euclidean_chord_bound():
    t0 = time.perf_counter()
    eu = UnitDisk.euclidean(4096)
    prof = lm_sweep(eu, 360)
    dev = float(np.abs(prof.values - TWO_PI_3).max())
    el = time.perf_counter() - t0
    _verdict(1, dev <= 1e-3 and len(prof.values) >= 360 and el < 10.0,
             "max |lm - 2pi/3| = %.3g over %d directions, %.1fs"
             % (dev, len(prof.values), el))


def test_criterion_2_square_and_hexagon_sweeps():
    t0 = time.perf_counter()
    sq = lm_sweep(UnitDisk.square(), 360)
    hx = lm_sweep(UnitDisk.regular_hexagon(), 360)
    hex_dev = float(np.abs(hx.values - 2.0).max())
    el = time.perf_counter() - t0
    ok = (abs(sq.min - 2.0) <= 1e-9 and abs(sq.max - 3.0) <= 1e-9
          and hex_dev <= 1e-6 and el < 10.0)
    _verdict(2, ok,
             "square min %.12f max %.12f, hexagon dev %.3g, %.1fs"
             % (sq.min, sq.max, hex_dev, el))


def test_criterion_3_maxmin_bracketing():
    t0 = time.perf_counter()
    lo, hi = np.inf, -np.inf
    for seed in range(10):
        res = maxmin_search(64, 100, seed=seed, sweep_n=360)
        lo = min(lo, res.objective)
        hi = max(hi, res.objective)
    el = time.perf_counter() - t0
    ok = lo >= TWO_PI_3 - 2e-3 and hi <= 8.0 / 3.0 + 1e-6 and el < 300.0
    _verdict(3, ok,
             "objectives in [%.9f, %.9f] over 10 seeds, %.0fs" % (lo, hi, el))


def test_criterion_4_increasing_chord_length_bound():
    t0 = time.perf_counter()
    disks = builtin_disks(4096)
    n_curves = 0
    worst = -np.inf
    attain = None
    for name, disk in disks.items():
        # anchors where the two Reuleaux corners are exact ring vertices;
        # the square ring is a rectangle, so its anchors sit on symmetry axes
        anchors = ([0.0, PI / 4, PI / 2, 3 * PI / 4, PI] if name == "square"
                   else list(np.linspace(0.0, 0.9, 5)))
        for t in anchors:
            hxg = inscribed_hexagon(disk, unit_vector(disk, t))
            body, _ = reuleaux(disk, hxg)
            a, b = hxg.vertices[0], hxg.vertices[1]
            chain = Polyline(reuleaux_two_sides(body, a, b))
            assert check_increasing_chords(disk, chain).holds
            d = b - a
            L = arclength(disk, chain)
            worst = max(worst, L - lm(disk, math.atan2(d[1], d[0])))
            n_curves += 1
            if name == "euclidean" and t == 0.0:
                attain = abs(L - TWO_PI_3)
    rng = np.random.default_rng(11)
    dlist = list(disks.values())
    for i in range(180):
        disk = dlist[i % 4]
        th = float(rng.uniform(0.0, PI))
        q = unit_vector(disk, th)
        for _ in range(50):
            c = near_segment_curve(rng, q, n=12, sigma=0.02)
            if check_increasing_chords(disk, c).holds:
                break
        else:
            raise AssertionError("no increasing-chord draw after 50 tries")
        worst = max(worst, arclength(disk, c) - lm(disk, th))
        n_curves += 1
    el = time.perf_counter() - t0
    ok = (n_curves == 200 and worst <= 1e-6 and attain <= 1e-3 and el < 60.0)
    _verdict(4, ok,
             "%d curves, worst L - lm = %.3g, euclidean extremal dev %.3g, "
             "%.0fs" % (n_curves, worst, attain, el))


def _window_min_cross(points):
    e1 = points[1:-1] - points[:-2]
    e2 = points[2:] - points[1:-1]
    return float((e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]).min())


def _circle_involute(t):
    t = np.asarray(t, dtype=float)
    return np.stack([np.sin(t) - t * np.cos(t),
                     -np.cos(t) - t * np.sin(t)], axis=-1)


def test_criterion_5_involute_suite():
    t0 = time.perf_counter()
    eu = UnitDisk.euclidean(8192)
    cbase = ConvexBody.from_disk(eu)
    cur = build_involute(eu, cbase, (0.0, -1.0), 0.0, 1.5 * PI, 1024)
    closed_dev = float(np.abs(cur.points.points
                              - _circle_involute(cur.thetas)).max())

    # Width-pi windows do not have increasing chords, already on the circle.
    # With Gamma(t) = (sin t - t cos t, -cos t - t sin t) and
    # Gamma'(t) = t (sin t, -cos t) one gets
    # <Gamma(tau + pi) - Gamma(tau), Gamma'(tau)> = -2 tau, so
    # d/ds |Gamma(tau + pi) - Gamma(s)|^2 = 4 tau > 0 at s = tau: the inner
    # chord is longer than the outer one.  More precisely that derivative is
    # 2 s (1 + cos(s - tau) - (tau + pi) sin(s - tau)), positive (also for
    # tau = 0) until s* = tau + 2 atan(1 / (tau + pi)); the checker's worst
    # quadruple is (tau, s*, tau + pi, tau + pi), so its deficit is known.
    circ_flagged = 0
    circ_dev = 0.0
    for tau0 in WINDOW_STARTS:
        win = build_involute(eu, cbase, (0.0, -1.0), tau0, tau0 + PI, 300)
        rep = check_increasing_chords(eu, win.points)
        circ_flagged += (not rep.holds) and len(rep.witnesses) > 0
        far = _circle_involute(tau0 + PI)
        s_star = tau0 + 2.0 * math.atan(1.0 / (tau0 + PI))
        deficit = (np.hypot(*(far - _circle_involute(s_star)))
                   - np.hypot(*(far - _circle_involute(tau0))))
        circ_dev = max(circ_dev, abs(rep.max_deficit - deficit))

    rng = np.random.default_rng(2026)
    n_conv = n_inj = n_wrt = 0
    win_bad = win_total = 0
    win_worst = 0.0
    for _ in range(20):
        base = random_base_body(rng)
        norm = random_disk(rng)
        p = base.vertices[0]
        big = build_involute(norm, base, p, 0.0, 2.0 * PI, 1024)
        T, P = big.thetas, big.points.points
        worst = np.inf
        for a in np.linspace(0.0, PI, 7):
            m = (T >= a - 1e-12) & (T <= a + PI + 1e-12)
            if m.sum() >= 3:
                worst = min(worst, _window_min_cross(P[m]))
        n_conv += worst >= -1e-8
        dist, _ = cKDTree(P).query(P, k=2)
        n_inj += dist[:, 1].min() > 0.0
        for tau0 in WINDOW_STARTS:
            win = build_involute(norm, base, p, tau0, tau0 + 0.5 * PI, 300)
            rep = check_increasing_chords(norm, win.points)
            win_total += 1
            if not rep.holds:
                win_bad += 1
                win_worst = max(win_worst, rep.max_deficit)
        half = build_involute(norm, base, p, 0.0, PI, 512)
        V = base.vertices
        step = max(1, len(V) // 48)
        # anchors in the base: boundary points, points scaled toward the
        # centroid c (0.4 c + 0.6 v lies in the convex base) and c itself
        c = V.mean(axis=0)
        anchors = np.concatenate([V[::step], c + 0.6 * (V[::4 * step] - c),
                                  [c]])
        n_wrt += check_increasing_wrt_set(norm, half.points, anchors,
                                          tol=1e-3).holds
    el = time.perf_counter() - t0
    ok = (closed_dev <= 1e-6
          and circ_flagged == len(WINDOW_STARTS) and circ_dev <= 1e-4
          and n_conv == 20 and n_inj == 20 and n_wrt == 20
          and win_bad == 0 and el < 60.0)
    _verdict(5, ok,
             "closed-form dev %.3g; circle width-pi windows violated on "
             "%d/%d (deficit vs closed form %.3g); convexity %d/20, "
             "injectivity %d/20, wrt-base %d/20; width-pi/2 windows "
             "violated on %d/%d (worst chord deficit %.3g), %.0fs"
             % (closed_dev, circ_flagged, len(WINDOW_STARTS), circ_dev,
                n_conv, n_inj, n_wrt, win_bad, win_total, win_worst, el))


def _dyadic_unit_xmono(rng, rough):
    # strictly x-monotone, all coordinates on the 2^-20 grid, endpoints
    # exactly (0,0) and (1,0) so edge bookkeeping stays bitwise clean
    n = int(rng.integers(5, 30))
    w = rng.multinomial(GRID - (n - 1), np.ones(n - 1) / (n - 1)) + 1
    xs = np.concatenate([[0], np.cumsum(w)]).astype(float) / GRID
    if rough:
        yi = rng.integers(-GRID // 2, GRID // 2, n).astype(float)
    else:
        t = np.linspace(0.0, 1.0, n)
        yi = np.round(rng.normal(0.0, 0.02, n) * np.sin(PI * t) * GRID)
    ys = yi / GRID
    ys = ys - ys[0] - xs * (ys[-1] - ys[0])
    return Polyline(np.stack([xs, ys], axis=1))


def test_criterion_6_convexification():
    t0 = time.perf_counter()
    disks = list(builtin_disks(4096).values())
    rng = np.random.default_rng(7)
    q = np.array([1.0, 0.0])
    kept = 0
    worst_in = -np.inf
    for i in range(500):
        disk = disks[i % 4]
        cu = _dyadic_unit_xmono(rng, rough=(i % 3 == 0))
        assert is_x_monotone(cu)
        out = convexify(cu)
        ein = cu.points[1:] - cu.points[:-1]
        eout = out.points[1:] - out.points[:-1]
        cross = ein[:, 0][:, None] * ein[:, 1][None, :] - \
            ein[:, 1][:, None] * ein[:, 0][None, :]
        np.fill_diagonal(cross, 1.0)
        if np.all(cross != 0.0):  # no exact-parallel pair, so no merging
            si = np.lexsort((ein[:, 1], ein[:, 0]))
            so = np.lexsort((eout[:, 1], eout[:, 0]))
            assert np.array_equal(ein[si], eout[so])
        assert np.abs(out.points[0] - cu.points[0]).max() == 0.0
        assert np.abs(out.points[-1] - cu.points[-1]).max() == 0.0
        ang = np.arctan2(eout[:, 1], eout[:, 0])
        assert np.all(np.diff(ang) < 0)
        if check_increasing_chords(disk, cu).holds:
            kept += 1
            g1 = max(gauge(disk, x) for x in out.points)
            g2 = max(gauge(disk, x - q) for x in out.points)
            worst_in = max(worst_in, g1 - 1.0, g2 - 1.0)
    el = time.perf_counter() - t0
    ok = kept >= 100 and worst_in <= 1e-6 and el < 30.0
    _verdict(6, ok,
             "500 polylines, increasing-chord subset %d, worst lens excess "
             "%.3g, %.0fs" % (kept, worst_in, el))


def test_criterion_7_hypercube_curves():
    t0 = time.perf_counter()
    exact = all(chebyshev_arclength(hypercube_curve(d)) == float(2 ** d - 1)
                for d in range(1, 13))
    holds = all(check_increasing_chords_dd(hypercube_curve(d),
                                           samples_per_edge=8).holds
                for d in range(1, 7))
    V = hypercube_curve(3).points.copy()
    V[3] += np.array([0.3, 0.0, 0.0])
    rep = check_increasing_chords_dd(PolylineD(V), samples_per_edge=8)
    detected = (not rep.holds) and len(rep.witnesses) > 0 \
        and abs(rep.max_deficit - 2.0 / 9.0) <= 1e-12
    el = time.perf_counter() - t0
    ok = exact and holds and detected and el < 60.0
    _verdict(7, ok,
             "lengths exact d=1..12: %s, holds d=1..6: %s, perturbation "
             "witness quad %s, %.1fs"
             % (exact, holds,
                rep.witnesses[0].quad if rep.witnesses else None, el))


def test_criterion_8_perimeter_and_lm_envelopes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    lo_p, hi_p = np.inf, -np.inf
    lo_l, hi_l = np.inf, -np.inf
    for _ in range(100):
        disk = random_disk(rng)
        per = perimeter(disk, disk)
        lo_p, hi_p = min(lo_p, per), max(hi_p, per)
        for th in np.linspace(0.0, PI, 36, endpoint=False):
            v = lm(disk, th)
            lo_l, hi_l = min(lo_l, v), max(hi_l, v)
    el = time.perf_counter() - t0
    ok = (lo_p >= 6.0 - 1e-3 and hi_p <= 8.0 + 1e-9
          and lo_l >= 2.0 - 1e-6 and hi_l <= 3.0 + 1e-6 and el < 120.0)
    _verdict(8, ok,
             "perimeters in [%.6f, %.6f], lm in [%.6f, %.6f] over 100 disks "
             "x 36 directions, %.0fs" % (lo_p, hi_p, lo_l, hi_l, el))
