"""The chord checker's certificate against the plain two-sided kernel.

check_increasing_chords runs a certificate (curvekit._run_certified) that
skips the rows and columns of pairs whose slopes it proves positive, and
scans the others with the kernel's own terms.  The plain kernel,
curvekit._run_two_sided, is the oracle here:

- the report (max_deficit and witnesses) is the same, bit for bit;
- a line the certificate skips is <= 0 in the plain kernel, and a line it
  scans has the plain kernel's value.

Every curve runs at scale 1 and scaled by 2^-20 and 2^20, once as the
checker runs it and once with the certificate forced on (no share
limit), so that short and failing curves go through it too; curves of
up to 400 points also run forced on smaller blocks.  A work-count guard
keeps the certificate's exact pairs on the extremal l6 chain below a
quarter of all pairs, and that chain scaled past 1.3e154, where the
certificate's box products would overflow, gets the plain kernel's
report.
"""

import math

import numpy as np
import pytest

import mchords.curvekit as curvekit

from mchords import (ConvexBody, UnitDisk, build_involute, inscribed_hexagon,
                     reuleaux, reuleaux_two_sides, unit_vector)
from mchords.normplane import _gauge_slopes
from mchords.verify import (builtin_disks, near_segment_curve,
                            random_base_body, random_polygon_disk,
                            random_smooth_disk)

MODES = [{}, {"_CERT_SHARE": math.inf},
         {"_CERT_SHARE": math.inf, "_CERT_BLOCKS": (8, 2)}]


def chain(disk, theta):
    hx = inscribed_hexagon(disk, unit_vector(disk, theta))
    body, _ = reuleaux(disk, hx)
    return reuleaux_two_sides(body, hx.vertices[0], hx.vertices[1])


def vertex_angle(disk, i):
    v = disk.vertices[i]
    return math.atan2(v[1], v[0])


def flat_facet_walk():
    """A curve whose early rows are held flat by the hexagon's facet to
    within rounding: a straight start from the origin, then a walk of
    exactly representable points along the edge direction (-1/2, s) of
    the facet over the cone [0, pi/3], turned outward by 4.3e-17 per
    step.  Each far slope is that tiny positive number, so only the
    margin keeps the bound from proving the start rows, whose float
    gauges step down here and there and so carry deficits of a few ulps."""
    dx = -2.0 ** -8
    dy = math.ldexp(math.ceil(math.ldexp(math.sqrt(3.0) * 2.0 ** -8, 52)), -52)
    start = np.stack([np.arange(32) * 2.0 ** -6, np.zeros(32)], axis=1)
    walk = np.array([3.0, 0.25]) + np.arange(224)[:, None] * np.array([dx, dy])
    return np.concatenate([start, walk])


def pushed_back(P, i, t):
    """P with point i moved back to P[i - 1] + t (P[i] - P[i - 1]): the
    only violation, or near-violation, sits in the block pairs around i."""
    Q = np.array(P)
    Q[i] = Q[i - 1] + t * (Q[i] - Q[i - 1])
    return Q


def family(name):
    """(disk, points) of one family of test curves."""
    rng = np.random.default_rng([2601, len(name)])
    if name == "chains":
        eu, l6 = UnitDisk.euclidean(4096), UnitDisk.lp(6.0, 4096)
        lp = UnitDisk.lp(float(rng.uniform(1.5, 6.0)), 4096)
        out = [(eu, chain(eu, 2.2)), (l6, chain(l6, 0.75)),
               (lp, chain(lp, float(rng.uniform(0.0, 2.0 * math.pi))))]
        for i in range(2):
            d = random_smooth_disk(np.random.default_rng([2601, 2, i]), 768)
            out.append((d, chain(d, vertex_angle(d, 7))))
        d = random_polygon_disk(rng)
        out.append((d, chain(d, vertex_angle(d, 0))))
        return out
    if name == "criterion 4":
        disks = builtin_disks(4096)
        out = [(d, chain(d, t))
               for d, t in zip(disks.values(), (0.0, math.pi / 4, 0.45, 0.9))]
        dlist = list(disks.values())
        for i in range(24):
            disk = dlist[i % 4]
            q = unit_vector(disk, float(rng.uniform(0.0, math.pi)))
            out.append((disk, near_segment_curve(rng, q, n=12, sigma=0.02).points))
        return out
    if name == "walks":
        lp3 = UnitDisk.lp(3.0, 4096)
        out = [(lp3, np.cumsum(rng.normal(size=(k, 2)), axis=0)) for k in (2, 3, 40, 200)]
        sq, eu = UnitDisk.square(), UnitDisk.euclidean(1024)
        # backtracking: a step back, a curve that comes back to its start,
        # and a long chain with one point pushed back in its middle, behind
        # the point before it (deficit 4.2e-3) or by a tenth of its edge
        # (deficit 1.5e-8, under the tolerance)
        out.append((eu, np.array([(0.0, 0.0), (1.0, 0.0), (0.6, 0.3), (2.0, 0.3)])))
        out.append((sq, np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0), (-3.0, 0.0)])))
        l6 = UnitDisk.lp(6.0, 4096)
        P = chain(l6, 0.75)
        out += [(l6, pushed_back(P, len(P) // 2, t)) for t in (-0.5, 0.9)]
        # the flat-facet walk both ways: rows, then columns, held flat
        P = flat_facet_walk()
        out += [(UnitDisk.regular_hexagon(), Q) for Q in (P, P[::-1])]
        return out
    if name == "involutes":
        eu = UnitDisk.euclidean(8192)
        circle = ConvexBody.from_disk(eu)
        out = [(eu, build_involute(eu, circle, (0.0, -1.0), t, t + math.pi, 300).points.points)
               for t in (0.3, 2.1)]
        for i, make in enumerate((random_polygon_disk, random_smooth_disk)):
            prng = np.random.default_rng([2601, 8, i])
            base = random_base_body(prng, exact=bool(i))
            norm = make(prng)
            for t in prng.uniform(0.0, 2.0 * math.pi, 2):
                inv = build_involute(norm, base, base.vertices[0], float(t),
                                     float(t) + 0.5 * math.pi, 300)
                out.append((norm, inv.points.points))
        return out
    raise ValueError(name)


def lines_and_reports(monkeypatch, disk, P, settings):
    """(plain lines, plain report, certified lines or None, certified
    report): the lines are the four line arrays handed to the report, and
    None says the certificate went to the plain kernel."""
    seen = []
    report = curvekit._two_sided_report

    def keep(PT, ET, gET, terms, fv, fe, rv, re, tol):
        seen.append(np.concatenate([fv, fe, rv, re]))
        return report(PT, ET, gET, terms, fv, fe, rv, re, tol)

    terms = _gauge_slopes(disk)
    tol = 1e-9 if disk.is_polygonal else 1e-6
    with monkeypatch.context() as m:
        m.setattr(curvekit, "_two_sided_report", keep)
        plain = curvekit._run_two_sided(P, terms, tol)
        for key, value in settings.items():
            m.setattr(curvekit, key, value)
        scan = curvekit._plain_scan
        m.setattr(curvekit, "_plain_scan", lambda *a: seen.append(None) or scan(*a))
        deficit, wits, _ = curvekit._run_certified(P, terms, tol)
    return seen[0], plain, seen[1], (deficit, wits)


@pytest.mark.parametrize("name", ["chains", "criterion 4", "walks", "involutes"])
def test_certificate_matches_the_plain_kernel(monkeypatch, name):
    skipped_any = failed = 0
    for disk, P in family(name):
        for scale in (1.0, 2.0 ** -20, 2.0 ** 20):
            Q = np.asarray(P, dtype=float) * scale
            for settings in MODES[:2] if len(Q) > 400 else MODES:
                plain_lines, plain, lines, cert = lines_and_reports(
                    monkeypatch, disk, Q, settings)
                assert cert == plain, (name, len(Q), scale, settings)
                if lines is None:  # the checker went to the plain kernel
                    assert settings == {}
                    continue
                skipped = lines == -np.inf
                assert (plain_lines[skipped] <= 0.0).all()
                np.testing.assert_array_equal(lines[~skipped], plain_lines[~skipped])
                skipped_any += bool((skipped & (plain_lines > -np.inf)).any())
            failed += bool(plain[1])
    assert skipped_any > 0
    if name in ("walks", "involutes"):  # curves that fail, with witnesses
        assert failed > 0


def test_the_certificate_skips_lines_of_the_extremal_chains(monkeypatch):
    # with the checker's own settings the long chains take the certificate,
    # and it skips all but a few lines
    for disk, P in family("chains")[:3]:
        plain_lines, plain, lines, cert = lines_and_reports(monkeypatch, disk, P, {})
        assert lines is not None and cert == plain
        assert (lines > -np.inf).sum() <= 0.05 * len(lines)


def test_work_count_on_the_l6_chain(monkeypatch):
    # the 1,463-point two-side Reuleaux chain of lp(6, 4096) at anchor 0.75,
    # the longest curve of the extremal-chains benchmark: the certificate
    # evaluates under a quarter of its n (n - 1) / 2 pairs
    disk = UnitDisk.lp(6.0, 4096)
    P = chain(disk, 0.75)
    n = len(P)
    assert n == 1463
    *_, pairs = curvekit._run_certified(P, _gauge_slopes(disk), 1e-6)
    assert 0 < pairs < 0.25 * n * (n - 1) / 2
    # and the checker takes that path, without the plain kernel
    with monkeypatch.context() as m:
        m.setattr(curvekit, "_plain_scan", None)
        assert curvekit.check_increasing_chords(disk, curvekit.Polyline(P)).holds
    # a curve the certificate cannot help counts every pair
    walk = np.cumsum(np.random.default_rng(1).normal(size=(200, 2)), axis=0)
    *_, pairs = curvekit._run_certified(walk, _gauge_slopes(disk), 1e-6)
    assert pairs >= 200 * 199 // 2


def test_a_chain_too_wide_for_the_boxes_takes_the_plain_scan():
    # the l6 chain scaled past 1.3e154, where the certificate's box
    # products (cx * ys) overflow: the checker gives the plain kernel's
    # report, holding, and refused with the middle point pushed back
    disk = UnitDisk.lp(6.0, 4096)
    terms = _gauge_slopes(disk)
    P = chain(disk, 0.75)
    for s in (1e155, 1e160, 2.0 ** 520):
        for Q, holds in ((P, True), (pushed_back(P, len(P) // 2, -0.5), False)):
            rep = curvekit.check_increasing_chords(disk, curvekit.Polyline(Q * s), tol=s * 1e-6)
            assert rep.holds == holds
            plain = curvekit._run_two_sided(Q * s, terms, s * 1e-6)
            assert (rep.max_deficit, rep.witnesses) == plain


def test_a_chain_too_small_for_the_boxes_takes_the_plain_scan(monkeypatch):
    # the l6 chain, a 120-point walk and two straight runs on the square
    # scaled by 2^-600, where the box products (about D^2) fall to 0 and
    # each box to its centre direction, which would prove the runs' block
    # pair on one cone of the square and miss the deficit on the other:
    # the certificate, even forced on, gives the plain kernel's report,
    # which is the unscaled report with every deficit scaled, bit for bit
    l6 = UnitDisk.lp(6.0, 4096)
    walk = np.cumsum(np.random.default_rng(1).normal(size=(120, 2)), axis=0)
    i = np.arange(32.0)[:, None]
    runs = np.concatenate([0.005 * i * [math.cos(1.2), math.sin(1.2)],
                           (0.43, 0.71) + 0.02 * i * [math.cos(-0.7), math.sin(-0.7)]])
    s = 2.0 ** -600
    for disk, P in ((l6, chain(l6, 0.75)), (UnitDisk.lp(3.0, 4096), walk),
                    (UnitDisk.square(), runs)):
        terms = _gauge_slopes(disk)
        ref = curvekit._run_two_sided(P, terms, 1e-6)
        for settings in MODES:
            with monkeypatch.context() as m:
                for key, value in settings.items():
                    m.setattr(curvekit, key, value)
                deficit, wits, _ = curvekit._run_certified(P * s, terms, s * 1e-6)
            assert (deficit, wits) == curvekit._run_two_sided(P * s, terms, s * 1e-6)
            assert deficit == ref[0] * s
            assert [(w.quad, w.deficit) for w in wits] == [(w.quad, w.deficit * s)
                                                          for w in ref[1]]
        rep = curvekit.check_increasing_chords(disk, curvekit.Polyline(P * s), tol=s * 1e-6)
        assert (rep.holds, rep.max_deficit) == (ref[0] <= 1e-6, ref[0] * s)
