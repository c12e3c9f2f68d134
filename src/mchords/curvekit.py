"""Polyline curves and the increasing chord property.

The chord checker uses the two-sided reduction: a curve has increasing
chords (a <= b <= c <= d on the curve implies ||a-d|| >= ||b-c||) exactly
when for all parameters i < j < k both gauge(f_i - f_k) >= gauge(f_i - f_j)
and gauge(f_i - f_k) >= gauge(f_j - f_k) hold.  Vertices are checked
pairwise; edge interiors are covered by a one-sided derivative test at
every edge start, sound because the gauge of an affine path is convex.

One kernel serves both halves: per pair of points it takes the gauge and
both edge slopes from one callback of the norm, so the d-dimensional
Chebyshev module reuses it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, UnsupportedDiskError
from .normplane import (UnitDisk, as_vec, gauge, gauge_many, TWO_PI,
                        _cone_gauge, _wedge_of)

_BLOCK_ELEMS = 1 << 16  # pairs per row block of the chord kernel, at most
_BLOCK_ROWS = 32  # rows per block, at most: a block discards B^2 / 2 pairs h <= l
_PAST_VERTEX = 1e-6  # witness notation: j + 1e-6 is a point just past vertex j
_RAY_SCREEN = 2e-12  # angle from a cone's boundary ray that gets the ray test
_MAX_WITNESSES = 16


class Polyline:
    """Ordered point sequence; the curve representation used throughout.

    points is an (n, 2) read-only float array.  A closed polyline has an
    implicit last-to-first edge.
    """

    __slots__ = ("points", "closed")

    def __init__(self, points, closed: bool = False):
        P = np.array(points, dtype=float)
        if P.ndim != 2 or P.shape[1] != 2 or len(P) < 1:
            raise ValueError("Polyline: need an (n, 2) array with n >= 1")
        if not np.all(np.isfinite(P)):
            raise ValueError("Polyline: non-finite coordinates")
        scale = max(1.0, float(np.abs(P).max()))
        if len(P) > 1:
            steps = np.hypot(*(P[1:] - P[:-1]).T)
            if steps.min() <= 1e-12 * scale:
                k = int(np.argmin(steps))
                raise ValueError("Polyline: points %d and %d coincide" % (k, k + 1))
        if closed:
            if len(P) < 3:
                raise ValueError("Polyline: a closed curve needs >= 3 points")
            if math.hypot(*(P[0] - P[-1])) <= 1e-12 * scale:
                raise ValueError("Polyline: closed curve repeats its first point last")
        P.flags.writeable = False
        self.points = P
        self.closed = bool(closed)

    def __len__(self):
        return len(self.points)

    def edges(self) -> np.ndarray:
        if self.closed:
            return np.roll(self.points, -1, axis=0) - self.points
        return self.points[1:] - self.points[:-1]

    def __repr__(self):
        return "Polyline(n=%d, closed=%s)" % (len(self.points), self.closed)


@dataclass(frozen=True)
class Witness:
    """One violated inequality.

    quad is (a, b, c, d) with a <= b <= c <= d and gauge(f_a - f_d) <
    gauge(f_b - f_c); fractional entries denote points inside an edge
    (j + 1e-6 means just past vertex j).  For anchored checks, quad is
    (t1, t1, t2, t2) and anchor is the index of the offending anchor.
    """
    quad: tuple
    deficit: float
    anchor: int | None = None


@dataclass
class ChordReport:
    holds: bool
    max_deficit: float
    witnesses: list = field(default_factory=list)
    mode: str = "tolerance"
    tol: float = 1e-6

    def to_dict(self) -> dict:
        return {
            "holds": bool(self.holds),
            "max_deficit": float(self.max_deficit),
            "mode": self.mode,
            "tol": float(self.tol),
            "witnesses": [
                {"quad": [float(x) for x in w.quad], "deficit": float(w.deficit)}
                | ({} if w.anchor is None else {"anchor": int(w.anchor)})
                for w in self.witnesses
            ],
        }


@dataclass(frozen=True)
class BisectorSample:
    seg: tuple
    samples: Polyline


# -- chord kernel ---------------------------------------------------------

def _pair_terms(PT, ET, gET, pair_terms, l0, l1, h0, h1, reverse=True):
    """gauge(w) and its right derivatives along E_h and, if `reverse`,
    along E_{l-1} (else None) for the pairs l0 <= l < l1, h0 <= h < h1,
    w = P_h - P_l; see _edge_table.

    The norm's callback pair_terms(W, Ef, Er) takes W component first,
    (dim, B, N), and edges that broadcast against it, or None for a
    derivative not needed.  At w = 0 the derivative along e is gauge(e).
    """
    W = PT[:, None, h0:h1] - PT[:, l0:l1, None]
    g, sf, sr = pair_terms(W, ET[:, None, h0 + 1:h1 + 1],
                           ET[:, l0:l1, None] if reverse else None)
    at = np.nonzero(g == 0.0)
    at = tuple(i[(PT[:, at[1] + h0] == PT[:, at[0] + l0]).all(axis=0)] for i in at)
    sf[at] = gET[at[1] + h0 + 1]
    if reverse:
        sr[at] = gET[at[0] + l0]
    return g, sf, sr


def _edge_table(P, pair_terms):
    """ET[:, k + 1] = E_k, zero where no edge is, and the gauges gET of
    its columns."""
    ET = np.zeros((P.shape[1], len(P) + 1))
    ET[:, 1:len(P)] = (P[1:] - P[:-1]).T
    return ET, pair_terms(ET[:, None, :], None, None)[0][0]


def _run_two_sided(P: np.ndarray, pair_terms, tol: float):
    """Both halves of the reduction on an open polyline P of shape (n, d).

    Each pair l < h is evaluated once: gauge(w) serves the vertex scans of
    both halves (gauge(-w) = gauge(w)), the slope along E_h the forward
    edge test at anchor l, the slope along E_{l-1} the reversed one at h.
    Row blocks go bottom up; a reversed scan runs up a column and carries
    a running max or min per column, so memory is O(block + n).  The first
    4 * 16 violating lines of each scan, in its own order, are computed
    again alone to place their witnesses.
    """
    n = len(P)
    PT = np.ascontiguousarray(P.T)
    ET, gET = _edge_table(P, pair_terms)
    gE = gET[1:n]
    fv, fe, rv, re = np.full((4, n), -np.inf)  # deficit per row, per column
    # per column: max gauge, min reversed slope over the rows done so far
    top, low = np.full(n, -np.inf), np.full(n, np.inf)
    step = max(1, min(_BLOCK_ELEMS // n, _BLOCK_ROWS))
    for l1 in range(n - 1, 0, -step):
        l0 = max(0, l1 - step)
        B = l1 - l0
        g, sf, sr = _pair_terms(PT, ET, gET, pair_terms, l0, l1, l0 + 1, n)
        dead = np.arange(B - 1)[None, :] < np.arange(B)[:, None]  # h <= l
        D = np.vstack([g, top[l0 + 1:]])
        D[:B, :B - 1][dead] = -np.inf
        # forward: max over l < j < h of gauge(P_j - P_l), less gauge(w)
        run = np.maximum.accumulate(D[:B], axis=1)
        fv[l0:l1] = (run[:, :-1] - g[:, 1:]).max(axis=1, initial=-np.inf)
        # reversed: max over l < j < h of gauge(P_h - P_j), less gauge(w)
        for i in range(B - 1, -1, -1):
            np.maximum(D[i], D[i + 1], out=D[i])
        np.maximum(rv[l0 + 1:], (D[1:] - g).max(axis=0), out=rv[l0 + 1:])
        top[l0 + 1:] = D[0]
        sf[:, :B - 1][dead] = sr[:, :B - 1][dead] = np.inf
        # no edge starts at the last point, nor ends at the first
        fe[l0:l1] = -np.minimum(gE[l0:l1], sf[:, :-1].min(axis=1, initial=np.inf))
        np.minimum(low[l0 + 1:], sr[int(l0 == 0):].min(axis=0, initial=np.inf),
                   out=low[l0 + 1:])
    re[1:] = -np.minimum(gE, low[1:])
    deficit = max(0.0, float(max(fv.max(), fe.max(), rv.max(), re.max())))

    def line(*lh):
        return [t.ravel() for t in _pair_terms(PT, ET, gET, pair_terms, *lh)]

    cap = 4 * _MAX_WITNESSES
    wits = []
    for l in np.flatnonzero(fv > tol)[:cap].tolist():
        g = line(l, l + 1, l + 1, n)[0]
        k = l + 2 + int(np.argmax(np.maximum.accumulate(g)[:-1] - g[1:]))
        j = l + 1 + int(np.argmax(g[:k - l - 1]))
        wits.append(Witness((l, l, j, k), float(fv[l])))
    for l in np.flatnonzero(fe > tol)[:cap].tolist():
        sf = line(l, l + 1, l + 1, n)[1]
        j = l + int(np.argmin(np.concatenate(([gE[l]], sf[:-1]))))
        wits.append(Witness((l, l, j, j + _PAST_VERTEX), float(fe[l])))
    # reversed scans: columns from the last point down, each bottom up
    for h in np.flatnonzero(rv > tol)[::-1][:cap].tolist():
        g = line(0, h, h, h + 1)[0][::-1]
        t = int(np.argmax(np.maximum.accumulate(g)[:-1] - g[1:]))
        j = h - 1 - int(np.argmax(g[:t + 1]))
        wits.append(Witness((h - 2 - t, j, h, h), float(rv[h])))
    for h in np.flatnonzero(re > tol)[::-1][:cap].tolist():
        sr = line(0, h, h, h + 1)[2]
        l = h - int(np.argmin(np.concatenate(([gE[h - 1]], sr[:0:-1]))))
        # n - 1 - l indexes the edge along the reversed curve
        wits.append(Witness((n - 1 - (n - 1 - l + _PAST_VERTEX), l, h, h),
                            float(re[h])))
    wits.sort(key=lambda w: -w.deficit)
    return deficit, wits[:_MAX_WITNESSES]


def _disk_pair_terms(disk: UnitDisk):
    """pair_terms of a planar disk, exact on its boundary polygon.

    On the cone j of w, from _wedge_of, gauge(w) = <grad_j, w>, and the
    right derivative along e is <grad_j, e>, or on a boundary ray of the
    cone (|cross(V_j, w)| <= 1e-12 |V_j| |w|) the larger one of it and its
    neighbour's.  The ray test runs only where an angle screen (angles
    are good to 1e-14) asks.
    """
    V, ang = disk.vertices, disk._ang
    m = len(V)
    ang_next = np.append(ang[1:], ang[0] + TWO_PI)
    # gradients padded so that cone j sits at j + 1 between its neighbours
    gx, gy = np.concatenate([disk._grad[-1:], disk._grad, disk._grad[:1]]).T
    vn = np.hypot(V[:, 0], V[:, 1])

    def pair_terms(W, Ef, Er):
        x, y = W[0], W[1]
        j, r = _wedge_of(disk, x, y)
        g = _cone_gauge(disk, j, x, y)
        lo, hi = np.zeros((2,) + g.shape, dtype=bool)
        at = np.nonzero((r - ang[j] < _RAY_SCREEN) | (ang_next[j] - r < _RAY_SCREEN))
        if at[0].size:
            xs, ys, js = x[at], y[at], j[at]
            scale = 1e-12 * np.hypot(xs, ys)
            jn = (js + 1) % m
            lo[at] = np.abs(V[js, 0] * ys - V[js, 1] * xs) <= scale * vn[js]
            hi[at] = np.abs(V[jn, 0] * ys - V[jn, 1] * xs) <= scale * vn[jn]
        G = [(gx[i], gy[i]) for i in (j + 1, j + 1 - lo, j + 1 + hi)]
        return (g,) + tuple(None if E is None else functools.reduce(
            np.maximum, [a * E[0] + b * E[1] for a, b in G]) for E in (Ef, Er))

    return pair_terms


def _default_tol(disk: UnitDisk, tol):
    if tol is not None:
        return float(tol)
    return 1e-9 if disk.is_polygonal else 1e-6


# -- public operations ----------------------------------------------------

def arclength(disk: UnitDisk, curve: Polyline) -> float:
    """Length of the polyline in the norm of `disk` (sum of edge gauges)."""
    if len(curve) < 2:
        return 0.0
    return float(gauge_many(disk, curve.edges()).sum())


def check_increasing_chords(disk: UnitDisk, curve: Polyline,
                            tol: float | None = None) -> ChordReport:
    """Verdict for the increasing chord property of an open polyline.

    Edges are tested with the exact one-sided derivative of the gauge on
    the disk's boundary polygon.  Mode is exact_polygonal for polygonal
    disks (default tol 1e-9) and tolerance for sampled ones, whose polygon
    approximates the body (default tol 1e-6).
    """
    if curve.closed:
        raise ValueError("check_increasing_chords: curve must be open")
    if len(curve) < 2:
        raise ValueError("check_increasing_chords: need at least 2 points")
    tol = _default_tol(disk, tol)
    deficit, wits = _run_two_sided(curve.points, _disk_pair_terms(disk), tol)
    mode = "exact_polygonal" if disk.is_polygonal else "tolerance"
    return ChordReport(holds=deficit <= tol, max_deficit=deficit,
                       witnesses=wits if deficit > tol else [],
                       mode=mode, tol=tol)


def check_increasing_wrt_set(disk: UnitDisk, curve: Polyline, anchors,
                             tol: float | None = None) -> ChordReport:
    """Verdict for: for every anchor p, gauge(f(t) - p) is nondecreasing
    in t along the whole curve."""
    if curve.closed:
        raise ValueError("check_increasing_wrt_set: curve must be open")
    if len(curve) < 2:
        raise ValueError("check_increasing_wrt_set: need at least 2 points")
    A = np.asarray(anchors, dtype=float)
    if A.ndim == 1:
        A = A[None, :]
    if A.ndim != 2 or A.shape[1] != 2 or len(A) == 0:
        raise ValueError("check_increasing_wrt_set: anchors must be a "
                         "non-empty (m, 2) array")
    tol = _default_tol(disk, tol)
    pair_terms = _disk_pair_terms(disk)
    P = curve.points
    n, m = len(P), len(A)
    # anchors are rows n.. of the point table, curve points its columns
    PT = np.ascontiguousarray(np.concatenate([P, A]).T)
    ET, gET = _edge_table(P, pair_terms)
    best = 0.0
    cap = 4 * _MAX_WITNESSES
    vwits, ewits = [], []
    step = max(1, _BLOCK_ELEMS // n)
    for a0 in range(0, m, step):
        a1 = min(a0 + step, m)
        g, sf, _ = _pair_terms(PT, ET, gET, pair_terms, n + a0, n + a1, 0, n,
                               reverse=False)
        viol = np.maximum.accumulate(g, axis=1)[:, :-1] - g[:, 1:]
        vmax = viol.max(axis=1)
        sf[:, -1] = np.inf  # no edge starts at the last point
        emax = -sf.min(axis=1)
        best = max(best, float(vmax.max()), float(emax.max()))
        for r in np.flatnonzero(vmax > tol)[:cap - len(vwits)].tolist():
            k = 1 + int(np.argmax(viol[r]))
            j = int(np.argmax(g[r, :k]))
            vwits.append(Witness((j, j, k, k), float(vmax[r]), anchor=a0 + r))
        for r in np.flatnonzero(emax > tol)[:cap - len(ewits)].tolist():
            j = int(np.argmin(sf[r]))
            ewits.append(Witness((j, j, j + _PAST_VERTEX, j + _PAST_VERTEX),
                                 float(emax[r]), anchor=a0 + r))
    wits = sorted(vwits + ewits, key=lambda w: -w.deficit)
    mode = "exact_polygonal" if disk.is_polygonal else "tolerance"
    return ChordReport(holds=best <= tol, max_deficit=best,
                       witnesses=wits[:_MAX_WITNESSES] if best > tol else [],
                       mode=mode, tol=tol)


def bisector_sample(disk: UnitDisk, a, b, y_range, n: int) -> BisectorSample:
    """Points of the bisector {x : gauge(x-a) = gauge(x-b)}, one per line
    parallel to the segment ab, at n offsets spanning y_range.

    Offsets are measured from the segment midpoint along the Euclidean
    perpendicular of b - a.  Requires a strictly convex disk; polygonal
    norms can have two-dimensional bisectors.
    """
    if not disk.is_strictly_convex:
        raise UnsupportedDiskError(
            "bisector_sample: disk is not strictly convex; the bisector may "
            "contain two-dimensional pieces")
    a = as_vec(a)
    b = as_vec(b)
    u = b - a
    if math.hypot(*u) <= 1e-12 * max(1.0, float(np.abs(a).max()),
                                     float(np.abs(b).max())):
        raise ValueError("bisector_sample: a and b coincide")
    if n < 1:
        raise ValueError("bisector_sample: n must be >= 1")
    lo, hi = float(y_range[0]), float(y_range[1])
    perp = np.array([-u[1], u[0]]) / math.hypot(*u)
    mid = 0.5 * (a + b)
    gu = gauge(disk, u)

    def phi(base, s):
        x = base + s * u
        return gauge(disk, x - a) - gauge(disk, x - b)

    pts = np.empty((n, 2))
    offsets = np.linspace(lo, hi, n)
    for i, h in enumerate(offsets):
        base = mid + h * perp
        K = (gauge(disk, h * perp) + 2.0) / gu + 2.0
        slo, shi = -K, K
        for _ in range(60):
            if phi(base, slo) < 0.0 <= phi(base, shi):
                break
            slo *= 2.0
            shi *= 2.0
        else:
            raise GeometryError("bisector_sample: failed to bracket the root")
        # bisection to 1e-10 in the line parameter
        while shi - slo > 1e-10 / gu:
            smid = 0.5 * (slo + shi)
            if phi(base, smid) < 0.0:
                slo = smid
            else:
                shi = smid
        pts[i] = base + 0.5 * (slo + shi) * u
    return BisectorSample(seg=(a, b), samples=Polyline(pts) if n > 1
                          else Polyline(pts[[0]]))


def is_x_monotone(curve: Polyline) -> bool:
    """True when x strictly increases along every edge of the curve."""
    E = curve.edges()
    return bool(len(E) > 0 and np.all(E[:, 0] > 0.0))


def convexify(curve: Polyline) -> Polyline:
    """Rearrange the edge vectors of a strictly x-monotone curve by slope.

    Edges are sorted so their angles strictly decrease; exactly parallel
    edges are merged by vector addition.  The endpoints and the multiset
    of edge vectors (up to merging) are preserved, so the arclength in
    every norm is unchanged.  Already-sorted curves are returned as an
    identical copy.
    """
    if curve.closed or not is_x_monotone(curve):
        raise GeometryError("convexify: curve must be open and strictly "
                            "x-monotone")
    P = curve.points
    E = P[1:] - P[:-1]
    ang = np.arctan2(E[:, 1], E[:, 0])
    d = np.diff(ang)
    if np.all(d < 0) or len(E) == 1:
        return Polyline(P.copy())
    order = np.argsort(-ang, kind="stable")
    Es = E[order]
    merged = [Es[0]]
    for e in Es[1:]:
        last = merged[-1]
        if last[0] * e[1] - last[1] * e[0] == 0.0:
            merged[-1] = last + e
        else:
            merged.append(e)
    out = np.empty((len(merged) + 1, 2))
    out[0] = P[0]
    out[1:] = P[0] + np.cumsum(merged, axis=0)
    return Polyline(out)
