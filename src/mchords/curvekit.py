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

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, UnsupportedDiskError
from .normplane import UnitDisk, as_vec, gauge, gauge_many, _as_count, _gauge_slopes

_BLOCK_ELEMS = 1 << 16  # pairs per row block of the chord kernel, at most
_BLOCK_ROWS = 32  # rows per block, at most: a block discards B^2 / 2 pairs h <= l
_PAST_VERTEX = 1e-6  # witness notation: j + 1e-6 is a point just past vertex j
_MAX_WITNESSES = 16


class Polyline:
    """Open ordered point sequence; the curve representation used throughout.

    points is an (n, 2) read-only float array.
    """

    __slots__ = ("points",)

    def __init__(self, points):
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
        P.flags.writeable = False
        self.points = P

    def __len__(self):
        return len(self.points)

    def edges(self) -> np.ndarray:
        return self.points[1:] - self.points[:-1]

    def __repr__(self):
        return "Polyline(n=%d)" % len(self.points)


@dataclass(frozen=True)
class Witness:
    """One violated inequality.

    quad is (a, b, c, d) with a <= b <= c <= d and gauge(f_a - f_d) <
    gauge(f_b - f_c); fractional entries denote points inside an edge
    (j + 1e-6 means just past vertex j).  For anchored checks, quad is
    (t1, t1, t2, t2) and anchor is the index of the offending anchor.
    deficit is the size of the violation on the line the witness was
    placed from: a vertex line's largest drop, or an edge line's fastest
    rate of shrinking.
    """
    quad: tuple
    deficit: float
    anchor: int | None = None


@dataclass
class ChordReport:
    """A checker's verdict: holds is max_deficit <= tol.

    max_deficit is the largest violation found, clamped at 0.  A refused
    check lists witnesses from the _MAX_WITNESSES (16) worst lines above
    tol, worst first, so the first carries max_deficit; ties keep the scan
    order.  A check that holds lists none.
    """
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
    zero = g == 0.0
    if zero.any():  # rare, and np.nonzero of a 2-d mask is slow
        at = np.nonzero(zero)
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
    a running max or min per column, so memory is O(block + n).  Column h
    of a reversed scan is row n - 1 - h of the reversed curve, the order
    in which _witnesses ranks and places it.
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
    lines = np.concatenate([fv, fe, rv[::-1], re[::-1]])

    def line(kind, i):
        if kind < 2:
            g, s, _ = _pair_terms(PT, ET, gET, pair_terms, i, i + 1, i, n)
            return i, g[0], s[0]
        h = n - 1 - i  # column h, read upward, is row i of the reversed curve
        g, _, s = _pair_terms(PT, ET, gET, pair_terms, 0, h + 1, h, h + 1)
        return i, g[::-1, 0], s[::-1, 0]

    wits = [Witness((i, i, c, d) if kind < 2 else
                    (n - 1 - d, n - 1 - c, n - 1 - i, n - 1 - i), dfc)
            for kind, i, c, d, dfc in _witnesses(lines, tol, n, line)]
    return max(0.0, float(lines.max())), wits


def _witnesses(lines, tol, n, line):
    """(kind, i, c, d, deficit) of the _MAX_WITNESSES worst lines above tol,
    worst first, ties in order.  `lines` holds n deficits per kind; even
    kinds are vertex lines, odd kinds edge lines.  line(kind, i) gives
    (c0, g, s): gauges and edge slopes at columns c0, c0 + 1, ...  A
    vertex line's witness is its largest drop below the running max of g,
    from column c to d; an edge line's is its first least slope, at c, and
    d = c + _PAST_VERTEX."""
    order = np.argsort(-lines, kind="stable")[:_MAX_WITNESSES]
    for at in order[lines[order] > tol].tolist():
        kind, i = divmod(at, n)
        c0, g, s = line(kind, i)
        if kind % 2:
            c = c0 + int(np.argmin(s[:-1]))  # no edge starts at the last point
            d = c + _PAST_VERTEX
        else:
            d = 1 + int(np.argmax(np.maximum.accumulate(g)[:-1] - g[1:]))
            c, d = c0 + int(np.argmax(g[:d])), c0 + d
        yield kind, i, c, d, float(lines[at])


def _checked_tol(tol) -> float:
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tol must be a finite number >= 0, got %r" % tol)
    return tol


def _default_tol(disk: UnitDisk, tol):
    if tol is not None:
        return _checked_tol(tol)
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
    if len(curve) < 2:
        raise ValueError("check_increasing_chords: need at least 2 points")
    tol = _default_tol(disk, tol)
    deficit, wits = _run_two_sided(curve.points, _gauge_slopes(disk), tol)
    mode = "exact_polygonal" if disk.is_polygonal else "tolerance"
    return ChordReport(holds=deficit <= tol, max_deficit=deficit,
                       witnesses=wits, mode=mode, tol=tol)


def check_increasing_wrt_set(disk: UnitDisk, curve: Polyline, anchors,
                             tol: float | None = None) -> ChordReport:
    """Verdict for: for every anchor p, gauge(f(t) - p) is nondecreasing
    in t along the whole curve."""
    if len(curve) < 2:
        raise ValueError("check_increasing_wrt_set: need at least 2 points")
    A = np.asarray(anchors, dtype=float)
    if A.ndim == 1:
        A = A[None, :]
    if A.ndim != 2 or A.shape[1] != 2 or len(A) == 0:
        raise ValueError("check_increasing_wrt_set: anchors must be a "
                         "non-empty (m, 2) array")
    bad = np.flatnonzero(~np.isfinite(A).all(axis=1))
    if len(bad):
        raise ValueError("check_increasing_wrt_set: anchor row %d, %s, is not "
                         "finite" % (bad[0], A[bad[0]].tolist()))
    tol = _default_tol(disk, tol)
    pair_terms = _gauge_slopes(disk)
    P = curve.points
    n, m = len(P), len(A)
    # anchors are rows n.. of the point table, curve points its columns
    PT = np.ascontiguousarray(np.concatenate([P, A]).T)
    ET, gET = _edge_table(P, pair_terms)
    vdef, edef = np.empty((2, m))  # deficit per anchor
    step = max(1, _BLOCK_ELEMS // n)
    for a0 in range(0, m, step):
        a1 = min(a0 + step, m)
        g, sf, _ = _pair_terms(PT, ET, gET, pair_terms, n + a0, n + a1, 0, n,
                               reverse=False)
        vdef[a0:a1] = (np.maximum.accumulate(g, axis=1)[:, :-1] - g[:, 1:]).max(axis=1)
        edef[a0:a1] = -sf[:, :-1].min(axis=1)  # no edge starts at the last point
    lines = np.concatenate([vdef, edef])

    def line(kind, r):
        g, s, _ = _pair_terms(PT, ET, gET, pair_terms, n + r, n + r + 1, 0, n,
                              reverse=False)
        return 0, g[0], s[0]

    wits = [Witness((c, c, d, d), dfc, anchor=r)
            for _, r, c, d, dfc in _witnesses(lines, tol, m, line)]
    best = max(0.0, float(lines.max()))
    mode = "exact_polygonal" if disk.is_polygonal else "tolerance"
    return ChordReport(holds=best <= tol, max_deficit=best, witnesses=wits,
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
    n = _as_count(n, "bisector_sample: n")
    if n < 1:
        raise ValueError("bisector_sample: n must be >= 1")
    lo, hi = float(y_range[0]), float(y_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError("bisector_sample: the offset range [%.17g, %.17g] is "
                         "not finite" % (lo, hi))
    if n > 1 and lo == hi:
        raise ValueError("bisector_sample: the offset range [%.17g, %.17g] is "
                         "empty, so its %d samples would coincide" % (lo, hi, n))
    perp = np.array([-u[1], u[0]]) / math.hypot(*u)
    mid = 0.5 * (a + b)
    gu = gauge(disk, u)
    # the brackets below start within K (gauge is homogeneous) and
    # double up to 60 times, so K * 2**60 must stay finite
    K = (max(abs(lo), abs(hi)) * gauge(disk, perp) + 2.0) / gu + 2.0
    if not math.isfinite(K * 2.0 ** 60):
        raise ValueError("bisector_sample: the offset range [%.17g, %.17g] is "
                         "too wide: bracketing its roots would overflow" % (lo, hi))
    offsets = np.linspace(lo, hi, n)
    base = mid + offsets[:, None] * perp

    def phi(rows, s):
        x = base[rows] + s[:, None] * u
        return gauge_many(disk, x - a) - gauge_many(disk, x - b)

    # all lines bracket and bisect in lockstep; only the open ones move
    K = (gauge_many(disk, offsets[:, None] * perp) + 2.0) / gu + 2.0
    slo, shi = -K, K
    rows = np.arange(n)
    for _ in range(60):
        ok = (phi(rows, slo[rows]) < 0.0) & (0.0 <= phi(rows, shi[rows]))
        rows = rows[~ok]
        if not len(rows):
            break
        slo[rows] *= 2.0
        shi[rows] *= 2.0
    else:
        raise GeometryError(
            "bisector_sample: failed to bracket the root on the line at offset "
            "%.17g of the offset range [%.17g, %.17g]: at that offset "
            "gauge(x - a) - gauge(x - b) rounds away" % (offsets[rows[0]], lo, hi))
    # bisection to 1e-10 in the line parameter
    rows = np.flatnonzero(shi - slo > 1e-10 / gu)
    while len(rows):
        s0, s1 = slo[rows], shi[rows]
        smid = 0.5 * (s0 + s1)
        below = phi(rows, smid) < 0.0
        slo[rows[below]] = smid[below]
        shi[rows[~below]] = smid[~below]
        # a midpoint that rounds onto an end of its bracket moves nothing
        # (or closes it): far lines stop there, at the float spacing
        moved = (s0 < smid) & (smid < s1)
        rows = rows[moved & (shi[rows] - slo[rows] > 1e-10 / gu)]
    pts = base + 0.5 * (slo + shi)[:, None] * u
    return BisectorSample(seg=(a, b), samples=Polyline(pts))


def is_x_monotone(curve: Polyline) -> bool:
    """True when x strictly increases along every edge of the curve."""
    E = curve.edges()
    return bool(len(E) > 0 and np.all(E[:, 0] > 0.0))


def convexify(curve: Polyline) -> Polyline:
    """Rearrange the edge vectors of a strictly x-monotone curve by slope.

    Edges are sorted so their angles strictly decrease, and the endpoints
    are kept exactly.  A vertex between two edges whose angles, taken
    from the output's own points, do not strictly decrease (parallel
    edges, or edges parallel to rounding) is dropped, which merges them.
    The multiset of edge vectors is kept up to that merging, so the
    arclength in every norm is kept to rounding.  Already-sorted curves
    are returned as an identical copy.
    """
    if not is_x_monotone(curve):
        raise GeometryError("convexify: curve must be strictly x-monotone")
    P = curve.points
    E = P[1:] - P[:-1]
    ang = np.arctan2(E[:, 1], E[:, 0])
    d = np.diff(ang)
    if np.all(d < 0) or len(E) == 1:
        return Polyline(P.copy())
    order = np.argsort(-ang, kind="stable")
    Q = np.concatenate([P[:1], P[0] + np.cumsum(E[order], axis=0)])
    Q[-1] = P[-1]
    while True:
        F = Q[1:] - Q[:-1]
        a = np.arctan2(F[:, 1], F[:, 0])
        keep = np.concatenate([[True], a[:-1] > a[1:], [True]])
        if keep.all():
            return Polyline(Q)
        Q = Q[keep]
