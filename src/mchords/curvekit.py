"""Polyline curves and the increasing chord property.

The chord checker uses the two-sided reduction: a curve has increasing
chords (a <= b <= c <= d on the curve implies ||a-d|| >= ||b-c||) exactly
when for all parameters i < j < k both gauge(f_i - f_k) >= gauge(f_i - f_j)
and gauge(f_i - f_k) >= gauge(f_j - f_k) hold.  Vertices are checked
pairwise; edge interiors are covered by a one-sided derivative test at
every edge start, sound because the gauge of an affine path is convex.

One kernel serves both halves: per pair of points it takes the gauge and
both edge slopes from one callback of the norm, so the d-dimensional
Chebyshev module reuses it.  A check builds its tables once (_tables),
gathers every pair it evaluates by _terms_at and reports once; points so
far apart that a gauge could overflow are refused (GeometryError).

On a planar curve a certificate runs first (_run_certified).  The gauge
is linear on each cone of the disk, so a box that holds every difference
of two blocks of points bounds all their edge slopes at once; a row or
column of pairs whose slopes are all proved positive cannot raise the
deficit and is skipped.  The rest go through the same kernel terms, so
the verdict, deficit and witnesses are those of the plain scan
(_plain_scan), bit for bit; a curve the certificate cannot help takes
the plain scan on the same tables.  Where the curve's chords grow
everywhere (the extremal Reuleaux chains) the work is a few percent of
all pairs.  The Euclidean case of the bound is the half-plane
characterisation of self-approaching curves (Icking, Klein and
Langetepe, 1999).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GeometryError, UnsupportedDiskError
from .normplane import (TWO_PI, UnitDisk, as_vec, gauge, gauge_many, _as_count,
                        _gauge_slopes)

_BLOCK_ELEMS = 1 << 16  # pairs per row block of the chord kernel, at most
_BLOCK_ROWS = 32  # rows per block, at most: a block discards B^2 / 2 pairs h <= l
_PAST_VERTEX = 1e-6  # witness notation: j + 1e-6 is a point just past vertex j
_MAX_WITNESSES = 16
_CERT_BLOCKS = (32, 8)  # points per block of the chord certificate, by level
_CERT_PAD = 1e-13  # radians added to each end of a box's angular range
_CERT_WIDE = 0.9 * math.pi  # wider boxes prove nothing: the bound needs arcs under pi
_CERT_ULPS = 256  # the certificate's margin, in eps * D * G (_run_certified)
_CERT_SHARE = 0.5  # the certificate's exact work, at most, as a share of all pairs


class Polyline:
    """Open ordered point sequence; the curve representation used throughout.

    points is an (n, 2) read-only float array.
    """

    __slots__ = ("points",)

    def __init__(self, points, *, _scale=None):
        """Consecutive points at most 1e-12 _scale apart are refused as
        coincident; _scale is max(1, largest coordinate) by default."""
        P = np.array(points, dtype=float)
        if P.ndim != 2 or P.shape[1] != 2 or len(P) < 1:
            raise ValueError("Polyline: need an (n, 2) array with n >= 1")
        if not np.all(np.isfinite(P)):
            raise ValueError("Polyline: non-finite coordinates")
        scale = max(1.0, float(np.abs(P).max())) if _scale is None else _scale
        if len(P) > 1:
            with np.errstate(over="ignore"):  # an infinite step does not coincide
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

def _tables(P, pair_terms, anchors=None):
    """The tables every chord scan reads, for the curve P of shape (n, d):
    PT, its points component first, then the anchors, if given, as
    columns n, n + 1, ...; ET, with ET[:, k + 1] = E_k and zeros where
    no edge is; and gET, the gauges of ET's columns."""
    n = len(P)
    PT = np.ascontiguousarray((P if anchors is None else np.concatenate([P, anchors])).T)
    ET = np.zeros((P.shape[1], n + 1))
    ET[:, 1:n] = PT[:, 1:n] - PT[:, :n - 1]
    return PT, ET, pair_terms(ET[:, None, :], None, None)[0][0]


def _terms_at(PT, ET, gET, pair_terms, L, H, reverse=True):
    """gauge(w) and its right derivatives along E_h and, if `reverse`,
    along E_(l-1) (else None) at the pairs (l, h) of the index arrays L
    and H, which broadcast to one shape, w = P_h - P_l; see _tables.

    The norm's callback pair_terms(W, Ef, Er) takes W component first,
    (dim, ...), and edges that broadcast against it, or None for a
    derivative not needed.  At w = 0 the derivative along e is gauge(e).
    """
    W = PT.take(H, axis=1) - PT.take(L, axis=1)  # C-ordered, unlike PT[:, H]: faster
    g, sf, sr = pair_terms(W, ET.take(H + 1, axis=1), ET.take(L, axis=1) if reverse else None)
    zero = g == 0.0
    if zero.any():  # rare, and np.nonzero of a 2-d mask is slow
        L, H = np.broadcast_arrays(L, H)
        at = np.nonzero(zero)
        at = tuple(i[(PT[:, H[at]] == PT[:, L[at]]).all(axis=0)] for i in at)
        sf[at] = gET[H[at] + 1]
        if reverse:
            sr[at] = gET[L[at]]
    return g, sf, sr


def _plain_scan(PT, ET, gET, pair_terms):
    """(fv, fe, rv, re): both halves of the reduction on every pair of an
    open polyline, deficits per forward row and per reversed column.

    Each pair l < h is evaluated once: gauge(w) serves the vertex scans of
    both halves (gauge(-w) = gauge(w)), the slope along E_h the forward
    edge test at anchor l, the slope along E_{l-1} the reversed one at h.
    Row blocks go bottom up; a reversed scan runs up a column and carries
    a running max or min per column, so memory is O(block + n).
    """
    n = PT.shape[1]
    gE = gET[1:n]
    fv, fe, rv, re = lines = np.full((4, n), -np.inf)
    # per column: max gauge, min reversed slope over the rows done so far
    top, low = np.full(n, -np.inf), np.full(n, np.inf)
    step = max(1, min(_BLOCK_ELEMS // n, _BLOCK_ROWS))
    for l1 in range(n - 1, 0, -step):
        l0 = max(0, l1 - step)
        B = l1 - l0
        g, sf, sr = _terms_at(PT, ET, gET, pair_terms, np.arange(l0, l1)[:, None],
                              np.arange(l0 + 1, n)[None, :])
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
    return lines


def _run_two_sided(P: np.ndarray, pair_terms, tol: float):
    """(max_deficit, witnesses) of the two-sided reduction on every pair
    of an open polyline P of shape (n, d); pair_terms as in _terms_at."""
    tables = _tables(P, pair_terms)
    return _two_sided_report(*tables, pair_terms, *_plain_scan(*tables, pair_terms), tol)


def _two_sided_report(PT, ET, gET, pair_terms, fv, fe, rv, re, tol):
    """max_deficit and witnesses from the four line arrays of a two-sided
    check: deficits per forward row and per reversed column.  Column h
    of a reversed scan is row n - 1 - h of the reversed curve, the order
    in which _witnesses ranks and places it."""
    n = len(fv)
    lines = np.concatenate([fv, fe, rv[::-1], re[::-1]])

    def line(kind, i):
        if kind < 2:
            g, s, _ = _terms_at(PT, ET, gET, pair_terms, np.array([[i]]),
                                np.arange(i, n)[None, :], reverse=False)
            return i, g[0], s[0]
        h = n - 1 - i  # column h, read upward, is row i of the reversed curve
        g, _, s = _terms_at(PT, ET, gET, pair_terms, np.arange(h + 1)[:, None],
                            np.array([[h]]))
        return i, g[::-1, 0], s[::-1, 0]

    wits = [Witness((i, i, c, d) if kind < 2 else
                    (n - 1 - d, n - 1 - c, n - 1 - i, n - 1 - i), dfc)
            for kind, i, c, d, dfc in _witnesses(lines, tol, n, line)]
    return max(0.0, float(lines.max())), wits


def _unproved_blocks(P, ET, terms, b, A, B, margin):
    """The pairs (A, B) of blocks of b points, A <= B, whose slopes the
    bound does not prove above margin, by the cone lookup and gradients
    of terms, the disk's _Slopes; see _run_certified."""
    n = len(P)
    starts = np.arange(0, n, b)
    nb = len(starts)
    lo, hi = np.minimum.reduceat(P, starts), np.maximum.reduceat(P, starts)
    # per block, entry (i, B): the edge along which point i of block B is
    # left (E_h, forward) and reached (E_(l-1), reversed), as columns of
    # ET; where there is none, a neighbour's, which can only fail a pair
    at = np.arange(nb * b).reshape(nb, b).T
    edges = [ET[:, k] for k in (np.minimum(at, n - 2) + 1, np.clip(at, 1, n - 1))]
    out = []
    step = max(1, _BLOCK_ELEMS // b)
    for k in range(0, len(A), step):
        a, c = A[k:k + step], B[k:k + step]
        x0, y0 = (lo[c] - hi[a]).T  # the box of the differences P_h - P_l
        x1, y1 = (hi[c] - lo[a]).T
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        xs, ys = np.stack([x0, x1, x0, x1]), np.stack([y0, y0, y1, y1])
        turn = np.arctan2(cx * ys - cy * xs, cx * xs + cy * ys)  # from the centre
        mid = np.arctan2(cy, cx)
        t0 = mid + turn.min(axis=0) - _CERT_PAD
        t1 = mid + turn.max(axis=0) + _CERT_PAD
        j0, j1 = (terms.cone(terms.a0 + np.mod(t - terms.a0, TWO_PI)) for t in (t0, t1))
        proved = ((x0 > 0.0) | (x1 < 0.0) | (y0 > 0.0) | (y1 < 0.0)) & (t1 - t0 < _CERT_WIDE)
        gx0, gy0, gx1, gy1 = terms.gx[j0], terms.gy[j0], terms.gx[j1], terms.gy[j1]
        for (ex, ey), blk in zip(edges, (c, a)):
            ex, ey = ex[:, blk], ey[:, blk]
            proved &= ((gx0 * ex + gy0 * ey >= margin)
                       & (gx1 * ex + gy1 * ey >= margin)).all(axis=0)
        out.append((a[~proved], c[~proved]))
    return tuple(np.concatenate(x) for x in zip(*out))


def _exact_blocks(PT, ET, gET, pair_terms, b, A, B, row_bad, col_bad):
    """Mark in row_bad and col_bad the rows and columns with a slope below
    0 or a step down in gauge, at the pairs (A, B) of blocks of b points,
    from their exact terms; the number of pairs evaluated.  Rows a0 - 1
    .. a1 - 1 and columns b0 .. b1 are taken, one more each way for the
    steps across the blocks' edges."""
    n = PT.shape[1]
    pairs = 0
    step = max(1, _BLOCK_ELEMS // (b + 1) ** 2)
    for k in range(0, len(A), step):
        a, c = A[k:k + step], B[k:k + step]
        R = a[:, None] * b - 1 + np.arange(b + 1)
        C = c[:, None] * b + np.arange(b + 1)
        g, sf, sr = _terms_at(PT, ET, gET, pair_terms, np.clip(R, 0, n - 1)[:, :, None],
                              np.minimum(C, n - 1)[:, None, :])
        pairs += g.size
        l, h = np.broadcast_arrays(R[:, 1:, None], C[:, None, :-1])
        gl = g[:, 1:, :-1]
        bad = (l < h) & (h <= n - 2) & ((sf[:, 1:, :-1] < 0.0) | (g[:, 1:, 1:] < gl))
        row_bad[l[bad]] = True
        bad = (1 <= l) & (l < h) & (h < n) & ((sr[:, 1:, :-1] < 0.0) | (g[:, :-1, :-1] < gl))
        col_bad[h[bad]] = True
    return pairs


def _chunks(idx, n):
    """idx in runs of at most _BLOCK_ELEMS // n entries, in order."""
    step = max(1, _BLOCK_ELEMS // n)
    return [idx[k:k + step] for k in range(0, len(idx), step)]


def _scan_lines(PT, ET, gET, pair_terms, idx, v, e, forward):
    """v and e, _plain_scan's vertex and edge deficits, of the given
    forward rows or, if not `forward`, reversed columns; the number of
    pairs evaluated."""
    n, pairs = PT.shape[1], 0
    for chunk in _chunks(idx, n):
        if forward:  # row l, from column l + 1 on
            L, H = chunk[:, None], np.arange(int(chunk[0]) + 1, n)[None, :]
            g, s, _ = _terms_at(PT, ET, gET, pair_terms, L, H, reverse=False)
        else:  # column h, from row h - 1 down
            L, H = np.arange(int(chunk[-1]) - 1, -1, -1)[None, :], chunk[:, None]
            g, _, s = _terms_at(PT, ET, gET, pair_terms, L, H)
        dead = L >= H
        run = np.maximum.accumulate(np.where(dead, -np.inf, g), axis=1)
        v[chunk] = (run[:, :-1] - g[:, 1:]).max(axis=1, initial=-np.inf)
        # no edge starts at the last point, nor ends at the first; the
        # line's own edge is E_l forward, E_(h-1) reversed
        s = np.where(dead, np.inf, s)[:, :-1]
        e[chunk] = -np.minimum(gET[chunk + int(forward)], s.min(axis=1, initial=np.inf))
        pairs += g.size
    return pairs


def _certified_lines(P, PT, ET, gET, pair_terms, share):
    """(fv, fe, rv, re) of _plain_scan, with -inf on the lines the
    certificate proves, and the number of pairs evaluated; None for the
    lines once the exact work would pass `share` pairs."""
    n = len(P)
    D = math.hypot(*np.ptp(P, axis=0))
    if not math.isfinite(2.0 * D * D):  # the box arithmetic of _unproved_blocks
        return None, 0
    margin = (_CERT_ULPS * np.finfo(float).eps * D
              * float(np.hypot(pair_terms.gx, pair_terms.gy).max()))
    A, B = np.triu_indices(-(-n // _CERT_BLOCKS[0]))
    for b, sub in zip(_CERT_BLOCKS, _CERT_BLOCKS[1:] + (0,)):
        A, B = _unproved_blocks(P, ET, pair_terms, b, A, B, margin)
        if len(A) * b * b > share:
            return None, 0
        if sub:  # the pairs of sub-blocks of the pairs left
            k = b // sub
            A = (A[:, None] * k + np.arange(k))[:, :, None]
            B = (B[:, None] * k + np.arange(k))[:, None, :]
            A, B = (x[(A <= B) & (B < -(-n // sub))] for x in np.broadcast_arrays(A, B))
    row_bad, col_bad = np.zeros((2, n), dtype=bool)
    pairs = _exact_blocks(PT, ET, gET, pair_terms, b, A, B, row_bad, col_bad)
    rows, cols = np.flatnonzero(row_bad), np.flatnonzero(col_bad)
    if (n - 1 - rows).sum() + cols.sum() > share:
        return None, pairs
    fv, fe, rv, re = lines = np.full((4, n), -np.inf)
    pairs += _scan_lines(PT, ET, gET, pair_terms, rows, fv, fe, True)
    pairs += _scan_lines(PT, ET, gET, pair_terms, cols, rv, re, False)
    return lines, pairs


def _run_certified(P: np.ndarray, pair_terms, tol: float):
    """_run_two_sided on a planar curve, skipping the rows and columns that
    a certificate proves: the same max_deficit and witnesses, bit for bit,
    and the number of pairs evaluated through the callback.  pair_terms
    is the disk's _Slopes.  A curve on which the certificate would
    evaluate more than _CERT_SHARE of all pairs, or whose box products (up
    to 2 D^2, D below) would overflow, takes _plain_scan on the same tables.

    The bound.  On cone j of the disk the gauge is <a_j, w>, a_j its
    gradient, and its right slope along e at w is the largest <a_j, e>
    over the cones holding w.  Cut the curve into blocks of b points.
    For blocks A <= B, every difference w = P_h - P_l (l in A, h in B)
    lies in the box B - A; float subtraction is monotone, so the float
    differences do too.  When the box misses the origin its directions
    fill an arc, narrower than pi, between two of its corners; the cones
    meeting that arc, padded by _CERT_PAD against rounding, are a run
    J = j0 .. j1 of the disk's cones.  Around the polar polygon <a_j, e>
    is bitonic, least on the cone of -e, so over J it is least at j0 or
    j1 unless J holds the cone of -e.  That case needs no test: the
    cones where <a_j, e> <= 0 fill an arc of at least pi (from a support
    point of normal perpendicular to e to its antipode), and a run whose
    own arc is under _CERT_WIDE < pi cannot hold it and reach past both
    its ends, so an end of J has <a_j, e> <= 0 and fails the margin.
    So min(<a_j0, E>, <a_j1, E>) >= margin for every edge E_h of B and
    E_(l-1) of A proves every forward and reversed slope of the block
    pair.  Pairs not proved are split into blocks of the next size in
    _CERT_BLOCKS and bounded again; the last are evaluated exactly
    (_exact_blocks).

    The lines.  The gauge along an edge is convex, so a proved slope
    makes the gauge grow over the whole edge.  A row l whose slopes are
    all proved, or, where evaluated, are >= 0 with gauge(P_(h+1) - P_l)
    >= gauge(P_h - P_l) in floats, has a nondecreasing float gauge: its
    vertex line (running max less the next value) and its edge line are
    <= 0, as are a column's.  Such lines change neither max(0,
    lines.max()) nor the witnesses, which come from lines above tol >=
    0, and are left at -inf.  Every other row and column is scanned in
    full by the kernel's terms, which are elementwise, so the floats are
    those of the plain kernel.

    The margin is _CERT_ULPS eps D G: D the diagonal of the curve's
    bounding box (|w|, |E| <= D), G the largest |a_j| (the gauge's
    Lipschitz constant), u = eps / 2.  A float slope <a_j, E> errs by
    at most 3 u G |E|, and the float edge by u |E|.  A float angle errs
    by at most 2.5e-15 (about 23 u), well inside the padding, and puts w
    at worst in a cone whose functional is below the gauge by 2 G |w|
    23 u; with the rounded difference (u G |w|) and the formula (4 u G
    |w|), a float gauge errs by at most 51 u G D.  A proved slope thus
    gives an exact increment of at least margin - 4 u G D and a float
    one of at least margin - 106 u G D, which is positive with 256 eps
    = 512 u.
    """
    n, b = len(P), _CERT_BLOCKS[0]
    share = _CERT_SHARE * n * (n - 1) / 2
    tables = _tables(P, pair_terms)
    lines, pairs = None, 0
    if -(-n // b) * b * b <= share:  # the blocks along the diagonal, exactly
        lines, pairs = _certified_lines(P, *tables, pair_terms, share)
    if lines is None:
        lines, pairs = _plain_scan(*tables, pair_terms), pairs + n * (n - 1) // 2
    return _two_sided_report(*tables, pair_terms, *lines, tol) + (pairs,)


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


def _check_extent(what, points, reach):
    """Refuse points whose chord scan could overflow: D reach must be
    finite, D the diagonal of their bounding box and reach the largest
    factor by which the norm's callback multiplies a difference."""
    with np.errstate(over="ignore"):
        D = math.hypot(*np.ptp(points, axis=0))
    if not math.isfinite(D * reach):
        raise GeometryError("%s: the points span %.17g; their gauges would overflow" % (what, D))


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
    terms = _gauge_slopes(disk)
    _check_extent("check_increasing_chords", curve.points, terms.reach)
    deficit, wits, _ = _run_certified(curve.points, terms, tol)
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
    _check_extent("check_increasing_wrt_set", np.concatenate([P, A]), pair_terms.reach)
    n, m = len(P), len(A)
    # anchors are rows n.. of the point table, curve points its columns
    tables = _tables(P, pair_terms, A)
    H = np.arange(n)[None, :]
    vdef, edef = lines = np.empty((2, m))  # deficit per anchor
    for rows in _chunks(np.arange(m), n):
        g, sf, _ = _terms_at(*tables, pair_terms, n + rows[:, None], H, reverse=False)
        vdef[rows] = (np.maximum.accumulate(g, axis=1)[:, :-1] - g[:, 1:]).max(axis=1)
        edef[rows] = -sf[:, :-1].min(axis=1)  # no edge starts at the last point

    def line(kind, r):
        g, s, _ = _terms_at(*tables, pair_terms, np.array([[n + r]]), H, reverse=False)
        return 0, g[0], s[0]

    wits = [Witness((c, c, d, d), dfc, anchor=r)
            for _, r, c, d, dfc in _witnesses(lines.ravel(), tol, m, line)]
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
    are returned as an identical copy.  The output's steps are measured
    against the input's scale: the rearranged curve can reach larger
    coordinates, and an edge the input's rule accepted stays accepted.
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
            return Polyline(Q, _scale=max(1.0, float(np.abs(P).max())))
        Q = Q[keep]
