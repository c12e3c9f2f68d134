"""Chord-length bounds from arcs of the unit circle.

For a norm disk M and points p, q with gauge(q - p) = 1, the quantity
of interest is half the M-perimeter of the lens (p + M) Intersect (q + M):
it bounds the M-length of every curve from p to q with increasing
chords, and is attained by two sides of a Reuleaux triangle.  Every such
object is bounded by arcs of the boundary of M (or of a translate)
between points at unit distance; one corner solver finds those points
and one arc helper cuts the arcs.  This module builds the lens, its
perimeter profile over directions, inscribed affinely regular hexagons,
Reuleaux triangles, and a derivative-free search for the disk
maximizing the worst direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .normplane import (ConvexBody, UnitDisk, as_vec, gauge, gauge_many,
                        unit_vectors, locate_on_boundary, _as_count, _cross,
                        _gauge_slopes, _shift, _Stack, _vertices_of, _wedge_of)


@dataclass(frozen=True)
class LmProfile:
    """Half-lens-perimeter values over a set of chord directions.

    lm is concave along each edge of the boundary, so it is least at a
    vertex direction.  On an exact polygon (is_polygonal) the sweep
    holds every vertex direction and min is exact.  On a sampled disk
    min is an upper bound on the least value over all directions.  max
    is a lower bound on the largest value, which may lie between the
    swept directions.
    """
    directions: np.ndarray
    values: np.ndarray
    min: float
    argmin: float
    max: float
    argmax: float


@dataclass(frozen=True)
class Hexagon:
    """Affinely regular hexagon inscribed in the unit disk.

    vertices are (v, w, w-v, -v, -w, v-w) in CCW order, all of gauge 1.
    q_unique records whether the second vertex was the only root of the
    defining distance equation (it is not when the disk boundary contains
    long parallel segments).
    """
    vertices: np.ndarray
    q_unique: bool = True


@dataclass(frozen=True)
class DiskFamilyParams:
    """Search-space point: the k half-vertices of a mirrored 2k-gon, in
    CCW order over half a turn, the rest being their negations.

    radii and angles are the half-vertices' polar coordinates, the radii
    scaled so that the largest is exactly 1.  The half-vertices come from
    k edge vectors (_family_rings; _family_params builds one point), so
    the disk is convex by construction.
    """
    vertices: np.ndarray

    @property
    def k(self) -> int:
        return len(self.vertices)

    @property
    def radii(self) -> np.ndarray:
        r = np.hypot(self.vertices[:, 0], self.vertices[:, 1])
        return r / r.max()

    @property
    def angles(self) -> np.ndarray:
        return np.arctan2(self.vertices[:, 1], self.vertices[:, 0])

    def disk(self) -> UnitDisk:
        return UnitDisk.polygon(np.concatenate([self.vertices, -self.vertices]))


@dataclass(frozen=True)
class MaxMinResult:
    """Best disk found by maxmin_search."""
    params: DiskFamilyParams
    objective: float
    evaluations: int
    disk: UnitDisk

    def __repr__(self):
        return "MaxMinResult(k=%d, objective=%.6f, evaluations=%d)" % (
            self.params.k, self.objective, self.evaluations)


# -- boundary arcs and the corner solver ----------------------------------

_SCAN = 1 << 14  # rows * vertices up to which _corners scans whole tables


def _corners(T: _Stack, U: np.ndarray, W: np.ndarray) -> np.ndarray:
    """For each row U on the boundary of its disk M in the stack T and
    each row W, the first boundary point x CCW from U with gauge(x - W) = 1.

    Callers pass W = c U with 0 < c < 2, so gauge(U - W) = |1 - c| < 1,
    while the last candidate vertex, -V[j] with U on edge j, lies at
    gauge distance 1 + c from W.  The corner lies on the segment from
    prev to the first of V[j+1], ..., V[j+n/2] at distance >= 1 (prev is
    the vertex before it, or U), where a = prev - W leaves M along
    d = V - prev: at t* = min (1 - <a, g>) / <d, g> over the facet
    functionals g with <d, g> > 0.  Every facet has <x, g> <= gauge(x),
    so its ratio is >= t*, attained by the facet of the cone holding the
    exit point.

    Tables of up to _SCAN entries, about where the two paths cost the
    same, are scanned whole: the bracket (every candidate vertex) when
    rows times vertices times disks stay within it, the cut (every facet)
    when each disk's own rows times vertices do.  The bracket counts the
    disks again because a stack's cone lookup searches the keys of all
    of them, which makes its scan dearer per entry.  That takes the
    single-row calls, the sweeps of small polygons and the cuts of
    maxmin_search's stacks.  Larger tables, such as fine disks' sweeps
    and large stacks' brackets, search, in O(log n) steps per row:

    - the bracket.  By the monotonicity lemma of Minkowski geometry the
      distance from U grows as a point moves along the boundary towards
      -U, and with W = c U too gauge(V[j+1+i] - W) does not decrease in
      i (the tests check both), so the first vertex at distance >= 1 is
      found by bisection;
    - the cut.  The segment a -> a + d crosses the vertex rays between
      the cones of a and of a + d in order, turning the way of the sign
      of a x d (negative when c > 1; a = 0 has the one cone of a + d).
      A crossed vertex lies on the origin's side of the segment's line
      exactly when the crossing comes after the exit, so a second
      bisection finds the exit cone.  Its facet and its two neighbours
      are cut: the neighbours cover a ray test that rounding turns the
      wrong way when the exit is a vertex.

    The two paths agree to rounding, except where a flat stretch of the
    boundary lies at distance 1 from W: rounding then decides which of
    its points is "first", and the paths may return different ones.  A
    disk's rows are cut in a stack as alone; their bracket may take the
    other path, which found the same vertex in every test, flat
    stretches included, so a disk scores the same bits in a stack.
    """
    V, n = T.V, T.n
    base = T.rows(len(U))
    j = T.cone(*U.T, base)
    if len(U) * n * T.B <= _SCAN:
        idx = base[:, None] + (j[:, None] + 1 + np.arange(n // 2)) % n
        lo = np.argmax(T.gauge(V[idx] - W[:, None, :], base[:, None]) >= 1.0, axis=1)
    else:
        lo = _bisect(np.full_like(j, n // 2 - 1),
                     lambda i: T.gauge(V[base + (j + 1 + i) % n] - W, base) >= 1.0)
    prev = np.where((lo == 0)[:, None], U, V[base + (j + lo) % n])
    d = V[base + (j + 1 + lo) % n] - prev
    if len(U) // T.B * n <= _SCAN:
        return _cut_all(T, prev, d, W)
    a = prev - W
    jb = T.cone(*(a + d).T, base)
    ja = np.where((a == 0.0).all(axis=1), jb, T.cone(*a.T, base))
    s = np.where(_cross(a, d) < 0.0, -1, 1)
    # rays crossed in order: vertex ja + 1 + i CCW, ja - i CW; the first
    # on the origin's side (i = L for none) ends the exit cone
    ex = _bisect(s * (jb - ja) % n,
                 lambda i: s * _cross(d, V[base + (ja + s * i + (s > 0)) % n] - a) > 0.0)
    g = T.grad[base[:, None] + ((ja + s * ex)[:, None] + np.array([-1, 0, 1])) % n]
    return _cut(prev, d, np.einsum("ij,ikj->ik", d, g),
                1.0 - np.einsum("ij,ikj->ik", a, g))


def _bisect(hi: np.ndarray, test) -> np.ndarray:
    """The least i in [0, hi] of each row with test(i) true, or hi when
    none below it passes, by bisection: test must be monotone in i."""
    lo = np.zeros_like(hi)
    for _ in range(int(hi.max()).bit_length()):
        mid = (lo + hi) >> 1
        past = test(mid)
        hi = np.where(past, mid, hi)
        lo = np.where(past, lo, np.minimum(mid + 1, hi))
    return lo


def _cut_all(T: _Stack, prev, d, W):
    """_cut of each row by every facet of its disk in the stack T: the
    rows (m, 2) as (B, m / B, 2) against the (B, 2, n) gradients."""
    # leave M from prev - W along d: gauge(w) = max_j <w, grad_j>
    gT = T.grad.reshape(T.B, T.n, 2).swapaxes(1, 2)
    prev, d, W = (x.reshape(T.B, -1, 2) for x in (prev, d, W))
    return _cut(prev, d, d @ gT, 1.0 - (prev - W) @ gT).reshape(-1, 2)


def _cut(prev, d, den, num):
    """prev + t d with t the least ratio num / den over the facets (last
    axis) with den > 0, clipped to [0, 1]: where prev - W + t d leaves M,
    given den = <d, g> and num = 1 - <prev - W, g> for facet functionals g."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(den > 0.0, num / den, np.inf).min(axis=-1)
    return prev + np.clip(t, 0.0, 1.0)[..., None] * d


def _arc(disk: UnitDisk, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The CCW boundary arc of M from a to b (both on it, b less than a
    full turn on): a, the vertices in between, b.  Vertices closer than
    1e-12 * scale to a neighbour are dropped, so a and b stay exact."""
    V = disk.vertices
    n = len(V)
    ja, jb = _wedge_of(disk, *np.array([a, b]).T)
    P = np.concatenate([a[None, :], V[(ja + 1 + np.arange((jb - ja) % n)) % n],
                        b[None, :]])
    far = np.hypot(*np.diff(P, axis=0).T) > 1e-12 * max(1.0, float(np.abs(V).max()))
    keep = np.ones(len(P), dtype=bool)
    keep[1:-1] = far[:-1] & far[1:]
    return P[keep]


def _lens_corners(disk: UnitDisk, w: np.ndarray, d: float):
    """(x_plus, x_minus) of the lens M Intersect (w + M), gauge(w) = d in
    (0, 2): the lens is symmetric about w/2, and x_plus is the first
    boundary point CCW from w/d at gauge distance 1 from w."""
    x_plus = _corners(disk._T, (w / d)[None, :], w[None, :])[0]
    return x_plus, w - x_plus


def intersect_translates(disk: UnitDisk, p, q) -> ConvexBody:
    """Intersection of the translates p + M and q + M as a convex body.

    Its boundary is the arc A of the boundary of p + M between the two
    crossing points, then the reflected arc p + q - A of q + M; for
    polygonal disks the vertices are translate vertices plus the two
    exact crossings.
    """
    p = as_vec(p)
    q = as_vec(q)
    w = q - p
    d = gauge(disk, w)
    if d >= 2.0 - 1e-12:
        raise GeometryError(
            "translates at gauge distance %.17g do not overlap in a "
            "two-dimensional body" % d)
    if d <= 1e-14:
        return ConvexBody(disk.vertices + p, exact_polygon=disk.is_polygonal)
    x_plus, x_minus = _lens_corners(disk, w, d)
    A = _arc(disk, x_minus, x_plus)
    ring = np.concatenate([A, (w - A)[1:-1]])
    return ConvexBody(p + ring, exact_polygon=disk.is_polygonal)


def lens_corners(disk: UnitDisk, p, q):
    """The two points where the translate boundaries cross, as
    (x_plus, x_minus) relative to the oriented chord p -> q.  Both lie at
    gauge distance 1 from each of p and q when gauge(q - p) = 1."""
    p = as_vec(p)
    q = as_vec(q)
    d = gauge(disk, q - p)
    if d >= 2.0 - 1e-12 or d <= 1e-14:
        raise GeometryError("lens corners undefined at gauge distance %.17g" % d)
    x_plus, x_minus = _lens_corners(disk, q - p, d)
    return p + x_plus, p + x_minus


# -- perimeter and the lens profile ---------------------------------------

def perimeter(disk: UnitDisk, body) -> float:
    """M-perimeter of a convex body: sum of edge-vector gauges."""
    V = _vertices_of(body)
    if len(V) < 3:
        raise GeometryError("perimeter: need at least 3 boundary points")
    E = _shift(V) - V
    return float(gauge_many(disk, E).sum())


def _lm_at(T: _Stack, q: np.ndarray) -> np.ndarray:
    """lm for each row q on the boundary of its disk M in the stack T,
    from the boundary arc.

    The lens M Intersect (q + M) is symmetric about q/2, so half its
    perimeter is the M-length of the CCW arc of the boundary of M from
    x_minus = q - x_plus to x_plus, with x_plus = _corners(q, q).  The
    arc length from vertex 0 to a point in cone j is the edge gauges
    summed up to vertex j plus the point's fraction of edge j's gauge
    (T.arcs()).
    """
    V, E, B = T.V, T.E, T.B
    W, start, total = T.arcs()
    base = T.rows(len(q))
    x_plus = _corners(T, q, q)

    def arc_pos(x):
        J = base + T.cone(*x.T, base)
        s = np.einsum("ij,ij->i", x - V[J], E[J]) / np.einsum("ij,ij->i", E[J], E[J])
        return start[J] + s * W[J]

    return np.mod(arc_pos(x_plus) - arc_pos(q - x_plus), total.repeat(len(q) // B))


def _min_lm(disk: UnitDisk) -> float:
    """The exact minimum of lm over all directions of a polygonal disk.

    The lens perimeter is concave in q along every edge of the boundary
    (the lens at a convex combination of q0 and q1 contains the same
    combination of their lenses), so its minimum sits at a vertex.  lm(q)
    = lm(-q), so half the vertices do: the ring must be stored exactly
    symmetric, V[i + n/2] = -V[i], as the disks built from a half and its
    negation are.  On a sampled disk this is the minimum over the samples,
    which may lie below the smooth body's.
    """
    return float(_least_lm(disk._T)[0])


def _min_lm_many(rings) -> np.ndarray:
    """_min_lm of the disk on each ring of a (B, n, 2) stack, in one _lm_at
    pass over the first halves of the _Stack of the rings, which validates
    every ring as UnitDisk.polygon does and builds no UnitDisk.  A disk's
    value does not depend on the stack it is scored in, and equals _min_lm
    of UnitDisk.polygon(ring) bit for bit."""
    return _least_lm(_Stack(rings))


def _least_lm(T: _Stack) -> np.ndarray:
    """The least lm over the vertex directions of each disk in T, whose
    rings must be exactly symmetric."""
    V = T.V.reshape(T.B, T.n, 2)
    h = T.n // 2
    if not np.array_equal(V[:, h:], -V[:, :h]):
        raise GeometryError("_min_lm: a ring is not exactly symmetric")
    return _lm_at(T, V[:, :h].reshape(-1, 2)).reshape(T.B, h).min(axis=1)


def lm(disk: UnitDisk, direction: float) -> float:
    """Half the M-perimeter of M Intersect (q + M) with q the unit vector
    of the given direction."""
    direction = float(direction)
    if not math.isfinite(direction):
        raise ValueError("lm: direction must be finite, got %r" % direction)
    return float(_lm_at(disk._T, unit_vectors(disk, np.array([direction])))[0])


def lm_sweep(disk: UnitDisk, n: int) -> LmProfile:
    """Profile of lm over n equally spaced directions in [0, pi); for
    polygonal disks the vertex directions are swept as well."""
    n = _as_count(n, "lm_sweep: n")
    if n < 4:
        raise ValueError("lm_sweep: need n >= 4 directions")
    dirs = np.arange(n) * (math.pi / n)
    if disk.is_polygonal:
        V = disk.vertices
        va = np.mod(np.arctan2(V[:, 1], V[:, 0]), math.pi)
        dirs = np.unique(np.concatenate([dirs, va]))
        dirs = dirs[np.concatenate([[True], np.diff(dirs) > 1e-12])]
    vals = _lm_at(disk._T, unit_vectors(disk, dirs))
    i0 = int(np.argmin(vals))
    i1 = int(np.argmax(vals))
    return LmProfile(directions=dirs, values=vals,
                     min=float(vals[i0]), argmin=float(dirs[i0]),
                     max=float(vals[i1]), argmax=float(dirs[i1]))


# -- inscribed hexagons and Reuleaux triangles ----------------------------

def inscribed_hexagon(disk: UnitDisk, p) -> Hexagon:
    """Affinely regular hexagon inscribed in the disk with p as a vertex.

    The second vertex q is the first boundary point CCW from p at gauge
    distance 1 from p; the remaining vertices follow from the symmetry
    (p, q, q-p, -p, -q, p-q).  q_unique is False when gauge(. - p) stays 1
    along a stretch of the boundary through q (parallel flat pieces).
    """
    p = locate_on_boundary(disk.vertices, p, "inscribed_hexagon: p")[2]
    q = _corners(disk._T, p[None, :], p[None, :])[0]
    # Unique when gauge(. - p) grows along the boundary through q: it rises
    # into q in exact arithmetic, but rounding can put q inside a flat
    # stretch, so both sides are tested, on the edges q arrives and leaves
    # by (a vertex may fall in either wedge), by the one-sided slopes of
    # the chord kernel.
    V = disk.vertices
    n = len(V)
    tiny = 1e-12 * max(1.0, float(np.abs(V).max()))
    j = int(_wedge_of(disk, *q[:, None])[0])
    if math.hypot(*(V[(j + 1) % n] - q)) <= tiny:
        j = (j + 1) % n
    e_out = disk._T.E[j]
    e_in = disk._T.E[j - 1] if math.hypot(*(V[j] - q)) <= tiny else e_out
    _, s_out, s_back = _gauge_slopes(disk)((q - p)[:, None], e_out[:, None],
                                           -e_in[:, None])
    unique = (s_out[0] > 1e-12 * max(1.0, math.hypot(*e_out))
              and -s_back[0] > 1e-12 * max(1.0, math.hypot(*e_in)))
    verts = np.array([p, q, q - p, -p, -q, p - q])
    g = gauge_many(disk, verts)
    if np.abs(g - 1.0).max() > 1e-8:
        raise GeometryError("inscribed_hexagon: vertex off the boundary "
                            "by %.3g" % float(np.abs(g - 1.0).max()))
    return Hexagon(vertices=verts, q_unique=bool(unique))


def _validate_hexagon(disk: UnitDisk, hexagon: Hexagon) -> np.ndarray:
    verts = np.asarray(hexagon.vertices, dtype=float)
    if verts.shape != (6, 2):
        raise ValueError("hexagon must have exactly 6 vertices")
    v, w = verts[0], verts[1]
    pattern = np.array([v, w, w - v, -v, -w, v - w])
    scale = max(1.0, float(np.abs(verts).max()))
    if np.abs(verts - pattern).max() > 1e-8 * scale:
        raise ValueError("hexagon is not affinely regular")
    if np.abs(gauge_many(disk, verts) - 1.0).max() > 1e-8:
        raise ValueError("hexagon vertices are not on the unit boundary")
    return verts


def reuleaux(disk: UnitDisk, hexagon: Hexagon):
    """Reuleaux triangle M Intersect (p+M) Intersect (q+M) for the first
    two hexagon vertices, with its M-perimeter.

    Its corners 0, p, q are exact ring vertices, joined CCW by the arc of
    the boundary of q + M from 0 to p, of M from p to q and of p + M from
    q to 0.  These are three alternate arcs of the hexagon, so the
    perimeter equals half the disk perimeter (Barbier); a violation marks
    an inconsistent hexagon or disk and raises.
    """
    verts = _validate_hexagon(disk, hexagon)
    p, q = verts[0], verts[1]
    ring = np.concatenate([(q + _arc(disk, -q, p - q))[:-1], _arc(disk, p, q),
                           (p + _arc(disk, q - p, -p))[1:-1]])
    body = ConvexBody(ring, exact_polygon=disk.is_polygonal)
    per = perimeter(disk, body)
    full = perimeter(disk, disk.vertices)
    if abs(per - 0.5 * full) > 1e-6 * max(1.0, full):
        raise GeometryError(
            "reuleaux: perimeter %.12g differs from half the disk "
            "perimeter %.12g" % (per, 0.5 * full))
    return body, per


def reuleaux_two_sides(body: ConvexBody, a, b) -> np.ndarray:
    """Boundary chain of the Reuleaux triangle from corner a to corner b
    through the third corner (the long way around), as an (n, 2) array.

    This is the extremal increasing-chord curve: its M-length equals the
    half-lens-perimeter bound for the chord a -> b.  The corners must lie
    on the boundary ring; one inside a ring edge splits it.
    """
    V = body.vertices
    n = len(V)

    def place(x):
        i, t, snapped = locate_on_boundary(V, x, "reuleaux_two_sides: corner")
        if t == 1.0:
            return (i + 1) % n, 0.0, V[(i + 1) % n]
        return i, t, snapped

    ia, ta, sa = place(a)
    ib, tb, sb = place(b)
    if math.hypot(*(sa - sb)) <= 1e-12 * max(1.0, float(np.abs(V).max())):
        raise GeometryError("reuleaux_two_sides: corners coincide")
    # CCW from b to a, reversed; all the way round when a is behind b on
    # one edge
    k = (ia - ib) % n
    if k == 0 and ta < tb:
        k = n
    chain = [sb[None, :], V[(ib + 1 + np.arange(k)) % n]]
    if ta > 0.0:
        chain.append(sa[None, :])
    return np.concatenate(chain)[::-1].copy()


# -- the bounding parallelogram certificate -------------------------------

def _edge_direction_at(disk: UnitDisk, x: np.ndarray) -> np.ndarray:
    j = int(_wedge_of(disk, *x[:, None])[0])
    V = disk.vertices
    e = V[(j + 1) % len(V)] - V[j]
    return e / math.hypot(e[0], e[1])


def _line_intersection(p1, d1, p2, d2):
    den = float(_cross(d1[None, :], d2[None, :])[0])
    if abs(den) < 1e-15 * math.hypot(*d1) * math.hypot(*d2):
        raise GeometryError("parallel support lines do not meet")
    s = float(_cross((p2 - p1)[None, :], d2[None, :])[0]) / den
    return p1 + s * d1


def bounding_parallelogram(disk: UnitDisk, p, q) -> np.ndarray:
    """Parallelogram containing the lens (p+M) Intersect (q+M), bounded
    by support lines of the lens at p and q and by the two support lines
    parallel to the chord.  Rows: corners on the support line at p
    (positive side first), then at q (positive side first):
    [x_p_plus, x_p_minus, x_q_plus, x_q_minus].

    The certificate gauge(x_p_plus - p) <= 1 bounds the lens
    half-perimeter by 3.
    """
    p = as_vec(p)
    q = as_vec(q)
    d = gauge(disk, q - p)
    if d <= 1e-14:
        raise GeometryError("bounding_parallelogram: undefined for a chord "
                            "of gauge length %.17g" % d)
    body = intersect_translates(disk, p, q)
    X = body.vertices
    d_pq = q - p
    w = _edge_direction_at(disk, p - q)
    n_plus = np.array([-d_pq[1], d_pq[0]])
    up = X[int(np.argmax(X @ n_plus))]
    dn = X[int(np.argmin(X @ n_plus))]
    x_p_plus = _line_intersection(p, w, up, d_pq)
    x_p_minus = _line_intersection(p, w, dn, d_pq)
    x_q_plus = x_p_plus + d_pq
    x_q_minus = x_p_minus + d_pq
    return np.array([x_p_plus, x_p_minus, x_q_plus, x_q_minus])


# -- the MaxMin search ----------------------------------------------------

def _family_rings(X: np.ndarray) -> np.ndarray:
    """The half-rings (B, k, 2) of a batch X (B, 2k) of family points x =
    (k log-gaps, k log-lengths), each coordinate clipped to +-3.  The k
    edge vectors have lengths exp(x[k:]) and angles that start at 0 and
    rise by the gaps exp(x[:k]), scaled to total pi, so they increase
    strictly over a span below pi.  The half-ring starting at -sum(E)/2
    then ends where its negation starts, and the mirrored ring, with edges
    E then -E, is convex: no repair is needed.  The half-ring is scaled so
    that its largest radius is exactly 1.  Each row's bits do not depend
    on the batch it is built in.
    """
    k = X.shape[1] // 2
    y = np.exp(np.minimum(np.maximum(X, -3.0), 3.0))  # np.clip's result, at less cost
    g, L = y[:, :k], y[:, k:]
    th = (np.cumsum(g, axis=1) - g) * (math.pi / g.sum(axis=1, keepdims=True))
    E = L[..., None] * np.stack([np.cos(th), np.sin(th)], axis=-1)
    H = np.cumsum(E, axis=1) - E - 0.5 * E.sum(axis=1, keepdims=True)
    return H / np.hypot(H[..., 0], H[..., 1]).max(axis=1)[:, None, None]


def _family_params(x: np.ndarray) -> DiskFamilyParams:
    """The family point of x, the batch of one of _family_rings."""
    return DiskFamilyParams(_family_rings(np.asarray(x, dtype=float)[None])[0])


def maxmin_search(k: int, budget: int, seed: int = 0,
                  sweep_n: int = 720) -> MaxMinResult:
    """Maximize min over directions of lm(disk, .) over mirrored 2k-gon
    disks, by Nelder-Mead restarts over the 2k coordinates of
    _family_params: k log-gaps between edge angles and k log-lengths.

    The objective is that minimum exactly, taken at the disk's k vertex
    directions (_min_lm).  sweep_n is still checked (at least 4) but no
    longer affects the objective or the result.  The regular 2k-gon and
    three seeded perturbations of it are evaluated first; budget then
    caps the evaluations spent inside the optimizer (budget 0 evaluates
    only the starting disks), shared by the first
    max(1, min(4, budget // (2k + 2))) starts so that each run gets at
    least a full simplex when there is more than one.  Deterministic for
    a fixed seed; the result is never worse than the regular start, and
    its disk is the one the best evaluation scored.

    Every point is scored by _min_lm_many, which gives each disk the bits
    of _min_lm, on the mirrored half-rings of _family_rings: the starts
    as one stack, each run's initial simplex (scipy's default, as many
    rows as the run will evaluate) as another, and every later point as a
    stack of one.  No DiskFamilyParams or UnitDisk is built for a scored
    point; only the best one's are, at the end.  The optimizer is
    answered from the stacks in its own call order; row 0 of a simplex is
    its run's start, answered from the start's score.
    """
    k = _as_count(k, "maxmin_search: k")
    budget = _as_count(budget, "maxmin_search: budget")
    sweep_n = _as_count(sweep_n, "maxmin_search: sweep_n")
    if k < 3:
        raise ValueError("maxmin_search: need k >= 3")
    if budget < 0:
        raise ValueError("maxmin_search: negative budget")
    if sweep_n < 4:
        raise ValueError("maxmin_search: need sweep_n >= 4")
    rng = np.random.default_rng(seed)
    d = 2 * k
    starts = np.array([np.zeros(d)] + [rng.normal(0.0, 0.12, size=d) for _ in range(3)])
    state = {"best": -np.inf, "half": None, "evals": 0}

    def scored(X):
        H = _family_rings(X)
        return list(zip(H, _min_lm_many(np.concatenate([H, -H], axis=1)).tolist()))

    def record(half, val):
        state["evals"] += 1
        if val > state["best"]:
            state.update(best=val, half=half)
        return val

    scores = scored(starts)
    for point in scores:
        record(*point)
    if budget > 0:
        from scipy.optimize import minimize
        runs = max(1, min(len(starts), budget // (d + 2)))
        maxfev = budget // runs
        for x0, start in zip(starts[:runs], scores):
            # scipy's default simplex: coordinate i of row i + 1 scaled by
            # 1.05, or set to 0.00025 where it is 0; row 0 is the start
            sim = np.tile(x0, (d + 1, 1))
            sim[np.arange(1, d + 1), np.arange(d)] = np.where(x0 != 0.0, 1.05 * x0, 0.00025)
            ready = {x0.tobytes(): start}
            if maxfev > 1:
                rows = sim[1:maxfev]
                ready.update((x.tobytes(), point) for x, point in zip(rows, scored(rows)))

            def objective(x):
                point = ready.pop(x.tobytes(), None) or scored(x[None])[0]
                return -record(*point)

            minimize(objective, x0, method="Nelder-Mead",
                     options={"maxfev": maxfev, "initial_simplex": sim,
                              "xatol": 1e-4, "fatol": 1e-7, "adaptive": True})
    params = DiskFamilyParams(state["half"].copy())
    return MaxMinResult(params=params, objective=float(state["best"]),
                        evaluations=state["evals"], disk=params.disk())
