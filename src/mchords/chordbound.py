"""Chord-length bounds via translate intersections.

For a norm disk M and points p, q with gauge(q - p) = 1, the quantity
of interest is half the M-perimeter of the lens (p + M) Intersect (q + M):
it bounds the M-length of every curve from p to q with increasing
chords, and is attained by two sides of a Reuleaux triangle.  This
module computes the lens, its perimeter profile over directions,
inscribed affinely regular hexagons, Reuleaux triangles, and a
derivative-free search for the disk maximizing the worst direction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .involute import ConvexBody
from .normplane import (UnitDisk, as_vec, gauge, gauge_many, unit_vector,
                        unit_vectors, _circular_run, _cross, _wedge_of,
                        locate_on_boundary)

_ORIGIN = np.zeros(2)


@dataclass(frozen=True)
class LmProfile:
    """Half-lens-perimeter values over a set of chord directions."""
    directions: np.ndarray
    values: np.ndarray
    min: float
    argmin: float
    max: float
    argmax: float

    def summary(self) -> dict:
        return {"min": self.min, "argmin": self.argmin,
                "max": self.max, "argmax": self.argmax}


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
    """Search-space point: radii at k equally spaced angles over [0, pi),
    mirrored to a centrally symmetric 2k-gon."""
    k: int
    radii: np.ndarray

    @property
    def angles(self) -> np.ndarray:
        return np.arange(self.k) * (math.pi / self.k)

    def disk(self) -> UnitDisk:
        th = self.angles
        half = self.radii[:, None] * np.stack([np.cos(th), np.sin(th)], axis=1)
        return UnitDisk.polygon(np.concatenate([half, -half], axis=0))


class MaxMinResult:
    """Best disk found by maxmin_search; iterates as (params, objective)."""

    __slots__ = ("params", "objective", "evaluations", "disk")

    def __init__(self, params, objective, evaluations, disk):
        self.params = params
        self.objective = objective
        self.evaluations = evaluations
        self.disk = disk

    def __iter__(self):
        yield self.params
        yield self.objective

    def __repr__(self):
        return "MaxMinResult(k=%d, objective=%.6f, evaluations=%d)" % (
            self.params.k, self.objective, self.evaluations)


# -- convex intersection engine -------------------------------------------

def _outward_normals(P: np.ndarray) -> np.ndarray:
    E = np.roll(P, -1, axis=0) - P
    return np.stack([E[:, 1], -E[:, 0]], axis=1)


def _cross_boundary(S, T, P, N, entering: bool):
    """Point where segment S->T crosses the boundary of the CCW polygon P
    (outward edge normals N).  entering=False: S inside, T outside;
    entering=True: the reverse."""
    d = T - S
    a = np.einsum("ij,ij->i", N, S[None, :] - P)
    b = N @ d
    nb = np.hypot(N[:, 0], N[:, 1])
    thr = 1e-13 * nb * max(math.hypot(d[0], d[1]), 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -a / b
    if entering:
        sel = b < -thr
        if not sel.any():
            return S.copy()
        tt = float(np.clip(t[sel], 0.0, 1.0).max())
    else:
        sel = b > thr
        if not sel.any():
            return T.copy()
        tt = float(np.clip(t[sel], 0.0, 1.0).min())
    return S + tt * d


def _run_indices(mask: np.ndarray, depth: np.ndarray):
    """Index array of the circular True-run containing the deepest point."""
    if not mask.any():
        raise GeometryError("intersection too thin to resolve")
    m = int(np.argmax(np.where(mask, depth, -np.inf)))
    i0, i1 = _circular_run(mask, m)
    n = len(mask)
    if i0 <= i1:
        return np.arange(i0, i1 + 1)
    return np.concatenate([np.arange(i0, n), np.arange(0, i1 + 1)])


def _clean_ring(P: np.ndarray, scale: float) -> np.ndarray:
    """Drop duplicate points and grazing spikes until the ring is a clean
    convex cycle."""
    for _ in range(len(P) + 8):
        n = len(P)
        if n < 3:
            raise GeometryError("degenerate intersection")
        E = np.roll(P, -1, axis=0) - P
        L = np.hypot(E[:, 0], E[:, 1])
        dup = L <= 1e-11 * scale
        if dup.any():
            P = P[~dup]
            continue
        Ep = np.roll(E, 1, axis=0)
        turn = _cross(Ep, E)
        dot = np.einsum("ij,ij->i", Ep, E)
        eps = 1e-11 * scale * scale
        bad = (turn < -eps) | ((np.abs(turn) <= eps) & (dot < 0))
        if not bad.any():
            break
        P = P[~bad]
    return P


def _assemble(PA, PB, maskA, depthA, maskB, depthB):
    """Boundary ring of PA Intersect PB from the inside-runs of each
    polygon plus the two boundary crossings.  Returns (ring, c_out, c_in);
    crossings are None in the containment cases."""
    scale = max(1.0, float(np.abs(PA).max()), float(np.abs(PB).max()))
    if maskA.all():
        return PA.copy(), None, None
    if maskB.all():
        return PB.copy(), None, None
    ia = _run_indices(maskA, depthA)
    ib = _run_indices(maskB, depthB)
    nA = len(PA)
    NB = _outward_normals(PB)
    c_out = _cross_boundary(PA[ia[-1]], PA[(ia[-1] + 1) % nA], PB, NB,
                            entering=False)
    c_in = _cross_boundary(PA[(ia[0] - 1) % nA], PA[ia[0]], PB, NB,
                           entering=True)
    ring = np.concatenate([PA[ia], c_out[None, :], PB[ib], c_in[None, :]])
    return _clean_ring(ring, scale), c_out, c_in


def _fan_membership(P: np.ndarray, X: np.ndarray, tol: float):
    """(inside mask, signed distance proxy) of points X w.r.t. convex CCW
    polygon P, via an angular fan around the centroid."""
    c = P.mean(axis=0)
    rel = P - c
    base = math.atan2(rel[0, 1], rel[0, 0])
    a = np.mod(np.arctan2(rel[:, 1], rel[:, 0]) - base, 2.0 * math.pi)
    a[0] = 0.0
    qa = np.mod(np.arctan2(X[:, 1] - c[1], X[:, 0] - c[0]) - base,
                2.0 * math.pi)
    j = np.searchsorted(a, qa, side="right") - 1
    np.clip(j, 0, len(P) - 1, out=j)
    E = np.roll(P, -1, axis=0) - P
    L = np.maximum(np.hypot(E[:, 0], E[:, 1]), 1e-300)
    slack = _cross(E[j], X - P[j]) / L[j]
    return slack >= -tol, slack


def _lens_ring(disk: UnitDisk, p: np.ndarray, q: np.ndarray):
    PA = disk.vertices + p
    PB = disk.vertices + q
    gA = gauge_many(disk, PA - q)
    gB = gauge_many(disk, PB - p)
    return _assemble(PA, PB, gA <= 1.0 + 1e-12, 1.0 - gA,
                     gB <= 1.0 + 1e-12, 1.0 - gB)


def intersect_translates(disk: UnitDisk, p, q) -> ConvexBody:
    """Intersection of the translates p + M and q + M as a convex body.

    Exact for polygonal disks: the result's vertices are vertices of the
    translates plus the two true boundary crossing points.
    """
    p = as_vec(p)
    q = as_vec(q)
    d = gauge(disk, q - p)
    if d >= 2.0 - 1e-12:
        raise GeometryError(
            "translates at gauge distance %.17g do not overlap in a "
            "two-dimensional body" % d)
    if d <= 1e-14:
        return ConvexBody(disk.vertices + p, exact_polygon=disk.is_polygonal)
    ring, _, _ = _lens_ring(disk, p, q)
    return ConvexBody(ring, exact_polygon=disk.is_polygonal)


def lens_corners(disk: UnitDisk, p, q):
    """The two points where the translate boundaries cross, as
    (x_plus, x_minus) relative to the oriented chord p -> q.  Both lie at
    gauge distance 1 from each of p and q when gauge(q - p) = 1."""
    p = as_vec(p)
    q = as_vec(q)
    d = gauge(disk, q - p)
    if d >= 2.0 - 1e-12 or d <= 1e-14:
        raise GeometryError("lens corners undefined at gauge distance %.17g" % d)
    _, c_out, c_in = _lens_ring(disk, p, q)
    if c_out is None or c_in is None:
        raise GeometryError("translate boundaries do not cross")
    s_out = float(_cross(q - p, c_out - p))
    if s_out > 0:
        return c_out, c_in
    return c_in, c_out


def _intersect_body_translate(disk: UnitDisk, body_ring: np.ndarray, q):
    """body Intersect (q + M), both convex CCW."""
    PB = disk.vertices + q
    gA = gauge_many(disk, body_ring - q)
    maskA = gA <= 1.0 + 1e-12
    scale = max(1.0, float(np.abs(body_ring).max()))
    maskB, slackB = _fan_membership(body_ring, PB, 1e-12 * scale)
    ring, _, _ = _assemble(body_ring, PB, maskA, 1.0 - gA, maskB, slackB)
    return ring


# -- perimeter and the lens profile ---------------------------------------

def perimeter(disk: UnitDisk, body) -> float:
    """M-perimeter of a convex body: sum of edge-vector gauges."""
    V = body.vertices if hasattr(body, "vertices") else np.asarray(body, float)
    if len(V) < 3:
        raise GeometryError("perimeter: need at least 3 boundary points")
    E = np.roll(V, -1, axis=0) - V
    return float(gauge_many(disk, E).sum())


def _lm_many(disk: UnitDisk, dirs: np.ndarray) -> np.ndarray:
    """lm for each direction, from the boundary arc instead of the lens.

    The lens M Intersect (q + M) is symmetric about q/2, so half its
    perimeter is the M-length of the CCW arc of the boundary of M from
    x_minus = q - x_plus to x_plus, where x_plus is the first boundary point
    CCW from q with gauge(x_plus - q) = 1.  gauge(. - q) does not decrease
    along the boundary from q to -q, so x_plus is found by scanning the
    vertices of that half and cutting the bracketing edge exactly.
    """
    V = disk.vertices
    E = disk._edge
    n = len(V)
    step = max(1, (1 << 20) // n)  # keeps the (directions, n) tables small
    if len(dirs) > step:
        return np.concatenate([_lm_many(disk, dirs[i:i + step])
                               for i in range(0, len(dirs), step)])
    h = n // 2
    W = gauge_many(disk, E)
    C = np.concatenate([[0.0], np.cumsum(W)])  # arc length up to vertex i
    q = unit_vectors(disk, dirs)
    m = np.arange(len(q))
    idx = (_wedge_of(disk, *q.T)[0][:, None] + 1 + np.arange(h)) % n
    G = gauge_many(disk, V[idx] - q[:, None, :])
    k = np.argmax(G >= 1.0, axis=1)
    beyond = G[m, k] < 1.0  # the crossing lies on the edge holding -q
    prev = np.where((k == 0)[:, None], q, V[idx[m, np.maximum(k - 1, 0)]])
    nxt = np.where(beyond[:, None], -q, V[idx[m, k]])
    d = nxt - prev
    # leave M from prev - q along d: gauge(w) = max_j <w, grad_j>
    den = d @ disk._grad.T
    num = 1.0 - (prev - q) @ disk._grad.T
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(den > 0.0, num / den, np.inf).min(axis=1)
    x_plus = prev + np.clip(t, 0.0, 1.0)[:, None] * d

    def arc_pos(x):
        j = _wedge_of(disk, *x.T)[0]
        s = np.einsum("ij,ij->i", x - V[j], E[j]) / np.einsum("ij,ij->i", E[j], E[j])
        return C[j] + s * W[j]

    return np.mod(arc_pos(x_plus) - arc_pos(q - x_plus), C[-1])


def lm(disk: UnitDisk, direction: float) -> float:
    """Half the M-perimeter of M Intersect (q + M) with q the unit vector
    of the given direction."""
    return float(_lm_many(disk, np.array([float(direction)]))[0])


def lm_sweep(disk: UnitDisk, n: int) -> LmProfile:
    """Profile of lm over n equally spaced directions in [0, pi); for
    polygonal disks the vertex directions are swept as well."""
    if n < 4:
        raise ValueError("lm_sweep: need n >= 4 directions")
    dirs = np.arange(n) * (math.pi / n)
    if disk.is_polygonal:
        V = disk.vertices
        va = np.mod(np.arctan2(V[:, 1], V[:, 0]), math.pi)
        dirs = np.unique(np.concatenate([dirs, va]))
        dirs = dirs[np.concatenate([[True], np.diff(dirs) > 1e-12])]
    vals = _lm_many(disk, dirs)
    i0 = int(np.argmin(vals))
    i1 = int(np.argmax(vals))
    return LmProfile(directions=dirs, values=vals,
                     min=float(vals[i0]), argmin=float(dirs[i0]),
                     max=float(vals[i1]), argmax=float(dirs[i1]))


# -- inscribed hexagons and Reuleaux triangles ----------------------------

def inscribed_hexagon(disk: UnitDisk, p) -> Hexagon:
    """Affinely regular hexagon inscribed in the disk with p as a vertex.

    The second vertex q is the bisection root of gauge(b(s) - p) = 1 with
    b running CCW from p to -p; the remaining vertices follow from the
    symmetry (p, q, q-p, -p, -q, p-q).
    """
    V = disk.vertices
    n = len(V)
    i, t, snapped, dist = locate_on_boundary(V, as_vec(p))
    if dist > 1e-9 * max(disk.diameter, 1.0):
        raise GeometryError("inscribed_hexagon: p is not on the boundary "
                            "(distance %.3g)" % dist)
    p = snapped
    chain = [p] + [V[(i + 1 + k) % n] for k in range(n // 2)] + [-p]
    chain = np.array(chain)
    scale = max(1.0, float(np.abs(chain).max()))
    keep = np.concatenate([[True],
                           np.hypot(*(chain[1:] - chain[:-1]).T) > 1e-12 * scale])
    chain = chain[keep]
    seg = np.hypot(*(chain[1:] - chain[:-1]).T)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = float(cum[-1])

    def at(s):
        j = min(np.searchsorted(cum, s, side="right") - 1, len(seg) - 1)
        j = max(j, 0)
        f = (s - cum[j]) / seg[j]
        return chain[j] + f * (chain[j + 1] - chain[j])

    def phi(s):
        return gauge(disk, at(s) - p) - 1.0

    lo, hi = 0.0, total
    if phi(hi) < 0:
        raise GeometryError("inscribed_hexagon: no unit-distance point "
                            "found on the half boundary")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if phi(mid) < 0:
            lo = mid
        else:
            hi = mid
    q = at(hi)
    if abs(gauge(disk, q - p) - 1.0) > 1e-8:
        raise GeometryError("inscribed_hexagon: bisection failed to "
                            "converge on gauge 1")
    unique = True
    for delta in np.linspace(0.0, 0.02 * total, 9)[1:]:
        for s in (hi + delta, hi - delta):
            if 0.0 < s < total and abs(phi(s)) <= 1e-9:
                unique = False
    verts = np.array([p, q, q - p, -p, -q, p - q])
    g = gauge_many(disk, verts)
    if np.abs(g - 1.0).max() > 1e-8:
        raise GeometryError("inscribed_hexagon: vertex off the boundary "
                            "by %.3g" % float(np.abs(g - 1.0).max()))
    return Hexagon(vertices=verts, q_unique=unique)


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

    The perimeter must equal half the disk perimeter; a violation marks
    an inconsistent hexagon or disk and raises.
    """
    verts = _validate_hexagon(disk, hexagon)
    p, q = verts[0], verts[1]
    lens, _, _ = _lens_ring(disk, _ORIGIN, p)
    ring = _intersect_body_translate(disk, lens, q)
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
    half-lens-perimeter bound for the chord a -> b.
    """
    V = body.vertices
    a = as_vec(a)
    b = as_vec(b)
    ia = int(np.argmin(np.hypot(V[:, 0] - a[0], V[:, 1] - a[1])))
    ib = int(np.argmin(np.hypot(V[:, 0] - b[0], V[:, 1] - b[1])))
    if ia == ib:
        raise GeometryError("reuleaux_two_sides: corners coincide")
    n = len(V)
    if ib <= ia:
        idx = np.arange(ib, ia + 1)
    else:
        idx = np.concatenate([np.arange(ib, n), np.arange(0, ia + 1)])
    return V[idx][::-1].copy()


# -- the bounding parallelogram certificate -------------------------------

def _edge_direction_at(disk: UnitDisk, x: np.ndarray) -> np.ndarray:
    j = int(_wedge_of(disk, *x[:, None])[0][0])
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

def _repair_radii(r: np.ndarray, k: int) -> np.ndarray:
    """Retract radii onto the cone of convex mirrored 2k-gons: take the
    convex hull of the radial vertex set and re-intersect it with the
    sample rays.  Identity on already-convex radii, always feasible."""
    from scipy.spatial import ConvexHull
    th = np.arange(k) * (math.pi / k)
    U = np.stack([np.cos(th), np.sin(th)], axis=1)
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


def _family_disk(x: np.ndarray, k: int):
    r = np.exp(np.clip(x, -1.5, 1.5))
    r = _repair_radii(r, k)
    r = r / r.max()
    params = DiskFamilyParams(k=k, radii=r)
    return params.disk(), params


def maxmin_search(k: int, budget: int, seed: int = 0,
                  sweep_n: int = 720) -> MaxMinResult:
    """Maximize min over directions of lm(disk, .) over mirrored 2k-gon
    disks, by Nelder-Mead restarts over log-radii with projection onto
    the convexity cone.

    budget caps the objective evaluations spent inside the optimizer
    (budget 0 evaluates only the starting disks).  Deterministic for a
    fixed seed; the result is never worse than the regular-2k-gon start.
    """
    if k < 3:
        raise ValueError("maxmin_search: need k >= 3")
    if budget < 0:
        raise ValueError("maxmin_search: negative budget")
    if sweep_n < 4:
        raise ValueError("maxmin_search: need sweep_n >= 4")
    rng = np.random.default_rng(seed)
    starts = [np.zeros(k)] + [rng.normal(0.0, 0.12, size=k) for _ in range(3)]
    state = {"best": -np.inf, "x": starts[0], "evals": 0}

    def objective(x):
        disk, _ = _family_disk(np.asarray(x, dtype=float), k)
        val = lm_sweep(disk, sweep_n).min
        state["evals"] += 1
        if val > state["best"]:
            state["best"] = val
            state["x"] = np.array(x, dtype=float)
        return val

    for x0 in starts:
        objective(x0)
    if budget > 0:
        from scipy.optimize import minimize
        per_start = max(2, budget // len(starts))
        for x0 in starts:
            minimize(lambda x: -objective(x), x0, method="Nelder-Mead",
                     options={"maxfev": per_start, "xatol": 1e-4,
                              "fatol": 1e-7, "adaptive": True})
    disk, params = _family_disk(state["x"], k)
    return MaxMinResult(params=params, objective=float(state["best"]),
                        evaluations=state["evals"], disk=disk)
