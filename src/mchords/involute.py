"""Involutes of convex disks in a normed plane.

The involute of a convex body C anchored at a boundary point p is the
curve traced by unrolling a taut thread from the boundary, with both the
thread length and the unit direction measured in the ambient norm: for a
support line with oriented tangent angle alpha, the curve point is
q(alpha) - d(p, q(alpha)) * u(alpha), where q is the tangency point, d is
the counter-clockwise boundary arc length from p, and u(alpha) is the
norm-unit vector of direction alpha.  The arc length is lifted
monotonically, increasing by one perimeter per turn, so the parameter
range extends to the whole real line; negative parameters unwind
clockwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GeometryError, InvalidDiskError
from .normplane import (UnitDisk, as_vec, gauge, gauge_many, unit_vectors,
                        locate_on_boundary, _cross, _wedge_of, TWO_PI)
from .curvekit import Polyline


class ConvexBody:
    """Convex disk given by its closed CCW boundary polygon.

    exact_polygon distinguishes a true polygon from a dense sampling of a
    smooth body; several operations branch on it (event handling, vertex
    snapping rules).
    """

    __slots__ = ("boundary", "exact_polygon")

    def __init__(self, points, exact_polygon: bool = False):
        P = np.array(points, dtype=float)
        if P.ndim != 2 or P.shape[1] != 2 or len(P) < 3:
            raise ValueError("ConvexBody: need an (n, 2) array with n >= 3")
        if not np.all(np.isfinite(P)):
            raise ValueError("ConvexBody: non-finite coordinates")
        scale = max(1.0, float(np.abs(P).max()))
        E = np.roll(P, -1, axis=0) - P
        if np.hypot(E[:, 0], E[:, 1]).min() <= 1e-12 * scale:
            raise ValueError("ConvexBody: repeated consecutive boundary points")
        turn = _cross(E, np.roll(E, -1, axis=0))
        if turn.min() < -1e-9 * scale * scale:
            bad = int(np.argmin(turn))
            raise GeometryError("ConvexBody: right turn at boundary point %d; "
                                "not convex CCW" % ((bad + 1) % len(P)))
        area2 = float(_cross(P, np.roll(P, -1, axis=0)).sum())
        if area2 <= 1e-12 * scale * scale:
            raise GeometryError("ConvexBody: degenerate interior")
        self.boundary = Polyline(P, closed=True)
        self.exact_polygon = bool(exact_polygon)

    @property
    def vertices(self) -> np.ndarray:
        return self.boundary.points

    @classmethod
    def from_disk(cls, disk: UnitDisk, translate=None) -> "ConvexBody":
        V = disk.vertices
        if translate is not None:
            V = V + as_vec(translate)
        return cls(V, exact_polygon=disk.is_polygonal)

    @property
    def diameter(self) -> float:
        V = self.vertices
        c = V.mean(axis=0)
        return 2.0 * float(np.hypot(V[:, 0] - c[0], V[:, 1] - c[1]).max())

    def __repr__(self):
        return "ConvexBody(n=%d, exact_polygon=%s)" % (len(self.vertices),
                                                       self.exact_polygon)


@dataclass(frozen=True)
class InvoluteSupport:
    """Support-line direction of the convex involute piece at one parameter.

    `direction` spans a line through `point` that supports the local
    convex piece; the curve's tangent direction there is Birkhoff
    orthogonal to it.  `unique` is False when the norm's boundary has a
    corner in the tangent direction, in which case `direction` is the
    bisecting representative of the whole admissible cone.
    """
    theta: float
    point: np.ndarray
    direction: np.ndarray
    unique: bool


class InvoluteCurve:
    """Sampled involute together with its unrolling data.

    thetas are measured relative to the tangent angle at p; rotation is
    that tangent angle, so theta + rotation is the absolute tangent angle
    of the corresponding support line.
    """

    __slots__ = ("base", "norm", "p", "thetas", "points", "branch",
                 "rotation", "theta_min", "theta_max", "_A", "_D", "_V")

    def __init__(self, base, norm, p, thetas, points, branch, rotation,
                 theta_min, theta_max, ladder):
        self.base = base
        self.norm = norm
        self.p = p
        self.thetas = thetas
        self.points = points
        self.branch = branch
        self.rotation = rotation
        self.theta_min = theta_min
        self.theta_max = theta_max
        self._A, self._D, self._V = ladder

    def point_at(self, theta):
        """Involute point(s) at the given relative parameter(s)."""
        th = np.asarray(theta, dtype=float)
        if np.any(th < self.theta_min - 1e-9) or np.any(th > self.theta_max + 1e-9):
            raise ValueError("point_at: theta outside the built range "
                             "[%g, %g]" % (self.theta_min, self.theta_max))
        alpha = np.atleast_1d(th + self.rotation)
        k = np.searchsorted(self._A, alpha, side="right") - 1
        np.clip(k, 0, len(self._A) - 1, out=k)
        u = unit_vectors(self.norm, alpha)
        pts = self._V[k] - self._D[k, None] * u
        return pts[0] if th.ndim == 0 else pts

    def __repr__(self):
        return "InvoluteCurve(n=%d, branch=%s, theta in [%g, %g])" % (
            len(self.points), self.branch, self.theta_min, self.theta_max)


def _snap_to_boundary(base: ConvexBody, p):
    W = base.vertices
    i, t, snapped, dist = locate_on_boundary(W, as_vec(p))
    tol = 1e-9 * max(base.diameter, 1.0)
    if dist > tol:
        raise GeometryError("point (%.17g, %.17g) is not on the boundary "
                            "(distance %.3g)" % (p[0], p[1], dist))
    m = len(W)
    nxt = (i + 1) % m
    if np.hypot(*(snapped - W[i])) <= tol:
        return i, W[i].copy(), True
    if np.hypot(*(snapped - W[nxt])) <= tol:
        return nxt, W[nxt].copy(), True
    return i, snapped, False


def build_involute(norm: UnitDisk, base: ConvexBody, p, theta_min: float,
                   theta_max: float, n: int) -> InvoluteCurve:
    """Sample the involute of `base` anchored at boundary point p.

    theta runs over [theta_min, theta_max] relative to the tangent angle
    at p (reported as `rotation`); theta = 0 always maps to p.  For an
    exact polygonal base, p must be a vertex and the edge-direction
    events are always included among the samples.
    """
    if n < 2:
        raise ValueError("build_involute: need n >= 2 samples")
    theta_min = float(theta_min)
    theta_max = float(theta_max)
    if not theta_min < theta_max:
        raise ValueError("build_involute: empty theta range")
    W = base.vertices
    m = len(W)
    i0, p_snap, at_vertex = _snap_to_boundary(base, p)
    if base.exact_polygon and not at_vertex:
        raise GeometryError(
            "build_involute: for an exact polygonal base the anchor must be "
            "a vertex (the support line through an edge-interior point "
            "touches along the whole edge)")
    # i0: outgoing edge index (for a vertex anchor, the edge leaving it)
    F = np.roll(W, -1, axis=0) - W
    g = gauge_many(norm, F)
    beta = np.arctan2(F[:, 1], F[:, 0])
    phi0 = float(beta[i0])
    s_off = 0.0 if at_vertex else gauge(norm, p_snap - W[i0])

    turn = np.mod(np.roll(beta, -1) - beta + math.pi, TWO_PI) - math.pi
    if turn.min() < -1e-6:
        bad = int(np.argmin(turn))
        raise GeometryError("build_involute: base turns right at vertex %d"
                            % ((bad + 1) % m))
    turn = np.maximum(turn, 0.0)

    # rotation: theta = 0 must be the tangent angle at p.  At a vertex the
    # supports form a cone; its bisector stands in for the tangent (and is
    # the exact tangent when the polygon samples a smooth body).
    if at_vertex:
        rot = phi0 - 0.5 * float(turn[(i0 - 1) % m])
    else:
        rot = phi0
    lo_a = rot + theta_min
    hi_a = rot + theta_max
    # event ladder: A[j] = unwrapped tangent angle of edge e(k),
    # D[j] = signed arc from p to that edge's end vertex, V[j] = the vertex
    A = [phi0]
    D = [float(g[i0]) - s_off]
    V = [(i0 + 1) % m]
    k = 0
    while A[-1] <= hi_a + 1e-9:
        A.append(A[-1] + float(turn[(i0 + k) % m]))
        k += 1
        D.append(D[-1] + float(g[(i0 + k) % m]))
        V.append((i0 + k + 1) % m)
    k = 0
    while A[0] >= lo_a - 1e-9:
        A.insert(0, A[0] - float(turn[(i0 + k - 1) % m]))
        D.insert(0, D[0] - float(g[(i0 + k) % m]))
        V.insert(0, (i0 + k) % m)
        k -= 1
    A = np.array(A)
    D = np.array(D)
    V = np.array(V, dtype=int)

    thetas = np.linspace(theta_min, theta_max, n)
    ev_list = []
    if base.exact_polygon:
        ev_list.append(A - rot)
    if norm.is_polygonal:
        # the curve also kinks where u(alpha) crosses a norm vertex
        av = norm._ang
        lo_k = np.ceil((lo_a - av) / TWO_PI).astype(int)
        hi_k = np.floor((hi_a - av) / TWO_PI).astype(int)
        wraps = [av[i] + TWO_PI * w for i in range(len(av))
                 for w in range(lo_k[i], hi_k[i] + 1)]
        if wraps:
            ev_list.append(np.array(wraps) - rot)
    if ev_list:
        ev = np.concatenate(ev_list)
        ev = ev[(ev > theta_min + 1e-12) & (ev < theta_max - 1e-12)]
        thetas = np.unique(np.concatenate([thetas, ev]))
        keep = np.concatenate([[True], np.diff(thetas) > 1e-12])
        thetas = thetas[keep]

    alpha = thetas + rot
    kk = np.searchsorted(A, alpha, side="right") - 1
    np.clip(kk, 0, len(A) - 1, out=kk)
    U = unit_vectors(norm, alpha)
    pts = W[V[kk]] - D[kk, None] * U

    # tangency-independence at events: evaluating from either end vertex of
    # the event edge must agree
    scale = max(1.0, base.diameter, float(np.abs(D).max()))
    inside = (A > lo_a - 1e-9) & (A < hi_a + 1e-9)
    j = np.nonzero(inside)[0]
    j = j[j >= 1]
    if len(j):
        Ue = unit_vectors(norm, A[j])
        left = W[V[j - 1]] - D[j - 1, None] * Ue
        right = W[V[j]] - D[j, None] * Ue
        dev = float(np.abs(left - right).max())
        if dev > 1e-9 * scale:
            raise GeometryError("build_involute: tangency independence "
                                "violated at an event (deviation %.3g)" % dev)

    # drop stationary repeats (vertex anchors hold the curve at p on the
    # clockwise side of theta = 0)
    keep = np.concatenate([[True],
                           np.hypot(*(pts[1:] - pts[:-1]).T) > 1e-12 * scale])
    pts = pts[keep]
    thetas = thetas[keep]
    if len(pts) < 2:
        raise GeometryError("build_involute: sampled range is stationary")

    if theta_min >= -1e-12:
        branch = "positive"
    elif theta_max <= 1e-12:
        branch = "negative"
    else:
        branch = "both"
    return InvoluteCurve(base=base, norm=norm, p=p_snap, thetas=thetas,
                         points=Polyline(pts), branch=branch, rotation=rot,
                         theta_min=theta_min, theta_max=theta_max,
                         ladder=(A, D, W[V]))


def involute_support_direction(curve: InvoluteCurve, theta: float) -> InvoluteSupport:
    """Direction of a line through the involute point at `theta` that
    supports the local convex piece of the curve.

    The construction: the tangent vector t of the support line at
    parameter theta is Birkhoff orthogonal exactly to the directions of
    the norm disk's support lines at the boundary point t/gauge(t).  For a
    polygonal norm whose boundary has a vertex there, the whole cone of
    edge directions qualifies; the bisecting representative is returned
    with unique=False.
    """
    theta = float(theta)
    if not (curve.theta_min < theta < curve.theta_max):
        raise ValueError("involute_support_direction: theta %g outside the "
                         "covered range (%g, %g)"
                         % (theta, curve.theta_min, curve.theta_max))
    norm = curve.norm
    alpha = theta + curve.rotation
    x = np.array([math.cos(alpha), math.sin(alpha)])
    x = x / gauge(norm, x)
    point = curve.point_at(theta)
    Vd = norm.vertices
    md = len(Vd)
    j = int(_wedge_of(norm, *x[:, None])[0][0])
    if norm.is_polygonal:
        tol = 1e-9 * norm.diameter
        for cand in (j, (j + 1) % md):
            if math.hypot(*(x - Vd[cand])) <= tol:
                e_in = Vd[cand] - Vd[(cand - 1) % md]
                e_out = Vd[(cand + 1) % md] - Vd[cand]
                d_in = e_in / math.hypot(*e_in)
                d_out = e_out / math.hypot(*e_out)
                w = d_in + d_out
                w = w / math.hypot(*w)
                return InvoluteSupport(theta=theta, point=point,
                                       direction=w, unique=False)
    e = Vd[(j + 1) % md] - Vd[j]
    w = e / math.hypot(*e)
    return InvoluteSupport(theta=theta, point=point, direction=w, unique=True)
