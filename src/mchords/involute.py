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

from .errors import GeometryError
from .normplane import (ConvexBody, UnitDisk, gauge, gauge_many, unit_vectors,
                        locate_on_boundary, _as_count, _on_vertex_ray, _shift,
                        _wedge_of, TWO_PI)
from .curvekit import Polyline

_MAX_EVENTS = 1 << 20  # ladder and norm events of one build_involute call


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
        pts = _unroll(self.norm, self._A, self._D, self._V,
                      np.atleast_1d(th + self.rotation))
        return pts[0] if th.ndim == 0 else pts

    def __repr__(self):
        return "InvoluteCurve(n=%d, branch=%s, theta in [%g, %g])" % (
            len(self.points), self.branch, self.theta_min, self.theta_max)


def _unroll(norm, A, D, P, alpha):
    """Involute points at absolute tangent angles alpha: P[k] - D[k] u(alpha),
    k the ladder entry whose edge holds the thread there."""
    k = np.searchsorted(A, alpha, side="right") - 1
    np.clip(k, 0, len(A) - 1, out=k)
    return P[k] - D[k, None] * unit_vectors(norm, alpha)


def _snap_to_boundary(base: ConvexBody, p):
    W = base.vertices
    i, t, snapped = locate_on_boundary(W, p, "build_involute: anchor")
    tol = 1e-9 * max(base.diameter, 1.0)
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

    The unrolling holds one event per base vertex (and per norm vertex,
    for a polygonal norm) per turn between theta = 0 and the far end of
    the range, and takes time linear in them on either side of theta = 0.
    A range needing more than 2**20 of them, counted as (turns + 2) *
    (events per turn) with turns = (max(theta_max, 0) - min(theta_min, 0))
    / (2 pi), raises ValueError, as does a non-finite theta.  Under that
    bound |theta| < 2**20 * pi, far below where adding the base's largest
    turn (at least 2 pi / m for m vertices) would no longer move the angle.
    """
    n = _as_count(n, "build_involute: n")
    if n < 2:
        raise ValueError("build_involute: need n >= 2 samples")
    theta_min = float(theta_min)
    theta_max = float(theta_max)
    if not (math.isfinite(theta_min) and math.isfinite(theta_max)):
        raise ValueError("build_involute: theta range [%g, %g] is not finite"
                         % (theta_min, theta_max))
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
    per_turn = m + (len(norm.vertices) if norm.is_polygonal else 0)
    turns = (max(theta_max, 0.0) - min(theta_min, 0.0)) / TWO_PI
    if (turns + 2.0) * per_turn > _MAX_EVENTS:
        raise ValueError("build_involute: theta range [%g, %g] spans %.3g turns "
                         "of %d events each, more than %d events"
                         % (theta_min, theta_max, turns, per_turn, _MAX_EVENTS))
    # i0: outgoing edge index (for a vertex anchor, the edge leaving it)
    F = _shift(W) - W
    g = gauge_many(norm, F)
    beta = np.arctan2(F[:, 1], F[:, 0])
    phi0 = float(beta[i0])
    s_off = 0.0 if at_vertex else gauge(norm, p_snap - W[i0])

    turn = np.mod(_shift(beta) - beta + math.pi, TWO_PI) - math.pi
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
    # event ladder: A[j] = unwrapped tangent angle of edge e(k), D[j] =
    # signed arc from p to that edge's end vertex, V[j] = the vertex.  Each
    # side is one cumsum (which adds in order, as a step-by-step walk does)
    # over the whole turns to its end of the range and two spare, cut just
    # past that end.  Rows: A, D.
    D0 = float(g[i0]) - s_off
    nf, nb = (m * (max(0, math.ceil(x / float(turn.sum()))) + 2)
              for x in (hi_a - phi0, phi0 - lo_a))
    ef = (i0 + np.arange(nf)) % m
    eb = (i0 - 1 - np.arange(nb)) % m
    Lf = np.cumsum([np.r_[phi0, turn[ef]], np.r_[D0, g[(ef + 1) % m]]], axis=1)
    Lb = np.cumsum([np.r_[phi0, -turn[eb]], np.r_[D0, -g[(eb + 1) % m]]], axis=1)
    f = int(np.argmax(Lf[0] > hi_a + 1e-9))
    b = int(np.argmax(Lb[0] < lo_a - 1e-9))
    A, D = np.concatenate((Lb[:, b:0:-1], Lf[:, :f + 1]), axis=1)
    V = (i0 + 1 + np.arange(-b, f + 1)) % m
    P = W[V]

    thetas = np.linspace(theta_min, theta_max, n)
    ev = A - rot if base.exact_polygon else np.empty(0)
    if norm.is_polygonal:
        # the curve also kinks where u(alpha) crosses a norm vertex
        av = norm._T.ang[:, None]
        lo_k = np.ceil((lo_a - av) / TWO_PI)
        hi_k = np.floor((hi_a - av) / TWO_PI)
        w = np.arange(lo_k.min(), hi_k.max() + 1)
        ev = np.concatenate((ev, (av + TWO_PI * w)[(lo_k <= w) & (w <= hi_k)] - rot))
    if len(ev):
        ev = ev[(ev > theta_min + 1e-12) & (ev < theta_max - 1e-12)]
        thetas = np.unique(np.concatenate([thetas, ev]))
        keep = np.concatenate([[True], np.diff(thetas) > 1e-12])
        thetas = thetas[keep]
    pts = _unroll(norm, A, D, P, thetas + rot)

    # tangency-independence at events: evaluating from either end vertex of
    # the event edge must agree
    scale = max(1.0, base.diameter, float(np.abs(D).max()))
    inside = (A > lo_a - 1e-9) & (A < hi_a + 1e-9)
    j = np.nonzero(inside)[0]
    j = j[j >= 1]
    if len(j):
        Ue = unit_vectors(norm, A[j])
        left = P[j - 1] - D[j - 1, None] * Ue
        right = P[j] - D[j, None] * Ue
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
                         ladder=(A, D, P))


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
    x, y = math.cos(alpha), math.sin(alpha)
    point = curve.point_at(theta)
    Vd = norm.vertices
    md = len(Vd)
    j = int(_wedge_of(norm, np.array([x]), np.array([y]))[0])
    if norm.is_polygonal:
        for cand in (j, (j + 1) % md):
            if _on_vertex_ray(Vd, cand, x, y):
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
