"""Reference computations the benchmark checks the library against.

Nothing here imports mchords: each oracle works from plain vertex arrays
and follows the definition it checks, trading speed for obviousness.

- polygon_gauge: the gauge of a centrally symmetric convex polygon as
  the maximum over its facet functionals.
- lens_lm: half the M-perimeter of the lens M ∩ (q + M), built with
  scipy's half-space intersection.
- chord_deficit: the increasing-chord property from its definition, over
  all quadruples a <= b <= c <= d of the vertices plus edge subsamples.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import HalfspaceIntersection

_CHUNK = 1 << 22  # gauge products per chunk, about 32 MiB of float64


def facet_functionals(V) -> np.ndarray:
    """Rows F_j with <F_j, x> = 1 on edge j of the CCW polygon V, so the
    polygon is {x : F x <= 1}."""
    V = np.asarray(V, dtype=float)
    E = np.roll(V, -1, axis=0) - V
    N = np.stack([E[:, 1], -E[:, 0]], axis=1)
    return N / np.einsum("ij,ij->i", N, V)[:, None]


def polygon_gauge(V):
    """Gauge of the polygon V as a function of an (..., 2) array."""
    F = facet_functionals(V)

    def gauge(W):
        W = np.asarray(W, dtype=float)
        flat = W.reshape(-1, 2)
        out = np.empty(len(flat))
        step = max(1, _CHUNK // len(F))
        for a in range(0, len(flat), step):
            out[a:a + step] = (flat[a:a + step] @ F.T).max(axis=1)
        return out.reshape(W.shape[:-1])

    return gauge


def euclidean_gauge(W):
    W = np.asarray(W, dtype=float)
    return np.hypot(W[..., 0], W[..., 1])


def lp_polygon(p: float, n: int) -> np.ndarray:
    """The n-gon the library samples the lp disk with: n evenly spaced
    polar angles, each pushed out to the lp unit circle."""
    th = np.arange(n // 2) * (2.0 * math.pi / n)
    half = np.stack([np.cos(th), np.sin(th)], axis=1)
    half /= ((np.abs(half) ** p).sum(axis=1) ** (1.0 / p))[:, None]
    return np.concatenate([half, -half])


def unit_vector(gauge, theta: float) -> np.ndarray:
    u = np.array([math.cos(theta), math.sin(theta)])
    return u / float(gauge(u))


def lens_lm(V, theta: float) -> float:
    """Half the M-perimeter of M ∩ (q + M), q the unit vector of theta."""
    F = facet_functionals(V)
    gauge = polygon_gauge(V)
    q = unit_vector(gauge, theta)
    hs = np.concatenate([
        np.column_stack([F, -np.ones(len(F))]),
        np.column_stack([F, -1.0 - F @ q]),
    ])
    hs = np.unique(np.round(hs, 14), axis=0)
    X = HalfspaceIntersection(hs, 0.5 * q).intersections
    c = X.mean(axis=0)
    X = X[np.argsort(np.arctan2(X[:, 1] - c[1], X[:, 0] - c[0]))]
    E = np.roll(X, -1, axis=0) - X
    keep = np.hypot(E[:, 0], E[:, 1]) > 1e-12
    X = X[keep]
    E = np.roll(X, -1, axis=0) - X
    return 0.5 * float(gauge(E).sum())


def subsample(P, per_edge: int) -> np.ndarray:
    """The polyline's vertices with per_edge evenly spaced points added
    inside every edge, in curve order."""
    P = np.asarray(P, dtype=float)
    if per_edge <= 0:
        return P
    t = np.arange(per_edge + 1) / (per_edge + 1)
    inner = P[:-1, None, :] + t[None, :, None] * (P[1:] - P[:-1])[:, None, :]
    return np.concatenate([inner.reshape(-1, 2), P[-1:]])


def chord_deficit(P, gauge) -> float:
    """max over a <= b <= c <= d of gauge(P_b - P_c) - gauge(P_a - P_d).

    With D[i, l] = gauge(P_l - P_i), the smallest outer chord around the
    pair (b, c) is min over i <= b, l >= c of D[i, l]: a suffix minimum
    along each row followed by a prefix minimum down each column.
    """
    P = np.asarray(P, dtype=float)
    n = len(P)
    D = np.empty((n, n))
    step = max(1, _CHUNK // (2 * n))
    for a in range(0, n, step):
        D[a:a + step] = gauge(P[None, :, :] - P[a:a + step, None, :])
    outer = np.minimum.accumulate(D[:, ::-1], axis=1)[:, ::-1]
    outer = np.minimum.accumulate(outer, axis=0)
    return float(np.triu(D - outer).max())


def chord_oracle_points(P, facets: int, budget: float = 1.5e8,
                        most: int = 1200):
    """P with as many edge subsamples (at most 16 per edge) as keep the
    gauge matrix within `most` points and `budget` products against
    `facets` facets, or None when even the bare vertices do not fit."""
    n = len(P)
    for per_edge in (16, 8, 4, 2, 1, 0):
        N = (n - 1) * (per_edge + 1) + 1
        if N <= most and N * N * facets <= budget:
            return subsample(P, per_edge)
    return None
