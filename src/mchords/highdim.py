"""Increasing-chord curves in d-dimensional Chebyshev space.

The doubling construction places two copies of the previous curve in
opposite facets of the next cube and joins them by one unit edge, which
doubles the length plus one: the resulting curve through all 2^d cube
vertices has Chebyshev length 2^d - 1 and keeps the increasing chord
property in the max norm.
"""

from __future__ import annotations

import numpy as np

from .curvekit import ChordReport, Witness, _checked_tol, _run_two_sided
from .normplane import _as_count


class PolylineD:
    """Open polyline in R^d; points is a read-only (n, dim) float array."""

    __slots__ = ("points", "dim")

    def __init__(self, points):
        P = np.array(points, dtype=float)
        if P.ndim != 2 or len(P) < 1 or P.shape[1] < 1:
            raise ValueError("PolylineD: need an (n, dim) array with n, dim >= 1")
        if not np.all(np.isfinite(P)):
            raise ValueError("PolylineD: non-finite coordinates")
        if len(P) > 1:
            scale = max(1.0, float(np.abs(P).max()))
            steps = np.abs(P[1:] - P[:-1]).max(axis=1)
            if steps.min() <= 1e-12 * scale:
                k = int(np.argmin(steps))
                raise ValueError("PolylineD: points %d and %d coincide" % (k, k + 1))
        P.flags.writeable = False
        self.points = P
        self.dim = int(P.shape[1])

    def __len__(self):
        return len(self.points)

    def edges(self) -> np.ndarray:
        return self.points[1:] - self.points[:-1]

    def __repr__(self):
        return "PolylineD(n=%d, dim=%d)" % (len(self.points), self.dim)


def hypercube_curve(d: int) -> PolylineD:
    """Hamiltonian path through {0,1}^d from the doubling construction.

    Vertex i is the reflected binary code of i: copy 0 of the previous
    curve is followed by copy 1 traversed backwards, joined by a single
    edge in the new coordinate.  Starts at the origin.
    """
    d = _as_count(d, "hypercube_curve: d")
    if not 1 <= d <= 20:
        raise ValueError("hypercube_curve: d must be in 1..20")
    i = np.arange(1 << d, dtype=np.uint32)
    g = i ^ (i >> 1)
    bits = (g[:, None] >> np.arange(d, dtype=np.uint32)) & 1
    return PolylineD(bits.astype(float))


def chebyshev_arclength(curve: PolylineD) -> float:
    """Curve length in the max norm: sum of largest absolute coordinate
    changes per edge."""
    if len(curve) < 2:
        return 0.0
    return float(np.abs(curve.edges()).max(axis=1).sum())


def _cheb_pair_terms(W: np.ndarray, Ef, Er):
    """pair_terms of the max norm for (dim, ...) difference vectors W: the
    gauge, and the right derivatives along Ef and Er, each the largest
    signed rate among the active coordinates (the cone of W is its set of
    active coordinates with their signs)."""
    A = np.abs(W)
    m = A.max(axis=0)
    active = A >= m - 1e-12 * np.maximum(m, 1.0)
    S = np.sign(W)
    return (m,) + tuple(None if E is None else
                        np.where(active, S * E, -np.inf).max(axis=0)
                        for E in (Ef, Er))


def check_increasing_chords_dd(curve: PolylineD, samples_per_edge: int = 8,
                               tol: float = 1e-9) -> ChordReport:
    """Increasing-chord verdict in the Chebyshev norm.

    Runs the two-sided reduction over the curve vertices augmented with
    samples_per_edge interior points per edge; edge starts get the exact
    one-sided derivative test.  Witness quads are reported in vertex
    parameter units (fractional values lie inside edges).
    """
    spe = _as_count(samples_per_edge, "check_increasing_chords_dd: samples_per_edge")
    if spe < 1:
        raise ValueError("check_increasing_chords_dd: need samples_per_edge >= 1")
    if len(curve) < 2:
        raise ValueError("check_increasing_chords_dd: need at least 2 points")
    tol = _checked_tol(tol)
    P = curve.points
    n, dim = P.shape
    f = (np.arange(spe, dtype=float) + 1.0) / (spe + 1)
    E = P[1:] - P[:-1]
    inner = P[:-1, None, :] + f[None, :, None] * E[:, None, :]
    aug = np.concatenate([
        np.concatenate([P[:-1, None, :], inner], axis=1).reshape(-1, dim),
        P[-1:]], axis=0)
    deficit, wits = _run_two_sided(aug, _cheb_pair_terms, tol)
    scale = 1.0 / (spe + 1)
    wits = [Witness(tuple(x * scale for x in w.quad), w.deficit, w.anchor)
            for w in wits]
    return ChordReport(holds=deficit <= tol, max_deficit=deficit,
                       witnesses=wits, mode="exact_polygonal", tol=tol)
