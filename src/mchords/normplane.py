"""Unit disks of two-dimensional normed planes and the gauge they induce.

A norm on the plane is described by its unit disk: an origin-symmetric
convex body.  Every representation accepted here (explicit polygon, radial
samples, analytic builtins) is lowered to a dense counter-clockwise
boundary polygon once, and all queries run against that polygon.  Exact
polygons keep their vertices untouched, so gauge values for them are exact
up to floating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDiskError, GeometryError

DEFAULT_RESOLUTION = 4096
TWO_PI = 2.0 * math.pi

# Type alias only; vectors are plain (2,) float arrays throughout.
Vec2 = np.ndarray


def vec(x: float, y: float) -> Vec2:
    return np.array([float(x), float(y)])


def as_vec(v) -> Vec2:
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.shape != (2,):
        raise ValueError("expected a 2-vector, got shape %s" % (a.shape,))
    if not np.all(np.isfinite(a)):
        raise ValueError("vector has non-finite components: %s" % (a,))
    return a


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _validate_symmetric_polygon(V: np.ndarray, what: str) -> None:
    """Reject vertex lists that do not bound an origin-symmetric convex disk
    with the origin strictly inside.  Diagnostics name the offending vertex."""
    if V.ndim != 2 or V.shape[1] != 2:
        raise InvalidDiskError("%s: vertices must form an (n, 2) array" % what)
    n = len(V)
    if n < 4:
        raise InvalidDiskError("%s: need at least 4 vertices, got %d" % (what, n))
    if n % 2 != 0:
        raise InvalidDiskError("%s: symmetric disk needs an even vertex count, got %d" % (what, n))
    if not np.all(np.isfinite(V)):
        bad = int(np.where(~np.isfinite(V).all(axis=1))[0][0])
        raise InvalidDiskError("%s: vertex %d is not finite" % (what, bad))
    scale = float(np.abs(V).max())
    if scale == 0.0:
        raise InvalidDiskError("%s: all vertices at the origin" % what)

    # origin symmetry: antipodal vertex must sit half a cycle away
    h = n // 2
    dev = np.abs(V[(np.arange(n) + h) % n] + V)
    if dev.max() > 1e-12 * max(scale, 1.0):
        bad = int(np.argmax(dev.max(axis=1)))
        raise InvalidDiskError(
            "%s: vertex %d (%.17g, %.17g) has no antipode -v in the list"
            % (what, bad, V[bad, 0], V[bad, 1]))

    edges = np.roll(V, -1, axis=0) - V
    elen = np.hypot(edges[:, 0], edges[:, 1])
    if elen.min() <= 1e-15 * scale:
        bad = int(np.argmin(elen))
        raise InvalidDiskError("%s: vertices %d and %d coincide" % (what, bad, (bad + 1) % n))

    turn = _cross(edges, np.roll(edges, -1, axis=0))
    if turn.min() < -1e-12 * scale * scale:
        bad = int(np.argmin(turn))
        raise InvalidDiskError(
            "%s: right turn at vertex %d (%.17g, %.17g); boundary is not convex and "
            "counter-clockwise" % (what, (bad + 1) % n, V[(bad + 1) % n, 0], V[(bad + 1) % n, 1]))

    # origin strictly inside: origin left of every directed edge
    c = _cross(edges, V)  # cross(e_i, v_i); origin inside iff all < 0
    if c.max() >= -1e-15 * scale * scale:
        bad = int(np.argmax(c))
        raise InvalidDiskError(
            "%s: origin is not strictly interior (edge starting at vertex %d)" % (what, bad))


class UnitDisk:
    """Origin-symmetric convex disk, canonically stored as a CCW polygon.

    Attributes
    ----------
    vertices : (n, 2) array, read-only, CCW, rolled so polar angles ascend
    kind : "polygon" | "radial" | "euclidean" | "lp"
    is_polygonal : True when the polygon is the exact body (not a sampling)
    is_strictly_convex, is_smooth : properties of the represented body
    """

    __slots__ = ("vertices", "kind", "is_polygonal", "is_strictly_convex",
                 "is_smooth", "lp_exponent", "_ang", "_edge", "_edge_c", "_grad")

    def __init__(self, vertices, *, kind: str, is_polygonal: bool,
                 is_strictly_convex: bool, is_smooth: bool,
                 lp_exponent: float | None = None):
        V = np.array(vertices, dtype=float)
        _validate_symmetric_polygon(V, what=kind)
        ang = np.arctan2(V[:, 1], V[:, 0])
        k = int(np.argmin(ang))
        V = np.roll(V, -k, axis=0)
        ang = np.roll(ang, -k)
        if np.any(np.diff(ang) <= 0):
            # cannot happen for a valid disk; guards fp pathologies
            raise InvalidDiskError("%s: vertex polar angles are not strictly increasing" % kind)
        V.flags.writeable = False
        self.vertices = V
        self.kind = kind
        self.is_polygonal = bool(is_polygonal)
        self.is_strictly_convex = bool(is_strictly_convex)
        self.is_smooth = bool(is_smooth)
        self.lp_exponent = lp_exponent

        edges = np.roll(V, -1, axis=0) - V
        c = _cross(edges, V)  # negative for every edge
        self._ang = ang
        self._edge = edges
        self._edge_c = c
        # gradient of the gauge on the cone over edge j: gauge(w) = dot(w, grad_j)
        self._grad = np.stack([-edges[:, 1], edges[:, 0]], axis=1) / c[:, None]

    # -- constructors ------------------------------------------------------

    @classmethod
    def polygon(cls, vertices) -> "UnitDisk":
        return cls(vertices, kind="polygon", is_polygonal=True,
                   is_strictly_convex=False, is_smooth=False)

    @classmethod
    def radial(cls, angles, radii, degrees: bool = False) -> "UnitDisk":
        """Disk from boundary samples (angle, radius).

        The samples are chord-interpolated; the pair at angle + pi must be
        present with the same radius.  Treated as a sampling of a smooth
        body unless consecutive samples are collinear.
        """
        a = np.asarray(angles, dtype=float)
        r = np.asarray(radii, dtype=float)
        if degrees:
            a = np.deg2rad(a)
        if a.ndim != 1 or a.shape != r.shape:
            raise InvalidDiskError("radial: angles and radii must be equal-length 1-d arrays")
        n = len(a)
        if n < 4 or n % 2 != 0:
            raise InvalidDiskError("radial: need an even number (>= 4) of samples, got %d" % n)
        if np.any(r <= 0):
            bad = int(np.argmin(r))
            raise InvalidDiskError("radial: radius at sample %d is not positive" % bad)
        if np.any(a < 0) or np.any(a >= TWO_PI):
            bad = int(np.where((a < 0) | (a >= TWO_PI))[0][0])
            raise InvalidDiskError("radial: angle at sample %d outside [0, 2*pi)" % bad)
        if np.any(np.diff(a) <= 0):
            bad = int(np.where(np.diff(a) <= 0)[0][0]) + 1
            raise InvalidDiskError("radial: angles not strictly increasing at sample %d" % bad)
        h = n // 2
        if np.max(np.abs((a[h:] - a[:h]) - math.pi)) > 1e-9:
            bad = int(np.argmax(np.abs((a[h:] - a[:h]) - math.pi)))
            raise InvalidDiskError("radial: sample %d has no partner at angle + pi" % bad)
        if np.max(np.abs(r[h:] - r[:h])) > 1e-12 * max(1.0, float(r.max())):
            bad = int(np.argmax(np.abs(r[h:] - r[:h])))
            raise InvalidDiskError(
                "radial: radii at angle %d and its antipode differ beyond 1e-12" % bad)
        half = r[:h, None] * np.stack([np.cos(a[:h]), np.sin(a[:h])], axis=1)
        V = np.concatenate([half, -half], axis=0)  # exactly symmetric
        edges = np.roll(V, -1, axis=0) - V
        turn = _cross(edges, np.roll(edges, -1, axis=0))
        strictly = bool(turn.min() > 1e-9 * float(np.abs(V).max()) ** 2)
        return cls(V, kind="radial", is_polygonal=False,
                   is_strictly_convex=strictly, is_smooth=strictly)

    @classmethod
    def from_boundary_samples(cls, points) -> "UnitDisk":
        """Symmetric disk through the given boundary points (sampled-smooth).

        Points are sorted by polar angle; the set must be symmetric under
        negation within 1e-9 of its scale, and is snapped exactly symmetric.
        """
        P = np.asarray(points, dtype=float)
        if P.ndim != 2 or P.shape[1] != 2 or len(P) < 4:
            raise InvalidDiskError("boundary samples: need an (n, 2) array, n >= 4")
        ang = np.mod(np.arctan2(P[:, 1], P[:, 0]), TWO_PI)
        order = np.argsort(ang, kind="stable")
        P = P[order]
        ang = ang[order]
        n = len(P)
        if n % 2 != 0:
            raise InvalidDiskError("boundary samples: even count required for symmetry")
        h = n // 2
        scale = float(np.abs(P).max())
        if np.max(np.abs(P[h:] + P[:h])) > 1e-9 * max(1.0, scale):
            raise InvalidDiskError("boundary samples: point set is not origin-symmetric")
        V = np.concatenate([P[:h], -P[:h]], axis=0)
        edges = np.roll(V, -1, axis=0) - V
        turn = _cross(edges, np.roll(edges, -1, axis=0))
        strictly = bool(turn.min() > 1e-9 * scale * scale)
        return cls(V, kind="radial", is_polygonal=False,
                   is_strictly_convex=strictly, is_smooth=strictly)

    @classmethod
    def euclidean(cls, n: int = DEFAULT_RESOLUTION) -> "UnitDisk":
        half = _half_circle(n)
        return cls(np.concatenate([half, -half]), kind="euclidean",
                   is_polygonal=False, is_strictly_convex=True, is_smooth=True)

    @classmethod
    def lp(cls, p: float, n: int = DEFAULT_RESOLUTION) -> "UnitDisk":
        p = float(p)
        if not (p >= 1.0 and math.isfinite(p)):
            raise InvalidDiskError("lp: exponent must be a finite real >= 1, got %r" % p)
        half = _half_circle(n)
        norms = (np.abs(half[:, 0]) ** p + np.abs(half[:, 1]) ** p) ** (1.0 / p)
        half = half / norms[:, None]
        smooth = p > 1.0
        return cls(np.concatenate([half, -half]), kind="lp", lp_exponent=p,
                   is_polygonal=False, is_strictly_convex=smooth, is_smooth=smooth)

    @classmethod
    def square(cls) -> "UnitDisk":
        return cls.polygon([(1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)])

    @classmethod
    def regular_hexagon(cls) -> "UnitDisk":
        s = math.sqrt(3.0) / 2.0
        return cls.polygon([(1.0, 0.0), (0.5, s), (-0.5, s),
                            (-1.0, 0.0), (-0.5, -s), (0.5, -s)])

    @classmethod
    def from_spec(cls, obj: dict, resolution: int = DEFAULT_RESOLUTION) -> "UnitDisk":
        """Build a disk from its JSON description (already parsed to a dict)."""
        if not isinstance(obj, dict) or "kind" not in obj:
            raise InvalidDiskError("disk spec: expected an object with a 'kind' field")
        kind = obj["kind"]
        if kind == "polygon":
            if "vertices" not in obj:
                raise InvalidDiskError("disk spec: polygon needs 'vertices'")
            return cls.polygon(obj["vertices"])
        if kind == "radial":
            if "angles_deg" not in obj or "radii" not in obj:
                raise InvalidDiskError("disk spec: radial needs 'angles_deg' and 'radii'")
            return cls.radial(obj["angles_deg"], obj["radii"], degrees=True)
        if kind == "builtin":
            name = obj.get("name")
            if name == "euclidean":
                return cls.euclidean(resolution)
            if name == "lp":
                if "p" not in obj:
                    raise InvalidDiskError("disk spec: builtin lp needs 'p'")
                return cls.lp(obj["p"], resolution)
            raise InvalidDiskError("disk spec: unknown builtin %r" % (name,))
        raise InvalidDiskError("disk spec: unknown kind %r" % (kind,))

    # -- basic geometry ----------------------------------------------------

    @property
    def diameter(self) -> float:
        return 2.0 * float(np.hypot(self.vertices[:, 0], self.vertices[:, 1]).max())

    def __repr__(self):
        return "UnitDisk(kind=%r, n=%d)" % (self.kind, len(self.vertices))


def _half_circle(n: int) -> np.ndarray:
    n = int(n)
    if n < 8:
        raise InvalidDiskError("resolution too small: %d" % n)
    if n % 2:
        n += 1
    th = np.arange(n // 2) * (TWO_PI / n)
    return np.stack([np.cos(th), np.sin(th)], axis=1)


# -- gauge ----------------------------------------------------------------

def gauge_many(disk: UnitDisk, V) -> np.ndarray:
    """Gauge (Minkowski functional) of each row of V with respect to disk.

    Vectorized; V may have any leading shape with trailing axis 2.
    """
    V = np.asarray(V, dtype=float)
    x, y = V.reshape(-1, 2).T
    g = _cone_gauge(disk, _wedge_of(disk, x, y)[0], x, y)
    zero = (x == 0.0) & (y == 0.0)
    if zero.any():
        g = np.where(zero, 0.0, g)
    return g.reshape(V.shape[:-1])


def _wedge_of(disk: UnitDisk, x: np.ndarray, y: np.ndarray):
    """Cone j of each direction (x, y), the wedge over boundary edge j
    holding it, and its polar angle r wrapped to [a0, a0 + 2 pi), a0 =
    _ang[0], so that _ang[j] <= r < _ang[j + 1].

    x and y are component arrays of one shape.  The wrap is np.mod's,
    done by compare and add, since arctan2 - a0 lies in [-pi, 2 pi].
    """
    a0 = disk._ang[0]
    r = np.arctan2(y, x) - a0
    r[r >= TWO_PI] = 0.0
    r += (r < 0.0) * TWO_PI
    r += a0
    j = np.searchsorted(disk._ang, r, side="right") - 1
    np.minimum(j, len(disk._ang) - 1, out=j)
    return j, r


def _cone_gauge(disk: UnitDisk, j, x, y):
    """Gauge of (x, y) on cone j, where it is linear."""
    return (disk._edge[j, 0] * y - disk._edge[j, 1] * x) / disk._edge_c[j]


def gauge(disk: UnitDisk, v) -> float:
    """Norm of v in the plane whose unit disk is `disk`."""
    return float(gauge_many(disk, as_vec(v)[None, :])[0])


def unit_vectors(disk: UnitDisk, thetas) -> np.ndarray:
    th = np.asarray(thetas, dtype=float)
    d = np.stack([np.cos(th), np.sin(th)], axis=-1)
    g = gauge_many(disk, d)
    return d / g[..., None]


def unit_vector(disk: UnitDisk, theta: float) -> Vec2:
    """Boundary point of the disk in direction theta (gauge exactly 1)."""
    return unit_vectors(disk, float(theta))


def gauge_gradients(disk: UnitDisk, W) -> np.ndarray:
    """Gradient of the gauge at each point of W (rows).

    The gauge is linear on each cone over a boundary edge; on cone
    boundaries the gradient of the counter-clockwise-earlier cone is
    reported.
    """
    W = np.asarray(W, dtype=float).reshape(-1, 2)
    return disk._grad[_wedge_of(disk, *W.T)[0]]


# -- support lines --------------------------------------------------------

@dataclass(frozen=True)
class SupportLine:
    """Oriented support line of a convex body.

    The body lies in the closed half-plane to the left of the line through
    `point` with direction `direction` (unit Euclidean).  `contact` is the
    tangency: a (2,) point or a (2, 2) segment in CCW order.
    """
    point: np.ndarray
    direction: np.ndarray
    theta: float
    contact: np.ndarray

    @property
    def is_segment(self) -> bool:
        return self.contact.ndim == 2


def _vertices_of(obj) -> np.ndarray:
    V = getattr(obj, "vertices", None)
    if V is None:
        V = np.asarray(obj, dtype=float)
    return V


def support(disk_or_body, normal) -> SupportLine:
    """Support line with the given outward normal."""
    n = as_vec(normal)
    nn = math.hypot(n[0], n[1])
    if nn == 0.0:
        raise ValueError("support: zero normal")
    V = _vertices_of(disk_or_body)
    d = V @ n
    m = int(np.argmax(d))
    spread = float(d.max() - d.min())
    tol = 1e-9 * max(spread, nn * float(np.abs(V).max()))
    mask = d >= d[m] - tol
    i0, i1 = _circular_run(mask, m)
    direction = np.array([-n[1], n[0]]) / nn
    if i0 == i1:
        contact = V[i0].copy()
        point = V[i0].copy()
    else:
        contact = np.array([V[i0], V[i1]])
        point = V[i0].copy()
    return SupportLine(point=point, direction=direction,
                       theta=math.atan2(direction[1], direction[0]), contact=contact)


def _circular_run(mask: np.ndarray, m: int):
    """Endpoints (first, last) of the contiguous circular run of True
    containing index m."""
    n = len(mask)
    if mask.all():
        return 0, n - 1
    i0 = m
    while mask[(i0 - 1) % n]:
        i0 = (i0 - 1) % n
    i1 = m
    while mask[(i1 + 1) % n]:
        i1 = (i1 + 1) % n
    return i0, i1


# -- Birkhoff orthogonality -----------------------------------------------

def is_birkhoff_orthogonal(disk: UnitDisk, v, u, tol: float = 1e-9) -> bool:
    """True when gauge(v + t*u) >= gauge(v) for all real t, up to tol.

    Decided by golden-section minimization of the convex map
    t -> gauge(v + t*u) over a bracket that provably contains the minimum.
    """
    v = as_vec(v)
    u = as_vec(u)
    gv = gauge(disk, v)
    gu = gauge(disk, u)
    if gv == 0.0 or gu == 0.0:
        raise ValueError("is_birkhoff_orthogonal: zero vector")
    T = 4.0 * gv / gu

    def f(t):
        w = v + t * u
        return float(gauge_many(disk, w[None, :])[0])

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = -T, T
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(90):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return min(fc, fd) >= gv - tol


# -- boundary arc length --------------------------------------------------

def locate_on_boundary(vertices: np.ndarray, x) -> tuple[int, float, np.ndarray, float]:
    """Closest boundary point of a closed CCW polygon to x.

    Returns (edge index, parameter in [0,1], snapped point, distance).
    """
    x = as_vec(x)
    A = vertices
    B = np.roll(vertices, -1, axis=0)
    ab = B - A
    denom = np.einsum("ij,ij->i", ab, ab)
    denom = np.where(denom == 0, 1.0, denom)
    t = np.clip(np.einsum("ij,ij->i", x[None, :] - A, ab) / denom, 0.0, 1.0)
    proj = A + t[:, None] * ab
    d2 = np.einsum("ij,ij->i", proj - x[None, :], proj - x[None, :])
    i = int(np.argmin(d2))
    return i, float(t[i]), proj[i], math.sqrt(float(d2[i]))


def boundary_arclength(disk: UnitDisk, body, p, q) -> float:
    """Length, in the norm of `disk`, of the CCW boundary arc of `body`
    from p to q.  Both points must lie on the boundary (snapped within
    1e-9 of the body's diameter).  Result is in [0, perimeter)."""
    V = _vertices_of(body)
    diam = float(np.abs(V).max()) * 2.0
    e = np.roll(V, -1, axis=0) - V
    eg = gauge_many(disk, e)
    cum = np.concatenate([[0.0], np.cumsum(eg)])
    perim = float(cum[-1])

    def pos(x):
        i, t, snapped, dist = locate_on_boundary(V, x)
        if dist > 1e-9 * max(diam, 1.0):
            raise GeometryError(
                "point (%.17g, %.17g) is not on the boundary (distance %.3g)"
                % (x[0], x[1], dist))
        return cum[i] + gauge(disk, snapped - V[i])

    sp = pos(as_vec(p))
    sq = pos(as_vec(q))
    d = sq - sp
    if abs(d) < 1e-12 * max(perim, 1.0):
        return 0.0
    return float(d % perim)
