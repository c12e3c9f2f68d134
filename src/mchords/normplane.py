"""Unit disks of two-dimensional normed planes and the gauge they induce.

A norm on the plane is described by its unit disk: an origin-symmetric
convex body.  Every representation accepted here (explicit polygon, radial
samples, analytic builtins) is lowered to a dense counter-clockwise
boundary polygon once, and all queries run against that polygon.  Exact
polygons keep their vertices untouched, so gauge values for them are exact
up to floating point.  The convex rings the constructions are cut from
(`ConvexBody`) live here too, with the one rule for points on a boundary.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidDiskError, GeometryError

DEFAULT_RESOLUTION = 4096
TWO_PI = 2.0 * math.pi
_LEFT = np.array([-1.0, 1.0])  # e[:, ::-1] * _LEFT: (-y, x), the left normal of e
_RAY_SCREEN = 2e-12  # angle from a cone's boundary ray that gets the ray test

# Type alias only; vectors are plain (2,) float arrays throughout.
Vec2 = np.ndarray


def as_vec(v) -> Vec2:
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.shape != (2,):
        raise ValueError("expected a 2-vector, got shape %s" % (a.shape,))
    if not np.all(np.isfinite(a)):
        raise ValueError("vector has non-finite components: %s" % (a,))
    return a


def _as_count(n, what: str) -> int:
    """n as an int by operator.index, so numpy integers pass; a value that
    is not an integer, 2.5 or even 3.0, raises ValueError naming what."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError("%s must be an integer, got %r" % (what, n)) from None


def _cross(a, b):
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _shift(a: np.ndarray, k: int = 1) -> np.ndarray:
    """Rows of a moved up cyclically: row i is a[(i + k) % n].  The same
    array as np.roll(a, -k, axis=0), built by two slices."""
    k %= len(a)
    return np.concatenate((a[k:], a[:k]))


def _next(R: np.ndarray) -> np.ndarray:
    """Entries of each ring of the stack R (B, n, ...) moved up by one:
    entry i of ring b is R[b, (i + 1) % n], _shift along the ring axis."""
    return np.concatenate((R[:, 1:], R[:, :1]), axis=1)


def _validate_symmetric_polygon(V: np.ndarray, what: str) -> None:
    """Reject vertex lists that do not bound an origin-symmetric convex disk
    with the origin strictly inside.  V is a stack (B, n, 2) of rings, one
    disk the stack of one.  The rules run in order over the whole stack,
    and the first ring to break a rule raises; its diagnostics name its
    offending vertex, as they would for that ring alone."""
    if V.ndim != 3 or V.shape[2] != 2:
        raise InvalidDiskError("%s: vertices must form an (n, 2) array" % what)
    n = V.shape[1]
    if n < 4:
        raise InvalidDiskError("%s: need at least 4 vertices, got %d" % (what, n))
    if n % 2 != 0:
        raise InvalidDiskError("%s: symmetric disk needs an even vertex count, got %d" % (what, n))
    finite = np.isfinite(V)
    if not finite.all():
        b = int(finite.all(axis=(1, 2)).argmin())
        bad = int(np.where(~finite[b].all(axis=1))[0][0])
        raise InvalidDiskError("%s: vertex %d is not finite" % (what, bad))
    scale = np.abs(V).max(axis=(1, 2))
    if not scale.all():
        raise InvalidDiskError("%s: all vertices at the origin" % what)

    # origin symmetry: antipodal vertex must sit half a cycle away
    h = n // 2
    dev = np.abs(V[:, h:] + V[:, :h])  # rows i and i + h pair both ways
    fail = dev.max(axis=(1, 2)) > 1e-12 * np.maximum(scale, 1.0)
    if fail.any():
        b = int(fail.argmax())
        bad = int(dev[b].max(axis=1).argmax())
        raise InvalidDiskError(
            "%s: vertex %d (%.17g, %.17g) has no antipode -v in the list"
            % (what, bad, V[b, bad, 0], V[b, bad, 1]))

    edges = _next(V) - V
    elen = np.hypot(edges[..., 0], edges[..., 1])
    fail = elen.min(axis=1) <= 1e-15 * scale
    if fail.any():
        b = int(fail.argmax())
        bad = int(elen[b].argmin())
        raise InvalidDiskError("%s: vertices %d and %d coincide" % (what, bad, (bad + 1) % n))

    turn = _cross(edges, _next(edges))
    fail = turn.min(axis=1) < -1e-12 * scale * scale
    if fail.any():
        b = int(fail.argmax())
        bad = (int(turn[b].argmin()) + 1) % n
        raise InvalidDiskError(
            "%s: right turn at vertex %d (%.17g, %.17g); boundary is not convex and "
            "counter-clockwise" % (what, bad, V[b, bad, 0], V[b, bad, 1]))

    # origin strictly inside: origin left of every directed edge
    c = _cross(edges, V)  # cross(e_i, v_i); origin inside iff all < 0
    fail = c.max(axis=1) >= -1e-15 * scale * scale
    if fail.any():
        b = int(fail.argmax())
        bad = int(c[b].argmax())
        raise InvalidDiskError(
            "%s: origin is not strictly interior (edge starting at vertex %d)" % (what, bad))


class _Stack:
    """The tables of B disks with one vertex count n, laid end to end: row
    b * n + j of V, ang, E, c and grad is vertex j, its polar angle, edge
    j (vertex j to j + 1), c = cross(edge j, vertex j) < 0 and the gauge's
    gradient on cone j of disk b.  _Stack(R) validates the rings R (B, n,
    2) by _validate_symmetric_polygon, naming them `what`, and rolls each
    so that its least polar angle comes first.  A UnitDisk keeps the
    stack of its one ring as disk._T.

    A query of m rows gives m / B consecutive rows to each disk, in order,
    and names each row's disk by base = b * n (rows(m)); base broadcasts
    against the rows.  cone(x, y, base) is the cone j of each direction
    (x, y), the wedge over edge j of its disk holding it: ang[base + j]
    <= r < ang[base + j + 1] for its polar angle r from _wrapped_angle.
    A stack of one finds it by searchsorted over its angles, a stack of
    more by one searchsorted over the complex keys (base, angle), which
    sort by disk, then angle.  gauge(P, base) is the gauge of each row of
    P (..., 2), linear on each cone.
    """

    __slots__ = ("B", "n", "bases", "V", "ang", "E", "c", "grad", "keys",
                 "_arcs", "_slopes")

    def __init__(self, R, what: str = "polygon"):
        R = np.asarray(R, dtype=float)
        _validate_symmetric_polygon(R, what)
        self.B, self.n = B, n = R.shape[:2]
        self.bases = np.arange(0, B * n, n)
        ang = np.arctan2(R[..., 1], R[..., 0])
        roll = ang.argmin(axis=1)[:, None] + np.arange(n)
        roll %= n
        roll += self.bases[:, None]  # rows of the flat stack
        V = R.reshape(-1, 2).take(roll, axis=0)
        ang = ang.take(roll)
        if (ang[:, 1:] <= ang[:, :-1]).any():
            # cannot happen for a valid disk; guards fp pathologies
            raise InvalidDiskError("%s: vertex polar angles are not strictly increasing" % what)
        E = _next(V) - V
        c = _cross(E, V)  # negative for every edge
        self.V, self.E, self.grad = (a.reshape(-1, 2) for a in (
            V, E, E[..., ::-1] * _LEFT / c[..., None]))
        self.V.flags.writeable = False
        self.ang, self.c = ang.ravel(), c.ravel()
        self.keys = _key(self.bases[:, None], ang).ravel() if B > 1 else None
        self._arcs = None  # arcs(), built on first use
        self._slopes = None  # _gauge_slopes' callback, built on first use

    def rows(self, m: int) -> np.ndarray:
        """base = b * n of each of m query rows."""
        return self.bases.repeat(m // self.B)

    def cone(self, x: np.ndarray, y: np.ndarray, base=0) -> np.ndarray:
        if self.B == 1:
            r = _wrapped_angle(self.ang[0], x, y)
            return np.searchsorted(self.ang, r, side="right") - 1
        r = _wrapped_angle(self.ang[base], x, y)
        return np.searchsorted(self.keys, _key(base, r), side="right") - 1 - base

    def gauge(self, P: np.ndarray, base=0) -> np.ndarray:
        x, y = P[..., 0], P[..., 1]
        J = base + self.cone(x, y, base)
        g = (self.E[J, 0] * y - self.E[J, 1] * x) / self.c[J]
        zero = (x == 0.0) & (y == 0.0)
        return np.where(zero, 0.0, g) if zero.any() else g

    def arcs(self):
        """(W, start, total) for the arc length along each disk's boundary:
        W the gauge of each edge row, start the arc length from its disk's
        vertex 0 to the edge's start, total each disk's perimeter.  Built
        on first use and kept."""
        if self._arcs is None:
            W = self.gauge(self.E, self.rows(len(self.E)))
            C = np.cumsum(W.reshape(self.B, -1), axis=1)
            start = np.concatenate([np.zeros((self.B, 1)), C[:, :-1]], axis=1)
            self._arcs = W, start.ravel(), C[:, -1]
        return self._arcs


def _key(b, r):
    # complex numbers sort by real part, then imaginary part
    z = np.empty(r.shape, dtype=complex)
    z.real = b
    z.imag = r
    return z


class UnitDisk:
    """Origin-symmetric convex disk, canonically stored as a CCW polygon:
    its tables are the _Stack of its one ring, _T.

    Attributes
    ----------
    vertices : (n, 2) array, read-only, CCW, rolled so polar angles ascend
    kind : "polygon" | "radial" | "euclidean" | "lp"
    is_polygonal : kind == "polygon": the polygon is the exact body, not a
        sampling of one
    is_strictly_convex : the represented body is strictly convex.  False
        for polygons; True for euclidean and for lp with p > 1.  A radial
        or boundary-sampled disk counts as a sampling of a strictly convex
        body unless some consecutive samples are collinear to rounding (see
        _mirrored); a flat side drawn as one long edge is not seen.
    """

    __slots__ = ("vertices", "kind", "is_polygonal", "is_strictly_convex", "_T")

    def __init__(self, vertices, *, kind: str, is_strictly_convex: bool = False):
        self._T = _Stack(np.asarray(vertices, dtype=float)[None], kind)
        self.vertices = self._T.V
        self.kind = kind
        self.is_polygonal = kind == "polygon"
        self.is_strictly_convex = bool(is_strictly_convex)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _mirrored(cls, half, kind: str, strictly: bool | None = None) -> "UnitDisk":
        """Disk on the ring [half, -half], exactly symmetric.  strictly is
        the flag is_strictly_convex; when None, the ring is taken for a
        sampling of a strictly convex body unless some consecutive samples
        are collinear to rounding: every turn cross(e_i, e_i+1) must exceed
        64 eps scale (|e_i| + |e_i+1|), scale the largest coordinate.
        Rounding of exactly collinear samples reaches 2.3 of those units
        (polygons sampled radially at 1024 to 65536 points); a circle of
        262144 samples turns by 1.3e6 of them."""
        V = np.concatenate([half, -half])
        if strictly is None:
            E = _shift(V) - V
            L = np.hypot(E[:, 0], E[:, 1])
            tol = 64 * np.finfo(float).eps * float(np.abs(V).max()) * (L + _shift(L))
            strictly = bool((_cross(E, _shift(E)) > tol).all())
        return cls(V, kind=kind, is_strictly_convex=strictly)

    @classmethod
    def polygon(cls, vertices) -> "UnitDisk":
        return cls(vertices, kind="polygon")

    @classmethod
    def radial(cls, angles, radii, degrees: bool = False) -> "UnitDisk":
        """Disk from boundary samples (angle, radius).

        The samples are chord-interpolated; the pair at angle + pi must be
        present with the same radius.  Treated as a sampling of a strictly
        convex body unless consecutive samples are collinear (_mirrored).
        """
        a = np.asarray(angles, dtype=float)
        r = np.asarray(radii, dtype=float)
        if degrees:
            a = np.deg2rad(a)
        if a.ndim != 1 or a.shape != r.shape:
            raise InvalidDiskError("radial: angles and radii must be equal-length 1-d arrays")
        for what, v in (("angle", a), ("radius", r)):
            if not np.isfinite(v).all():
                raise InvalidDiskError("radial: %s at sample %d is not finite"
                                       % (what, int(np.argmin(np.isfinite(v)))))
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
        return cls._mirrored(half, "radial")

    @classmethod
    def from_boundary_samples(cls, points) -> "UnitDisk":
        """Symmetric disk through the given boundary points (sampled-smooth).

        Points are sorted by polar angle; the set must be symmetric under
        negation within 1e-9 of its scale, and is snapped exactly symmetric.
        Strict convexity is decided as for radial (_mirrored).
        """
        P = np.asarray(points, dtype=float)
        if P.ndim != 2 or P.shape[1] != 2 or len(P) < 4:
            raise InvalidDiskError("boundary samples: need an (n, 2) array, n >= 4")
        if not np.isfinite(P).all():
            raise InvalidDiskError("boundary samples: point %d is not finite"
                                   % int(np.argmin(np.isfinite(P).all(axis=1))))
        ang = np.mod(np.arctan2(P[:, 1], P[:, 0]), TWO_PI)
        order = np.argsort(ang, kind="stable")
        P = P[order]
        n = len(P)
        if n % 2 != 0:
            raise InvalidDiskError("boundary samples: even count required for symmetry")
        h = n // 2
        if np.max(np.abs(P[h:] + P[:h])) > 1e-9 * max(1.0, float(np.abs(P).max())):
            raise InvalidDiskError("boundary samples: point set is not origin-symmetric")
        return cls._mirrored(P[:h], "radial")

    @classmethod
    def euclidean(cls, n: int = DEFAULT_RESOLUTION) -> "UnitDisk":
        return cls._mirrored(_half_circle(n, "euclidean"), "euclidean", True)

    @classmethod
    def lp(cls, p: float, n: int = DEFAULT_RESOLUTION) -> "UnitDisk":
        p = float(p)
        if not (p >= 1.0 and math.isfinite(p)):
            raise InvalidDiskError("lp: exponent must be a finite real >= 1, got %r" % p)
        half = _half_circle(n, "lp")
        norms = (np.abs(half[:, 0]) ** p + np.abs(half[:, 1]) ** p) ** (1.0 / p)
        # by construction: a test on the samples would call p >= 8 flat,
        # since its samples near the axes are collinear to rounding
        return cls._mirrored(half / norms[:, None], "lp", p > 1.0)

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
        fields = {"polygon": ("vertices",), "radial": ("angles_deg", "radii"),
                  "builtin": ("name", "p") if obj.get("name") == "lp" else ("name",)}
        if not isinstance(kind, str) or kind not in fields:
            raise InvalidDiskError("disk spec: unknown kind %r" % (kind,))
        what = "builtin %r" % (obj.get("name"),) if kind == "builtin" else kind
        for key in obj:
            if key != "kind" and key not in fields[kind]:
                raise InvalidDiskError("disk spec: %s takes no field %r" % (what, key))
        if kind == "polygon":
            if "vertices" not in obj:
                raise InvalidDiskError("disk spec: polygon needs 'vertices'")
            return cls.polygon(obj["vertices"])
        if kind == "radial":
            if "angles_deg" not in obj or "radii" not in obj:
                raise InvalidDiskError("disk spec: radial needs 'angles_deg' and 'radii'")
            return cls.radial(obj["angles_deg"], obj["radii"], degrees=True)
        name = obj.get("name")
        if name == "euclidean":
            return cls.euclidean(resolution)
        if name == "square":
            return cls.square()
        if name == "hexagon":
            return cls.regular_hexagon()
        if name == "lp":
            if "p" not in obj:
                raise InvalidDiskError("disk spec: builtin lp needs 'p'")
            return cls.lp(obj["p"], resolution)
        raise InvalidDiskError("disk spec: unknown builtin %r (have: "
                               "euclidean, square, hexagon, lp)" % (name,))

    def __repr__(self):
        return "UnitDisk(kind=%r, n=%d)" % (self.kind, len(self.vertices))


def _half_circle(n: int, what: str) -> np.ndarray:
    """The first half of the n-gon inscribed in the unit circle, n even
    (odd n is rounded up) and at least 8; what names the constructor."""
    n = _as_count(n, what + ": resolution")
    if n < 8:
        raise InvalidDiskError("%s: resolution too small: %d" % (what, n))
    if n > np.iinfo(np.intp).max // 16:  # the ring's n vertices, 16 bytes each
        raise InvalidDiskError("%s: resolution too large to allocate: %d" % (what, n))
    if n % 2:
        n += 1
    th = np.arange(n // 2) * (TWO_PI / n)
    return np.stack([np.cos(th), np.sin(th)], axis=1)


def _extent(V: np.ndarray) -> float:
    """The larger side of the bounding box of the points V: a size that
    does not move with the points."""
    return float(np.ptp(V, axis=0).max())


class ConvexBody:
    """Convex disk given by its CCW boundary polygon, closed implicitly.

    exact_polygon distinguishes a true polygon from a dense sampling of a
    smooth body; several operations branch on it (event handling, vertex
    snapping rules).  The turn and area tests scale with the body's
    extent, so a body validates wherever it sits; the repeated-point test
    is one of float resolution and scales with the coordinates.
    """

    __slots__ = ("vertices", "exact_polygon")

    def __init__(self, points, exact_polygon: bool = False):
        P = np.array(points, dtype=float)
        if P.ndim != 2 or P.shape[1] != 2 or len(P) < 3:
            raise ValueError("ConvexBody: need an (n, 2) array with n >= 3")
        if not np.all(np.isfinite(P)):
            raise ValueError("ConvexBody: non-finite coordinates")
        scale = max(1.0, float(np.abs(P).max()))
        E = _shift(P) - P
        if np.hypot(E[:, 0], E[:, 1]).min() <= 1e-12 * scale:
            raise ValueError("ConvexBody: repeated consecutive boundary points")
        ext2 = _extent(P) ** 2
        turn = _cross(E, _shift(E))
        if turn.min() < -1e-9 * ext2:
            bad = int(np.argmin(turn))
            raise GeometryError("ConvexBody: right turn at boundary point %d; "
                                "not convex CCW" % ((bad + 1) % len(P)))
        # twice the area, as a fan from the first vertex
        if float(_cross(P[1:-1] - P[0], P[2:] - P[0]).sum()) <= 1e-12 * ext2:
            raise GeometryError("ConvexBody: degenerate interior")
        P.flags.writeable = False
        self.vertices = P
        self.exact_polygon = bool(exact_polygon)

    @classmethod
    def from_disk(cls, disk: UnitDisk) -> "ConvexBody":
        return cls(disk.vertices, exact_polygon=disk.is_polygonal)

    @property
    def diameter(self) -> float:
        V = self.vertices
        c = V.mean(axis=0)
        return 2.0 * float(np.hypot(V[:, 0] - c[0], V[:, 1] - c[1]).max())

    def __repr__(self):
        return "ConvexBody(n=%d, exact_polygon=%s)" % (len(self.vertices),
                                                       self.exact_polygon)


# -- gauge ----------------------------------------------------------------

def gauge_many(disk: UnitDisk, V) -> np.ndarray:
    """Gauge (Minkowski functional) of each row of V with respect to disk.

    Vectorized; V may have any leading shape with trailing axis 2.
    """
    V = np.asarray(V, dtype=float)
    return disk._T.gauge(V.reshape(-1, 2)).reshape(V.shape[:-1])


def _wrapped_angle(a0, x: np.ndarray, y: np.ndarray):
    """Polar angle r of each direction (x, y), wrapped to [a0, a0 + 2 pi]
    with a0 the polar angle of its disk's vertex 0.  The wrap is np.mod's,
    done by compare and add, since arctan2 - a0 lies in [-pi, 2 pi];
    rounding can put r at a0 + 2 pi itself."""
    r = np.arctan2(y, x) - a0
    r[r >= TWO_PI] = 0.0
    r += (r < 0.0) * TWO_PI
    r += a0
    return r


def gauge(disk: UnitDisk, v) -> float:
    """Norm of v in the plane whose unit disk is `disk`."""
    return float(gauge_many(disk, as_vec(v)[None, :])[0])


def unit_vectors(disk: UnitDisk, thetas) -> np.ndarray:
    th = np.asarray(thetas, dtype=float)
    finite = np.isfinite(th)
    if not finite.all():
        raise ValueError("unit_vectors: direction must be finite, got %r"
                         % float(th[~finite][0]))
    d = np.stack([np.cos(th), np.sin(th)], axis=-1)
    g = gauge_many(disk, d)
    return d / g[..., None]


def unit_vector(disk: UnitDisk, theta: float) -> Vec2:
    """Boundary point of the disk in direction theta (gauge exactly 1)."""
    return unit_vectors(disk, float(theta))


def _gauge_slopes(disk: UnitDisk) -> "_Slopes":
    """The gauge and its right derivatives, exact on the boundary polygon,
    as a callback terms(W, Ef, Er) -> (gauge(W), slope along Ef, slope
    along Er).  W is component first, (2, ...), the edges have its axes
    and broadcast against it, and None skips a slope.  The callback holds
    columns of the disk's tables and a bucket table; it is built on the
    disk's first call and kept on its stack, so later calls cost nothing
    to set up.

    The cone j of w is _Stack.cone's, found without its searchsorted.  The
    angles [a0, a0 + 2 pi] are cut into K buckets, K the power of two at
    or above 2m, and r falls in bucket f(r) = int((r - a0) K / 2 pi).  f
    is monotone and the vertex angles go through the same f, so every
    vertex of a lower bucket has angle below r and every vertex of a
    higher one above it: j lies among the cones lut[b] .. lut[b] +
    count[b], where lut[b] is the cone holding the start of bucket b and
    count[b] its vertex count.  A branchless bisection of bit_length(max
    count) steps over the angles picks it, exactly searchsorted's index.

    On cone j, gauge(w) = <grad_j, w>, and the right derivative along e is
    <grad_j, e>, or on a boundary ray of the cone (|cross(V_j, w)| <=
    1e-12 |V_j| |w|) the larger one of it and its neighbour's.  The ray
    test, and the neighbour's gradient, are taken only where an angle
    screen (angles are good to 1e-14) asks.
    """
    T = disk._T
    if T._slopes is None:
        T._slopes = _Slopes(T)
    return T._slopes


def _on_vertex_ray(V, i, x, y):
    """The one corner rule: (x, y) is on the ray through vertex i of V (taken
    cyclically) when |cross(V_i, (x, y))| <= 1e-12 |V_i| |(x, y)|."""
    vx, vy = V.take(i, axis=0, mode="wrap").T
    return np.abs(vx * y - vy * x) <= 1e-12 * np.hypot(x, y) * np.hypot(vx, vy)


class _Slopes:
    """_gauge_slopes' callback on the stack T of one disk."""

    __slots__ = ("V", "a0", "scale", "lut", "steps", "ang", "ang_next",
                 "ex", "ey", "ec", "gx", "gy", "reach")

    def __init__(self, T: _Stack):
        ang = T.ang
        m = len(ang)
        self.V = T.V
        self.a0 = a0 = ang[0]
        self.ang_next = np.concatenate((ang[1:], [a0 + TWO_PI]))
        self.ex, self.ey = np.ascontiguousarray(T.E.T)
        self.gx, self.gy = np.ascontiguousarray(T.grad.T)
        self.ec = T.c
        # the largest factor a call multiplies w by: |V_j|, |E_j| or |a_j|
        self.reach = float(max(np.hypot(*X.T).max() for X in (T.V, T.E, T.grad)))
        K = 1 << (2 * m - 1).bit_length()
        self.scale = K / TWO_PI
        # count[b] vertices in bucket b; bucket K holds only r = a0 + 2 pi
        count = np.bincount(((ang - a0) * self.scale).astype(np.intp), minlength=K + 1)
        self.lut = count.cumsum()
        self.lut -= count + 1
        bits = int(count.max()).bit_length()
        self.steps = [1 << k for k in reversed(range(bits))]
        # the bisection may look past the last vertex, where no angle is <= r
        self.ang = np.concatenate((ang, np.full(1 << bits, np.inf)))

    def cone(self, r: np.ndarray) -> np.ndarray:
        """searchsorted(T.ang, r, side="right") - 1 for angles r wrapped by
        _wrapped_angle, by the bucket table."""
        b = r - self.a0
        b *= self.scale
        j = self.lut.take(b.astype(np.intp))
        for step in self.steps:
            j += (self.ang.take(j + step) <= r) * step
        return j

    def __call__(self, W, Ef, Er):
        gx, gy = self.gx, self.gy
        x, y = W[0], W[1]
        r = _wrapped_angle(self.a0, x, y)
        j = self.cone(r)
        g = self.ex.take(j) * y
        g -= self.ey.take(j) * x
        g /= self.ec.take(j)
        G = gx.take(j), gy.take(j)
        S = [None if E is None else G[0] * E[0] + G[1] * E[1] for E in (Ef, Er)]
        at = np.flatnonzero((r - self.ang.take(j) < _RAY_SCREEN)
                            | (self.ang_next.take(j) - r < _RAY_SCREEN))
        if at.size:
            xs, ys, j0 = x.take(at), y.take(at), j.take(at)
            on = [_on_vertex_ray(self.V, i, xs, ys) for i in (j0, j0 + 1)]
            nbs = (j0 - on[0], j0 + on[1])
            ix = np.unravel_index(at, g.shape)
            for s, E in zip(S, (Ef, Er)):
                if s is not None:
                    e0, e1 = (c[tuple(i if n > 1 else 0 for i, n in zip(ix, c.shape))]
                              for c in E)
                    nb = [gx.take(i, mode="wrap") * e0 + gy.take(i, mode="wrap") * e1
                          for i in nbs]
                    s.put(at, np.maximum(np.maximum(s.take(at), nb[0]), nb[1]))
        return (g,) + tuple(S)


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

    t -> gauge(v + t*u) is convex and piecewise linear, so its minimum is
    taken at a breakpoint, where v + t*u crosses the ray of a vertex V_i:
    t_i = -(V_i x v) / (V_i x u).
    """
    v = as_vec(v)
    u = as_vec(u)
    gv = gauge(disk, v)
    if gv == 0.0 or gauge(disk, u) == 0.0:
        raise ValueError("is_birkhoff_orthogonal: zero vector")
    cu = _cross(disk.vertices, u)
    on = cu != 0.0
    t = -_cross(disk.vertices[on], v) / cu[on]
    return float(gauge_many(disk, v + t[:, None] * u).min()) >= gv - tol


# -- boundary arc length --------------------------------------------------

def locate_on_boundary(vertices: np.ndarray, x,
                       what: str) -> tuple[int, float, np.ndarray]:
    """Closest boundary point of a closed CCW polygon to x, as (edge
    index, parameter in [0, 1], snapped point).

    x must be on the boundary: at a distance above 1e-9 * max(1, extent)
    it raises GeometryError naming `what`.  Far from the origin the
    distance is good only to a few units of the coordinates' last place,
    so it is also allowed 1e-15 times their magnitude.
    """
    x = as_vec(x)
    A = vertices
    B = _shift(vertices)
    ab = B - A
    denom = np.einsum("ij,ij->i", ab, ab)
    denom = np.where(denom == 0, 1.0, denom)
    t = np.clip(np.einsum("ij,ij->i", x[None, :] - A, ab) / denom, 0.0, 1.0)
    proj = A + t[:, None] * ab
    d2 = np.einsum("ij,ij->i", proj - x[None, :], proj - x[None, :])
    i = int(np.argmin(d2))
    dist = math.sqrt(float(d2[i]))
    if dist > max(1e-9 * max(1.0, _extent(A)), 1e-15 * float(np.abs(A).max())):
        raise GeometryError("%s (%.17g, %.17g) is not on the boundary "
                            "(distance %.3g)" % (what, x[0], x[1], dist))
    return i, float(t[i]), proj[i]


def boundary_arclength(disk: UnitDisk, body, p, q) -> float:
    """Length, in the norm of `disk`, of the CCW boundary arc of `body`
    from p to q.  Both points must lie on the boundary (see
    locate_on_boundary).  Result is in [0, perimeter)."""
    V = _vertices_of(body)
    e = _shift(V) - V
    eg = gauge_many(disk, e)
    cum = np.concatenate([[0.0], np.cumsum(eg)])
    perim = float(cum[-1])

    def pos(x):
        i, t, snapped = locate_on_boundary(V, x, "boundary_arclength: point")
        return cum[i] + gauge(disk, snapped - V[i])

    sp = pos(p)
    sq = pos(q)
    d = sq - sp
    if abs(d) < 1e-12 * max(perim, 1.0):
        return 0.0
    return float(d % perim)
