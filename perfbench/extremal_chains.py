"""Workload extremal-chains: build and certify the curves that attain lm.

Each op takes one (disk, anchor) pair and runs inscribed_hexagon ->
reuleaux -> reuleaux_two_sides -> check_increasing_chords -> arclength
and lm.  A round holds:

- 1 sampled Euclidean disk (resolution 4096) at a seeded anchor;
- the l6 disk (resolution 4096) at the fixed anchor 0.75, whose chain of
  1463 points fills the checker's largest chunk, so the peak memory of a
  round does not depend on the seed;
- 1 sampled lp disk (resolution 4096, p seeded in [1.5, 6]) at a seeded
  anchor;
- 4 random smooth disks (random_smooth_disk, 768 samples) at seeded
  vertices;
- the square at a seeded vertex, the regular hexagon at a seeded anchor
  and 16 random polygon disks (random_polygon_disk) at seeded vertices;
- 2 fixed ops that hit the corner-snapping fault of reuleaux_two_sides:
  the square at anchor 0.45 and random_polygon_disk(default_rng(0)) at
  anchor 0.  They do not depend on the seed and are counted as failed.

The 20 polygon ops are spread between the 7 sampled-disk ops.

Polygon and smooth-disk anchors are vertex directions because away from
them the same fault strikes a seed-dependent share of draws (61 of 300
random polygons, 99 of 200 square anchors and 2 of 200 random smooth
disks), which would make the failed count vary; at vertex directions it
struck none of 300 random polygons and 200 smooth disks.
"""

from __future__ import annotations

import math

import numpy as np

from mchords import (Polyline, UnitDisk, arclength, check_increasing_chords,
                     inscribed_hexagon, lm, reuleaux, reuleaux_two_sides,
                     unit_vector)
from mchords.verify import random_polygon_disk, random_smooth_disk

import oracles
from common import Op, Plan, interleave, require

TWO_PI_3 = 2.0 * math.pi / 3.0
FAULT = "reuleaux_two_sides snaps a corner to the nearest ring vertex"


def checked_chords(tr, disk, curve):
    """check_increasing_chords under a span that records the point count
    and, when the tracer asks for it, the tracemalloc peak of the call
    (tracemalloc slows the call, so those spans are not timed)."""
    attrs = {"points": len(curve)}
    if not tr.memory:
        return tr.call("curvekit.check_increasing_chords",
                       check_increasing_chords, disk, curve, attrs=attrs)
    import tracemalloc
    tracemalloc.start()
    try:
        rep = tr.call("curvekit.check_increasing_chords",
                      check_increasing_chords, disk, curve, attrs=attrs)
        attrs["peak_alloc_b"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rep


def chain_op(op_id, disk, theta, tr, euclidean=False, known_fault=""):
    p = tr.call("normplane.unit_vector", unit_vector, disk, theta)
    V = np.array(disk.vertices)
    tol = 1e-9 if disk.is_polygonal else 1e-6

    def run(tr):
        hx = tr.call("chordbound.inscribed_hexagon", inscribed_hexagon, disk, p)
        body, _ = tr.call("chordbound.reuleaux", reuleaux, disk, hx)
        a, b = hx.vertices[0], hx.vertices[1]
        chain = tr.call("chordbound.reuleaux_two_sides", reuleaux_two_sides,
                        body, a, b)
        curve = tr.call("curvekit.Polyline", Polyline, chain)
        rep = checked_chords(tr, disk, curve)
        length = tr.call("curvekit.arclength", arclength, disk, curve)
        d = b - a
        direction = math.atan2(d[1], d[0])
        bound = tr.call("chordbound.lm", lm, disk, direction)
        return (hx.vertices, chain, rep.holds, rep.max_deficit, length,
                bound, direction)

    def check(out):
        hexv, chain, holds, deficit, length, bound, direction = out
        a, b = hexv[0], hexv[1]
        gauge = oracles.polygon_gauge(V)
        require(np.abs(gauge(hexv) - 1.0).max() <= 1e-8,
                "hexagon vertex off the unit boundary")
        require(np.abs(chain[0] - a).max() <= 1e-9,
                "chain starts at %s, not at corner a = %s", chain[0], a)
        require(np.abs(chain[-1] - b).max() <= 1e-9,
                "chain ends at %s, not at corner b = %s", chain[-1], b)
        require(holds, "checker refuses the chain (deficit %.3g)", deficit)
        ref_len = float(gauge(chain[1:] - chain[:-1]).sum())
        require(abs(length - ref_len) <= 1e-9 * max(1.0, ref_len),
                "arclength %.17g, oracle %.17g", length, ref_len)
        require(abs(length - bound) <= 1e-6,
                "arclength %.17g does not attain lm %.17g", length, bound)
        ref_lm = oracles.lens_lm(V, direction)
        require(abs(bound - ref_lm) <= 1e-9,
                "lm %.17g, lens oracle %.17g", bound, ref_lm)
        if euclidean:
            require(abs(length - TWO_PI_3) <= 1e-3,
                    "Euclidean chain length %.9f, not 2pi/3", length)
        P = oracles.chord_oracle_points(chain, len(V))
        if P is not None:
            dev = oracles.chord_deficit(P, gauge)
            require(dev <= tol + 1e-12,
                    "chord oracle deficit %.3g above tol %.3g", dev, tol)

    return Op(op_id, run, check, known_fault)


def vertex_direction(disk, rng):
    v = disk.vertices[int(rng.integers(len(disk.vertices)))]
    return math.atan2(v[1], v[0])


def build(seed, tr):
    rng = np.random.default_rng([seed, 1])
    long_ops, short_ops = [], []
    disks = []

    def add(op_id, disk, theta, **kw):
        disks.append(disk)
        op = chain_op(op_id, disk, theta, tr, **kw)
        (short_ops if disk.is_polygonal else long_ops).append(op)

    eu = tr.call("normplane.UnitDisk.euclidean", UnitDisk.euclidean, 4096)
    add("euclidean", eu, rng.uniform(0.0, 2.0 * math.pi), euclidean=True)
    l6 = tr.call("normplane.UnitDisk.lp", UnitDisk.lp, 6.0, 4096)
    add("l6-fixed", l6, 0.75)
    d = tr.call("normplane.UnitDisk.lp", UnitDisk.lp, float(rng.uniform(1.5, 6.0)),
                4096)
    add("lp", d, rng.uniform(0.0, 2.0 * math.pi))
    for i in range(4):
        d = tr.call("verify.random_smooth_disk", random_smooth_disk,
                    np.random.default_rng([seed, 2, i]), 768)
        add("smooth%d" % i, d, vertex_direction(d, rng))
    sq = tr.call("normplane.UnitDisk.square", UnitDisk.square)
    add("square", sq, vertex_direction(sq, rng))
    hexagon = tr.call("normplane.UnitDisk.regular_hexagon",
                      UnitDisk.regular_hexagon)
    add("hexagon", hexagon, rng.uniform(0.0, 2.0 * math.pi))
    for i in range(16):
        d = tr.call("verify.random_polygon_disk", random_polygon_disk,
                    np.random.default_rng([seed, 3, i]))
        add("polygon%d" % i, d, vertex_direction(d, rng))
    add("fault-square-0.45", sq, 0.45, known_fault=FAULT)
    d0 = tr.call("verify.random_polygon_disk", random_polygon_disk,
                 np.random.default_rng(0))
    add("fault-polygon-rng0", d0, 0.0, known_fault=FAULT)
    return Plan(ops=interleave(long_ops, short_ops), disks=disks)
