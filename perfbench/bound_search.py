"""Workload bound-search: lm profiles and the MaxMin disk search.

A round holds (the sweeps of small polygons spread between the others):

- lm_sweep(disk, 360) over the builtin disks (Euclidean and l4 at
  resolution 4096, the square, the regular hexagon), one lp disk with p
  seeded in [1.2, 8] at resolution 4096, 3 random polygon disks and 3
  random smooth disks (2048 samples);
- maxmin_search(k, budget, seed, sweep_n=360) for k = 8, 16, 32 with
  budget 6 (k + 1), so each of the 4 starts gets more than k + 1
  evaluations, and a seeded search seed each.

The chord checker is never called here.
"""

from __future__ import annotations

import math

import numpy as np

from mchords import UnitDisk, lm_sweep, maxmin_search
from mchords.verify import random_polygon_disk, random_smooth_disk

import oracles
from common import Op, Plan, interleave, require

TWO_PI_3 = 2.0 * math.pi / 3.0
SWEEP_N = 360


def sweep_op(op_id, disk, name, probe_rng):
    V = np.array(disk.vertices)
    probe = probe_rng.random(2)

    def run(tr):
        attrs = {}
        prof = tr.call("chordbound.lm_sweep", lm_sweep, disk, SWEEP_N,
                       attrs=attrs)
        attrs["directions"] = len(prof.directions)
        return (prof.directions, prof.values, prof.min, prof.argmin,
                prof.max, prof.argmax)

    def check(out):
        dirs, vals, vmin, argmin, vmax, argmax = out
        require(vals.min() >= 2.0 - 1e-6 and vals.max() <= 3.0 + 1e-6,
                "sweep leaves [2, 3]: [%.12g, %.12g]", vals.min(), vals.max())
        if name == "square":
            require(abs(vmin - 2.0) <= 1e-9 and abs(vmax - 3.0) <= 1e-9,
                    "square sweep min %.17g, max %.17g", vmin, vmax)
        if name == "hexagon":
            require(np.abs(vals - 2.0).max() <= 1e-9,
                    "hexagon sweep not constant 2: %.3g",
                    np.abs(vals - 2.0).max())
        if name == "euclidean":
            require(np.abs(vals - TWO_PI_3).max() <= 1e-3,
                    "Euclidean sweep off 2pi/3 by %.3g",
                    np.abs(vals - TWO_PI_3).max())
        picks = [int(np.argmin(vals)), int(np.argmax(vals))]
        picks += [int(u * len(dirs)) for u in probe]
        for i in picks:
            ref = oracles.lens_lm(V, dirs[i])
            require(abs(vals[i] - ref) <= 1e-9,
                    "lm at %.17g: sweep %.17g, lens oracle %.17g",
                    dirs[i], vals[i], ref)
        require(vmin == vals.min() and vmax == vals.max()
                and argmin == dirs[np.argmin(vals)]
                and argmax == dirs[np.argmax(vals)],
                "profile summary disagrees with its values")

    return Op(op_id, run, check)


def regular_start_min(k):
    """Oracle minimum of lm over the sweep directions of the regular
    2k-gon, the search's first start."""
    th = np.arange(2 * k) * (math.pi / k)
    V = np.stack([np.cos(th), np.sin(th)], axis=1)
    dirs = np.arange(SWEEP_N) * (math.pi / SWEEP_N)
    dirs = np.unique(np.concatenate([dirs, np.mod(th, math.pi)]))
    return min(oracles.lens_lm(V, d) for d in dirs)


def search_op(k, budget, seed):
    def run(tr):
        attrs = {}
        res = tr.call("chordbound.maxmin_search", maxmin_search, k, budget,
                      seed=seed, sweep_n=SWEEP_N, attrs=attrs)
        attrs["evaluations"] = res.evaluations
        return (res.params.radii, res.objective, res.evaluations,
                np.array(res.disk.vertices))

    def check(out):
        radii, objective, evaluations, V = out
        require(TWO_PI_3 - 2e-3 <= objective <= 8.0 / 3.0 + 1e-6,
                "objective %.17g outside [2pi/3 - 2e-3, 8/3]", objective)
        start = regular_start_min(k)
        require(objective >= start - 1e-9,
                "objective %.17g below the regular start %.17g",
                objective, start)
        require(evaluations <= budget + 4,
                "%d evaluations for budget %d", evaluations, budget)
        require(radii.max() == 1.0 and radii.min() > 0.0,
                "radii not normalised to max 1")

    return Op("maxmin-k%d" % k, run, check)


def build(seed, tr):
    rng = np.random.default_rng([seed, 4])
    long_ops, short_ops = [], []
    disks = []

    def add(op_id, disk, name=""):
        disks.append(disk)
        op = sweep_op(op_id, disk, name, rng)
        (long_ops if len(disk.vertices) > 64 else short_ops).append(op)

    add("sweep-euclidean",
        tr.call("normplane.UnitDisk.euclidean", UnitDisk.euclidean, 4096),
        "euclidean")
    add("sweep-lp4", tr.call("normplane.UnitDisk.lp", UnitDisk.lp, 4.0, 4096))
    add("sweep-square", tr.call("normplane.UnitDisk.square", UnitDisk.square),
        "square")
    add("sweep-hexagon", tr.call("normplane.UnitDisk.regular_hexagon",
                                 UnitDisk.regular_hexagon), "hexagon")
    add("sweep-lp", tr.call("normplane.UnitDisk.lp", UnitDisk.lp,
                            float(rng.uniform(1.2, 8.0)), 4096))
    for i in range(3):
        add("sweep-polygon%d" % i,
            tr.call("verify.random_polygon_disk", random_polygon_disk,
                    np.random.default_rng([seed, 5, i])))
    for i in range(3):
        add("sweep-smooth%d" % i,
            tr.call("verify.random_smooth_disk", random_smooth_disk,
                    np.random.default_rng([seed, 6, i]), 2048))
    for k in (8, 16, 32):
        long_ops.append(search_op(k, 6 * (k + 1), int(rng.integers(1 << 31))))
    return Plan(ops=interleave(long_ops, short_ops), disks=disks)
