"""Workload cli-session: a scripted session against mchords.cli.main.

Every op is one in-process call of the command line, with stdout and
stderr captured.  Set-up writes the inputs into a temporary directory under
perfbench/out: for 4 seeded (norm, base) pairs the norm as disk JSON and
the base as a vertex CSV, plus an anchor CSV and a seeded x-monotone
curve.  The pairs take each of random_polygon_disk and random_smooth_disk
(512 samples) as norm with each of an exact and a 400-point smooth
random_base_body, so every seed has the same mix of sizes.
A round holds, in this order:

- per pair: 2 width-pi/2 involute windows at seeded starts, each checked
  with `check` (exit 0), then the involute over [0, pi] checked with
  `check-wrt --tol 1e-3` against the base's anchor set (exit 0), then
  short queries on its norm at seeded arguments: gauge, lm, hexagon and
  reuleaux;
- 2 circle-involute windows of width pi at seeded starts, each checked
  with `check` (exit 1, witness, deficit within 1e-4 of the closed form);
- once each: sweep, reuleaux on the Euclidean disk, convexify, bisector
  (on a seeded builtin lp disk, which is strictly convex), maxmin,
  hypercube --check and verify-all.

The per-pair queries give the round a dense band of short ops (about 4 to
15 ms on a 2-core machine) around its median op, so that op_p50_ms does not
sit on the gap between the short ops and the 20 ms and longer ones, where
a few ops moving across it with the seed or the machine's speed moved the
median by a quarter.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import math
import os
import shutil
import tempfile

import numpy as np

from mchords import UnitDisk, cli, io
from mchords.verify import (random_base_body, random_polygon_disk,
                            random_smooth_disk, random_xmonotone)

import oracles
import selfcheck
from common import Op, Plan, require

PI = math.pi


def parse_rows(text):
    """Numeric rows of CSV text, header skipped."""
    rows = [ln for ln in text.splitlines() if ln.strip()]
    return np.array([[float(v) for v in ln.split(",")] for ln in rows[1:]])


class Session:
    """Runs the command line in process and keeps its temporary files."""

    def __init__(self, workdir):
        self.workdir = workdir

    def path(self, name):
        return os.path.join(self.workdir, name)

    def write(self, tr, name, fn, *args):
        text = tr.call("io." + fn.__name__, fn, *args)
        with open(self.path(name), "w", encoding="utf-8") as fh:
            fh.write(text)
        return self.path(name)

    def main(self, tr, argv):
        out, err = _io.StringIO(), _io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tr.call("cli." + argv[0], cli.main, argv)
        return code, out.getvalue(), err.getvalue()


def expect_code(out, code):
    require(out[0] == code, "exit %s, expected %s; stderr: %s",
            out[0], code, out[2].strip()[-300:])


def build(seed, tr):
    rng = np.random.default_rng([seed, 7])
    here = os.path.dirname(os.path.abspath(__file__))
    os.makedirs(os.path.join(here, "out"), exist_ok=True)
    ses = Session(tempfile.mkdtemp(prefix="cli-", dir=os.path.join(here, "out")))
    ops = []
    disks = []

    def cmd(op_id, argv, check, after=None):
        ops.append(Op(op_id, lambda tr: ses.main(tr, argv), check,
                      after=after))

    def check_ok(out):
        expect_code(out, 0)

    kinds = [(random_polygon_disk, True), (random_polygon_disk, False),
             (random_smooth_disk, True), (random_smooth_disk, False)]
    for i, (make_norm, exact) in enumerate(kinds):
        prng = np.random.default_rng([seed, 8, i])
        base = tr.call("verify.random_base_body", random_base_body, prng,
                       exact=exact)
        norm = tr.call("verify." + make_norm.__name__, make_norm, prng)
        disks.append(norm)
        norm_path = ses.write(tr, "norm%d.json" % i, io.disk_to_json, norm)
        base_path = ses.write(tr, "base%d.csv" % i, io.curve_csv, base.vertices)
        V = base.vertices
        c = V.mean(axis=0)
        step = max(1, len(V) // 48)
        # boundary points, points scaled toward the centroid, the centroid:
        # all in the base (0.6 V, scaled toward the origin, may leave it)
        anchors = np.concatenate([V[::step], c + 0.6 * (V[::4 * step] - c),
                                  [c]])
        anchor_path = ses.write(tr, "anchors%d.csv" % i, io.curve_csv, anchors)
        point = "%r,%r" % (float(V[0, 0]), float(V[0, 1]))
        windows = [(float(t), float(t) + 0.5 * PI)
                   for t in rng.uniform(0.0, 2.0 * PI, 2)] + [(0.0, PI)]
        for w, (lo, hi) in enumerate(windows):
            name = "inv%d_%d" % (i, w)
            argv = ["involute", "--disk", norm_path, "--base", base_path,
                    "--point=" + point, "--theta-min=%r" % lo,
                    "--theta-max=%r" % hi,
                    "-n", "512" if w == 2 else "300"]
            cmd(name, argv, check_ok, keep_curve(ses, name))
            curve_path = ses.path(name + ".csv")
            if w < 2:
                cmd("check-" + name,
                    ["check", "--disk", norm_path, "--curve", curve_path],
                    check_window(norm.vertices, curve_path))
            else:
                cmd("check-wrt%d" % i,
                    ["check-wrt", "--disk", norm_path, "--curve", curve_path,
                     "--anchors", anchor_path, "--tol", "1e-3"], check_ok)
        gauge = oracles.polygon_gauge(norm.vertices)
        vec = prng.normal(0.0, 2.0, 2)
        cmd("gauge%d" % i, ["gauge", "--disk", norm_path,
                            "--vec=%r,%r" % tuple(map(float, vec))],
            check_gauge(gauge, vec))
        lm_dir = float(prng.uniform(0.0, PI))
        cmd("lm%d" % i, ["lm", "--disk", norm_path, "--dir=%r" % lm_dir],
            check_lm(norm.vertices, lm_dir))
        hex_dir, reu_dir = prng.uniform(0.0, 2.0 * PI, 2)
        cmd("hexagon%d" % i, ["hexagon", "--disk", norm_path,
                              "--dir=%r" % float(hex_dir)],
            check_hexagon(gauge))
        cmd("reuleaux%d" % i, ["reuleaux", "--disk", norm_path,
                               "--dir=%r" % float(reu_dir)],
            check_reuleaux_norm(norm.vertices))

    for j, tau0 in enumerate(rng.uniform(0.0, 3.0, 2)):
        name = "circle%d" % j
        argv = ["involute", "--disk", "builtin:euclidean", "--resolution",
                "8192", "--base", "builtin:euclidean", "--point=0,-1",
                "--theta-min=%r" % float(tau0),
                "--theta-max=%r" % (float(tau0) + PI), "-n", "300"]
        cmd(name, argv, check_ok, keep_curve(ses, name))
        cmd("check-" + name,
            ["check", "--disk", "builtin:euclidean", "--resolution", "8192",
             "--curve", ses.path(name + ".csv")],
            check_circle_window(float(tau0)))

    norm2 = ses.path("norm2.json")
    cmd("sweep", ["sweep", "--disk", norm2, "-n", "180"],
        check_sweep(disks[2].vertices))
    reu_dir = float(rng.uniform(0.0, 2.0 * PI))
    cmd("reuleaux", ["reuleaux", "--disk", "builtin:euclidean",
                     "--dir=%r" % reu_dir], check_reuleaux)
    curve = tr.call("verify.random_xmonotone", random_xmonotone,
                    np.random.default_rng([seed, 9]), 24)
    xmono = ses.write(tr, "xmono.csv", io.curve_csv, curve.points)
    cmd("convexify", ["convexify", "--curve", xmono],
        check_convexify(np.array(curve.points)))
    a, b = rng.normal(0.0, 1.0, (2, 2))
    lp = "builtin:lp:%r" % float(rng.uniform(1.5, 6.0))
    cmd("bisector", ["bisector", "--disk", lp, "--resolution", "1024",
                     "--a=%r,%r" % tuple(map(float, a)),
                     "--b=%r,%r" % tuple(map(float, b)),
                     "--range=-2,2", "-n", "64"],
        check_bisector(oracles.polygon_gauge(
            oracles.lp_polygon(float(lp.split(":")[2]), 1024)), a, b))
    mm_seed = int(rng.integers(1 << 31))
    cmd("maxmin", ["maxmin", "-k", "8", "--budget", "54",
                   "--seed", str(mm_seed), "-n", "180"],
        check_maxmin(54))
    cmd("hypercube", ["hypercube", "-d", "6", "--check"],
        check_hypercube(6))
    va_seed = int(rng.integers(1 << 31))
    cmd("verify-all", ["verify-all", "--resolution", "1024",
                       "--seed", str(va_seed)], check_verify_all)
    disks.append(tr.call("normplane.UnitDisk.euclidean", UnitDisk.euclidean,
                         8192))
    return Plan(ops=ops, disks=disks,
                cleanup=lambda: shutil.rmtree(ses.workdir, ignore_errors=True))


def keep_curve(ses, name):
    """Write the (x, y) columns of an involute op's output as the curve
    CSV the following check reads."""
    def after(tr, out):
        if out[0] == 0:
            ses.write(tr, name + ".csv", io.curve_csv, parse_rows(out[1])[:, 1:])
    return after


def check_window(norm_vertices, curve_path):
    def check(out):
        expect_code(out, 0)
        rep = json.loads(out[1])
        require(rep["holds"], "window reported violated")
        with open(curve_path, encoding="utf-8") as fh:
            P = parse_rows(fh.read())
        pts = oracles.chord_oracle_points(P, len(norm_vertices))
        if pts is not None:
            dev = oracles.chord_deficit(pts, oracles.polygon_gauge(norm_vertices))
            require(dev <= rep["tol"] + 1e-12,
                    "chord oracle deficit %.3g on a window the checker "
                    "accepts (tol %.3g)", dev, rep["tol"])
    return check


def check_circle_window(tau0):
    def check(out):
        expect_code(out, 1)
        rep = json.loads(out[1])
        require(not rep["holds"] and rep["witnesses"],
                "width-pi circle window not refused with a witness")
        ref = selfcheck.circle_window_deficit(tau0)
        require(abs(rep["max_deficit"] - ref) <= 1e-4,
                "deficit %.9g, closed form %.9g", rep["max_deficit"], ref)
    return check


def check_gauge(gauge, vec):
    def check(out):
        expect_code(out, 0)
        ref = float(gauge(vec))
        require(abs(float(out[1]) - ref) <= 1e-12 * max(1.0, ref),
                "gauge %s, oracle %.17g", out[1].strip(), ref)
    return check


def check_lm(V, direction):
    def check(out):
        expect_code(out, 0)
        ref = oracles.lens_lm(V, direction)
        require(abs(float(out[1]) - ref) <= 6e-7,
                "lm %s, lens oracle %.9f", out[1].strip(), ref)
    return check


def check_sweep(V):
    def check(out):
        expect_code(out, 0)
        s = json.loads(out[1])
        require(2.0 - 1e-6 <= s["min"] <= s["max"] <= 3.0 + 1e-6,
                "sweep summary outside [2, 3]: %s", s)
        for key in ("min", "max"):
            ref = oracles.lens_lm(V, s["arg" + key])
            require(abs(s[key] - ref) <= 2e-6,
                    "sweep %s %.6f, lens oracle %.9f at its arg%s",
                    key, s[key], ref, key)
    return check


def check_hexagon(gauge):
    def check(out):
        expect_code(out, 0)
        H = np.array(json.loads(out[1])["vertices"])
        v, w = H[0], H[1]
        require(np.abs(H - np.array([v, w, w - v, -v, -w, v - w])).max() <= 1e-8,
                "hexagon not affinely regular")
        require(np.abs(gauge(H) - 1.0).max() <= 1e-8,
                "hexagon vertex off the unit boundary")
    return check


def check_reuleaux(out):
    expect_code(out, 0)
    r = json.loads(out[1])
    require(abs(r["perimeter"] - PI) <= 1e-3,
            "Euclidean Reuleaux perimeter %.9f, not pi", r["perimeter"])
    o, p, q = np.array(r["corners"])
    d = oracles.euclidean_gauge(np.array([p - o, q - o, q - p]))
    require(np.abs(d - 1.0).max() <= 1e-6, "corners not at unit distance")


def check_reuleaux_norm(V):
    """Corners at mutual distance 1 and, by Barbier's theorem in normed
    planes, perimeter half the norm's own perimeter of its unit disk."""
    gauge = oracles.polygon_gauge(V)
    half = 0.5 * float(gauge(np.roll(V, -1, axis=0) - V).sum())

    def check(out):
        expect_code(out, 0)
        r = json.loads(out[1])
        require(abs(r["perimeter"] - half) <= 1e-9,
                "Reuleaux perimeter %.17g, half the unit-disk perimeter "
                "%.17g", r["perimeter"], half)
        o, p, q = np.array(r["corners"])
        d = gauge(np.array([p - o, q - o, q - p]))
        require(np.abs(d - 1.0).max() <= 1e-9, "corners not at unit distance")
    return check


def check_convexify(P):
    def check(out):
        expect_code(out, 0)
        Q = parse_rows(out[1])
        require(np.array_equal(Q[0], P[0]) and np.array_equal(Q[-1], P[-1]),
                "convexify moved an endpoint")
        ein, eout = np.diff(P, axis=0), np.diff(Q, axis=0)
        cross = np.multiply.outer(ein[:, 0], ein[:, 1]) - \
            np.multiply.outer(ein[:, 1], ein[:, 0])
        np.fill_diagonal(cross, 1.0)
        if np.all(cross != 0.0):  # no parallel pair, so nothing merges
            key = lambda E: E[np.lexsort((E[:, 1], E[:, 0]))]
            require(np.array_equal(key(ein), key(eout)),
                    "convexify changed the edge multiset")
        ang = np.arctan2(eout[:, 1], eout[:, 0])
        require(np.all(np.diff(ang) < 0), "output edges not slope-sorted")
    return check


def check_bisector(gauge, a, b):
    def check(out):
        expect_code(out, 0)
        X = parse_rows(out[1])
        gap = np.abs(gauge(X - a) - gauge(X - b))
        scale = max(1.0, float(gauge(X - a).max()))
        require(len(X) == 64 and gap.max() <= 1e-9 * scale,
                "bisector points off by %.3g", gap.max())
    return check


def check_maxmin(budget):
    def check(out):
        expect_code(out, 0)
        r = json.loads(out[1])
        require(2.0 * PI / 3.0 - 2e-3 <= r["objective"] <= 8.0 / 3.0 + 1e-6,
                "objective %.17g outside [2pi/3 - 2e-3, 8/3]", r["objective"])
        require(r["evaluations"] <= budget + 4,
                "%d evaluations for budget %d", r["evaluations"], budget)
    return check


def check_hypercube(d):
    def check(out):
        expect_code(out, 0)
        require(out[1].strip() == "length=%d increasing_chords=OK" % (2 ** d - 1),
                "hypercube printed %r", out[1].strip())
    return check


def check_verify_all(out):
    expect_code(out, 0)
    lines = out[1].strip().splitlines()
    require(len(lines) == 16 and all(ln.startswith("PASS ") for ln in lines),
            "verify-all: %s", [ln for ln in lines if not ln.startswith("PASS")])
