"""The oracles' own tests, against closed forms.

Run before every benchmark run (a failing oracle makes the run report
correct = false), or alone:  python3 perfbench/selfcheck.py
"""

from __future__ import annotations

import math
import sys

import numpy as np

import oracles

SQRT3_2 = math.sqrt(3.0) / 2.0
SQUARE = np.array([(1.0, -1.0), (1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0)])
HEXAGON = np.array([(1.0, 0.0), (0.5, SQRT3_2), (-0.5, SQRT3_2),
                    (-1.0, 0.0), (-0.5, -SQRT3_2), (0.5, -SQRT3_2)])


def regular_polygon(n: int) -> np.ndarray:
    th = np.arange(n) * (2.0 * math.pi / n)
    return np.stack([np.cos(th), np.sin(th)], axis=1)


def circle_involute(t):
    t = np.asarray(t, dtype=float)
    return np.stack([np.sin(t) - t * np.cos(t),
                     -np.cos(t) - t * np.sin(t)], axis=-1)


def circle_window_deficit(tau0: float) -> float:
    """Chord deficit of the width-pi window [tau0, tau0 + pi] of the
    circle involute: its worst quadruple is (tau0, s*, tau0 + pi,
    tau0 + pi) with s* = tau0 + 2 atan(1 / (tau0 + pi))."""
    far = circle_involute(tau0 + math.pi)
    s_star = tau0 + 2.0 * math.atan(1.0 / (tau0 + math.pi))
    return float(np.hypot(*(far - circle_involute(s_star)))
                 - np.hypot(*(far - circle_involute(tau0))))


def checks():
    """(name, ok, detail) for every oracle test."""
    out = []
    sq0 = oracles.lens_lm(SQUARE, 0.0)
    sq1 = oracles.lens_lm(SQUARE, math.pi / 4.0)
    out.append(("square-lm", abs(sq0 - 3.0) <= 1e-12 and abs(sq1 - 2.0) <= 1e-12,
                "lm(0) = %.15g, lm(pi/4) = %.15g" % (sq0, sq1)))
    hx = [oracles.lens_lm(HEXAGON, t) for t in np.linspace(0.0, math.pi, 7)]
    out.append(("hexagon-lm", max(abs(v - 2.0) for v in hx) <= 1e-12,
                "max |lm - 2| = %.3g" % max(abs(v - 2.0) for v in hx)))
    eu = [oracles.lens_lm(regular_polygon(4096), t) for t in (0.0, 0.3, 1.1)]
    dev = max(abs(v - 2.0 * math.pi / 3.0) for v in eu)
    out.append(("euclidean-lm", dev <= 1e-5, "max |lm - 2pi/3| = %.3g" % dev))
    g = oracles.polygon_gauge(SQUARE)
    vals = g(np.array([(0.5, 0.25), (-2.0, 1.0), (0.0, -3.0)]))
    out.append(("square-gauge", np.array_equal(vals, [0.5, 2.0, 3.0]),
                "gauge values %s" % vals))
    t = np.linspace(0.0, 1.0, 9)
    seg = np.stack([t, 0.3 * t], axis=1)
    notch = seg.copy()
    notch[4] = (0.45, 0.5)
    notch[5] = (0.55, -0.5)
    d_seg = oracles.chord_deficit(oracles.subsample(seg, 4), g)
    d_notch = oracles.chord_deficit(oracles.subsample(notch, 4), g)
    out.append(("chord-segment-notch", d_seg <= 1e-15 and d_notch > 0.5,
                "segment %.3g, notch %.3g" % (d_seg, d_notch)))
    worst = 0.0
    for tau0 in (0.0, 0.9, 2.7):
        P = circle_involute(np.linspace(tau0, tau0 + math.pi, 1200))
        d = oracles.chord_deficit(P, oracles.euclidean_gauge)
        worst = max(worst, abs(d - circle_window_deficit(tau0)))
    out.append(("circle-width-pi-deficit", worst <= 1e-5,
                "max |oracle - closed form| = %.3g" % worst))
    return out


def main() -> int:
    ok = True
    for name, good, detail in checks():
        ok &= bool(good)
        print("%s %-24s %s" % ("PASS" if good else "FAIL", name, detail))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
