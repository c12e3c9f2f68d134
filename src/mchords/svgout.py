"""Presentational SVG output: boundaries, translates, curves, points.

Fixed 1000x1000 viewbox; all layers share one bounding box with a small
margin, y pointing up.  Nothing here is load-bearing for verification.
"""

from __future__ import annotations

import numpy as np

_SIZE = 1000.0
_MARGIN = 0.05


def _bounds(layers):
    pts = np.concatenate([np.asarray(la["points"], dtype=float)
                          for la in layers if len(la["points"])])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = float((hi - lo).max()) or 1.0  # a lone point draws at the centre at any span
    return 0.5 * (lo + hi), 0.5 * span + _MARGIN * span


def _path(points, closed, transform):
    P = transform(np.asarray(points, dtype=float))
    cmds = ["M %.2f %.2f" % (P[0, 0], P[0, 1])]
    for x, y in P[1:]:
        cmds.append("L %.2f %.2f" % (x, y))
    if closed:
        cmds.append("Z")
    return " ".join(cmds)


def render(layers) -> str:
    """SVG document for a list of layers.

    Each layer: {"points": (n,2) array, "closed": bool, "stroke": color,
    "width": float, "dash": optional}.  Paths are not filled.
    """
    layers = [la for la in layers if len(la["points"]) > 0]
    if not layers:
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="1000" '
                'height="1000" viewBox="0 0 1000 1000"/>\n')
    c, half = _bounds(layers)
    scale = _SIZE / (2.0 * half)

    def transform(P):
        Q = np.empty_like(P)
        Q[:, 0] = (P[:, 0] - c[0] + half) * scale
        Q[:, 1] = _SIZE - (P[:, 1] - c[1] + half) * scale
        return Q

    parts = ['<svg xmlns="http://www.w3.org/2000/svg" width="1000" '
             'height="1000" viewBox="0 0 1000 1000">']
    for la in layers:
        P = np.asarray(la["points"], dtype=float)
        if len(P) == 1:
            q = transform(P)
            parts.append('<circle cx="%.2f" cy="%.2f" r="4" fill="%s"/>'
                         % (q[0, 0], q[0, 1], la.get("stroke", "#000")))
            continue
        d = _path(P, la.get("closed", False), transform)
        dash = la.get("dash")
        parts.append(
            '<path d="%s" fill="none" stroke="%s" stroke-width="%.1f"%s/>'
            % (d, la.get("stroke", "#000"), la.get("width", 2.0),
               ' stroke-dasharray="%s"' % dash if dash else ""))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write(path: str, layers) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(layers))
