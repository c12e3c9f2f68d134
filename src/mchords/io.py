"""File formats: disk descriptions, curve CSVs, profiles, verdicts.

All floats are written with repr-exact %.17g so identical inputs give
byte-identical outputs.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import InvalidDiskError
from .normplane import DEFAULT_RESOLUTION, UnitDisk

_F = "%.17g"


def load_disk(token: str, resolution: int = DEFAULT_RESOLUTION) -> UnitDisk:
    """Disk from a CLI token: builtin:NAME, builtin:lp:P, or a JSON path.

    A builtin token is read as the spec {"kind": "builtin", "name": NAME}
    (with "p": P for lp), so it names the same disk as that JSON."""
    if token.startswith("builtin:"):
        name, *fields = token[len("builtin:"):].split(":")
        spec = {"kind": "builtin", "name": name}
        if name == "lp" and len(fields) == 1:
            spec["p"] = float(fields[0])
        elif fields:
            raise InvalidDiskError("disk token %r: unexpected field %r after "
                                   "builtin %r" % (token, fields[-1], name))
        return UnitDisk.from_spec(spec, resolution)
    if not os.path.exists(token):
        raise InvalidDiskError("disk file not found: %s" % token)
    with open(token, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    return UnitDisk.from_spec(obj, resolution)


def disk_to_json(disk: UnitDisk) -> str:
    verts = ", ".join("[%s, %s]" % (_F % x, _F % y) for x, y in disk.vertices)
    return '{"kind": "polygon", "vertices": [%s]}' % verts


def _csv(header: str, rows: np.ndarray) -> str:
    """CSV text: the header line, then one line of %.17g values per row.
    The rows are formatted as Python floats (rows.tolist()), which print
    as numpy's float64 scalars do, one conversion per array instead of
    one per value."""
    lines = [header]
    lines.extend(",".join(_F % v for v in row) for row in rows.tolist())
    return "\n".join(lines) + "\n"


def curve_csv(points: np.ndarray) -> str:
    """CSV text for an (n, d) vertex array, under the header x,y or
    x1..xd depending on the dimension."""
    P = np.asarray(points, dtype=float)
    d = P.shape[1]
    return _csv("x,y" if d == 2 else ",".join("x%d" % (i + 1) for i in range(d)), P)


def read_curve_csv(path: str) -> np.ndarray:
    """The (n, 2) points of a planar curve CSV: rows x,y under an
    optional header.  Any other column count is refused."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError("curve file %s is empty" % path)
    start = 0
    first = lines[0].split(",")
    try:
        float(first[0])
    except ValueError:
        start = 1
    if start == len(lines):
        raise ValueError("curve file %s has a header but no rows" % path)
    data = [[float(v) for v in ln.split(",")] for ln in lines[start:]]
    for i, row in enumerate(data):
        if len(row) != 2:
            raise ValueError("curve file %s: row %d has %d columns, expected 2 (x,y)"
                             % (path, i + 1, len(row)))
    return np.array(data, dtype=float)


def involute_csv(thetas: np.ndarray, points: np.ndarray) -> str:
    return _csv("theta,x,y", np.column_stack([thetas, points]))


def profile_csv(profile) -> str:
    return _csv("direction_rad,lm_value",
                np.column_stack([profile.directions, profile.values]))


def profile_summary(profile) -> str:
    return ('{"min": %.6f, "argmin": %.6f, "max": %.6f, "argmax": %.6f}'
            % (profile.min, profile.argmin, profile.max, profile.argmax))


def report_json(report) -> str:
    return json.dumps(report.to_dict())


def maxmin_json(result) -> str:
    radii = ", ".join(_F % r for r in result.params.radii)
    angles = ", ".join(_F % a for a in result.params.angles)
    return ('{"radii": [%s], "angles": [%s], "objective": %s, '
            '"evaluations": %d}'
            % (radii, angles, _F % result.objective, result.evaluations))


def hexagon_json(hexagon) -> str:
    verts = ", ".join("[%s, %s]" % (_F % x, _F % y)
                      for x, y in hexagon.vertices)
    return ('{"vertices": [%s], "q_unique": %s}'
            % (verts, "true" if hexagon.q_unique else "false"))


def emit(text: str, out: str | None) -> None:
    """Write to the given path, or stdout when no path is given."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="" if text.endswith("\n") else "\n")
