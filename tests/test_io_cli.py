import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import mchords
from mchords import UnitDisk, io, verify
from mchords.cli import _build_parser, main
from mchords.errors import InvalidDiskError


# stdout of `mchords verify-all --resolution 1024 --seed 0`, byte for byte
VERIFY_ALL_PINNED = Path(__file__).with_name("verify_all_1024_seed0.txt")


def write_curve(path, pts):
    path.write_text(io.curve_csv(np.asarray(pts, dtype=float)))
    return str(path)


# -- io round trips -------------------------------------------------------

def test_curve_csv_round_trip(tmp_path):
    pts = np.array([[0.0, 0.25], [1.0 / 3.0, -2.0], [7.125, 1e-9]])
    p = tmp_path / "c.csv"
    p.write_text(io.curve_csv(pts))
    back = io.read_curve_csv(str(p))
    assert np.array_equal(back, pts)  # %.17g is repr-exact


def test_csv_rows_print_as_their_float64_values():
    # the rows are formatted from rows.tolist(); a Python float prints as
    # the numpy float64 scalar it came from, edge values included
    rows = np.array([[-0.0, 0.0, 1e-300], [1e308, -1e308, np.nan],
                     [np.inf, -np.inf, 5e-324], [1.0 / 3.0, -2.5, 0.1]])

    def by_scalar(header, rows):
        return "\n".join([header] + [",".join("%.17g" % v for v in row)
                                     for row in rows]) + "\n"

    assert io._csv("a,b,c", rows) == by_scalar("a,b,c", rows)
    assert io.curve_csv(rows[:, :2]) == by_scalar("x,y", rows[:, :2])
    assert by_scalar("a,b,c", rows).splitlines()[1:3] == [
        "-0,0,1e-300", "1e+308,-1e+308,nan"]


def test_curve_csv_headerless_and_errors(tmp_path):
    p = tmp_path / "raw.csv"
    p.write_text("0,1\n2,3\n")
    assert np.array_equal(io.read_curve_csv(str(p)), [[0, 1], [2, 3]])
    p.write_text("")
    with pytest.raises(ValueError):
        io.read_curve_csv(str(p))
    p.write_text("x,y\n")
    with pytest.raises(ValueError):
        io.read_curve_csv(str(p))
    p.write_text("0,1\n2,3,4\n")
    with pytest.raises(ValueError):
        io.read_curve_csv(str(p))


def test_disk_json_round_trip(tmp_path):
    hx = io.load_disk("builtin:hexagon")
    p = tmp_path / "hex.json"
    p.write_text(io.disk_to_json(hx))
    back = io.load_disk(str(p))
    assert np.array_equal(back.vertices, hx.vertices)


def test_load_disk_tokens():
    assert len(io.load_disk("builtin:euclidean", 256).vertices) == 256
    assert len(io.load_disk("builtin:square").vertices) == 4
    assert len(io.load_disk("builtin:lp:4", 256).vertices) == 256
    with pytest.raises(InvalidDiskError):
        io.load_disk("builtin:lp")
    with pytest.raises(InvalidDiskError):
        io.load_disk("builtin:banana")
    with pytest.raises(InvalidDiskError):
        io.load_disk("/no/such/disk.json")
    for extra in ("builtin:euclidean:7", "builtin:square:3", "builtin:hexagon:",
                  "builtin:lp:4:2"):
        with pytest.raises(InvalidDiskError):
            io.load_disk(extra)


def test_builtin_tokens_match_their_specs():
    specs = {"builtin:euclidean": {"name": "euclidean"},
             "builtin:square": {"name": "square"},
             "builtin:hexagon": {"name": "hexagon"},
             "builtin:lp:4": {"name": "lp", "p": 4},
             "builtin:lp:1.5": {"name": "lp", "p": 1.5}}
    for token, spec in specs.items():
        for res in (256, 4096):
            a = io.load_disk(token, res)
            b = UnitDisk.from_spec({"kind": "builtin"} | spec, res)
            assert a.kind == b.kind and a.is_polygonal == b.is_polygonal
            assert a.vertices.tobytes() == b.vertices.tobytes()


# -- single value commands ------------------------------------------------

def test_gauge_command(capsys):
    assert main(["gauge", "--disk", "builtin:square", "--vec", "1,1"]) == 0
    assert capsys.readouterr().out == "1\n"
    assert main(["gauge", "--disk", "builtin:lp:4", "--vec", "1,0"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_lm_command(capsys):
    assert main(["lm", "--disk", "builtin:euclidean", "--dir", "0"]) == 0
    assert capsys.readouterr().out == "2.094395\n"


def test_sweep_command(tmp_path, capsys):
    out = tmp_path / "prof.csv"
    assert main(["sweep", "--disk", "builtin:hexagon", "-n", "360",
                 "--out", str(out)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["min"] == 2.0
    assert summary["max"] == 2.0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "direction_rad,lm_value"
    assert len(lines) >= 361
    data = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
    assert np.allclose(data[:, 1], 2.0, atol=1e-9)


def test_sweep_accepts_json_disk(tmp_path, capsys):
    dj = tmp_path / "hexagon.json"
    dj.write_text(io.disk_to_json(io.load_disk("builtin:hexagon")))
    assert main(["sweep", "--disk", str(dj), "-n", "90"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["min"] == 2.0 and summary["max"] == 2.0


# -- chord checking -------------------------------------------------------

def test_check_command_pass_and_fail(tmp_path, capsys):
    good = write_curve(tmp_path / "good.csv", [[0, 0], [1, 0], [2, 0.5]])
    assert main(["check", "--disk", "builtin:euclidean", "--curve", good]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["holds"] is True
    assert rep["witnesses"] == []
    bad = write_curve(tmp_path / "bad.csv", [[0, 0], [1, 0], [0.5, 0.1]])
    assert main(["check", "--disk", "builtin:euclidean", "--curve", bad]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["holds"] is False
    assert rep["max_deficit"] > 0.1
    assert rep["witnesses"]
    assert set(rep["witnesses"][0]) >= {"quad", "deficit"}


def test_check_out_file(tmp_path, capsys):
    good = write_curve(tmp_path / "good.csv", [[0, 0], [1, 0], [2, 0.5]])
    out = tmp_path / "rep.json"
    assert main(["check", "--disk", "builtin:euclidean", "--curve", good,
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["holds"] is True


def test_check_wrt_command(tmp_path, capsys):
    curve = write_curve(tmp_path / "c.csv", [[0, 0], [1, 0], [2, 0.5]])
    anchors = write_curve(tmp_path / "a.csv", [[0.0, 0.0], [-0.5, 0.2]])
    assert main(["check-wrt", "--disk", "builtin:euclidean", "--curve", curve,
                 "--anchors", anchors]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["holds"] is True
    bad = write_curve(tmp_path / "b.csv", [[0, 0], [1, 0], [0.3, 0.0]])
    assert main(["check-wrt", "--disk", "builtin:euclidean", "--curve", bad,
                 "--anchors", anchors]) == 1
    capsys.readouterr()


# -- hypercube ------------------------------------------------------------

def test_hypercube_command(tmp_path, capsys):
    assert main(["hypercube", "-d", "3", "--check"]) == 0
    assert capsys.readouterr().out == "length=7 increasing_chords=OK\n"
    assert main(["hypercube", "-d", "2"]) == 0
    assert capsys.readouterr().out == "length=3\n"
    out = tmp_path / "cube.csv"
    assert main(["hypercube", "-d", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x1,x2,x3"
    assert len(lines) == 9


def test_hypercube_range_error(capsys):
    assert main(["hypercube", "-d", "25", "--check"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


# -- involute, hexagon, reuleaux ------------------------------------------

def test_involute_command_with_svg(tmp_path, capsys):
    inv = tmp_path / "inv.csv"
    svg = tmp_path / "inv.svg"
    assert main(["involute", "--disk", "builtin:euclidean", "--base",
                 "builtin:euclidean", "--point", "0,-1",
                 "--theta-max", "3.141592653589793", "-n", "64",
                 "--out", str(inv), "--svg", str(svg)]) == 0
    capsys.readouterr()
    lines = inv.read_text().strip().split("\n")
    assert lines[0] == "theta,x,y"
    data = np.array([ln.split(",") for ln in lines[1:]], dtype=float)
    assert len(data) == 64
    assert np.all(np.diff(data[:, 0]) > 0)
    assert np.allclose(data[0, 1:], (0.0, -1.0), atol=1e-9)
    assert svg.read_text().startswith("<svg xmlns=")


def test_reuleaux_command(capsys):
    assert main(["reuleaux", "--disk", "builtin:hexagon"]) == 0
    line = capsys.readouterr().out
    assert line == ('{"perimeter": 3, "corners": '
                    '[[0, 0], [1, 0], [0.5, 0.8660254037844386]]}\n')


def test_reuleaux_out_writes_the_ring_csv(tmp_path, capsys):
    out = tmp_path / "ring.csv"
    assert main(["reuleaux", "--disk", "builtin:hexagon", "--out", str(out)]) == 0
    capsys.readouterr()
    hx = UnitDisk.regular_hexagon()
    body, _ = mchords.reuleaux(hx, mchords.inscribed_hexagon(hx, (1.0, 0.0)))
    assert out.read_text() == io.curve_csv(body.vertices)


def test_hexagon_command(capsys):
    assert main(["hexagon", "--disk", "builtin:square",
                 "--dir", "0.7853981633974483"]) == 0
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert obj["q_unique"] is True
    assert np.allclose(obj["vertices"],
                       [(1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1), (1, 0)])


# -- convexify, bisector, maxmin ------------------------------------------

def test_convexify_command(tmp_path, capsys):
    mono = write_curve(tmp_path / "m.csv", [[0, 0], [1, 1], [2, 1]])
    out = tmp_path / "cx.csv"
    assert main(["convexify", "--curve", mono, "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text() == "x,y\n0,0\n1,1\n2,1\n"
    notmono = write_curve(tmp_path / "n.csv", [[0, 0], [1, 1], [0.5, 2]])
    assert main(["convexify", "--curve", notmono, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_bisector_command(tmp_path, capsys):
    out = tmp_path / "bis.csv"
    assert main(["bisector", "--disk", "builtin:euclidean", "--a", "0,0",
                 "--b", "1,0", "--range=-1,1", "-n", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    data = np.array([ln.split(",") for ln in
                     out.read_text().strip().split("\n")[1:]], dtype=float)
    assert np.allclose(data[:, 0], 0.5, atol=1e-6)
    assert np.allclose(data[:, 1], [-1.0, 0.0, 1.0])
    # an empty offset range cannot hold distinct samples
    assert main(["bisector", "--disk", "builtin:euclidean", "--a", "0,0",
                 "--b", "1,0", "--range=0.25,0.25", "-n", "3"]) == 2
    assert "offset range [0.25, 0.25] is empty" in capsys.readouterr().err


def test_bisector_on_a_finely_sampled_radial_circle(tmp_path, capsys):
    # strict convexity of a sampled circle does not fade with resolution
    n = 8192
    disk = tmp_path / "circle.json"
    disk.write_text(json.dumps({"kind": "radial", "radii": [1.0] * n,
                                "angles_deg": [i * 360.0 / n for i in range(n)]}))
    assert main(["bisector", "--disk", str(disk), "--a", "0,0", "--b", "1,0",
                 "--range=-1,1", "-n", "3"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert np.allclose(np.array([r.split(",") for r in rows], dtype=float)[:, 0],
                       0.5, atol=1e-6)


def test_verify_all_command(capsys):
    assert main(["verify-all", "--resolution", "1024", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert sum(ln.startswith("PASS ") for ln in out.splitlines()) == 16
    assert out == VERIFY_ALL_PINNED.read_text()


def _shift_lm(where):
    return lambda lm_at: lambda T, q: lm_at(T, q) + 1.5 * where(T.n)


# each rewritten check calls its kernel once per disk; a broken kernel
# must show as that check's FAIL line, with its detail
@pytest.mark.parametrize("kernel, broken, fails", [
    ("_lm_at", _shift_lm(lambda n: True),
     {"lm-builtins": r"euclidean lm off by 1\.5",
      "lens-envelope": r"lm range \[3\.5\d+, [34]\.\d+\], max corner gauge 1\.000000000"}),
    ("_lm_at", _shift_lm(lambda n: n == 4),
     {"lm-builtins": r"square lm: dir0 4\.5, dir pi/4 3\.5"}),
    ("_lm_at", _shift_lm(lambda n: n == 6),
     {"lm-builtins": r"hexagon lm not constant 2 \(dev 1\.5\)"}),
    ("_birkhoff_many", lambda f: lambda disk, v, u, tol: f(disk, v, u, -1e-3),
     {"birkhoff-tangents": r"euclidean: radial not orthogonal to boundary edge"}),
    ("_boundary_arclengths", lambda f: lambda disk, body, P, Q: f(disk, body, P, Q) + 1e-3,
     {"arc-additivity": r"max additivity error 0\.000\d+ \(relative\)"}),
    ("_parallelograms", lambda f: lambda disk, P, Q: 1.01 * f(disk, P, Q),
     {"lens-envelope": r"lm range \[2\.\d+, 2\.\d+\], max corner gauge 1\.010000000"}),
])
def test_verify_all_fails_the_check_of_a_broken_kernel(monkeypatch, capsys, kernel,
                                                       broken, fails):
    monkeypatch.setattr(verify, kernel, broken(getattr(verify, kernel)))
    assert main(["verify-all", "--resolution", "1024", "--seed", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = {ln.split()[1]: ln.split(None, 2)[2] for ln in lines if ln.startswith("FAIL ")}
    assert failed.keys() == fails.keys()
    for name, detail in fails.items():
        assert re.fullmatch(detail, failed[name]), failed[name]
    assert len(lines) == 16


def test_verify_all_takes_no_disk(capsys):
    assert main(["verify-all", "--disk", "builtin:square"]) == 2
    assert "unrecognized arguments: --disk" in capsys.readouterr().err


def test_maxmin_command_deterministic(tmp_path, capsys):
    o1, o2 = tmp_path / "m1.json", tmp_path / "m2.json"
    for o in (o1, o2):
        assert main(["maxmin", "-k", "8", "--budget", "0", "-n", "90",
                     "--out", str(o)]) == 0
    capsys.readouterr()
    assert o1.read_bytes() == o2.read_bytes()
    obj = json.loads(o1.read_text())
    assert len(obj["radii"]) == 8
    assert len(obj["angles"]) == 8
    assert obj["evaluations"] == 4
    assert 2.0 <= obj["objective"] <= 8.0 / 3.0 + 1e-6


def test_output_files_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for o in (a, b):
        assert main(["sweep", "--disk", "builtin:square", "-n", "8",
                     "--out", str(o)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    i1, i2 = tmp_path / "i1.csv", tmp_path / "i2.csv"
    for o in (i1, i2):
        assert main(["involute", "--disk", "builtin:square", "--base",
                     "builtin:square", "--point", "1,1", "-n", "200",
                     "--out", str(o)]) == 0
    capsys.readouterr()
    assert i1.read_bytes() == i2.read_bytes()


# -- error surface --------------------------------------------------------

def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["gauge", "--disk", "builtin:nope", "--vec", "1,1"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["check", "--disk", "builtin:euclidean",
                 "--curve", "/no/such.csv"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert main(["lm", "--disk", "builtin:euclidean"]) == 2  # missing --dir
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["gauge", "--disk", str(bad), "--vec", "1,0"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_curve_csvs_must_have_two_columns(tmp_path, capsys):
    good = write_curve(tmp_path / "c.csv", [[0, 0], [1, 0], [2, 0.5]])
    bad = tmp_path / "c3.csv"
    bad.write_text("x,y,z\n0,0,0\n1,0,0\n2,1,0\n")
    calls = [["check", "--curve", str(bad)],
             ["check-wrt", "--curve", good, "--anchors", str(bad)],
             ["convexify", "--curve", str(bad)],
             ["involute", "--base", str(bad), "--point", "0,0"]]
    for argv in calls:
        assert main(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and "row 1 has 3 columns" in out.err, argv


def test_non_finite_radial_disk_exits_2_without_warnings(tmp_path, capsys):
    disk = tmp_path / "r.json"
    disk.write_text('{"kind": "radial", "angles_deg": [0, 90, 180, 270], '
                    '"radii": [1, Infinity, 1, Infinity]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["lm", "--disk", str(disk), "--dir", "0.3"]) == 2
    assert capsys.readouterr().err == \
        "error: radial: radius at sample 1 is not finite\n"


def test_non_finite_and_negative_inputs_exit_2(tmp_path, capsys):
    curve = write_curve(tmp_path / "c.csv", [[0, 0], [1, 0], [2, 0.5]])
    calls = [["lm", "--dir", "nan"], ["lm", "--dir", "inf"],
             ["hypercube", "-d", "2", "--check", "--tol", "nan"]]
    for tol in ("nan", "inf", "-1"):
        calls += [["check", "--curve", curve, "--tol", tol],
                  ["check-wrt", "--curve", curve, "--anchors", curve, "--tol", tol]]
    for row in ("nan,0", "inf,0", "0,-inf"):
        anchors = tmp_path / "a.csv"
        anchors.write_text("x,y\n0,0\n%s\n" % row)
        calls.append(["check-wrt", "--curve", curve, "--anchors", str(anchors)])
    for argv in calls:
        assert main(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:"), argv
    assert main(calls[-1]) == 2
    assert "anchor row 1" in capsys.readouterr().err


def test_huge_coordinates_exit_2_without_warnings(tmp_path, capsys):
    # gauges of points this far apart would overflow: refused before any
    C = np.array([[0, 0], [1, 0], [0.6, 0.3], [2, 0.3]])
    curve = write_curve(tmp_path / "c.csv", 8e307 * C)
    seg = write_curve(tmp_path / "s.csv", [[0, 0], [1, 0]])
    far = write_curve(tmp_path / "a.csv", [[1e308, 0]])
    for argv in (["check", "--disk", "builtin:square", "--curve", curve],
                 ["check-wrt", "--disk", "builtin:square", "--curve", seg, "--anchors", far]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and "the points span" in out.err, argv


def test_non_finite_directions_exit_2_without_warnings(capsys):
    for argv in (["hexagon", "--disk", "builtin:square", "--dir=inf"],
                 ["reuleaux", "--disk", "builtin:square", "--dir=nan"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(
            "error: unit_vectors: direction must be finite"), argv


def test_unbounded_involute_and_bisector_ranges_exit_2(capsys):
    # refused before any work: no numpy warning, and the error names the range
    calls = [(["involute", "--base", "builtin:euclidean", "--point", "0,-1",
               "--theta-max", t, "-n", "8"], "theta range") for t in ("inf", "1e300")]
    calls += [(["bisector", "--a", "0,0", "--b", "1,0", "--range=" + r],
               "offset range [%s, 1]" % r.split(",")[0]) for r in ("nan,1", "-inf,1")]
    calls += [(["bisector", "--a", "0,0", "--b", "1,0", "--range=1e300,1"],
               "offset range [1.0000000000000001e+300, 1] is too wide")]
    for argv, named in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2, argv
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error:") and named in out.err, argv


def test_cached_parser_is_reentrant(capsys):
    # main builds its parser once per process; a usage error, then valid
    # calls, then --help twice, must behave as on a freshly built parser
    calls = [["lm", "--disk", "builtin:euclidean"],
             ["lm", "--disk", "builtin:hexagon", "--dir", "0.3"],
             ["gauge", "--disk", "builtin:lp:4", "--vec", "0.3,-1.5"],
             ["bisector", "--disk", "builtin:lp:4", "--a", "0,0", "--b",
              "1,0.5", "--range=-1,1", "-n", "5"]]

    def session():
        seen = []
        for argv in calls:
            code = main(argv)
            seen.append((code, capsys.readouterr().out))
        return seen

    cached = session()
    assert [code for code, _ in cached] == [2, 0, 0, 0]
    _build_parser.cache_clear()
    assert session() == cached
    for _ in range(2):
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: mchords")


# -- public API -----------------------------------------------------------

def test_public_api_is_pinned():
    # a removed or renamed public name is a listed change, never a
    # side effect
    assert sorted(mchords.__all__) == [
        "BisectorSample", "ChordReport", "ConvexBody", "DEFAULT_RESOLUTION",
        "DiskFamilyParams", "GeometryError", "Hexagon", "InvalidDiskError",
        "InvoluteCurve", "InvoluteSupport", "LmProfile", "MaxMinResult",
        "Polyline", "PolylineD", "SupportLine", "UnitDisk",
        "UnsupportedDiskError", "Witness", "arclength", "bisector_sample",
        "boundary_arclength", "bounding_parallelogram", "build_involute",
        "chebyshev_arclength", "check_increasing_chords",
        "check_increasing_chords_dd", "check_increasing_wrt_set",
        "convexify", "gauge", "gauge_many", "hypercube_curve",
        "inscribed_hexagon", "intersect_translates",
        "involute_support_direction", "is_birkhoff_orthogonal",
        "is_x_monotone", "lens_corners", "lm", "lm_sweep", "maxmin_search",
        "perimeter", "reuleaux", "reuleaux_two_sides", "support",
        "unit_vector", "unit_vectors"]
    for name in mchords.__all__:
        assert getattr(mchords, name) is not None
    from mchords.involute import ConvexBody
    assert ConvexBody is mchords.ConvexBody is mchords.normplane.ConvexBody
