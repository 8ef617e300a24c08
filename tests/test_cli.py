import json
from pathlib import Path

import pytest

from schottky.cli import main
from schottky.domain import Circle, CircularDomain


@pytest.fixture()
def annulus_file(tmp_path):
    path = tmp_path / "annulus.json"
    path.write_text('{"inner_circles":[{"q":[0.0,0.0],"r":0.25}]}')
    return str(path)


@pytest.fixture()
def bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"inner_circles":[{"q":[0.5,0.0],"r":0.6}]}')
    return str(path)


def test_validate_ok(annulus_file, capsys):
    assert main(["validate", "--domain", annulus_file]) == 0
    out = capsys.readouterr().out
    assert "valid: True" in out
    assert "real_axis_centers" in out


def test_validate_bad_domain(bad_file):
    assert main(["validate", "--domain", bad_file]) == 1


def test_missing_file_is_domain_error(tmp_path):
    assert main(["validate", "--domain", str(tmp_path / "nope.json")]) == 1


def test_omega(annulus_file, capsys):
    assert main(["omega", "--domain", annulus_file, "--z", "0.7,0",
                 "--y", "0.4,0", "--length", "8"]) == 0
    out = capsys.readouterr().out
    assert "omega = 0.292747" in out


def test_eta(annulus_file, capsys):
    assert main(["eta", "--domain", annulus_file, "--z", "0.5,0", "--p", "0.2,0",
                 "--length", "8", "--circle", "1"]) == 0
    assert "eta_1" in capsys.readouterr().out


def test_proper_build(annulus_file, tmp_path, capsys):
    out_path = str(tmp_path / "map.json")
    code = main(["proper-build", "--domain", annulus_file,
                 "--zeros", "0.5,0 -0.5,0", "--nu", "1,1",
                 "--length", "8", "--output", out_path])
    assert code == 0
    payload = json.loads(Path(out_path).read_text())
    assert payload["boundary_deviation"] < 1e-7
    assert payload["boundary_degrees"] == [1, 1]
    out = capsys.readouterr().out
    assert "windings = [1, 1]" in out


def test_proper_build_inadmissible_is_numerical_error(annulus_file):
    assert main(["proper-build", "--domain", annulus_file,
                 "--zeros", "0.5,0 -0.4,0", "--nu", "1,1", "--length", "8"]) == 2


def test_proper_eval(annulus_file, capsys):
    code = main(["proper-eval", "--domain", annulus_file,
                 "--zeros", "0.5,0 -0.5,0", "--nu", "1,1",
                 "--length", "8", "--at", "0.5,0 1,0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "f(" in out


def test_from_boundary(annulus_file, capsys):
    code = main(["from-boundary", "--domain", annulus_file,
                 "--interior", "0,0.5", "--points", "0:1,0 1:0.25,0",
                 "--length", "8"])
    assert code == 0
    assert "prescribed-point residual" in capsys.readouterr().out


def test_from_boundary_triply(tmp_path):
    # the tether fails at the default horizon: the walk halves t
    path = tmp_path / "triply.json"
    path.write_text('{"inner_circles":[{"q":[-0.5,0.0],"r":0.1},{"q":[0.5,0.0],"r":0.1}]}')
    dom = CircularDomain((Circle(-0.5 + 0j, 0.1), Circle(0.5 + 0j, 0.1)))
    angles = [(0, 3.2), (1, -1.55), (2, -1.13), (2, -1.99)]
    pts = [(l, dom.circle(l).point(a)) for l, a in angles]
    points = " ".join(f"{l}:{w.real:.17g},{w.imag:.17g}" for l, w in pts)
    out_path = tmp_path / "map.json"
    code = main(["from-boundary", "--domain", str(path), "--interior", "0.57,-0.62",
                 "--points", points, "--length", "6", "--output", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["nu"] == [1, 1, 2]
    assert payload["prescribed_point_residual"] < 1e-4


_MALFORMED = {
    "complex": ["cball-dist", "--base", "0.3x", "--target", "0.1,0"],
    "complex-pair": ["omega", "--z", "0.5,0,1", "--y", "0.1,0"],
    "bbox-count": ["cball-raster", "--center", "0.5,0", "--r", "0.4", "--bbox", "1,2"],
    "bbox-value": ["cball-raster", "--center", "0.5,0", "--r", "0.4", "--bbox", "0,0,x,1"],
    "nu": ["proper-build", "--zeros", "0.5,0 -0.5,0", "--nu", "1,a"],
    "zeros": ["proper-eval", "--zeros", "0.5,0 -0.5;0", "--nu", "1,1", "--at", "0.5,0"],
    "points": ["from-boundary", "--interior", "0,0.5", "--points", "0-1,0 1:0.25,0"],
    "points-circle": ["from-boundary", "--interior", "0,0.5", "--points", "a:1,0"],
    "lambdas": ["from-boundary", "--interior", "0,0.5", "--points", "0:1,0 1:0.25,0",
                "--lambdas", "1;2"],
    "radii": ["find-witness", "--radii", "0.1,x"],
    "depths": ["find-witness", "--depths", ""],
}


@pytest.mark.parametrize("argv", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_values_are_domain_errors(annulus_file, capsys, argv):
    # a value the CLI splits or converts itself exits 1 with a message, not
    # with a traceback
    if argv[0] != "find-witness":
        argv = [argv[0], "--domain", annulus_file, *argv[1:]]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("domain error: ")


def test_cball_dist(annulus_file, tmp_path):
    out_path = str(tmp_path / "dist.json")
    code = main(["cball-dist", "--domain", annulus_file, "--base", "0.5,0",
                 "--target=-0.5,0", "--output", out_path])
    assert code == 0
    payload = json.loads(Path(out_path).read_text())
    assert 0.99 < payload["c_star"] < 1.0


def test_cball_dist_deterministic(tmp_path):
    # the triply connected domain, where the search has 8 starts
    path = tmp_path / "triply.json"
    path.write_text('{"inner_circles":[{"q":[-0.5,0.0],"r":0.1},{"q":[0.5,0.0],"r":0.1}]}')
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["cball-dist", "--domain", str(path), "--base", "0,0.3", "--target", "0.1,0.6"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert len(json.loads(a.read_text())["argmax"]) == 2


def test_cball_dist_above_one_is_a_numerical_failure(tmp_path, capsys):
    path = tmp_path / "near.json"
    path.write_text('{"inner_circles":[{"q":[-0.5,0.0],"r":0.3},{"q":[0.7,0.0],"r":0.01}]}')
    code = main(["cball-dist", "--domain", str(path), "--base=-0.8001,0",
                 "--target=0.7101,0"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: 1 - c* = -3.") and "raise --basis" in err


def test_cball_dist_target_in_a_hole_is_a_domain_error(tmp_path, capsys):
    path = tmp_path / "triply.json"
    path.write_text('{"inner_circles":[{"q":[-0.5,0.0],"r":0.1},{"q":[0.5,0.0],"r":0.1}]}')
    code = main(["cball-dist", "--domain", str(path), "--base", "0,0.3", "--target", "0.47,0"])
    assert code == 1
    assert "raise --basis" not in capsys.readouterr().err


def test_cball_raster_deterministic(annulus_file, tmp_path):
    a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["cball-raster", "--domain", annulus_file, "--center", "0.5,0",
            "--r", "0.4", "--res", "36", "--refine-cap", "60"]
    assert main(args + ["--output", a]) == 0
    assert main(args + ["--output", b]) == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    header = Path(a).read_text().splitlines()[:4]
    assert header[0].startswith("# bbox ")
    assert header[1] == "# resolution 36 36"
    assert header[2].startswith("# center ")
    assert header[3].startswith("# threshold ")


def test_proper_build_from_config_file(annulus_file, tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text('{"zeros": [[0.5, 0.0], [-0.5, 0.0]], "nu": [1, 1]}')
    assert main(["proper-build", "--domain", annulus_file,
                 "--config", str(cfg), "--length", "8"]) == 0
    assert main(["proper-build", "--domain", annulus_file, "--length", "8"]) == 1


def test_domain_round_trip_through_validate(annulus_file, tmp_path):
    out_path = str(tmp_path / "report.json")
    assert main(["validate", "--domain", annulus_file, "--output", out_path]) == 0
    payload = json.loads(Path(out_path).read_text())
    from schottky.domain import CircularDomain

    original = CircularDomain.from_json(Path(annulus_file).read_text())
    assert CircularDomain.from_dict(payload["domain"]) == original


def test_verify_disk(capsys):
    assert main(["verify", "disk"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_unknown_flag_rejected(annulus_file):
    with pytest.raises(SystemExit):
        main(["validate", "--domain", annulus_file, "--bogus"])
    # a subcommand takes only the shared flags it reads
    with pytest.raises(SystemExit):
        main(["cball-raster", "--domain", annulus_file, "--center", "0.5,0",
              "--r", "0.4", "--length", "5"])
    # the witness search and the boundary-data walk have no truncation or
    # horizon to set
    with pytest.raises(SystemExit):
        main(["find-witness", "--length", "4"])
    with pytest.raises(SystemExit):
        main(["from-boundary", "--domain", annulus_file, "--interior", "0,0.5",
              "--points", "0:1,0 1:0.25,0", "--horizon", "0.05"])
    # no search draws a random number, so there is no seed to set
    for argv in (["cball-dist", "--domain", annulus_file, "--base", "0.5,0", "--target", "0,0.5"],
                 ["cball-raster", "--domain", annulus_file, "--center", "0.5,0", "--r", "0.4"],
                 ["find-witness"]):
        with pytest.raises(SystemExit):
            main(argv + ["--seed", "1"])


def test_find_witness_at_a_tiny_hole(capsys):
    # no witness at this resolution (exit 3), but no numerical failure (2)
    assert main(["find-witness", "--radii", "1e-6", "--depths", "0.02", "--res", "24"]) == 3
    assert "beta_product=" in capsys.readouterr().out
