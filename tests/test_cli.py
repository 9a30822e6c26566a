import json
import math
from pathlib import Path

import pytest
from scipy import special

from helmholtz_positivity import cli, specfun as sf


@pytest.fixture()
def files(tmp_path):
    paths = {}

    def dump(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)

    dump("disk.json", {"type": "disk", "center": [0, 0], "radius": 1.0})
    dump("square.json", {"type": "polygon",
                         "vertices": [[-0.5, -0.5], [0.5, -0.5],
                                      [0.5, 0.5], [-0.5, 0.5]]})
    dump("eigendisk.json", {"type": "disk", "center": [0, 0],
                            "radius": sf.bessel_zero(0, 1)})
    dump("targets.json", {"points": [[-1, 0], [-0.5, 0], [0, 0],
                                     [0.5, 0], [1, 0]]})
    dump("far_targets.json", {"points": [[0, 0], [5, 0]]})
    paths["tmp"] = tmp_path
    return paths


def run(args):
    return cli.main(args)


def load(path):
    with open(path) as fh:
        return json.load(fh)


def test_positive_boundary_disk(files):
    out = str(files["tmp"] / "rep.json")
    wave = str(files["tmp"] / "wave.json")
    csv = str(files["tmp"] / "vals.csv")
    code = run(["positive-boundary", "--domain", files["disk.json"],
                "--k", "1", "--out", out, "--wave", wave, "--csv", csv])
    assert code == 0
    rep = load(out)
    assert rep["certificate"]["certified"] is True
    assert rep["gate"]["passes"] is True
    assert all(c["passed"] for c in rep["checks"])
    w = load(wave)
    assert w["a0"] == pytest.approx(1.0 / special.jv(0, 1.0), abs=1e-10)
    header, first = Path(csv).read_text().splitlines()[:2]
    assert header == "x,y,value"
    assert len(first.split(",")) == 3


def test_positive_boundary_eigenvalue_disk_exit3(files):
    out = str(files["tmp"] / "rep.json")
    code = run(["positive-boundary", "--domain", files["eigendisk.json"],
                "--k", "1", "--max-order", "20", "--out", out])
    assert code == 3
    rep = load(out)
    assert rep["fit"]["residual_max"] >= 0.5
    assert "error" in rep


def test_positive_boundary_gate_failure_exit2(files):
    out = str(files["tmp"] / "rep.json")
    code = run(["positive-boundary", "--domain", files["square.json"],
                "--k", "10", "--out", out])
    assert code == 2
    rep = load(out)
    assert rep["gate"]["passes"] is False


def test_bad_domain_json_exit4(files, capsys):
    bad = files["tmp"] / "bad.json"
    bad.write_text(json.dumps({"type": "disk", "center": [0, 0],
                               "radius": 1.0, "junk": True}))
    assert run(["positive-boundary", "--domain", str(bad)]) == 4


@pytest.mark.parametrize("argv", [
    ["positive-boundary", "--k", "0"],
    ["positive-boundary", "--k", "nan"],
    ["positive-boundary", "--k", "inf"],
    ["positive-boundary", "--max-order", "-1"],
    ["positive-boundary", "--mode", "bogus"],
    ["positive-boundary", "--n-col", "5"],
    ["counterexample", "--m", "0"],
    ["positive-boundary", "--c0", "nan"],
    ["positive-set", "--samples-interior", "0"],
    ["positive-set", "--samples-fit", "0"],
    ["counterexample", "--n-waves", "0"],
    # usage errors that argparse reports
    ["positive-boundary", "--k", "abc"],
    ["positive-boundary", "--bogus"],
    # the Fourier-Bessel order cap, far above it
    ["positive-boundary", "--max-order", "100000"],
    ["positive-set", "--max-order", "100000"],
    ["counterexample", "--m", "100000"],
    ["counterexample", "--r-scale", "1e300"],
    ["positive-boundary", "--k", "1e6", "--override-gate"],
    ["positive-boundary", "--k", "1e4", "--override-gate", "--max-order", "20"],
    ["scan-k", "--k-max", "1e6", "--k-min", "1"],
], ids=lambda argv: " ".join(argv))
def test_bad_flag_values_exit4(files, capsys, argv):
    assert run(argv + ["--domain", files["square.json"]]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")
    assert argv[1] in err[0]


def test_missing_required_flag_exit4(files, capsys):
    assert run(["scan-k", "--domain", files["square.json"], "--k-max", "3"]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")
    assert "--k-min" in err[0]


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["positive-boundary", "--help"])
    assert exc.value.code == 0
    assert "--max-order" in capsys.readouterr().out


def test_one_boundary_sample_does_not_certify(files):
    out = str(files["tmp"] / "one.json")
    code = run(["positive-boundary", "--domain", files["square.json"],
                "--samples", "1", "--out", out])
    assert code == 3
    assert load(out)["certificate"]["certified"] is False


def test_positive_set_tube_pipeline(files):
    out = str(files["tmp"] / "set.json")
    code = run(["positive-set", "--target", files["targets.json"],
                "--epsilon", "0.2", "--k", "1", "--out", out])
    assert code == 0
    rep = load(out)
    assert rep["certificate"]["certified"] is True
    assert rep["gate"]["area_d"] == pytest.approx(
        2 * 0.2 * 2 + math.pi * 0.2 ** 2)
    assert rep["strong_positivity"]["branch"] == "positive"
    assert rep["dirichlet"]["boundary_residual"] <= 1e-6


def test_positive_set_center_of_disk(files):
    out = str(files["tmp"] / "one.json")
    onept = files["tmp"] / "one_target.json"
    onept.write_text(json.dumps({"points": [[0, 0]]}))
    code = run(["positive-set", "--domain", files["disk.json"],
                "--target", str(onept), "--k", "1", "--out", out])
    assert code == 0
    rep = load(out)
    assert rep["certificate"]["min_sample"] == pytest.approx(
        1.0 / special.jv(0, 1.0), abs=1e-6)


def test_positive_set_target_outside_exit4(files):
    code = run(["positive-set", "--domain", files["disk.json"],
                "--target", files["far_targets.json"], "--k", "1"])
    assert code == 4


def test_positive_set_polygon_domain(files):
    out = str(files["tmp"] / "sq_set.json")
    inner = files["tmp"] / "sq_targets.json"
    inner.write_text(json.dumps({"points": [[0, 0], [0.2, 0.1], [-0.15, -0.2]]}))
    code = run(["positive-set", "--domain", files["square.json"],
                "--target", str(inner), "--k", "1", "--out", out])
    assert code == 0
    rep = load(out)
    assert rep["certificate"]["certified"] is True
    assert rep["certificate"]["min_sample"] > 1.0


def test_positive_set_equality_case_rejected(files):
    # disk of radius exactly j01/k sits on the gate threshold
    out = str(files["tmp"] / "deg.json")
    onept = files["tmp"] / "center.json"
    onept.write_text(json.dumps({"points": [[0, 0]]}))
    code = run(["positive-set", "--domain", files["eigendisk.json"],
                "--target", str(onept), "--k", "1", "--out", out])
    assert code == 2
    assert "degenerate equality" in load(out)["error"]


def test_counterexample_report(files):
    out = str(files["tmp"] / "cx.json")
    code = run(["counterexample", "--k", "1", "--m", "1", "--n-waves", "8",
                "--out", out])
    assert code == 0
    rep = load(out)
    assert rep["fit_attempt"]["failed"] is True
    assert rep["fit_attempt"]["residual_max"] >= 0.5
    assert rep["wave_panel"]["all_change_sign"] is True
    assert rep["wave_panel"]["max_flux_over_norm"] <= 1e-8
    assert rep["circle_radius"] == pytest.approx(sf.bessel_zero(0, 1))


def test_counterexample_rescaled(files):
    out1 = str(files["tmp"] / "cx1.json")
    out2 = str(files["tmp"] / "cx2.json")
    assert run(["counterexample", "--k", "1", "--m", "1", "--n-waves", "4",
                "--out", out1]) == 0
    assert run(["counterexample", "--k", "2", "--m", "1", "--n-waves", "4",
                "--out", out2]) == 0
    r1, r2 = load(out1), load(out2)
    assert r2["circle_radius"] == pytest.approx(r1["circle_radius"] / 2.0)
    assert r1["fit_attempt"]["failed"] and r2["fit_attempt"]["failed"]
    assert set(r1["wave_panel"]) == set(r2["wave_panel"])


def test_scan_k_csv(files):
    csv = str(files["tmp"] / "scan.csv")
    out = str(files["tmp"] / "scan.json")
    code = run(["scan-k", "--domain", files["square.json"], "--k-min", "0.5",
                "--k-max", "3.0", "--steps", "4", "--samples", "512",
                "--csv", csv, "--out", out])
    assert code == 0
    lines = Path(csv).read_text().splitlines()
    assert lines[0] == "k,gate_pass,residual_max,certified_margin"
    assert len(lines) == 5
    for line in lines[1:]:
        k, gate, resid, margin = line.split(",")
        assert float(k) > 0
        assert gate in ("0", "1")
    rep = load(out)
    assert [row[0] for row in rep["rows"]] == [float(line.split(",")[0]) for line in lines[1:]]
    assert rep["wall_time_s"] > 0.0


def test_scan_k_empty_range_exit4(files):
    assert run(["scan-k", "--domain", files["square.json"], "--k-min", "2.0",
                "--k-max", "1.0"]) == 4


def test_scan_k_residual_spike_at_disk_eigenvalue(files):
    # scan the unit disk across k = j01: the middle grid point lands on the
    # eigenvalue and the fit residual spikes there
    j01 = sf.bessel_zero(0, 1)
    csv = str(files["tmp"] / "spike.csv")
    code = run(["scan-k", "--domain", files["disk.json"],
                "--k-min", f"{j01 - 0.2}", "--k-max", f"{j01 + 0.2}",
                "--steps", "5", "--samples", "512", "--csv", csv])
    assert code == 0
    rows = [line.split(",") for line in Path(csv).read_text().splitlines()[1:]]
    residuals = [float(r[2]) for r in rows]
    assert residuals[2] >= 0.5            # on the eigenvalue
    assert residuals[0] < 0.05 and residuals[-1] < 0.05


def test_reports_deterministic_for_fixed_seed(files):
    out = str(files["tmp"] / "det.json")
    run(["positive-boundary", "--domain", files["square.json"], "--seed", "9",
         "--out", out])
    first = load(out)
    run(["positive-boundary", "--domain", files["square.json"], "--seed", "9",
         "--out", out])
    second = load(out)
    first.pop("wall_time_s")
    second.pop("wall_time_s")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_selftest_passes(files, capsys):
    assert run(["selftest"]) == 0
    text = capsys.readouterr().out
    assert "PASS" in text and "FAIL" not in text


def test_selftest_detects_fault_injection(files, capsys, monkeypatch):
    # a corrupted Bessel evaluation must trip the Wronskian identity
    real = special.jv

    def corrupted(order, x):
        return real(order, x) * (1.0 + 1e-6)

    monkeypatch.setattr(special, "jv", corrupted)
    checks = dict((name, (res, tol))
                  for name, res, tol in cli._selftest_checks(seed=1))
    res, tol = checks["wronskian"]
    assert res > tol
