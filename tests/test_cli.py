import argparse
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import special

from helmholtz_positivity import cli, geometry, herglotz, specfun as sf


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
    dump("square_targets.json", {"points": [[0, 0], [0.2, 0.1], [-0.15, -0.2]]})
    dump("huge_disk.json", {"type": "disk", "center": [0, 0], "radius": 1e200})
    dump("giant_disk.json", {"type": "disk", "center": [0, 0], "radius": 1.2e302})
    dump("huge_square.json", {"type": "polygon",
                              "vertices": [[0, 0], [1e200, 0], [1e200, 1e200], [0, 1e200]]})
    dump("huge_L2.json", {"type": "polygon",
                          "vertices": [[0, 0], [2e200, 0], [2e200, 1e200], [1e200, 1e200],
                                       [1e200, 2e200], [0, 2e200]]})
    dump("huge_tube.json", {"type": "tube", "spine": [[0, 0], [1e200, 0]], "epsilon": 1e199})
    dump("huge_targets.json", {"points": [[5e199, 5e199]]})
    dump("spine_targets.json", {"points": [[5e199, 0]]})
    dump("quarter_square.json", {"type": "polygon",
                                 "vertices": [[0, 0], [0.25, 0], [0.25, 0.25], [0, 0.25]]})
    dump("float_edge_targets.json", {"points": [[0.1, 0.1], [0.1, -1.7e308]]})
    dump("strip13.json", {"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 1e-13], [0, 1e-13]]})
    dump("strip11.json", {"type": "polygon", "vertices": [[0, 0], [1, 0], [1, 1e-11], [0, 1e-11]]})
    dump("origin.json", {"points": [[0, 0]]})
    dump("tiny_disk.json", {"type": "disk", "center": [0, 0], "radius": 1e-300})
    dump("far_out.json", {"points": [[1e300, 0]]})
    dump("L2.json", {"type": "polygon",
                     "vertices": [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]})
    paths["tmp"] = tmp_path
    return paths


def run(args):
    return cli.main(args)


def subcommand_flags():
    """{subcommand: the set of its flags} as `cli.build_parser()` declares them."""
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {name: {s for a in sp._actions for s in a.option_strings} - {"-h", "--help"}
            for name, sp in sub.choices.items()}


def load(path):
    with open(path) as fh:
        return json.load(fh)


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def load_strict(path):
    """Parse a report as strict JSON: NaN and Infinity are errors."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_no_constant)


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
    assert rep["fit"]["converged"] is True
    assert all(c["passed"] for c in rep["checks"])
    w = load(wave)
    assert w["a0"] == pytest.approx(1.0 / special.jv(0, 1.0), abs=1e-10)
    header, first = Path(csv).read_text().splitlines()[:2]
    assert header == "x,y,value"
    assert len(first.split(",")) == 3


def test_positive_boundary_eigenvalue_disk_exit3(files):
    # the counterexample disk: no wave is positive on its boundary, so the
    # certificate fails on the wave of the unconverged fit
    out = str(files["tmp"] / "rep.json")
    code = run(["positive-boundary", "--domain", files["eigendisk.json"],
                "--k", "1", "--max-order", "20", "--out", out])
    assert code == 3
    rep = load(out)
    assert rep["certificate"]["certified"] is False
    assert rep["fit"]["converged"] is False
    assert rep["fit"]["residual_max"] >= 0.5
    assert "error" not in rep


@pytest.mark.parametrize("k, code", [
    pytest.param("10", 3, id="k10-exit3"),
    # area 1.2 times the gate threshold, yet the certificate proves the wave positive
    pytest.param("4.669", 0, id="k4.669-exit0"),
    # the (1,1) Dirichlet eigenvalue of the square: the fit does not converge
    pytest.param(repr(math.pi * math.sqrt(2.0)), 3, id="k-pi-sqrt2-exit3"),
])
def test_positive_boundary_gate_is_reported_not_enforced(files, k, code):
    out = str(files["tmp"] / "rep.json")
    assert run(["positive-boundary", "--domain", files["square.json"],
                "--k", k, "--out", out]) == code
    rep = load(out)
    assert rep["gate"]["passes"] is False
    assert rep["certificate"]["certified"] is (code == 0)
    assert "error" not in rep


def test_positive_boundary_reentrant_L_certifies_unconverged_fit(files):
    # the fit misses c0 near the reentrant corner, and its wave is still positive
    out = str(files["tmp"] / "rep.json")
    code = run(["positive-boundary", "--domain", files["L2.json"], "--k", "1.5",
                "--out", out])
    assert code == 0
    rep = load(out)
    assert rep["fit"]["converged"] is False
    assert rep["fit"]["residual_max"] > 0.05
    assert rep["certificate"]["certified_margin"] > 0.5


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
    # a mode parameter must be finite and non-negative, and qr takes none
    ["positive-boundary", "--mode", "qr:5"],
    ["positive-boundary", "--mode", "tsvd:-1"],
    ["positive-boundary", "--mode", "tikhonov:nan"],
    ["positive-set", "--mode", "tsvd:inf"],
    ["positive-boundary", "--n-col", "5"],
    ["counterexample", "--m", "0"],
    ["positive-boundary", "--c0", "nan"],
    ["positive-set", "--c0", "-1"],
    ["counterexample", "--n-waves", "0"],
    # usage errors that argparse reports
    ["positive-boundary", "--k", "abc"],
    ["positive-boundary", "--bogus"],
    # the Fourier-Bessel order cap, far above it
    ["positive-boundary", "--max-order", "100000"],
    ["positive-set", "--max-order", "100000"],
    ["counterexample", "--m", "100000"],
    ["counterexample", "--r-scale", "1e300"],
    ["positive-boundary", "--k", "1e6"],
    ["positive-boundary", "--k", "1e4", "--max-order", "20"],
    ["scan-k", "--k-max", "1e6", "--k-min", "1"],
    # a k whose zero ball (diameter 2.002 j01 / k in units) overflows
    ["positive-boundary", "--k", "2e-308"],
    ["positive-boundary", "--k", "1e-320"],
    ["positive-set", "--k", "2e-308"],
    ["positive-set", "--k", "1e-320"],
    ["scan-k", "--k-min", "1e-320", "--k-max", "3"],
    ["counterexample", "--k", "1e-320"],
    # a negative seed is no numpy seed
    ["positive-boundary", "--seed", "-1"],
    ["positive-set", "--seed", "-1"],
    ["counterexample", "--seed", "-1"],
    ["selftest", "--seed", "-1"],
    # positive-set no longer takes the interior-sample flags: a usage error
    ["positive-set", "--samples-interior", "0"],
    ["positive-set", "--samples-interior", "1000000000000"],
    ["positive-set", "--samples-fit", "0"],
    ["positive-set", "--samples-fit", "1"],
    ["positive-set", "--samples-fit", "25"],
    ["positive-set", "--samples-fit", "100", "--max-order", "200"],
    ["positive-set", "--samples-fit", "1000000000000"],
    # the count cap, far above it
    ["positive-boundary", "--samples", "1000000000000"],
    ["positive-boundary", "--n-col", "1000000000000"],
    ["scan-k", "--steps", "1000000000000", "--k-min", "0.5", "--k-max", "3"],
    # a flag the command does not read is a usage error
    ["positive-boundary", "--boundary-tol", "1e-9"],
    # targets are classified at the domain's own scale: no tolerance flag
    ["positive-set", "--boundary-tol", "1e-9"],
    # a domain and a tube around the targets are two domains
    ["positive-set", "--epsilon", "0.2"],
    # no command has a gate to override
    ["positive-boundary", "--override-gate"],
    ["positive-set", "--override-gate"],
    ["counterexample", "--domain", "square.json"],
    ["counterexample", "--n-col", "5", "--max-order", "3"],
    ["counterexample", "--samples", "512"],
    ["counterexample", "--override-gate"],
    ["counterexample", "--boundary-tol", "1e-9"],
    ["counterexample", "--csv", "unused.csv"],
    ["counterexample", "--wave", "unused.json"],
    ["scan-k", "--k", "-1", "--k-min", "0.5", "--k-max", "3"],
    ["scan-k", "--n-col", "40", "--k-min", "0.5", "--k-max", "3"],
    ["scan-k", "--seed", "1", "--k-min", "0.5", "--k-max", "3"],
    ["scan-k", "--override-gate", "--k-min", "0.5", "--k-max", "3"],
    ["scan-k", "--boundary-tol", "1e-9", "--k-min", "0.5", "--k-max", "3"],
    ["scan-k", "--wave", "unused.json", "--k-min", "0.5", "--k-max", "3"],
    ["selftest", "--domain", "square.json"],
    ["selftest", "--k", "nan"],
    ["selftest", "--c0", "1"],
    ["selftest", "--max-order", "3"],
    ["selftest", "--n-col", "40"],
    ["selftest", "--mode", "qr"],
    ["selftest", "--samples", "512"],
    ["selftest", "--override-gate"],
    ["selftest", "--boundary-tol", "1e-9"],
    ["selftest", "--csv", "unused.csv"],
    ["selftest", "--wave", "unused.json"],
], ids=lambda argv: " ".join(argv))
def test_bad_flag_values_exit4(files, capsys, argv):
    # each command gets the input files it takes, so only the flag is at fault;
    # the positive-set targets lie inside the square
    takes = subcommand_flags()[argv[0]]
    inputs = [[flag, files[name]] for flag, name in (("--domain", "square.json"),
                                                     ("--target", "square_targets.json"))
              if flag in takes]
    assert run(argv + sum(inputs, [])) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:")
    assert argv[1] in err[0]


@pytest.mark.parametrize("argv, flag", [
    (["--epsilon", "0.2", "--k", "2e-308"], "--k"),
    (["--epsilon", "0.2", "--k", "1e-320"], "--k"),
    # checking the tube a tenth of epsilon apart would take 2e10 points
    (["--epsilon", "1e-9"], "epsilon"),
    (["--domain", "thin_tube.json"], "epsilon"),
], ids=lambda a: " ".join(a) if isinstance(a, list) else a)
def test_positive_set_tube_route_input_errors_exit4(files, capsys, argv, flag):
    (files["tmp"] / "thin_tube.json").write_text(json.dumps(
        {"type": "tube", "spine": [[-1, 0], [1, 0]], "epsilon": 1e-9}))
    (files["tmp"] / "line.json").write_text(json.dumps({"points": [[-1, 0], [1, 0]]}))
    argv = [str(files["tmp"] / a) if a.endswith(".json") else a for a in argv]
    assert run(["positive-set", "--target", str(files["tmp"] / "line.json"), *argv]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("input error:") and flag in err[0]


def test_counterexample_at_k_2e_308_scales_its_disk_into_units(files):
    out = files["tmp"] / "ce.json"
    assert run(["counterexample", "--k", "2e-308", "--n-waves", "2", "--out", str(out)]) == 0
    assert load_strict(out)["circle_radius"] == pytest.approx(sf.bessel_zero(0, 1) / 2e-308)


def test_each_command_takes_only_the_flags_it_reads():
    fit = "--c0 --max-order --mode "
    table = {
        "positive-boundary": "--domain --k " + fit + "--n-col --samples --seed "
                             "--csv --wave --out",
        "positive-set": "--domain --k " + fit + "--n-col --samples --seed "
                        "--csv --wave --out --target --epsilon",
        "counterexample": "--k " + fit + "--seed --out --m --r-scale --n-waves",
        "scan-k": "--domain " + fit + "--samples --csv --out --k-min --k-max --steps",
        "selftest": "--seed --out",
    }
    flags = subcommand_flags()
    assert flags == {command: set(names.split()) for command, names in table.items()}
    assert sum(map(len, flags.values())) == 45


def test_wave_count_cap():
    # at the cap the panel would run 10^5 waves, so the flag is checked alone
    args = cli.build_parser().parse_args(["counterexample", "--n-waves", "1000000000000"])
    with pytest.raises(cli.InputError, match="--n-waves"):
        cli._check_args(args)
    cli._check_args(cli.build_parser().parse_args(["counterexample", "--n-waves", "100000"]))


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
    assert rep["fit"]["residual_max"] <= 0.05
    assert not {"dirichlet", "strong_positivity", "shrink_delta"} & rep.keys()


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


def test_positive_set_reentrant_L_certifies_unconverged_fit(files, capsys):
    # at k 1 the boundary fit misses c0 near the reentrant corner, yet its wave
    # is certified on the targets; at k 0.5 the fit converges
    out = str(files["tmp"] / "L2_set.json")
    targets = files["tmp"] / "L2_targets.json"
    targets.write_text(json.dumps({"points": [[0.5, 0.5], [1.5, 0.5], [0.5, 1.5]]}))
    argv = ["positive-set", "--domain", files["L2.json"], "--target", str(targets),
            "--out", out]
    assert run(argv + ["--k", "1"]) == 0
    rep = load(out)
    assert rep["fit"]["converged"] is False
    assert rep["fit"]["residual_max"] > 0.05
    assert rep["certificate"]["certified_margin"] > 1.0
    assert "error" not in rep
    assert capsys.readouterr().err == ""
    assert run(argv + ["--k", "0.5"]) == 0
    rep = load(out)
    assert rep["fit"]["converged"] is True
    assert rep["certificate"]["certified_margin"] > 1.0


@pytest.mark.parametrize("points, domain, k", [
    pytest.param([[-1, 0], [0, 0.1], [1, 0]], None, "2", id="bent-eps0.2-k2"),
    pytest.param([[-1, 0], [-0.3, 0.3], [0.3, -0.3], [1, 0]], None, "1", id="zig-eps0.2-k1"),
    pytest.param([[-1, 0], [1, 0]], None, "3", id="straight-eps0.2-k3"),
    pytest.param([[0, 0], [0.2, 0.1], [-0.15, -0.2]], "square.json", "3", id="square-k3"),
])
def test_positive_set_boundary_fit_certifies(files, points, domain, k):
    # domain None: the --epsilon 0.2 tube around the targets
    out = str(files["tmp"] / "set.json")
    targets = files["tmp"] / "case_targets.json"
    targets.write_text(json.dumps({"points": points}))
    where = ["--domain", files[domain]] if domain else ["--epsilon", "0.2"]
    code = run(["positive-set", "--target", str(targets), *where, "--k", k, "--out", out])
    assert code == 0
    rep = load(out)
    assert rep["certificate"]["certified_margin"] > 1.0
    assert all(c["passed"] for c in rep["checks"])


BENT = [[-1, 0], [0, 0.1], [1, 0]]
ZIG = [[-1, 0], [-0.3, 0.3], [0.3, -0.3], [1, 0]]


def _jv_wave(wave, pts):
    """A saved wave at pts, evaluated with scipy's jv (not the package's table)."""
    d = pts - wave["center"]
    kr, theta = wave["k"] * np.hypot(d[:, 0], d[:, 1]), np.arctan2(d[:, 1], d[:, 0])
    m = np.arange(1, wave["M"] + 1)
    return wave["a0"] * special.jv(0, kr) + np.sum(
        special.jv(m, kr[:, None]) * (np.asarray(wave["ac"]) * np.cos(np.outer(theta, m))
                                      + np.asarray(wave["as"]) * np.sin(np.outer(theta, m))),
        axis=1)


def _along(points, n):
    """n points equispaced in arclength on the polyline, both ends included."""
    v = np.asarray(points, dtype=float)
    s = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(v, axis=0).T))])
    t = np.linspace(0.0, s[-1], n)
    return np.stack([np.interp(t, s, v[:, 0]), np.interp(t, s, v[:, 1])], axis=1), s[-1]


def _set_run(files, points, *argv):
    """(exit code, report, wave) of positive-set on the target points."""
    out, wave = files["tmp"] / "spine.json", files["tmp"] / "spine_wave.json"
    targets = files["tmp"] / "spine_targets.json"
    targets.write_text(json.dumps({"points": points}))
    code = run(["positive-set", "--target", str(targets), *argv,
                "--out", str(out), "--wave", str(wave)])
    return code, load(out), load(wave)


@pytest.mark.parametrize("k", ["1", "2", "3"])
@pytest.mark.parametrize("epsilon", ["0.1", "0.2"])
@pytest.mark.parametrize("spine", ["bent", "zig"])
def test_positive_set_certifies_the_whole_spine(files, spine, epsilon, k):
    # with --epsilon, K is the target polyline: --samples cell midpoints, a
    # gap of one cell, and a margin that no point of the exact spine undercuts
    points, n = {"bent": BENT, "zig": ZIG}[spine], 512
    code, rep, wave = _set_run(files, points, "--epsilon", epsilon, "--k", k,
                               "--samples", str(n))
    cert = rep["certificate"]
    dense, length = _along(points, 16 * n)
    assert cert["n_samples"] == n
    assert cert["max_gap"] == pytest.approx(length / n, rel=1e-14)
    assert cert["certified_margin"] <= float(np.min(_jv_wave(wave, dense)))
    assert code == 0 and cert["certified"] is True


def test_positive_set_gate_is_reported_not_enforced(files):
    # the eps 0.2 tube at k 5 is over the Faber-Krahn gate (it allows k < 4.43),
    # and the spine certificate proves its wave positive all the same
    code, rep, _ = _set_run(files, [[-1, 0], [1, 0]], "--epsilon", "0.2", "--k", "5")
    assert code == 0
    assert rep["gate"]["passes"] is False
    assert rep["certificate"]["max_gap"] == 2.0 / 4096
    assert rep["certificate"]["n_samples"] == 4096
    assert "error" not in rep


def test_positive_set_one_spine_sample_is_the_midpoint(files):
    code, rep, _ = _set_run(files, [[-1, 0], [1, 0]], "--epsilon", "0.2",
                            "--samples", "1")
    cert = rep["certificate"]
    assert (cert["n_samples"], cert["max_gap"], cert["min_point"]) == (1, 2.0, [0.0, 0.0])
    assert code == 3 and cert["certified"] is False


def test_positive_set_tube_domain_certifies_the_targets_only(files):
    # a tube given as --domain is a domain: K is the finite target set
    tube = files["tmp"] / "tube.json"
    tube.write_text(json.dumps({"type": "tube", "spine": [[-1, 0], [1, 0]], "epsilon": 0.2}))
    code, rep, _ = _set_run(files, STRAIGHT, "--domain", str(tube), "--samples", "16")
    assert code == 0
    assert rep["certificate"]["max_gap"] == 0.0
    assert rep["certificate"]["n_samples"] == len(STRAIGHT)


def test_standard_checks_evaluate_each_check_once(files, monkeypatch):
    # the certifying reports' one check: a scale evaluation and the mean-value
    # circles; the FD and zero-ball identities run in selftest
    domain = geometry.load_domain(files["square.json"])
    wave, _ = herglotz.fit_boundary(domain, 1.0, 1.0)
    calls = []
    real = herglotz.eval_series

    def counted(w, pts):
        calls.append(len(pts))
        return real(w, pts)

    monkeypatch.setattr(herglotz, "eval_series", counted)
    check = cli._check_mean_value(wave, domain, 1.0, 42)
    assert len(calls) <= 2
    assert check["name"] == "mean_value" and check["passed"]
    monkeypatch.undo()
    for argv in (["positive-boundary", "--domain", files["square.json"]],
                 ["positive-set", "--target", files["targets.json"], "--epsilon", "0.2"]):
        out = str(files["tmp"] / "checks.json")
        assert run(argv + ["--out", out]) == 0
        assert [c["name"] for c in load(out)["checks"]] == ["mean_value"]


def test_positive_set_equality_case_rejected(files):
    # the disk of radius exactly j01/k sits on the gate threshold: no wave is
    # positive on its boundary, the fit to c0 collapses, and the certificate
    # at its centre rejects the wave by itself (no gate stop)
    out = str(files["tmp"] / "deg.json")
    code = run(["positive-set", "--domain", files["eigendisk.json"],
                "--target", files["origin.json"], "--k", "1", "--out", out])
    assert code == 3
    rep = load(out)
    assert rep["certificate"]["certified"] is False
    assert rep["fit"]["converged"] is False
    assert "error" not in rep


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


def test_tiny_k_report_is_strict_json(files, capsys):
    # pi (j01/k)^2 overflows: the threshold is written as null, with no warning
    out = str(files["tmp"] / "tiny.json")
    code = run(["positive-boundary", "--domain", files["square.json"],
                "--k", "1e-200", "--out", out])
    assert code == 0
    rep = load_strict(out)
    assert rep["gate"]["area_threshold"] is None
    assert rep["gate"]["passes"] is True
    assert capsys.readouterr().err == ""


def _extreme(argv, code, passes, error=None):
    return pytest.param(argv, code, passes, error, id=f"{' '.join(argv)}-{code}")


@pytest.mark.parametrize("argv, code, passes, error", [
    # k R is far above the order cap: one input error, no report
    _extreme(["positive-boundary", "--domain", "huge_disk.json"], 4, None, "above the cap"),
    _extreme(["positive-boundary", "--domain", "huge_square.json"], 4, None, "above the cap"),
    _extreme(["positive-boundary", "--domain", "huge_L2.json"], 4, None, "above the cap"),
    _extreme(["positive-boundary", "--domain", "huge_tube.json"], 4, None, "above the cap"),
    # pi R^2 and pi (j01/k)^2 both overflow, yet k R = 120 > j01: the radii decide,
    # and both certifying commands report the failing gate and certify all the same
    _extreme(["positive-boundary", "--domain", "giant_disk.json", "--k", "1e-300"], 3, False),
    _extreme(["positive-set", "--domain", "giant_disk.json", "--target", "origin.json",
              "--k", "1e-300"], 0, False),
    # the targets are inside (the shoelace terms, distances and ray crossings
    # overflow, but not in units), and then k R is far above the order cap
    _extreme(["positive-set", "--domain", "huge_disk.json", "--target", "huge_targets.json"],
             4, None, "above the cap"),
    _extreme(["positive-set", "--domain", "huge_square.json", "--target", "huge_targets.json"],
             4, None, "above the cap"),
    _extreme(["positive-set", "--domain", "huge_L2.json", "--target", "huge_targets.json"],
             4, None, "above the cap"),
    # the target lies on the spine: its distance to the spine is 0, not NaN
    _extreme(["positive-set", "--domain", "huge_tube.json", "--target", "spine_targets.json"],
             4, None, "above the cap"),
    # the domain's power of two, not the target's, sets the units: a far target is outside
    _extreme(["positive-set", "--domain", "square.json", "--target", "far_out.json"],
             4, None, "strictly inside"),
    # the target overflows in the quarter square's units (s = 1/4): it is outside
    _extreme(["positive-set", "--domain", "quarter_square.json",
              "--target", "float_edge_targets.json"], 4, None, "strictly inside"),
    # no interior point of the strip is farther than BOUNDARY_TOL from its
    # boundary: the mean-value check's point search gives up
    _extreme(["positive-boundary", "--domain", "strip13.json"], 4, None, "boundary tolerance"),
    _extreme(["positive-boundary", "--domain", "strip11.json"], 0, True),
    # k times the domain's power of two underflows: the unit copy has no wavenumber
    _extreme(["positive-boundary", "--domain", "tiny_disk.json", "--k", "1e-300"], 4, None,
             "underflows"),
    # R = j01 / k: pi R^2 overflows, then underflows to 0 (lambda_1 bound inf)
    _extreme(["counterexample", "--k", "1e-300", "--n-waves", "4"], 0, True),
    _extreme(["counterexample", "--k", "1e300", "--n-waves", "4"], 0, True),
    _extreme(["counterexample", "--r-scale", "1e-300", "--n-waves", "4"], 0, True),
    # counterexample reports the gate but does not stop at it
    _extreme(["counterexample", "--k", "1e-300", "--r-scale", "50", "--n-waves", "4"], 0, False),
])
def test_extreme_scales_exit_cleanly(files, capsys, argv, code, passes, error):
    # no traceback and no numpy warning (pytest makes warnings errors)
    out = files["tmp"] / "extreme.json"
    argv = [files.get(a, a) for a in argv]
    assert run(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    if error is None:
        assert load_strict(out)["gate"]["passes"] is passes
        assert err == ""
    else:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("input error:") and error in lines[0]
        assert not out.exists()


L2 = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]
SQUARE = [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]
STRAIGHT = [[-1, 0], [-0.5, 0], [0, 0], [0.5, 0], [1, 0]]

#: case -> (command, polygon vertices or None, target points or None, k, --epsilon)
_SCALE_CASES = {
    "boundary-L2-k1.3": ("positive-boundary", L2, None, 1.3, None),
    "set-square-targets": ("positive-set", SQUARE, [[0, 0], [0.2, 0.1], [-0.15, -0.2]],
                           1.0, None),
    "set-tube-eps0.2": ("positive-set", None, STRAIGHT, 1.0, 0.2),
}


def _run_scaled(tmp, case, e):
    """(exit code, report, wave) of a case with every length times 2^e and k times 2^-e."""
    command, vertices, targets, k, epsilon = _SCALE_CASES[case]
    f = math.ldexp(1.0, e)
    out, wave = tmp / "scaled.json", tmp / "scaled_wave.json"
    argv = [command, "--k", repr(k / f), "--out", str(out), "--wave", str(wave)]
    if vertices is not None:
        domain = tmp / "scaled_domain.json"
        domain.write_text(json.dumps({"type": "polygon",
                                      "vertices": [[x * f, y * f] for x, y in vertices]}))
        argv += ["--domain", str(domain)]
    if targets is not None:
        points = tmp / "scaled_targets.json"
        points.write_text(json.dumps({"points": [[x * f, y * f] for x, y in targets]}))
        argv += ["--target", str(points)]
    if epsilon is not None:
        argv += ["--epsilon", repr(epsilon * f)]
    return run(argv), load(out), load(wave)


@pytest.mark.parametrize("case", sorted(_SCALE_CASES))
def test_every_scale_gives_the_unit_result(files, capsys, case):
    # the question does not depend on scale, and the commands run on the
    # domain in units of its power of two: with every length times 2^e and
    # k times 2^-e the run is the unit run, bit for bit, where areas overflow
    # (2^600), where absolute tolerances rejected the domain or its targets
    # (2^-40, 2^-200), and above unit size (2^40, 2^200)
    code0, rep0, wave0 = _run_scaled(files["tmp"], case, 0)
    assert code0 == 0
    for e in (-200, -40, 40, 200, 600):
        f = math.ldexp(1.0, e)
        code, rep, wave = _run_scaled(files["tmp"], case, e)
        assert code == code0
        assert rep["fit"] == rep0["fit"]
        for key in ("certified_margin", "min_sample", "rounding"):
            assert rep["certificate"][key] == rep0["certificate"][key]
        assert rep["certificate"]["min_point"] == [v * f for v in rep0["certificate"]["min_point"]]
        assert all(c["passed"] for c in rep["checks"])
        assert wave["center"] == [v * f for v in wave0["center"]]
        assert wave["k"] == wave0["k"] / f
        assert {key: wave[key] for key in ("M", "a0", "ac", "as")} == \
            {key: wave0[key] for key in ("M", "a0", "ac", "as")}
    assert capsys.readouterr().err == ""


def test_scan_k_report_is_strict_json(files):
    # the L's fits do not converge above k = 0.5, yet every row's wave is
    # certified, so every row has a finite margin
    out = str(files["tmp"] / "scanL.json")
    csv = str(files["tmp"] / "scanL.csv")
    code = run(["scan-k", "--domain", files["L2.json"], "--k-min", "0.5",
                "--k-max", "3", "--steps", "6", "--out", out, "--csv", csv])
    assert code == 0
    rows = load_strict(out)["rows"]
    assert len(rows) == 6
    assert all(v is not None and math.isfinite(v) for row in rows for v in row)
    assert sum(row[2] > 0.05 for row in rows) == 5  # residual_max above the 5% test
    assert "nan" not in Path(csv).read_text()


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
    assert "pde_residual_fd" in text and "zero_ball_monte_carlo" in text


def test_selftest_detects_fault_injection(files, capsys, monkeypatch):
    # a corrupted Bessel table must trip Neumann's sum-of-squares identity
    real = sf.bessel_j_table

    def corrupted(M, x):
        return real(M, x) * (1.0 + 1e-6)

    monkeypatch.setattr(sf, "bessel_j_table", corrupted)
    checks = dict((name, (res, tol))
                  for name, res, tol in cli._selftest_checks(seed=1))
    res, tol = checks["bessel_neumann_sum"]
    assert res > tol
    monkeypatch.undo()

    # a boundary fit off by 1e-6 in a0 must miss the disk's closed form
    fit = herglotz.fit_boundary

    def perturbed(*args, **kwargs):
        wave, report = fit(*args, **kwargs)
        wave.a0 += 1e-6
        return wave, report

    monkeypatch.setattr(herglotz, "fit_boundary", perturbed)
    checks = dict((name, (res, tol))
                  for name, res, tol in cli._selftest_checks(seed=1))
    res, tol = checks["fit_vs_disk_closed_form"]
    assert res > tol
    monkeypatch.undo()

    # a field off by 1e-3 x^2, which no Helmholtz solution is, must trip the
    # five-point residual
    series = herglotz.eval_series

    def off(wave, pts):
        return series(wave, pts) + 1e-3 * np.atleast_2d(pts)[:, 0] ** 2

    monkeypatch.setattr(herglotz, "eval_series", off)
    checks = dict((name, (res, tol))
                  for name, res, tol in cli._selftest_checks(seed=1))
    res, tol = checks["pde_residual_fd"]
    assert res > tol
