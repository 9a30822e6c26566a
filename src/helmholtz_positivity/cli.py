"""Command-line pipelines: construct, check, and certify positive waves.

Commands
--------
positive-boundary   gate -> boundary fit -> certificate -> checks
positive-set        gate -> interior Dirichlet solve -> strict-positivity scan
                    -> inward shrink -> interior fit -> certificate on the set
counterexample      eigenvalue-radius disk: the expected fit failure plus a
                    panel of random waves changing sign on the circle
scan-k              CSV sweep of gate/residual/margin over a wavenumber range
selftest            run the built-in invariant suite and print a table

Exit codes: 0 success/certified, 2 gate failure, 3 fit/solve failure,
4 input error (usage errors too). Reports are deterministic for a fixed
config and seed (all randomness is seeded; the wall_time_s field is the one exception).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
from scipy import special

from . import certify, dirichlet, geometry, herglotz, specfun

EXIT_OK = 0
EXIT_GATE = 2
EXIT_FIT = 3
EXIT_INPUT = 4

#: Highest Fourier-Bessel order a command fits with (a fit's memory grows with
#: its square), for --max-order and for the order k and the domain ask for.
_MAX_ORDER = 200


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors: argparse's exit code 2 means a gate failure here."""

    def error(self, message):
        raise InputError(message)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _jsonable(obj):
    """Reports hold dicts, lists, tuples and Python or numpy scalars."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    return obj


def _write_csv(rows, header, path) -> None:
    if not path:
        return
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            f"{v:.17g}" if isinstance(v, (float, np.floating)) else str(v)
            for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _gate_dict(gate: dirichlet.SpectralGate) -> dict:
    return {
        "k": gate.k,
        "area_d": gate.area_d,
        "r_star": gate.r_star,
        "area_threshold": math.pi * gate.r_star ** 2,
        "lambda1_lower_bound": gate.lambda1_lower_bound,
        "passes": gate.passes,
    }


# ---------------------------------------------------------------------------
# seeded diagnostic checks
# ---------------------------------------------------------------------------

def _interior_circle_pairs(domain, n_pairs: int, seed: int):
    """Seeded (center, radius) pairs with the closed circle inside the domain."""
    rng = np.random.default_rng(seed)
    bpts = geometry.sample_boundary(domain, 256).points
    lo, hi = bpts.min(axis=0), bpts.max(axis=0)
    pairs = []
    while len(pairs) < n_pairs:
        c = rng.uniform(lo, hi)
        if not geometry.contains(domain, c):
            continue
        room = float(geometry.boundary_distance(domain, c.reshape(1, 2))[0])
        if room <= 1e-6:
            continue
        pairs.append((c, rng.uniform(0.2, 0.8) * room))
    return pairs


def _check_mean_value(wave, domain, k: float, seed: int) -> dict:
    evaluate = lambda p: herglotz.eval_series(wave, p)
    scale = float(np.max(np.abs(evaluate(geometry.sample_boundary(domain, 512).points))))
    worst = 0.0
    for center, radius in _interior_circle_pairs(domain, 10, seed):
        worst = max(worst, dirichlet.mean_value_check(evaluate, center, radius, k))
    tol = 1e-6 * max(scale, 1e-300)
    return {"name": "mean_value", "residual": worst, "tolerance": tol,
            "passed": bool(worst <= tol)}


def _check_pde_residual(wave, domain, k: float, seed: int) -> dict:
    rng = np.random.default_rng(seed + 1)
    bpts = geometry.sample_boundary(domain, 256).points
    lo, hi = bpts.min(axis=0), bpts.max(axis=0)
    pts = rng.uniform(lo, hi, size=(100, 2))
    evaluate = lambda p: herglotz.eval_series(wave, p)
    scale = float(np.max(np.abs(evaluate(pts))))
    res = float(np.max(herglotz.helmholtz_fd_residual(evaluate, pts, k)))
    tol = 1e-5 * k * k * max(scale, 1e-300)
    return {"name": "pde_residual_fd", "residual": res, "tolerance": tol,
            "passed": bool(res <= tol)}


def _check_zero_ball(wave, domain) -> dict:
    radius = specfun.bessel_zero(0, 1) / wave.k * 1.001
    scan = certify.scan_for_zero(wave, geometry.centroid(domain), radius)
    passed = bool(scan.found or scan.identically_small)
    return {"name": "zero_ball", "found": scan.found,
            "identically_small": scan.identically_small,
            "residual": 0.0 if passed else 1.0, "passed": passed}


def _standard_checks(wave, domain, k: float, seed: int) -> list:
    return [
        _check_mean_value(wave, domain, k, seed),
        _check_pde_residual(wave, domain, k, seed),
        _check_zero_ball(wave, domain),
    ]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_positive_boundary(args) -> int:
    t0 = time.perf_counter()
    domain = _load_domain_arg(args)
    k, c0 = args.k, args.c0
    gate = dirichlet.faber_krahn_gate(domain, k)
    report = {
        "command": "positive-boundary",
        "config": _config_echo(args),
        "gate": _gate_dict(gate),
    }
    if not gate.passes and not args.override_gate:
        report["error"] = "gate failed (use --override-gate to force)"
        _finish(report, t0, args)
        return EXIT_GATE
    try:
        wave, fit = herglotz.fit_boundary(
            domain, k, c0, M=_fit_order(args, k, domain, "--k and the domain"),
            n_col=args.n_col, mode=args.mode, override_gate=args.override_gate)
    except herglotz.FitFailedError as exc:
        report["fit"] = dataclasses.asdict(exc.report)
        report["error"] = str(exc)
        _finish(report, t0, args)
        return EXIT_FIT

    sampling = geometry.sample_boundary(domain, args.samples)
    cert = certify.certify_positive(wave, sampling)
    return _certified(report, wave, fit, cert, sampling.points, domain, args, t0)


def cmd_positive_set(args) -> int:
    t0 = time.perf_counter()
    targets = _load_targets_arg(args)
    if args.domain:
        domain = _load_domain_arg(args)
    elif args.epsilon:
        domain = geometry.tube_of(targets.points, args.epsilon)
    else:
        raise InputError("positive-set needs --domain, or --epsilon to build "
                         "a tube around the target polyline")
    k, c0 = args.k, args.c0
    report = {"command": "positive-set", "config": _config_echo(args)}

    codes = geometry.locate_points(domain, targets.points, tol=args.boundary_tol)
    if np.any(codes != geometry.INSIDE):
        raise InputError("every target point must lie strictly inside the domain")

    gate = dirichlet.faber_krahn_gate(domain, k)
    report["gate"] = _gate_dict(gate)
    threshold = math.pi * gate.r_star ** 2
    if not gate.passes:
        report["error"] = "gate failed: domain area exceeds the threshold"
        _finish(report, t0, args)
        return EXIT_GATE
    if gate.area_d >= threshold * (1.0 - 1e-12):
        report["error"] = ("degenerate equality case: the area sits at the gate "
                           "threshold, so k^2 may equal the first eigenvalue; this "
                           "pipeline requires strict inequality")
        _finish(report, t0, args)
        return EXIT_GATE

    try:
        sol = dirichlet.solve_dirichlet_mfs(
            dirichlet.DirichletProblem(domain, k, c0), mode="tsvd:1e-12")
        report["dirichlet"] = {
            "boundary_residual": sol.boundary_residual,
            "n_sources": len(sol.charge_points),
            "n_collocation": sol.n_collocation,
            "effective_rank": sol.effective_rank,
        }
        scan = dirichlet.check_strong_positivity(sol, gate, args.samples_interior,
                                                 seed=args.seed)
        report["strong_positivity"] = dataclasses.asdict(scan)

        room = float(np.min(geometry.boundary_distance(domain, targets.points)))
        delta = 0.5 * room
        inner = geometry.shrink(domain, delta)
        report["shrink_delta"] = delta
        if np.any(geometry.locate_points(inner, targets.points) != geometry.INSIDE):
            raise InputError("shrunk domain no longer contains the target set; "
                             "targets sit too close to the boundary")

        fit_pts = dirichlet.halton_interior(inner, args.samples_fit, seed=args.seed)
        fit_vals = dirichlet.evaluate_interior(sol, fit_pts)
        wave, fit = herglotz.fit_interior(fit_pts, fit_vals, k, M=args.max_order,
                                          mode=args.mode)
    except (dirichlet.NearEigenvalueError, dirichlet.StrongPositivityError,
            herglotz.FitFailedError) as exc:
        report["error"] = str(exc)
        _finish(report, t0, args)
        return EXIT_FIT

    cert = certify.certify_positive_on_set(wave, targets)
    return _certified(report, wave, fit, cert, targets.points, domain, args, t0)


def _certified(report, wave, fit, cert, points, domain, args, t0) -> int:
    """The end of both certifying pipelines: report, --wave, --csv, exit code."""
    report["fit"] = dataclasses.asdict(fit)
    report["certificate"] = dataclasses.asdict(cert)
    report["checks"] = _standard_checks(wave, domain, args.k, args.seed)
    if args.wave:
        herglotz.save_wave(wave, args.wave)
    if args.csv:
        values = herglotz.eval_series(wave, points)
        _write_csv(zip(points[:, 0], points[:, 1], values), ("x", "y", "value"), args.csv)
    _finish(report, t0, args)
    return EXIT_OK if cert.certified else EXIT_FIT


def cmd_counterexample(args) -> int:
    """Demonstrate the eigenvalue obstruction on the disk of radius j_{0,m}/k."""
    t0 = time.perf_counter()
    k = args.k
    radius = args.r_scale * specfun.bessel_zero(0, args.m) / k
    domain = geometry.disk((0.0, 0.0), radius)
    M = _fit_order(args, k, domain, "--r-scale and --m")
    gate = dirichlet.faber_krahn_gate(domain, k)
    report = {
        "command": "counterexample",
        "config": _config_echo(args),
        "circle_radius": radius,
        "gate": _gate_dict(gate),
    }
    try:
        wave, fit = herglotz.fit_boundary(domain, k, args.c0, M=M,
                                          mode=args.mode, override_gate=True)
        report["fit_attempt"] = {"failed": False, **dataclasses.asdict(fit)}
    except herglotz.FitFailedError as exc:
        report["fit_attempt"] = {"failed": True, **dataclasses.asdict(exc.report)}

    rng = np.random.default_rng(args.seed)
    n_change = 0
    max_flux_rel = 0.0
    for _ in range(args.n_waves):
        w = herglotz.random_wave(10, k, rng)
        rep = certify.sign_change_on_circle(w, args.m, n_samples=1024)
        n_change += int(rep.changes_sign)
        max_flux_rel = max(max_flux_rel,
                           abs(rep.flux_integral) / herglotz.coefficient_norm(w))
    report["wave_panel"] = {
        "n_waves": args.n_waves,
        "n_change_sign": n_change,
        "all_change_sign": n_change == args.n_waves,
        "max_flux_over_norm": max_flux_rel,
    }
    _finish(report, t0, args)
    return EXIT_OK


def cmd_scan_k(args) -> int:
    t0 = time.perf_counter()
    domain = _load_domain_arg(args)
    if not (0.0 < args.k_min < args.k_max) or args.steps < 2:
        raise InputError("need 0 < k-min < k-max and at least 2 steps")
    _fit_order(args, args.k_max, domain, "--k-max and the domain")
    rows = []
    for k in np.linspace(args.k_min, args.k_max, args.steps):
        gate = dirichlet.faber_krahn_gate(domain, float(k))
        residual = math.nan
        margin = math.nan
        try:
            wave, fit = herglotz.fit_boundary(domain, float(k), args.c0,
                                              M=args.max_order, mode=args.mode,
                                              override_gate=True)
            residual = fit.residual_max
            cert = certify.certify_positive(
                wave, geometry.sample_boundary(domain, args.samples))
            margin = cert.certified_margin
        except herglotz.FitFailedError as exc:
            residual = exc.report.residual_max
        rows.append((float(k), int(gate.passes), residual, margin))
    _write_csv(rows, ("k", "gate_pass", "residual_max", "certified_margin"), args.csv)
    report = {"command": "scan-k", "config": _config_echo(args),
              "rows": [list(r) for r in rows]}
    _finish(report, t0, args)
    return EXIT_OK


def _selftest_checks(seed: int = 42):
    """(name, residual, tolerance) triples for the invariant suite."""
    rng = np.random.default_rng(seed)
    checks = []

    x = np.linspace(0.1, 100.0, 157)
    worst = 0.0
    for nu in range(1, 10):
        lhs = special.jv(nu - 1, x) + special.jv(nu + 1, x)
        rhs = (2.0 * nu / x) * special.jv(nu, x)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    checks.append(("bessel_recurrence", worst, 1e-10))

    zeros = [specfun.bessel_zero(0, m) for m in range(1, 21)]
    checks.append(("bessel_zero_residual",
                   max(abs(special.jv(0, z)) for z in zeros), 1e-10))
    inter = all(specfun.bessel_zero(0, m) < specfun.bessel_zero(1, m)
                < specfun.bessel_zero(0, m + 1) for m in range(1, 11))
    checks.append(("zero_interlacing", 0.0 if inter else 1.0, 0.5))

    xs = rng.uniform(0.05, 60.0, 100)
    wron = special.jv(1, xs) * special.yvp(1, xs) - special.jvp(1, xs) * special.yv(1, xs)
    checks.append(("wronskian", float(np.max(np.abs(wron - 2.0 / (math.pi * xs)))),
                   1e-9))

    w = herglotz.random_wave(15, 1.0, rng)
    pts = rng.uniform(-8.0, 8.0, (50, 2))
    dev = np.abs(herglotz.eval_series(w, pts)
                 - herglotz.eval_quadrature(herglotz.to_density(w), pts))
    checks.append(("plane_wave_consistency", float(np.max(dev)), 1e-9))

    w0 = herglotz.FourierBesselWave(k=1.0, a0=2.0 * math.pi, cos_coeffs=[],
                                    sin_coeffs=[])
    mv = dirichlet.mean_value_check(lambda p: herglotz.eval_series(w0, p),
                                    (0.3, -0.2), 0.8, 1.0)
    checks.append(("mean_value_identity", mv, 1e-10))

    j01 = specfun.bessel_zero(0, 1)
    misses = 0
    for _ in range(10):
        wr = herglotz.random_wave(10, 1.0, rng)
        for c in rng.uniform(-3.0, 3.0, (2, 2)):
            misses += not certify.scan_for_zero(wr, c, j01 * 1.001).found
    checks.append(("zero_ball_monte_carlo", float(misses), 0.5))

    d = geometry.disk((0.0, 0.0), 1.0)
    sol = dirichlet.solve_dirichlet_mfs(dirichlet.DirichletProblem(d, 1.0, 1.0))
    oracle = dirichlet.disk_solution(d, 1.0, 1.0)
    probe = dirichlet.halton_interior(geometry.disk((0.0, 0.0), 0.95), 100, seed=seed)
    diff = np.abs(dirichlet.evaluate_interior(sol, probe)
                  - dirichlet.evaluate_interior(oracle, probe))
    checks.append(("mfs_vs_disk_closed_form", float(np.max(diff)), 1e-8))

    dens = herglotz.HerglotzDensity(k=1.0, coeffs=np.array([1.0 + 0j]))
    ff = herglotz.far_field(dens, (1.0, 0.0), np.geomspace(50.0, 400.0, 120))
    checks.append(("far_field_decay_exponent",
                   abs(ff.decay_exponent - 1.5), 0.3))
    return checks


def cmd_selftest(args) -> int:
    t0 = time.perf_counter()
    checks = _selftest_checks(args.seed)
    width = max(len(c[0]) for c in checks)
    failures = 0
    for name, residual, tol in checks:
        ok = residual <= tol
        failures += not ok
        print(f"{name:<{width}}  {residual:12.3e}  <= {tol:8.1e}  "
              f"{'PASS' if ok else 'FAIL'}")
    elapsed = time.perf_counter() - t0
    print(f"{len(checks) - failures}/{len(checks)} checks passed in {elapsed:.1f}s")
    if elapsed > 120.0:
        print("warning: selftest exceeded the 120 s budget", file=sys.stderr)
    report = {"command": "selftest", "config": _config_echo(args),
              "checks": [{"name": n, "residual": r, "tolerance": t,
                          "passed": bool(r <= t)} for n, r, t in checks]}
    _finish(report, t0, args)
    return EXIT_OK if failures == 0 else 1


# ---------------------------------------------------------------------------
# wiring
# ---------------------------------------------------------------------------

def _config_echo(args) -> dict:
    skip = {"func"}
    return {k: v for k, v in sorted(vars(args).items())
            if k not in skip and v is not None}


def _finish(report: dict, t0: float, args) -> None:
    report["wall_time_s"] = time.perf_counter() - t0
    if args.out:
        Path(args.out).write_text(
            json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n",
            encoding="utf-8")


def _fit_order(args, k: float, domain, flags: str) -> int:
    """--max-order, else the default order; the default order is held to
    _MAX_ORDER either way, as the Bessel recurrence starts above k * radius."""
    try:
        order = herglotz.default_truncation(k, domain)
    except OverflowError:  # k * circumradius is infinite
        order = math.inf
    if order > _MAX_ORDER:
        raise InputError(f"{flags} ask for Fourier-Bessel order {order:.6g}, "
                         f"above the cap of {_MAX_ORDER}")
    return order if args.max_order is None else args.max_order


def _check_args(args) -> None:
    """Reject flag values the pipelines cannot run with (exit 4)."""
    if not (math.isfinite(args.k) and args.k > 0.0):
        raise InputError(f"--k must be finite and positive, got {args.k}")
    if not math.isfinite(args.c0):
        raise InputError(f"--c0 must be finite, got {args.c0}")
    if args.max_order is not None and not 0 <= args.max_order <= _MAX_ORDER:
        raise InputError(f"--max-order must be in [0, {_MAX_ORDER}], got {args.max_order}")
    if args.n_col is not None:
        # herglotz.fit_boundary's floor; the default order is at least 10
        floor = 32 if args.max_order is None else min(32, 4 * (2 * args.max_order + 1))
        if args.n_col < floor:
            raise InputError(f"--n-col must be at least {floor}, got {args.n_col}")
    try:
        herglotz._fit_mode(args.mode)
    except ValueError as exc:
        raise InputError(f"--mode: {exc}") from exc
    for name in ("m", "samples_interior", "samples_fit", "n_waves"):
        value = getattr(args, name, 1)
        if value < 1:
            raise InputError(f"--{name.replace('_', '-')} must be at least 1, got {value}")
    if getattr(args, "m", 1) > _MAX_ORDER:
        raise InputError(f"--m must be at most {_MAX_ORDER}, got {args.m}")


def _load_domain_arg(args):
    if not args.domain:
        raise InputError("--domain is required for this command")
    try:
        return geometry.load_domain(args.domain)
    except (OSError, json.JSONDecodeError, geometry.GeometryError) as exc:
        raise InputError(f"bad domain file {args.domain}: {exc}") from exc


def _load_targets_arg(args):
    if not args.target:
        raise InputError("--target is required for positive-set")
    try:
        return geometry.load_targets(args.target)
    except (OSError, json.JSONDecodeError, geometry.GeometryError) as exc:
        raise InputError(f"bad target file {args.target}: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="positivity",
        description="Construct and certify positive entire Helmholtz solutions "
                    "on planar boundaries and compact sets.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--domain", help="domain JSON path")
        sp.add_argument("--k", type=float, default=1.0, help="wavenumber (> 0)")
        sp.add_argument("--c0", type=float, default=1.0, help="boundary constant")
        sp.add_argument("--max-order", dest="max_order", type=int, default=None,
                        help="Fourier-Bessel truncation order M")
        sp.add_argument("--n-col", dest="n_col", type=int, default=None,
                        help="number of collocation points")
        sp.add_argument("--mode", default="auto",
                        help="qr | tsvd:<t> | tikhonov:<a> | auto")
        sp.add_argument("--samples", type=int, default=4096,
                        help="certificate boundary samples")
        sp.add_argument("--seed", type=int, default=42, help="RNG seed")
        sp.add_argument("--override-gate", dest="override_gate",
                        action="store_true", help="proceed despite a failing gate")
        sp.add_argument("--boundary-tol", dest="boundary_tol", type=float,
                        default=geometry.BOUNDARY_TOL,
                        help="boundary classification tolerance")
        sp.add_argument("--out", help="report JSON path")
        sp.add_argument("--csv", help="CSV output path")
        sp.add_argument("--wave", help="wave JSON output path")

    sp = sub.add_parser("positive-boundary",
                        help="fit and certify a wave positive on the boundary")
    common(sp)
    sp.set_defaults(func=cmd_positive_boundary)

    sp = sub.add_parser("positive-set",
                        help="certify a wave positive on a compact target set")
    common(sp)
    sp.add_argument("--target", help="target JSON path ({\"points\": ...})")
    sp.add_argument("--epsilon", type=float, default=None,
                    help="build the domain as a tube of this half-width "
                         "around the target polyline")
    sp.add_argument("--samples-interior", dest="samples_interior", type=int,
                    default=512, help="strict-positivity scan samples")
    sp.add_argument("--samples-fit", dest="samples_fit", type=int, default=600,
                    help="interior fit sample count")
    # interior fits are oracle-style: pivoted QR is pointwise-exact there
    sp.set_defaults(func=cmd_positive_set, mode="qr")

    sp = sub.add_parser("counterexample",
                        help="demonstrate the eigenvalue obstruction on a disk")
    common(sp)
    sp.add_argument("--m", type=int, default=1, help="zero index (radius j_{0,m}/k)")
    sp.add_argument("--r-scale", dest="r_scale", type=float, default=1.0,
                    help="radius multiplier")
    sp.add_argument("--n-waves", dest="n_waves", type=int, default=50,
                    help="random-wave panel size")
    sp.set_defaults(func=cmd_counterexample)

    sp = sub.add_parser("scan-k", help="sweep k and tabulate gate/residual/margin")
    common(sp)
    sp.add_argument("--k-min", dest="k_min", type=float, required=True)
    sp.add_argument("--k-max", dest="k_max", type=float, required=True)
    sp.add_argument("--steps", type=int, default=26)
    sp.set_defaults(func=cmd_scan_k)

    sp = sub.add_parser("selftest", help="run the built-in invariant suite")
    common(sp)
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_args(args)
        return args.func(args)
    except (InputError, geometry.GeometryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except dirichlet.GateError as exc:
        print(f"gate failure: {exc}", file=sys.stderr)
        return EXIT_GATE
    except (dirichlet.NearEigenvalueError, dirichlet.StrongPositivityError,
            herglotz.FitFailedError) as exc:
        print(f"solve/fit failure: {exc}", file=sys.stderr)
        return EXIT_FIT


if __name__ == "__main__":
    sys.exit(main())
