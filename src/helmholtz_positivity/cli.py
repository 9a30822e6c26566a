"""Command-line pipelines: construct, check, and certify positive waves.

Commands
--------
positive-boundary   boundary fit -> certificate -> mean-value check (the gate
                    is reported)
positive-set        the same fit on the domain boundary -> certificate on the
                    target set K -> mean-value check (the gate is reported): with
                    --epsilon K is the target polyline, sampled at --samples
                    points, and with --domain it is the finite target points
counterexample      eigenvalue-radius disk: the expected fit failure plus a
                    panel of random waves changing sign on the circle
scan-k              CSV sweep of gate/residual/margin over a wavenumber range
selftest            run the built-in invariant suite and print a table

The commands report the spectral gate (herglotz.fit_boundary only fits), both
certifying commands end in one fit-and-certify tail (_certified), and each
subcommand declares only the flags it reads (_COMMANDS).

Each command makes one unit decision (_in_units): gate, fit, certificate and
check run on the domain divided by its power of two s, at k * s, and reported
lengths are scaled back exactly (the check reports in the copy's units).

Exit codes: 0 success/certified, 3 a certificate that does not certify, 4
input error (usage errors too). The certificate alone decides between 0 and 3:
no command stops at the gate, and a fit that misses c0 by more than
herglotz.FAIL_THRESHOLD is certified all the same and reported with
fit.converged false. Reports are deterministic for a fixed config and
seed (all randomness is seeded; the wall_time_s field is the one exception).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import certify, dirichlet, geometry, herglotz, linalg, specfun

EXIT_OK = 0
EXIT_UNCERTIFIED = 3
EXIT_INPUT = 4

#: Highest Fourier-Bessel order a command fits with (a fit's memory grows with
#: its square), for --max-order and for the order k and the domain ask for.
_MAX_ORDER = 200

#: Highest sample, collocation, step or wave count a flag may ask for.
_MAX_COUNT = 100_000


class InputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 4), not argparse's exit code 2."""

    def error(self, message):
        raise InputError(message)


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------

def _jsonable(obj):
    """Reports hold dicts, lists, tuples and Python or numpy scalars; a
    non-finite float becomes None (JSON null), as strict JSON has no NaN."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
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


def _gate_dict(gate: dirichlet.SpectralGate, s: float) -> dict:
    """A unit copy's gate in the user's units, as Python floats (no warnings)."""
    return {
        "k": gate.k / s,
        "area_d": gate.area_d * s * s,
        "r_star": float(gate.r_star) * s,
        "area_threshold": gate.area_threshold * s * s,
        "lambda1_lower_bound": float(gate.lambda1_lower_bound) / s / s,
        "passes": gate.passes,
    }


def _in_units(domain, k: float, flag: str = "--k"):
    """(domain / s, s, k * s), with s the domain's power of two (geometry.in_units);
    a k * s whose zero ball, of diameter 2.002 j01 / (k s), overflows is an error
    of `flag`, which also keeps the gate's r_star = j01 / (k s) finite."""
    domain, s = geometry.in_units(domain)
    if k * s == 0.0:
        raise InputError(f"{flag} {k:g} underflows in the units of the domain (s = {s:g})")
    if not math.isfinite(2.002 * float(specfun.bessel_zero(0, 1)) / (k * s)):
        raise InputError(f"{flag} {k:g} is too small: its zero ball overflows in units (s = {s:g})")
    return domain, s, k * s


# ---------------------------------------------------------------------------
# the seeded diagnostic check
# ---------------------------------------------------------------------------

def _check_mean_value(wave, domain, k: float, seed: int) -> dict:
    evaluate = lambda p: herglotz.eval_series(wave, p)
    scale = float(np.max(np.abs(evaluate(geometry.sample_boundary(domain, 512).points))))
    centers = dirichlet.halton_interior(domain, 10, seed=seed)
    radii = (np.random.default_rng(seed).uniform(0.2, 0.8, 10)
             * geometry.boundary_distance(domain, centers))
    worst = dirichlet.mean_value_check(evaluate, centers, radii, k)
    tol = 1e-6 * max(scale, 1e-300)
    return {"name": "mean_value", "residual": worst, "tolerance": tol,
            "passed": bool(worst <= tol)}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_positive_boundary(args) -> int:
    t0 = time.perf_counter()
    domain, s, k = _in_units(_load_domain_arg(args), args.k)
    gate = dirichlet.faber_krahn_gate(domain, k)
    report = {"command": "positive-boundary", "config": _config_echo(args),
              "gate": _gate_dict(gate, s)}
    sampling = geometry.sample_boundary(domain, args.samples)
    return _certified(report, domain, s, k, certify.certify_positive, sampling, args, t0)


def cmd_positive_set(args) -> int:
    t0 = time.perf_counter()
    targets = _load_targets_arg(args)
    if (args.domain is None) == (args.epsilon is None):
        raise InputError("positive-set needs one of --domain and --epsilon (to build "
                         "a tube around the target polyline)")
    domain = (_load_domain_arg(args) if args.domain is not None
              else geometry.tube_of(targets.points, args.epsilon))
    domain, s, k = _in_units(domain, args.k)
    report = {"command": "positive-set", "config": _config_echo(args)}

    with np.errstate(over="ignore"):  # a target past the float range in units is outside
        points = targets.points / s
    if not (np.all(np.isfinite(points))
            and np.all(geometry.locate_points(domain, points) == geometry.INSIDE)):
        raise InputError("every target point must lie strictly inside the domain")

    report["gate"] = _gate_dict(dirichlet.faber_krahn_gate(domain, k), s)
    if args.epsilon is not None and isinstance(domain, geometry.Tube):  # K: the spine
        return _certified(report, domain, s, k, certify.certify_positive,
                          geometry.sample_polyline(domain.spine, args.samples), args, t0)
    # K: the finite targets (with --epsilon, one point's tube is a disk)
    return _certified(report, domain, s, k, certify.certify_positive_on_set,
                      geometry.TargetSet(points=points), args, t0)


def _fit(domain, k: float, args, M, n_col=None):
    """(wave, fit report, converged): herglotz.fit_boundary to --c0, whose
    FitFailedError still carries the wave it rejects (converged False)."""
    try:
        return (*herglotz.fit_boundary(domain, k, args.c0, M=M, n_col=n_col,
                                       mode=args.mode), True)
    except herglotz.FitFailedError as exc:
        return exc.wave, exc.report, False


def _certified(report, domain, s, k, certify_on, where, args, t0) -> int:
    """The tail of both certifying pipelines on a unit copy (_in_units): fit c0
    on the domain boundary, certify the wave with certify_on(wave, where), then
    the mean-value check, the report, --wave, --csv (values at where.points),
    exit code.

    The certificate is a proof for whatever wave it is given, so the wave of
    a fit that did not converge is certified too; the exit code is 0 or 3 by
    the certificate alone, and fit.converged records the fit's own test."""
    M = _fit_order(args, k, domain, "--k and the domain")
    floor = herglotz.min_collocation(M)
    if args.n_col is not None and args.n_col < floor:
        raise InputError(f"--n-col must be at least {floor}, got {args.n_col}")
    wave, fit, converged = _fit(domain, k, args, M, n_col=args.n_col)
    cert = certify_on(wave, where)
    report["fit"] = {**dataclasses.asdict(fit), "converged": converged}
    report["certificate"] = dataclasses.asdict(dataclasses.replace(
        cert, lipschitz_bound=cert.lipschitz_bound / s, max_gap=cert.max_gap * s,
        min_point=tuple(np.multiply(cert.min_point, s))))
    report["checks"] = [_check_mean_value(wave, domain, k, args.seed)]
    if args.wave:
        herglotz.save_wave(dataclasses.replace(wave, k=wave.k / s, center=wave.center * s),
                           args.wave)
    if args.csv:
        values = herglotz.eval_series(wave, where.points)
        _write_csv(zip(*(where.points * s).T, values), ("x", "y", "value"), args.csv)
    _finish(report, t0, args)
    return EXIT_OK if cert.certified else EXIT_UNCERTIFIED


def cmd_counterexample(args) -> int:
    """Demonstrate the eigenvalue obstruction on the disk of radius j_{0,m}/k."""
    t0 = time.perf_counter()
    radius = args.r_scale * float(specfun.bessel_zero(0, args.m)) / args.k
    if not math.isfinite(radius):
        raise InputError(f"--k {args.k:g} and --r-scale put the circle radius past the float range")
    domain, s, ks = _in_units(geometry.disk((0.0, 0.0), radius), args.k)
    M = _fit_order(args, ks, domain, "--r-scale and --m")
    gate = dirichlet.faber_krahn_gate(domain, ks)
    report = {"command": "counterexample", "config": _config_echo(args),
              "circle_radius": radius, "gate": _gate_dict(gate, s)}
    _, fit, converged = _fit(domain, ks, args, M)
    report["fit_attempt"] = {"failed": not converged, **dataclasses.asdict(fit)}

    rng = np.random.default_rng(args.seed)
    n_change = 0
    max_flux_rel = 0.0
    for _ in range(args.n_waves):
        w = herglotz.random_wave(10, args.k, rng)
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
    if not 0.0 < args.k_min < args.k_max:
        raise InputError("need 0 < k-min < k-max")
    domain, s, _ = _in_units(_load_domain_arg(args), args.k_min, "--k-min")  # the least k
    _fit_order(args, args.k_max * s, domain, "--k-max and the domain")
    sampling = geometry.sample_boundary(domain, args.samples)
    rows = []
    for k in np.linspace(args.k_min, args.k_max, args.steps):
        ks = float(k) * s
        gate = dirichlet.faber_krahn_gate(domain, ks)
        # every row's wave is certified, whether its fit converged or not
        wave, fit, _ = _fit(domain, ks, args, args.max_order)
        cert = certify.certify_positive(wave, sampling)
        rows.append((float(k), int(gate.passes), fit.residual_max, cert.certified_margin))
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
    J = specfun.bessel_j_table(10, x)
    worst = 0.0
    for nu in range(1, 10):
        lhs = J[nu - 1] + J[nu + 1]
        rhs = (2.0 * nu / x) * J[nu]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    checks.append(("bessel_recurrence", worst, 1e-10))

    zeros = [specfun.bessel_zero(0, m) for m in range(1, 21)]
    checks.append(("bessel_zero_residual",
                   float(np.max(np.abs(specfun.bessel_j_table(0, zeros)[0]))), 1e-10))
    inter = all(specfun.bessel_zero(0, m) < specfun.bessel_zero(1, m)
                < specfun.bessel_zero(0, m + 1) for m in range(1, 11))
    checks.append(("zero_interlacing", 0.0 if inter else 1.0, 0.5))

    # Neumann's J_0^2 + 2 sum_n J_n^2 = 1 (DLMF 10.23.3) on the package's own
    # table, with the order far above x so the tail is negligible
    xs = rng.uniform(0.0, 100.0, 100)
    J = specfun.bessel_j_table(160, xs)
    neumann = J[0] ** 2 + 2.0 * np.sum(J[1:] ** 2, axis=0)
    checks.append(("bessel_neumann_sum", float(np.max(np.abs(neumann - 1.0))), 1e-12))

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

    # the five-point (lap + k^2) residual of a random wave: its h^2 truncation
    # and eps / h^2 rounding lie far below the tolerance
    wf = herglotz.random_wave(10, 1.0, rng)
    pts = rng.uniform(-3.0, 3.0, (100, 2))
    evaluate = lambda p: herglotz.eval_series(wf, p)
    scale = float(np.max(np.abs(evaluate(pts))))
    checks.append(("pde_residual_fd",
                   float(np.max(herglotz.helmholtz_fd_residual(evaluate, pts, 1.0))),
                   1e-5 * scale))

    # the boundary fit every certifying command runs, against the closed form
    d = geometry.disk((0.0, 0.0), 1.0)
    wave, _ = herglotz.fit_boundary(d, 1.0, 1.0)
    oracle = dirichlet.disk_solution(d, 1.0, 1.0)
    probe = dirichlet.halton_interior(geometry.disk((0.0, 0.0), 0.95), 100, seed=seed)
    diff = np.abs(herglotz.eval_series(wave, probe)
                  - dirichlet.evaluate_interior(oracle, probe))
    checks.append(("fit_vs_disk_closed_form", float(np.max(diff)), 1e-8))

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
            json.dumps(_jsonable(report), indent=2, sort_keys=True,
                       allow_nan=False) + "\n",
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
    """Reject flag values the pipelines cannot run with (exit 4); a flag the
    command lacks, or one left unset, passes."""
    flag = vars(args).get
    k, c0, max_order = flag("k"), flag("c0"), flag("max_order")
    if k is not None and not (math.isfinite(k) and k > 0.0):
        raise InputError(f"--k must be finite and positive, got {k}")
    if c0 is not None and not math.isfinite(c0):
        raise InputError(f"--c0 must be finite, got {c0}")
    if args.command == "positive-set" and c0 < 0.0:
        # below the gate the Dirichlet solution has the sign of c0, so a wave
        # fitted to c0 < 0 is negative on the targets
        raise InputError(f"--c0 must be non-negative for positive-set, got {c0}")
    if flag("seed", 0) < 0:
        raise InputError(f"--seed must be non-negative, got {args.seed}")
    if max_order is not None and not 0 <= max_order <= _MAX_ORDER:
        raise InputError(f"--max-order must be in [0, {_MAX_ORDER}], got {max_order}")
    if flag("mode") is not None:
        try:
            linalg.parse_mode(args.mode)
        except ValueError as exc:
            raise InputError(f"--mode: {exc}") from exc
    # (flag, least, most)
    for name, least, most in (("m", 1, _MAX_ORDER), ("samples", 1, _MAX_COUNT),
                              ("n_col", 1, _MAX_COUNT), ("n_waves", 1, _MAX_COUNT),
                              ("steps", 2, _MAX_COUNT)):
        value = flag(name)
        if value is not None and not least <= value <= most:
            raise InputError(f"--{name.replace('_', '-')} must be in [{least}, {most}], "
                             f"got {value}")


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


#: Every flag of the subcommands, with its argparse keywords; the flag
#: "--max-order" lands in args.max_order.
_FLAGS = {
    "--domain": dict(help="domain JSON path"),
    "--k": dict(type=float, default=1.0, help="wavenumber (> 0)"),
    "--c0": dict(type=float, default=1.0, help="boundary constant"),
    "--max-order": dict(type=int, help="Fourier-Bessel truncation order M"),
    "--mode": dict(default="auto", help="qr | tsvd:<t> | tikhonov:<a> | auto"),
    "--n-col": dict(type=int, help="number of collocation points"),
    "--samples": dict(type=int, default=4096,
                      help="certificate samples on the boundary, or on the target "
                           "polyline for positive-set --epsilon"),
    "--seed": dict(type=int, default=42, help="RNG seed"),
    "--csv": dict(help="CSV output path"),
    "--wave": dict(help="wave JSON output path"),
    "--out": dict(help="report JSON path"),
    "--target": dict(help="target JSON path ({\"points\": ...})"),
    "--epsilon": dict(type=float, help="build the domain as a tube of this "
                                       "half-width around the target polyline"),
    "--m": dict(type=int, default=1, help="zero index (radius j_{0,m}/k)"),
    "--r-scale": dict(type=float, default=1.0, help="radius multiplier"),
    "--n-waves": dict(type=int, default=50, help="random-wave panel size"),
    "--k-min": dict(type=float, required=True),
    "--k-max": dict(type=float, required=True),
    "--steps": dict(type=int, default=26),
}

_FIT = ("--c0", "--max-order", "--mode")

#: (subcommand, pipeline, help, the flags it reads)
_COMMANDS = (
    ("positive-boundary", cmd_positive_boundary,
     "fit and certify a wave positive on the boundary",
     ("--domain", "--k", *_FIT, "--n-col", "--samples", "--seed", "--csv", "--wave",
      "--out")),
    ("positive-set", cmd_positive_set,
     "certify a wave positive on a compact target set",
     ("--domain", "--k", *_FIT, "--n-col", "--samples", "--seed", "--csv", "--wave",
      "--out", "--target", "--epsilon")),
    ("counterexample", cmd_counterexample,
     "demonstrate the eigenvalue obstruction on a disk",
     ("--k", *_FIT, "--seed", "--out", "--m", "--r-scale", "--n-waves")),
    ("scan-k", cmd_scan_k, "sweep k and tabulate gate/residual/margin",
     ("--domain", *_FIT, "--samples", "--csv", "--out", "--k-min", "--k-max", "--steps")),
    ("selftest", cmd_selftest, "run the built-in invariant suite", ("--seed", "--out")),
)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The `positivity` argument parser, built once per process.

    Every call returns the same parser, so callers must not mutate it (no
    add_argument, set_defaults or similar); parsing leaves it unchanged.
    """
    p = _Parser(
        prog="positivity",
        description="Construct and certify positive entire Helmholtz solutions "
                    "on planar boundaries and compact sets.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, func, text, flags in _COMMANDS:
        sp = sub.add_parser(name, help=text)
        for f in flags:
            sp.add_argument(f, **_FLAGS[f])
        sp.set_defaults(func=func)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_args(args)
        return args.func(args)
    except (InputError, geometry.GeometryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
