"""Independent check of the program's outputs.

Waves are re-evaluated here from their saved coefficients with
`scipy.special.jv`, never through the package's own `herglotz`
evaluator, and the exact boundary or target set comes from the
generator. `check` returns the list of problems found in one
operation's outputs; an empty list means the output is accepted.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np
from scipy.special import jv

from instances import J01, Instance, along, shoelace_area

#: Relative agreement required between a reported value and its recomputation.
REL_TOL = 1e-9

#: The dense check samples the exact set this many times more densely than
#: the certificate did, and at this many times 1024 points at least (a
#: positive-set certificate covers only its five targets).
DENSITY = 4


def wave_values(wave: dict, pts) -> np.ndarray:
    """a0 J0(kr) + sum_m [ac_m cos(m t) + as_m sin(m t)] Jm(kr) about the center."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    ac = np.asarray(wave["ac"], dtype=float)
    as_ = np.asarray(wave["as"], dtype=float)
    d = pts - np.asarray(wave.get("center", (0.0, 0.0)), dtype=float)
    r = np.hypot(d[:, 0], d[:, 1])
    t = np.arctan2(d[:, 1], d[:, 0])
    m = np.arange(1, len(ac) + 1)
    kr = float(wave["k"]) * r
    out = float(wave["a0"]) * jv(0, kr)
    if len(m):
        J = jv(m[None, :], kr[:, None])
        out = out + np.sum(J * (ac * np.cos(np.outer(t, m)) + as_ * np.sin(np.outer(t, m))),
                           axis=1)
    return out


def value_scale(wave: dict) -> float:
    """|a0| + sum |ac_m| + sum |as_m|, a bound on |u| since |Jm| <= 1."""
    return (abs(float(wave["a0"])) + float(np.sum(np.abs(wave["ac"])))
            + float(np.sum(np.abs(wave["as"]))))


def lipschitz_bound(wave: dict) -> float:
    """k ||f||_L1 bound on |grad u|: k sqrt(a0^2 + (sum ac^2 + sum as^2) / 2)."""
    return float(wave["k"]) * math.sqrt(
        float(wave["a0"]) ** 2 + 0.5 * float(np.sum(np.square(wave["ac"])))
        + 0.5 * float(np.sum(np.square(wave["as"]))))


def exact_length(exact: dict) -> float:
    v = np.asarray(exact["vertices"], dtype=float)
    if exact["kind"] == "polygon":
        v = np.concatenate([v, v[:1]])
    return float(np.sum(np.hypot(*np.diff(v, axis=0).T)))


def exact_samples(exact: dict, n: int) -> np.ndarray:
    """n points equispaced in arclength on the exact polygon or polyline."""
    return along(exact["vertices"], n, closed=exact["kind"] == "polygon")


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= REL_TOL * max(scale, 1e-300)


def _certificate_problems(inst: Instance, report: dict, wave: dict | None,
                          finite_points) -> list:
    """Checks shared by positive-boundary and positive-set.

    `finite_points` is the certified finite set for positive-set, or None
    for a boundary certificate, which claims the whole exact boundary.
    """
    cert = report.get("certificate")
    if cert is None or wave is None:
        return ["exit 0 without a certificate and a saved wave"]
    problems = []
    if not cert["certified"] or not cert["certified_margin"] > 0.0:
        problems.append("exit 0 but the certificate is not positive")
    failed = [c["name"] for c in report.get("checks", []) if not c["passed"]]
    if failed:
        problems.append(f"report checks failed: {failed}")

    scale = value_scale(wave)
    lip = lipschitz_bound(wave)
    at_min = float(wave_values(wave, [cert["min_point"]])[0])
    if not _close(at_min, cert["min_sample"], scale):
        problems.append(f"wave at min_point is {at_min!r}, report says "
                        f"min_sample {cert['min_sample']!r}")
    margin = cert["min_sample"] - lip * cert["max_gap"] / 2.0
    if not _close(margin, cert["certified_margin"], scale + lip * cert["max_gap"]):
        problems.append(f"certified_margin {cert['certified_margin']!r} does not follow "
                        f"from the coefficients (recomputed {margin!r})")

    if finite_points is None:
        n = int(cert["n_samples"])
        step = exact_length(inst.exact) / n
        if cert["max_gap"] > step * (1.0 + REL_TOL):
            problems.append(f"max_gap {cert['max_gap']!r} exceeds the arclength "
                            f"step {step!r} of {n} samples")
    else:
        n = int(cert["n_samples"])
        low = float(np.min(wave_values(wave, finite_points)))
        if low < cert["certified_margin"] - REL_TOL * scale:
            problems.append(f"target value {low!r} below certified_margin")

    dense = wave_values(wave, exact_samples(inst.exact, DENSITY * max(n, 1024)))
    low = float(np.min(dense))
    if low < 0.0:
        problems.append(f"negative value {low!r} on the dense sampling of the exact set")
    elif finite_points is None and low < cert["certified_margin"] - REL_TOL * scale:
        problems.append(f"dense boundary minimum {low!r} is below the certified margin "
                        f"{cert['certified_margin']!r}")
    return problems


def _scan_k_problems(inst: Instance, csv_text: str | None) -> list:
    if not csv_text:
        return ["scan-k wrote no CSV"]
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    args = dict(zip(inst.args[::2], inst.args[1::2]))
    ks = np.linspace(float(args["--k-min"]), float(args["--k-max"]), int(args["--steps"]))
    if len(rows) != len(ks):
        return [f"scan-k wrote {len(rows)} rows, expected {len(ks)}"]
    area = shoelace_area(inst.exact["vertices"])
    problems = []
    for row, k in zip(rows, ks):
        if not _close(float(row["k"]), k, k):
            problems.append(f"scan-k row k={row['k']} expected {k!r}")
        gate = area <= math.pi * (J01 / k) ** 2
        if int(row["gate_pass"]) != int(gate):
            problems.append(f"scan-k gate_pass {row['gate_pass']} at k={k!r}, expected {int(gate)}")
    return problems


def check(inst: Instance, exit_code: int, report: dict | None, wave: dict | None,
          csv_text: str | None = None, output: str = "") -> list:
    """Problems found in one operation's outputs (every command expects exit 0).

    `output` is what the command printed; it explains a failure that left
    no report."""
    if exit_code != 0:
        printed = output.strip().splitlines()
        cert = (report or {}).get("certificate")
        reason = ((report or {}).get("error")
                  or (cert and f"certified_margin {cert['certified_margin']!r}")
                  or (printed[-1] if printed else "no report"))
        return [f"exit {exit_code}, expected 0: {reason}"]
    if report is None:
        return ["exit 0 without a report"]
    if inst.command == "positive-boundary":
        return _certificate_problems(inst, report, wave, None)
    if inst.command == "positive-set":
        return _certificate_problems(inst, report, wave, inst.inputs["--target"]["points"])
    if inst.command == "counterexample":
        problems = []
        if not report["fit_attempt"]["failed"]:
            problems.append("counterexample fit succeeded on the eigenvalue disk")
        if not report["wave_panel"]["all_change_sign"]:
            problems.append("a panel wave did not change sign on the circle")
        return problems
    if inst.command == "scan-k":
        return _scan_k_problems(inst, csv_text)
    if inst.command == "selftest":
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        return [f"selftest checks failed: {failed}"] if failed or not report["checks"] else []
    raise ValueError(f"no check for command {inst.command!r}")


def margin_over_c0(report: dict | None) -> float | None:
    """certified_margin / c0 of a certifying command's report, else None."""
    if not report or "certificate" not in report:
        return None
    return report["certificate"]["certified_margin"] / report["config"]["c0"]


def load_json(text: str | None):
    return None if text is None else json.loads(text)
