"""Seeded inputs for the benchmark workloads.

A workload is a list of blocks of `Instance`s. An instance holds the CLI
subcommand, its arguments, the JSON input documents the program reads,
and the exact set (polygon or polyline) that the independent check
samples densely. Every block has the workload's full mix, so a run that
stops after any whole block sees the same mix. The same seed gives
byte-identical documents.

Within a block, continuous parameters are drawn stratified (one draw per
equal-width stratum, strata in seeded order), so seeds differ in their
instances but not in their mix of small and large ones.

Every operation of every workload is expected to succeed. The shapes and
gate fractions on which the program fails at the commit that introduced
this benchmark are not generated: L-shapes, rectangles and superellipses
(`positive-boundary` exits 3 on a share of them), ellipses digitised with
16 vertices near the gate, bent tube spines, and straight tubes whose
area / gate threshold exceeds about 0.2 or whose epsilon is small (the
MFS validation residual then nears its fixed 1e-6 bound).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import jn_zeros

J01 = float(jn_zeros(0, 1)[0])

#: Certificate samples passed to every certifying command (the CLI default).
SAMPLES = 4096

#: Vertex counts of the digitised ellipses lie in this range.
VERTICES = (32, 256)

SMOKE_OPS = 3


@dataclass(frozen=True)
class Instance:
    """One operation: `positivity <command> <args>` on `inputs`.

    `inputs` maps an argument flag ("--domain", "--target") to the JSON
    document written for it. `exact` is the set the check samples, as
    {"kind": "polygon" | "polyline", "vertices": [[x, y], ...]}.
    """

    name: str
    command: str
    args: tuple
    inputs: dict = field(default_factory=dict)
    exact: dict | None = None

    def input_text(self, flag: str) -> str:
        return json.dumps(self.inputs[flag], sort_keys=True) + "\n"


def _strata(rng, n: int, lo: float, hi: float) -> np.ndarray:
    """n values in [lo, hi): one uniform draw per stratum, in seeded order."""
    return lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n


def _rotate(pts: np.ndarray, angle: float, shift) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return pts @ np.array([[c, s], [-s, c]]) + np.asarray(shift)


def shoelace_area(verts) -> float:
    v = np.asarray(verts, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)))


def k_for_fraction(area: float, fraction: float) -> float:
    """Wavenumber at which area / (pi (j01/k)^2) equals `fraction`."""
    return J01 * math.sqrt(math.pi * fraction / area)


def _ellipse(n: int, aspect: float, phase: float) -> np.ndarray:
    t = 2.0 * math.pi * (np.arange(n) + phase) / n
    return np.stack([np.cos(t), np.sin(t) / aspect], axis=1)


def _boundary_instance(name: str, verts: np.ndarray, fraction: float) -> Instance:
    verts = np.round(verts, 12)
    k = k_for_fraction(shoelace_area(verts), fraction)
    vlist = verts.tolist()
    return Instance(
        name=name, command="positive-boundary",
        args=("--k", repr(k), "--samples", str(SAMPLES)),
        inputs={"--domain": {"type": "polygon", "vertices": vlist}},
        exact={"kind": "polygon", "vertices": vlist})


def _boundary_block(rng, b: int) -> list:
    """10 ellipses of aspect 1-3 digitised with 32-256 vertices (stratified
    on a log scale, so the latencies spread evenly and no two clusters sit
    around the median). k puts area / gate threshold at a stratified
    fraction in [0.3, 0.9]."""
    n = 10
    log_lo, log_hi = (math.log(v) for v in VERTICES)
    verts_n = np.rint(np.exp(_strata(rng, n, log_lo, log_hi))).astype(int)
    aspect = _strata(rng, n, 1.0, 3.0)
    frac = _strata(rng, n, 0.3, 0.9)
    out = []
    for i in range(n):
        verts = _ellipse(int(verts_n[i]), aspect[i], rng.uniform())
        verts = _rotate(verts, rng.uniform(0.0, math.pi), rng.uniform(-0.5, 0.5, 2))
        out.append(_boundary_instance(f"b{b:02d}-ellipse-{i}-{verts_n[i]}v", verts, frac[i]))
    return out


def tube_area(length: float, epsilon: float) -> float:
    """Area of the epsilon-tube of a straight segment."""
    return 2.0 * epsilon * length + math.pi * epsilon ** 2


def _tube_instance(name, spine, eps, k) -> Instance:
    spine = np.round(spine, 12)
    targets = np.round(along(spine, 5), 12)
    return Instance(
        name=name, command="positive-set",
        args=("--k", repr(k), "--samples", str(SAMPLES)),
        inputs={"--domain": {"type": "tube", "spine": spine.tolist(), "epsilon": eps},
                "--target": {"points": targets.tolist()}},
        exact={"kind": "polyline", "vertices": spine.tolist()})


def _set_block(rng, b: int) -> list:
    """4 straight tubes given as domains, of length 1.5-3 with epsilon in
    [0.18, 0.25], five targets equispaced along the spine, and k putting
    area / gate threshold at a fraction in [0.04, 0.1]; all three
    stratified. There the MFS validation residual stays below about half
    its bound."""
    n = 4
    length = _strata(rng, n, 1.5, 3.0)
    eps = _strata(rng, n, 0.18, 0.25)
    frac = _strata(rng, n, 0.04, 0.1)
    out = []
    for i in range(n):
        half = 0.5 * length[i]
        spine = _rotate(np.array([[-half, 0.0], [half, 0.0]]), rng.uniform(0.0, math.pi),
                        rng.uniform(-0.5, 0.5, 2))
        k = k_for_fraction(tube_area(length[i], eps[i]), frac[i])
        out.append(_tube_instance(f"b{b:02d}-tube-{i}", spine, float(eps[i]), k))
    return out


def along(vertices, n: int, closed: bool = False) -> np.ndarray:
    """n points equispaced in arclength around a closed polygon, or along an
    open polyline with both ends included."""
    v = np.asarray(vertices, dtype=float)
    if closed:
        v = np.concatenate([v, v[:1]])
    seg = np.hypot(*np.diff(v, axis=0).T)
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    s = np.arange(n) * (cum[-1] / n) if closed else np.linspace(0.0, cum[-1], n)
    i = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, len(seg) - 1)
    return v[i] + ((s - cum[i]) / seg[i])[:, None] * (v[i + 1] - v[i])


UNIT_SQUARE = [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]
L_SHAPE = [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.0], [0.0, 0.0], [0.0, 0.5], [-0.5, 0.5]]
STRAIGHT_TARGETS = [[-1.0, 0.0], [-0.5, 0.0], [0.0, 0.0], [0.5, 0.0], [1.0, 0.0]]


def _cli_block(rng, b: int) -> list:
    """The six fixed commands of the cold-CLI mix, in a seeded order."""
    return [CLI_CYCLE[i] for i in rng.permutation(len(CLI_CYCLE))]


_SQUARE = {"type": "polygon", "vertices": UNIT_SQUARE}
CLI_CYCLE = (
    Instance("boundary-square", "positive-boundary", (),
             {"--domain": _SQUARE}, {"kind": "polygon", "vertices": UNIT_SQUARE}),
    Instance("boundary-L", "positive-boundary", (),
             {"--domain": {"type": "polygon", "vertices": L_SHAPE}},
             {"kind": "polygon", "vertices": L_SHAPE}),
    Instance("set-straight-tube", "positive-set", ("--epsilon", "0.2"),
             {"--target": {"points": STRAIGHT_TARGETS}},
             {"kind": "polyline", "vertices": STRAIGHT_TARGETS}),
    Instance("counterexample", "counterexample", ()),
    Instance("scan-k-26", "scan-k", ("--k-min", "0.5", "--k-max", "3", "--steps", "26"),
             {"--domain": _SQUARE}, {"kind": "polygon", "vertices": UNIT_SQUARE}),
    Instance("selftest", "selftest", ()),
)

#: workload -> (block generator, stream tag, blocks generated at set-up).
#: A run goes through whole blocks until its time is up, wrapping around
#: when it needs more blocks than were generated; each instance is checked
#: on its first run and must repeat its outputs on later ones.
WORKLOADS = {
    "cli-cold": (_cli_block, 3, 4),
    "boundary-sweep": (_boundary_block, 1, 4),
    "set-pipeline": (_set_block, 2, 6),
}


def workload_blocks(workload: str, seed: int, smoke: bool = False) -> list:
    """The workload's blocks of instances for `seed`; each block has the
    workload's full mix. Smoke mode keeps the first few operations."""
    make, tag, count = WORKLOADS[workload]
    rng = np.random.default_rng([seed, tag])
    if smoke:
        return [make(rng, 0)[:SMOKE_OPS]]
    return [make(rng, b) for b in range(count)]
