"""Planar domains for the positivity pipelines.

Three shapes are supported: simple polygons (counterclockwise, no holes),
disks, and tubular neighborhoods of simple polylines. Every boundary is
represented internally as one table of exact pieces (segments and circular
arcs, counterclockwise with the interior on the left), held as arrays with
one row per piece: endpoints or centre, radius, sweep angles, length and
the arclength where each piece starts. Polygons and disks build the table
on each call; a tube builds it once. The table gives exact perimeters and
areas (Green's theorem), arclength-uniform sampling with outward normals by
one `searchsorted` (of an open polyline's segment table too), and the joint
arclengths. Containment is three-valued with a boundary tolerance. Scale is
decided once: the commands run on `in_units`'s copy of a domain, divided by
its power of two (exact unless a value is subnormal), and `polygon` and
`tube_of` validate in the same units, so no other function needs scale logic
and every tolerance is relative to the domain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GeometryError",
    "TubeOverlapError",
    "Disk",
    "Polygon",
    "Tube",
    "TargetSet",
    "BoundarySampling",
    "disk",
    "polygon",
    "tube_of",
    "target_set",
    "in_units",
    "area",
    "perimeter",
    "centroid",
    "circumradius",
    "bounding_box",
    "diameter",
    "sample_boundary",
    "sample_polyline",
    "boundary_points_at",
    "joint_arclengths",
    "boundary_distance",
    "locate_points",
    "inside_mask",
    "domain_to_json",
    "domain_from_json",
    "load_domain",
    "save_domain",
    "targets_to_json",
    "targets_from_json",
    "load_targets",
]

#: Points this near the boundary are "boundary"; relative on a unit copy (in_units).
BOUNDARY_TOL = 1e-12

INSIDE, BOUNDARY, OUTSIDE = 1, 0, -1


class GeometryError(ValueError):
    """Invalid geometric input or construction."""


class TubeOverlapError(GeometryError):
    """Tube offset self-overlaps; epsilon is too large for this spine."""


# ---------------------------------------------------------------------------
# boundary pieces
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class _Pieces:
    """Boundary pieces in traversal order, one row per piece.

    A segment (radius 0) runs from `a` to `b`. An arc has its centre in
    both `a` and `b` and sweeps counterclockwise from angle `t0` to `t1`.
    Piece i starts at arclength starts[i]; starts[-1] is the perimeter.
    """

    a: np.ndarray       # (p, 2)
    b: np.ndarray       # (p, 2)
    radius: np.ndarray  # (p,)
    t0: np.ndarray      # (p,)
    t1: np.ndarray      # (p,)
    length: np.ndarray  # (p,)
    starts: np.ndarray  # (p + 1,)


def _piece_table(a, b, radius, t0, t1) -> _Pieces:
    d = b - a
    length = np.where(radius > 0.0, radius * (t1 - t0), np.hypot(d[:, 0], d[:, 1]))
    # a cumsum adds in order, so starts[-1] is the sequential sum of lengths
    starts = np.concatenate([[0.0], np.cumsum(length)])
    return _Pieces(a=a, b=b, radius=radius, t0=t0, t1=t1, length=length, starts=starts)


def _piece_points(pc: _Pieces, idx: np.ndarray, local: np.ndarray):
    """Points and outward unit normals at arclength `local` into pieces `idx`."""
    arc = pc.radius[idx] > 0.0 if pc.radius.any() else None  # no mask without arcs
    seg = slice(None) if arc is None else ~arc
    pts = np.empty((len(idx), 2))
    nrm = np.empty((len(idx), 2))
    i, s = idx[seg], local[seg]
    d = pc.b[i] - pc.a[i]
    L = pc.length[i]
    pts[seg] = pc.a[i] + (s / L)[:, None] * d
    u = d / L[:, None]
    nrm[seg] = np.stack([u[:, 1], -u[:, 0]], axis=1)  # right of travel = outward for CCW
    if arc is None:
        return pts, nrm
    i, s = idx[arc], local[arc]
    r = pc.radius[i]
    ang = pc.t0[i] + s / r
    unit = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    pts[arc] = pc.a[i] + r[:, None] * unit
    nrm[arc] = unit
    return pts, nrm


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Disk:
    center: np.ndarray
    radius: float


@dataclass(frozen=True, eq=False)
class Polygon:
    vertices: np.ndarray  # (n, 2), counterclockwise, simple


@dataclass(frozen=True, eq=False)
class Tube:
    """Open epsilon-neighborhood of a simple polyline."""

    spine: np.ndarray  # (m, 2), m >= 2
    epsilon: float
    pieces: _Pieces  # boundary piece table, built once


@dataclass(frozen=True, eq=False)
class TargetSet:
    """Finite sample of a compact target set."""

    points: np.ndarray  # (n, 2)


@dataclass(frozen=True, eq=False)
class BoundarySampling:
    points: np.ndarray      # (n, 2) on the boundary or polyline
    normals: np.ndarray     # (n, 2) unit normals, right of travel (outward on a boundary)
    arclengths: np.ndarray  # (n,) positions along the curve
    max_gap: float          # arclength step length / n >= every chord between neighbours


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def disk(center, radius: float) -> Disk:
    c = np.asarray(center, dtype=float).reshape(2)
    if not np.all(np.isfinite(c)):
        raise GeometryError("disk center must be finite")
    if not (radius > 0.0 and math.isfinite(radius)):
        raise GeometryError("disk radius must be positive and finite")
    return Disk(center=c, radius=float(radius))


def _pow2_scale(*coords) -> float:
    """The power of two s with max |coords| < 2 s: dividing by it is exact
    and leaves every coordinate below 2 in magnitude."""
    top = max(float(np.max(np.abs(c))) for c in coords)
    return math.ldexp(1.0, math.frexp(top)[1] - 1)


def _shoelace(verts: np.ndarray):
    """(u, w, cross): the vertices minus the first vertex, the next vertex of
    each row of u, and cross = u x w, whose sum is twice the signed area."""
    u = verts - verts[0]
    w = np.roll(u, -1, axis=0)
    return u, w, u[:, 0] * w[:, 1] - w[:, 0] * u[:, 1]


def polygon(vertices) -> Polygon:
    """Validated simple polygon; orientation is normalized to counterclockwise."""
    verts = np.asarray(vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
        raise GeometryError("polygon needs an (n, 2) vertex array with n >= 3")
    if not np.all(np.isfinite(verts)):
        raise GeometryError("polygon vertices must be finite")
    u = verts / _pow2_scale(verts)
    if np.any(np.hypot(*(np.roll(u, -1, axis=0) - u).T) <= 1e-14):
        raise GeometryError("polygon has a zero-length edge")
    sa = 0.5 * float(np.sum(_shoelace(u)[2]))
    if abs(sa) <= 1e-14:
        raise GeometryError("polygon is degenerate (zero area)")
    if sa < 0.0:
        verts, u = verts[::-1].copy(), u[::-1]
    _require_simple(u, closed=True)
    return Polygon(vertices=verts)


#: The simplicity test holds at most this many candidate pairs per edge at once.
_SIMPLE_BLOCK = 256


def _orient(p, q, r):
    """Orientation of r against the line p -> q, over the last axis."""
    return ((q[..., 0] - p[..., 0]) * (r[..., 1] - p[..., 1])
            - (q[..., 1] - p[..., 1]) * (r[..., 0] - p[..., 0]))


def _in_box(p, q, r):
    """Does r lie in the box spanned by p and q, padded by 1e-15?"""
    lo, hi = np.minimum(p, q) - 1e-15, np.maximum(p, q) + 1e-15
    return np.all((lo <= r) & (r <= hi), axis=-1)


def _require_simple(verts: np.ndarray, closed: bool) -> None:
    """Raise unless no two non-adjacent edges cross or touch.

    Edges i < j are a hit when they cross properly (all four orientations
    nonzero, each edge's ends on opposite sides of the other), or when an
    end of one is exactly collinear with the other (orientation 0) and
    inside its 1e-15-padded box. The error names the first hit in (i, j)
    order.

    Only pairs whose padded boxes overlap can hit, so the exact test runs
    on those alone (sweep and prune): the edges are sorted by their lower
    x-bound, `searchsorted` lists each edge's x-overlapping successors, and
    the pairs whose y-intervals overlap too are tested. The pad holds the
    1e-15 of `_in_box`, so every touching pair is a candidate, plus 2e-12
    for rounding in the orientations of nearly touching edges (vertices in
    units are below 2). Cost: O(n log n + candidate pairs). The candidates are
    made in blocks of consecutive sorted edges holding at most
    `_SIMPLE_BLOCK` * n pairs each, so memory stays O(`_SIMPLE_BLOCK` * n)
    even when every x-interval overlaps every other.
    """
    m = len(verts) if closed else len(verts) - 1
    p, q = verts[:m], np.roll(verts, -1, axis=0)[:m]
    pad = 1e-15 + 2e-12
    lo, hi = np.minimum(p, q) - pad, np.maximum(p, q) + pad
    order = np.argsort(lo[:, 0], kind="stable")
    # sorted edges t + 1 .. ends[t] - 1 start left of edge order[t]'s right end
    ends = np.searchsorted(lo[order, 0], hi[order, 0], side="right")
    counts = ends - np.arange(m) - 1
    cum = np.cumsum(counts)
    first, start = None, 0
    while start < m:
        # the next rows whose pairs fit in the budget; one row has fewer than m
        before = cum[start] - counts[start]
        stop = int(np.searchsorted(cum, before + _SIMPLE_BLOCK * m, side="right"))
        rows = np.arange(start, stop)
        start = stop
        c = counts[rows]
        a = np.repeat(rows, c)
        b = np.arange(len(a)) - np.repeat(np.cumsum(c) - c - rows - 1, c)
        i = np.minimum(order[a], order[b])
        j = np.maximum(order[a], order[b])
        keep = ((lo[i, 1] <= hi[j, 1]) & (lo[j, 1] <= hi[i, 1]) & (j > i + 1)
                & ~(closed & (i == 0) & (j == m - 1)))
        i, j = i[keep], j[keep]
        p1, p2, p3, p4 = p[i], q[i], p[j], q[j]
        d1, d2 = _orient(p3, p4, p1), _orient(p3, p4, p2)
        d3, d4 = _orient(p1, p2, p3), _orient(p1, p2, p4)
        proper = (((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
                  & (d1 != 0) & (d2 != 0) & (d3 != 0) & (d4 != 0))
        touch = (((d1 == 0) & _in_box(p3, p4, p1)) | ((d2 == 0) & _in_box(p3, p4, p2))
                 | ((d3 == 0) & _in_box(p1, p2, p3)) | ((d4 == 0) & _in_box(p1, p2, p4)))
        hit = proper | touch
        if np.any(hit):
            k = int(np.min(i[hit] * m + j[hit]))
            first = k if first is None else min(first, k)
    if first is not None:
        raise GeometryError(f"self-intersection between edges {first // m} and "
                            f"{first % m}; shape must be simple")


def tube_of(spine, epsilon: float):
    """Open epsilon-neighborhood of a polyline: {x : dist(x, spine) < epsilon}.

    A single-point spine yields a disk. The boundary is assembled from
    per-segment offsets joined by circular arcs (outer corners) or trimmed
    at the offset-line intersection (inner corners), plus half-disk end
    caps. The construction is validated against the distance function and
    raises TubeOverlapError when epsilon exceeds what the spine admits.
    """
    if not (epsilon > 0.0 and math.isfinite(epsilon)):
        raise GeometryError("tube epsilon must be positive and finite")
    pts = np.asarray(spine, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, 2)
    if pts.shape[-1] != 2 or not np.all(np.isfinite(pts)):
        raise GeometryError("tube spine must be a finite (m, 2) array")
    s = _pow2_scale(pts, epsilon)
    pts = pts[np.r_[True, np.hypot(*np.diff(pts / s, axis=0).T) > 1e-14]]  # distinct
    if len(pts) == 1:
        return disk(pts[0], epsilon)
    u, eps = pts / s, epsilon / s
    _require_simple(u, closed=False)
    pieces = _tube_pieces(u, eps)
    _validate_tube_pieces(pieces, u, eps)
    return Tube(spine=pts, epsilon=float(epsilon), pieces=_piece_table(
        pieces.a * s, pieces.b * s, pieces.radius * s, pieces.t0, pieces.t1))


def _line_intersection(p, dp, q, dq):
    denom = dp[0] * dq[1] - dp[1] * dq[0]
    if abs(denom) < 1e-300:
        return None, None, None
    rhs = q - p
    t = (rhs[0] * dq[1] - rhs[1] * dq[0]) / denom
    s = (rhs[0] * dp[1] - rhs[1] * dp[0]) / denom
    return p + t * dp, t, s


def _ccw_span(a0: float, a1: float) -> tuple[float, float]:
    """Normalize so the sweep a0 -> a1 is counterclockwise in (0, 2*pi]."""
    while a1 <= a0 + 1e-15:
        a1 += 2.0 * math.pi
    return a0, a1


def _tube_pieces(V: np.ndarray, eps: float) -> _Pieces:
    nseg = len(V) - 1
    d = np.diff(V, axis=0)
    seg_len = np.hypot(d[:, 0], d[:, 1])
    d = d / seg_len[:, None]
    left = np.stack([-d[:, 1], d[:, 0]], axis=1)
    right = -left
    cross = d[:-1, 0] * d[1:, 1] - d[:-1, 1] * d[1:, 0]  # turn at interior vertex j+1

    def side_pieces(normals, forward: bool):
        starts = [V[i] + eps * normals[i] for i in range(nseg)]
        ends = [V[i + 1] + eps * normals[i] for i in range(nseg)]
        joins = [None] * (nseg - 1)  # arc row or None at interior vertex j+1
        for j in range(nseg - 1):
            c = cross[j]
            outer = (c > 0.0) if normals is right else (c < 0.0)
            if abs(c) <= 1e-14:
                continue
            if outer:
                a0 = math.atan2(normals[j][1], normals[j][0])
                a1 = math.atan2(normals[j + 1][1], normals[j + 1][0])
                if not forward:
                    a0, a1 = a1, a0
                t0, t1 = _ccw_span(a0, a1)
                joins[j] = (V[j + 1], V[j + 1], eps, t0, t1)
            else:
                P, t, s = _line_intersection(V[j] + eps * normals[j], d[j],
                                             V[j + 1] + eps * normals[j + 1], d[j + 1])
                if P is None:
                    raise TubeOverlapError("offset lines are parallel at a reversal corner")
                if not (0.0 <= t <= seg_len[j] and s <= seg_len[j + 1]):
                    raise TubeOverlapError(
                        "inner offset trim falls outside its segments; epsilon too large"
                    )
                ends[j] = P
                starts[j + 1] = P
        out = []
        for i in range(nseg):
            a, b = (starts[i], ends[i]) if forward else (ends[i], starts[i])
            if np.hypot(*(b - a)) > 1e-14:
                out.append((a, b, 0.0, 0.0, 0.0))
            if i < nseg - 1 and joins[i] is not None:
                out.append(joins[i])
        return out if forward else out[::-1]  # walked backward: the same rows reversed

    rows = side_pieces(right, forward=True)
    a_end = math.atan2(right[-1][1], right[-1][0])
    rows.append((V[-1], V[-1], eps, *_ccw_span(a_end, a_end + math.pi)))
    rows.extend(side_pieces(left, forward=False))
    a_start = math.atan2(left[0][1], left[0][0])
    rows.append((V[0], V[0], eps, *_ccw_span(a_start, a_start + math.pi)))
    return _piece_table(*(np.array(col, dtype=float) for col in zip(*rows)))


def _dist_to_polyline(pts: np.ndarray, poly: np.ndarray) -> np.ndarray:
    """Distance from each point to a polyline given by its vertices, from
    (points, segments) arrays, one per coordinate."""
    ax, ay = poly[:-1, 0], poly[:-1, 1]
    abx, aby = poly[1:, 0] - ax, poly[1:, 1] - ay
    ab2 = (abx * abx + aby * aby) / 16.0
    px, py = pts[:, 0, None], pts[:, 1, None]
    # t = pa.ab / |ab|^2 in [0, 1], clipped before the division so that a far
    # point cannot overflow it; in sixteenths (exact) pa.ab stays finite, as
    # |pa| < 2^1025 and, on a domain in units, |ab| < 8
    t = (px - ax) / 16.0 * abx
    t += (py - ay) / 16.0 * aby
    np.clip(t, 0.0, ab2, out=t)
    t /= ab2
    with np.errstate(over="ignore"):  # a distance past the float range is inf
        dist = np.hypot(px - (ax + t * abx), py - (ay + t * aby))
        return np.min(dist, axis=1)


#: Most points a tube's validation takes, a tenth of epsilon apart.
_MAX_TUBE_CHECKS = 1_000_000


def _validate_tube_pieces(pc: _Pieces, spine, eps) -> None:
    if float(pc.starts[-1]) > 0.1 * eps * _MAX_TUBE_CHECKS:
        raise GeometryError("tube epsilon is too thin for its spine to check its boundary")
    n = np.maximum(8, np.ceil(pc.length / (0.1 * eps)).astype(int))
    idx = np.repeat(np.arange(len(n)), n)
    j = np.arange(len(idx)) - np.repeat(np.cumsum(n) - n, n)  # index within piece
    allpts, _ = _piece_points(pc, idx, (j + 0.5) * (pc.length / n)[idx])
    dev = np.abs(_dist_to_polyline(allpts, spine) - eps)
    if float(np.max(dev)) > 1e-9:  # in units
        raise TubeOverlapError(
            "tube boundary self-overlaps (offset points are not at distance "
            "epsilon from the spine); reduce epsilon"
        )


def target_set(points) -> TargetSet:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, 2)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
        raise GeometryError("target set needs a nonempty (n, 2) point array")
    if not np.all(np.isfinite(pts)):
        raise GeometryError("target points must be finite")
    return TargetSet(points=pts)


def in_units(domain):
    """(domain / s, s), with s the domain's power of two: the copy's samplings
    times s are the domain's, bit for bit, unless a value is subnormal. A
    tube's piece table is scaled, not validated again."""
    if isinstance(domain, Polygon):
        s = _pow2_scale(domain.vertices)
        return Polygon(vertices=domain.vertices / s), s
    if isinstance(domain, Disk):
        s = _pow2_scale(domain.center, domain.radius)
        return Disk(center=domain.center / s, radius=domain.radius / s), s
    if isinstance(domain, Tube):
        s, pc = _pow2_scale(domain.spine, domain.epsilon), domain.pieces
        return Tube(spine=domain.spine / s, epsilon=domain.epsilon / s, pieces=_piece_table(
            pc.a / s, pc.b / s, pc.radius / s, pc.t0, pc.t1)), s
    raise GeometryError(f"not a domain: {domain!r}")


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

def _pieces(domain) -> _Pieces:
    if isinstance(domain, Polygon):
        v = domain.vertices
        zero = np.zeros(len(v))
        return _piece_table(v, np.roll(v, -1, axis=0), zero, zero, zero)
    if isinstance(domain, Disk):
        c = domain.center[None, :]
        return _piece_table(c, c, np.array([domain.radius]), np.zeros(1),
                            np.array([2.0 * math.pi]))
    if isinstance(domain, Tube):
        return domain.pieces
    raise GeometryError(f"not a domain: {domain!r}")


def joint_arclengths(domain) -> np.ndarray:
    """Arclengths where boundary pieces join: polygon vertices, tube
    segment/arc joints, and the one start point of a disk."""
    return _pieces(domain).starts[:-1]


def area(domain) -> float:
    """Enclosed area: shoelace for polygons, pi R^2 for disks, and the exact
    piecewise (segment/arc) Green's-theorem area for tubes."""
    if isinstance(domain, Disk):
        # a Python float's ** raises OverflowError where * gives inf
        return math.pi * (domain.radius * domain.radius)
    if isinstance(domain, Polygon):
        return 0.5 * float(np.sum(_shoelace(domain.vertices)[2]))
    if isinstance(domain, Tube):
        pc = domain.pieces
        a, b, r = pc.a, pc.b, pc.radius
        seg = 0.5 * (a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1])
        arc = 0.5 * (r * r * (pc.t1 - pc.t0)
                     + a[:, 0] * r * (np.sin(pc.t1) - np.sin(pc.t0))
                     - a[:, 1] * r * (np.cos(pc.t1) - np.cos(pc.t0)))
        return float(np.cumsum(np.where(r > 0.0, arc, seg))[-1])
    raise GeometryError(f"not a domain: {domain!r}")


def perimeter(domain) -> float:
    return float(_pieces(domain).starts[-1])


def centroid(domain) -> np.ndarray:
    """Expansion origin: area centroid for polygons, center for disks,
    arclength-weighted spine midpoint for tubes."""
    if isinstance(domain, Disk):
        return domain.center.copy()
    if isinstance(domain, Polygon):
        u, w, cross = _shoelace(domain.vertices)
        return domain.vertices[0] + ((u + w) * cross[:, None]).sum(axis=0) / (3 * np.sum(cross))
    if isinstance(domain, Tube):
        v = domain.spine
        mid = 0.5 * (v[:-1] + v[1:])
        L = np.hypot(*(v[1:] - v[:-1]).T)
        return (mid * L[:, None]).sum(axis=0) / L.sum()
    raise GeometryError(f"not a domain: {domain!r}")


def circumradius(domain, origin=None) -> float:
    """Maximum boundary distance from `origin` (default: the centroid), exactly.
    |p - o| is convex along a segment, so a polygon's maximum is at a vertex,
    and a tube, the union of the epsilon-disks about its spine's segments,
    reaches epsilon beyond its spine's farthest vertex."""
    o = centroid(domain) if origin is None else np.asarray(origin, dtype=float)
    if isinstance(domain, Disk):
        return float(np.hypot(*(domain.center - o)) + domain.radius)
    if isinstance(domain, Polygon):
        pts, pad = domain.vertices, 0.0
    elif isinstance(domain, Tube):
        pts, pad = domain.spine, domain.epsilon
    else:
        raise GeometryError(f"not a domain: {domain!r}")
    return float(np.max(np.hypot(pts[:, 0] - o[0], pts[:, 1] - o[1]))) + pad


def bounding_box(domain):
    """(lo, hi), the least box holding the boundary, from the piece table:
    segment endpoints, and each arc's ends and the axis extremes it sweeps."""
    pc = _pieces(domain)
    arc = pc.radius > 0.0
    r = pc.radius[arc, None]
    # the directions q pi/2 (q = -2 .. 6, as t0 > -pi and t1 <= 3 pi) clipped to each sweep
    t = np.clip(0.5 * math.pi * np.arange(-2, 7), pc.t0[arc, None], pc.t1[arc, None])
    x, y = pc.a[arc, :1] + r * np.cos(t), pc.a[arc, 1:] + r * np.sin(t)
    pts = np.concatenate([pc.a[~arc], pc.b[~arc], np.stack([x.ravel(), y.ravel()], axis=1)])
    return pts.min(axis=0), pts.max(axis=0)


def diameter(domain) -> float:
    if isinstance(domain, Disk):
        return 2.0 * domain.radius
    if isinstance(domain, Polygon):
        pts = domain.vertices
    else:
        pts = sample_boundary(domain, 512).points
    diff = pts[:, None, :] - pts[None, :, :]
    return float(np.max(np.hypot(diff[..., 0], diff[..., 1])))


# ---------------------------------------------------------------------------
# boundary sampling
# ---------------------------------------------------------------------------

def boundary_points_at(domain, arclengths):
    """Boundary points and outward unit normals at given arclength positions."""
    return _points_at(_pieces(domain), arclengths)


def _points_at(pc: _Pieces, arclengths):
    s = np.mod(np.asarray(arclengths, dtype=float), pc.starts[-1])
    idx = np.clip(np.searchsorted(pc.starts, s, side="right") - 1, 0, len(pc.length) - 1)
    return _piece_points(pc, idx, s - pc.starts[idx])


def _sample(pc: _Pieces, n: int, offset: float) -> BoundarySampling:
    """n points at arclengths (i + offset) * step, step = length / n."""
    if n < 1:
        raise GeometryError("need at least one sample")
    step = float(pc.starts[-1]) / n
    s = (np.arange(n) + float(offset)) * step
    pts, nrm = _points_at(pc, s)
    return BoundarySampling(points=pts, normals=nrm, arclengths=s, max_gap=step)


def sample_boundary(domain, n: int, offset: float = 0.0) -> BoundarySampling:
    """n boundary points equidistributed in arclength.

    `offset` shifts the sampling by that fraction of one step; distinct
    offsets give disjoint samplings (used to keep validation samples
    independent of collocation samples). `max_gap` is the arclength step,
    not the largest chord: every boundary point lies within max_gap / 2 of
    a sample, which a chord does not guarantee on an arc or for n = 1.
    """
    return _sample(_pieces(domain), n, offset)


def sample_polyline(vertices, n: int) -> BoundarySampling:
    """The middles of n cells of equal arclength max_gap on the open polyline
    through distinct `vertices`: each of its points is within max_gap / 2 of one."""
    v = np.asarray(vertices, dtype=float)
    zero = np.zeros(len(v) - 1)
    return _sample(_piece_table(v[:-1], v[1:], zero, zero, zero), n, 0.5)


# ---------------------------------------------------------------------------
# containment
# ---------------------------------------------------------------------------

def boundary_distance(domain, points) -> np.ndarray:
    """Distance from each point to the domain boundary."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(domain, Disk):
        r = np.hypot(pts[:, 0] - domain.center[0], pts[:, 1] - domain.center[1])
        return np.abs(r - domain.radius)
    if isinstance(domain, Polygon):
        closed = np.concatenate([domain.vertices, domain.vertices[:1]], axis=0)
        return _dist_to_polyline(pts, closed)
    if isinstance(domain, Tube):
        d = _dist_to_polyline(pts, domain.spine)
        return np.abs(d - domain.epsilon)
    raise GeometryError(f"not a domain: {domain!r}")


def _crossing_inside(verts: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Even-odd ray casting (horizontal ray to +infinity)."""
    x = pts[:, 0:1]
    y = pts[:, 1:2]
    x1 = verts[None, :, 0]
    y1 = verts[None, :, 1]
    x2 = np.roll(verts, -1, axis=0)[None, :, 0]
    y2 = np.roll(verts, -1, axis=0)[None, :, 1]
    cond = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xin = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    hit = cond & (x < xin)
    return (np.count_nonzero(hit, axis=1) % 2) == 1


def locate_points(domain, points, tol: float = BOUNDARY_TOL) -> np.ndarray:
    """Three-valued containment: INSIDE (1), BOUNDARY (0), OUTSIDE (-1)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    out = np.full(len(pts), OUTSIDE, dtype=np.int8)
    on_bdry = boundary_distance(domain, pts) <= tol
    if isinstance(domain, Disk):
        r = np.hypot(pts[:, 0] - domain.center[0], pts[:, 1] - domain.center[1])
        inside = r < domain.radius
    elif isinstance(domain, Polygon):
        inside = _crossing_inside(domain.vertices, pts)
    elif isinstance(domain, Tube):
        inside = _dist_to_polyline(pts, domain.spine) < domain.epsilon
    else:
        raise GeometryError(f"not a domain: {domain!r}")
    out[inside] = INSIDE
    out[on_bdry] = BOUNDARY
    return out


def inside_mask(domain, points, tol: float = BOUNDARY_TOL) -> np.ndarray:
    return locate_points(domain, points, tol) == INSIDE


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

_DOMAIN_KEYS = {
    "polygon": {"type", "vertices"},
    "disk": {"type", "center", "radius"},
    "tube": {"type", "spine", "epsilon"},
}


def domain_from_json(obj: dict):
    if not isinstance(obj, dict):
        raise GeometryError("domain JSON must be an object")
    kind = obj.get("type")
    if kind not in _DOMAIN_KEYS:
        raise GeometryError(f"unknown domain type {kind!r}")
    extra = set(obj) - _DOMAIN_KEYS[kind]
    missing = _DOMAIN_KEYS[kind] - set(obj)
    if extra:
        raise GeometryError(f"unknown keys in domain JSON: {sorted(extra)}")
    if missing:
        raise GeometryError(f"missing keys in domain JSON: {sorted(missing)}")
    if kind == "polygon":
        return polygon(obj["vertices"])
    if kind == "disk":
        return disk(obj["center"], obj["radius"])
    return tube_of(obj["spine"], obj["epsilon"])


def domain_to_json(domain) -> dict:
    if isinstance(domain, Polygon):
        return {"type": "polygon", "vertices": domain.vertices.tolist()}
    if isinstance(domain, Disk):
        return {"type": "disk", "center": domain.center.tolist(),
                "radius": domain.radius}
    if isinstance(domain, Tube):
        return {"type": "tube", "spine": domain.spine.tolist(),
                "epsilon": domain.epsilon}
    raise GeometryError(f"not a domain: {domain!r}")


def load_domain(path):
    with open(path, "r", encoding="utf-8") as fh:
        return domain_from_json(json.load(fh))


def save_domain(domain, path) -> None:
    Path(path).write_text(json.dumps(domain_to_json(domain), indent=2) + "\n",
                          encoding="utf-8")


def targets_from_json(obj: dict) -> TargetSet:
    if not isinstance(obj, dict) or set(obj) != {"points"}:
        raise GeometryError('target JSON must be exactly {"points": [[x, y], ...]}')
    return target_set(obj["points"])


def targets_to_json(targets: TargetSet) -> dict:
    return {"points": targets.points.tolist()}


def load_targets(path) -> TargetSet:
    with open(path, "r", encoding="utf-8") as fh:
        return targets_from_json(json.load(fh))
