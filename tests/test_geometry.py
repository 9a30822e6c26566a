import json
import math

import numpy as np
import pytest

from helmholtz_positivity import geometry as g

UNIT_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
L_SHAPE = [[-1, -1], [1, -1], [1, 0], [0, 0], [0, 1], [-1, 1]]


# --- construction ------------------------------------------------------------

def test_polygon_orientation_normalized():
    cw = g.polygon(list(reversed(UNIT_SQUARE)))
    assert g.area(cw) == pytest.approx(1.0)


def test_polygon_rejects_self_intersection():
    with pytest.raises(g.GeometryError):
        g.polygon([[0, 0], [1, 1], [1, 0], [0, 1]])  # bowtie


def test_polygon_rejects_degenerate():
    with pytest.raises(g.GeometryError):
        g.polygon([[0, 0], [1, 0]])
    with pytest.raises(g.GeometryError):
        g.polygon([[0, 0], [1, 0], [2, 0]])  # zero area


def test_disk_validation():
    with pytest.raises(g.GeometryError):
        g.disk([0, 0], 0.0)
    with pytest.raises(g.GeometryError):
        g.disk([np.inf, 0], 1.0)


# --- simplicity: the broadcast test against the pairwise reference -------------

def _orient_ref(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _on_segment_ref(p, q, r):
    return (min(p[0], q[0]) - 1e-15 <= r[0] <= max(p[0], q[0]) + 1e-15 and
            min(p[1], q[1]) - 1e-15 <= r[1] <= max(p[1], q[1]) + 1e-15)


def _proper_or_touching_intersect(p1, p2, p3, p4):
    d1 = _orient_ref(p3, p4, p1)
    d2 = _orient_ref(p3, p4, p2)
    d3 = _orient_ref(p1, p2, p3)
    d4 = _orient_ref(p1, p2, p4)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and \
            d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
        return True
    for d, (a, b, c) in ((d1, (p3, p4, p1)), (d2, (p3, p4, p2)),
                         (d3, (p1, p2, p3)), (d4, (p1, p2, p4))):
        if d == 0 and _on_segment_ref(a, b, c):
            return True
    return False


def _reference_require_simple(verts, closed):
    """The pairwise loop that the broadcast test replaced."""
    n = len(verts)
    m = n if closed else n - 1
    segs = [(verts[i], verts[(i + 1) % n]) for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if (j == i + 1) or (closed and i == 0 and j == m - 1):
                continue
            if _proper_or_touching_intersect(*segs[i], *segs[j]):
                raise g.GeometryError(
                    f"self-intersection between edges {i} and {j}; shape must be simple")


def _simplicity_verdict(check, verts, closed):
    try:
        check(verts, closed)
    except g.GeometryError as exc:
        return str(exc)
    return None


def test_require_simple_matches_pairwise_reference():
    # vertices on a coarse grid give many collinear and touching edge pairs
    rng = np.random.default_rng(2024)
    rejected = 0
    for trial in range(3200):
        closed = bool(trial % 2)
        n = int(rng.integers(3 if closed else 2, 10))
        verts = rng.integers(0, 5, size=(n, 2)) * 0.5
        new = _simplicity_verdict(g._require_simple, verts, closed)
        assert new == _simplicity_verdict(_reference_require_simple, verts, closed)
        rejected += new is not None
    assert 1000 < rejected < 3000  # both outcomes are well covered


def _ellipse(n):
    t = 2.0 * math.pi * np.arange(n) / n
    return np.stack([np.cos(t), 0.5 * np.sin(t)], axis=1)


def _box_overlap_fraction(verts, closed):
    """Share of edge pairs whose (unpadded) boxes overlap."""
    p = np.asarray(verts, dtype=float)
    q = np.roll(p, -1, axis=0)
    m = len(p) if closed else len(p) - 1
    lo, hi = np.minimum(p, q)[:m], np.maximum(p, q)[:m]
    overlap = np.all((lo[:, None] <= hi[None]) & (lo[None] <= hi[:, None]), axis=-1)
    return (np.sum(overlap) - m) / (m * (m - 1))


def test_require_simple_matches_reference_on_large_grid_shapes():
    # 40-150 grid vertices: star polygons, x-monotone walks and random polylines,
    # where most edge pairs have disjoint boxes and are pruned
    rng = np.random.default_rng(7)
    verdicts, fractions = [], []
    for trial in range(60):
        n = int(rng.integers(40, 151))
        kind = trial % 3
        if kind == 0:
            t = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
            r = rng.integers(40, 80, n)
            verts = np.round(np.stack([r * np.cos(t), r * np.sin(t)], axis=1)) * 0.5
        elif kind == 1:
            steps = np.stack([rng.integers(0, 2, n), rng.integers(-3, 4, n)], axis=1)
            verts = np.cumsum(steps, axis=0) * 0.5
        else:
            verts = rng.integers(0, 40, size=(n, 2)) * 0.5
        closed = kind == 0 or bool(trial % 2)
        new = _simplicity_verdict(g._require_simple, verts, closed)
        assert new == _simplicity_verdict(_reference_require_simple, verts, closed)
        verdicts.append(new)
        fractions.append(_box_overlap_fraction(verts, closed))
    accepted = sum(v is None for v in verdicts)
    assert 5 < accepted < 55  # both outcomes are covered
    assert np.median(fractions) < 0.5  # pruning drops most pairs


def _zigzag(n):
    """Open zig-zag whose edges all span x in [0, 1]."""
    return np.stack([np.arange(n) % 2, 0.5 * np.arange(n)], axis=1).astype(float)


@pytest.mark.parametrize("block", [1, 3, 256])
def test_require_simple_on_zigzag_sharing_one_x_range(monkeypatch, block):
    # every x-interval overlaps every other: the worst case of the sweep, in
    # blocks of any size
    monkeypatch.setattr(g, "_SIMPLE_BLOCK", block)
    good = _zigzag(61)
    assert _simplicity_verdict(g._require_simple, good, False) is None
    assert _simplicity_verdict(_reference_require_simple, good, False) is None
    bad = good.copy()
    bad[30] = [1.0, bad[27, 1]]  # lands on the vertex shared by edges 26 and 27
    new = _simplicity_verdict(g._require_simple, bad, False)
    assert new is not None
    assert new == _simplicity_verdict(_reference_require_simple, bad, False)
    closed = _simplicity_verdict(g._require_simple, good, True)
    assert closed is not None  # the closing edge crosses the zig-zag
    assert closed == _simplicity_verdict(_reference_require_simple, good, True)


@pytest.mark.parametrize("spine, simple", [
    # edges 0 and 4 lie on y = 0, far apart
    ([[0, 0], [1, 0], [1, 1], [3, 1], [3, 0], [4, 0]], True),
    # edge 0 reaches under edges 3 and 4 on the same line
    ([[0, 0], [3.5, 0], [3.5, 1], [3, 1], [3, 0], [4, 0]], False),
])
def test_require_simple_on_spine_with_collinear_edges(spine, simple):
    verts = np.asarray(spine, dtype=float)
    new = _simplicity_verdict(g._require_simple, verts, False)
    assert (new is None) == simple
    assert new == _simplicity_verdict(_reference_require_simple, verts, False)
    if simple:
        assert isinstance(g.tube_of(verts, 0.2), g.Tube)


def test_require_simple_on_1000_vertex_ellipse_touching_itself():
    verts = _ellipse(1000)
    verts[500:502] = [[-1.0, 1e-3], [-1.0, -1e-3]]  # edge 500 is vertical
    g.polygon(verts)  # still simple
    verts[0] = [-1.0, 0.0]  # pushed inward onto the middle of edge 500
    new = _simplicity_verdict(g._require_simple, verts, True)
    assert new == "self-intersection between edges 0 and 500; shape must be simple"
    assert new == _simplicity_verdict(_reference_require_simple, verts, True)


def test_polygon_accepts_1000_vertex_ellipse():
    poly = g.polygon(_ellipse(1000))
    assert g.area(poly) == pytest.approx(math.pi * 0.5, rel=1e-4)


def test_polygon_rejects_1000_vertex_ellipse_with_vertex_across():
    verts = _ellipse(1000)
    verts[0] = [-1.2, 0.0]  # pushed across the far side of the ellipse
    with pytest.raises(g.GeometryError, match="self-intersection"):
        g.polygon(verts)


# --- area / perimeter / centroid ----------------------------------------------

def test_areas():
    assert g.area(g.polygon(UNIT_SQUARE)) == pytest.approx(1.0, abs=1e-15)
    assert g.area(g.disk([2, 3], 1.5)) == pytest.approx(math.pi * 2.25)
    tube = g.tube_of([[-1, 0], [1, 0]], 0.25)
    assert g.area(tube) == pytest.approx(2 * 0.25 * 2 + math.pi * 0.25 ** 2)


def test_bent_tube_area_against_monte_carlo():
    tube = g.tube_of([[0, 0], [1, 0], [1, 1]], 0.2)
    exact = g.area(tube)
    rng = np.random.default_rng(0)
    pts = rng.uniform([-0.3, -0.3], [1.3, 1.3], size=(400000, 2))
    frac = np.mean(g.inside_mask(tube, pts))
    assert exact == pytest.approx(frac * 1.6 * 1.6, abs=4 * 1.6 * 1.6 *
                                  math.sqrt(0.36 * 0.64 / 400000))
    # right-angle corner correction in closed form: eps^2 (1 - pi/4)
    eps = 0.2
    assert exact == pytest.approx(2 * eps * 2 + math.pi * eps ** 2
                                  - eps ** 2 * (1 - math.pi / 4), abs=1e-12)


def test_centroids():
    assert np.allclose(g.centroid(g.polygon(UNIT_SQUARE)), [0.5, 0.5])
    assert np.allclose(g.centroid(g.disk([2, -1], 0.5)), [2, -1])
    assert np.allclose(g.centroid(g.tube_of([[-1, 0], [1, 0]], 0.2)), [0, 0])


@pytest.mark.parametrize("scale, offset", [
    pytest.param(2.0 ** 500, 2.0 ** 15, id="2^500-offset-2^15"),
    pytest.param(2.0 ** 660, 0.0, id="2^660"),
])
@pytest.mark.parametrize("shape", ["L", "bent-tube"])
def test_measures_scale_exactly_by_powers_of_two(shape, scale, offset):
    # products of raw coordinates overflow at these scales (shoelace terms of
    # 2**1030, distances and centroids near 1e199), so measures are taken on
    # the unit copy: the big domain's is the small one's, bit for bit, and
    # its power of two carries the scale
    def make(f):
        if shape == "L":
            return g.polygon((np.asarray(L_SHAPE) + offset) * f)
        return g.tube_of((np.array([[0, 0], [1, 0], [1, 1]]) + offset) * f, 0.2 * f)

    (small, s), (big, s_big) = g.in_units(make(1.0)), g.in_units(make(scale))
    assert s_big == scale * s
    pts = (offset + np.random.default_rng(5).uniform(-1.5, 1.5, (200, 2))) / s
    assert g.area(big) == g.area(small)
    assert np.array_equal(g.centroid(big), g.centroid(small))
    assert np.array_equal(g.boundary_distance(big, pts), g.boundary_distance(small, pts))
    assert np.array_equal(g.locate_points(big, pts, tol=1e-9 / s),
                          g.locate_points(small, pts, tol=1e-9 / s))
    assert np.array_equal(g.sample_boundary(big, 97).points,
                          g.sample_boundary(small, 97).points)


@pytest.mark.parametrize("e", [-600, -40, 0, 40, 660])
@pytest.mark.parametrize("shape", ["disk", "L", "bent-tube"])
def test_in_units_round_trip_is_exact(shape, e):
    # dividing by a power of two is exact: the unit copy's samplings times s
    # are the domain's, bit for bit, from 2^-600 to 2^660
    f = math.ldexp(1.0, e)
    if shape == "disk":
        domain = g.disk([0.3 * f, -1.0 * f], 0.7 * f)
    elif shape == "L":
        domain = g.polygon(np.asarray(L_SHAPE) * f)
    else:
        domain = g.tube_of(np.array([[0, 0], [1, 0], [1, 1]]) * f, 0.2 * f)
    unit, s = g.in_units(domain)
    assert s == f and type(unit) is type(domain)
    for offset in (0.0, 0.5):
        a, b = g.sample_boundary(domain, 97, offset), g.sample_boundary(unit, 97, offset)
        assert np.array_equal(b.points * s, a.points)
        assert np.array_equal(b.normals, a.normals)
        assert np.array_equal(b.arclengths * s, a.arclengths)
        assert b.max_gap * s == a.max_gap
    assert np.array_equal(g.joint_arclengths(unit) * s, g.joint_arclengths(domain))
    assert g.perimeter(unit) * s == g.perimeter(domain)


def test_far_point_against_a_small_tube():
    # the domain sets the units, but a query point is never scaled up: near
    # the top of the float range it stays finite, and far outside
    tube = g.tube_of([[0, 0], [0.25, 0]], 0.05)
    far = [[0.1, 1e300], [0.1, -1.7e308]]
    assert np.array_equal(g.locate_points(tube, far), [g.OUTSIDE, g.OUTSIDE])
    assert g.boundary_distance(tube, far)[0] == pytest.approx(1e300)


def test_far_point_distance_does_not_overflow():
    # pa.ab / |ab|^2 is clipped before it is divided: no overflow warning
    # (pytest makes warnings errors), and a distance past the float range is inf
    square = g.polygon([[0, 0], [0.25, 0], [0.25, 0.25], [0, 0.25]])
    far = [[0.1, -1.7e308], [-1.7e308, 0.1], [1.7e308, 1.7e308]]
    assert np.array_equal(g.locate_points(square, far), [g.OUTSIDE] * 3)
    dist = g.boundary_distance(square, far)
    assert dist[0] == 1.7e308 and dist[1] == 1.7e308 and dist[2] == math.inf
    near = np.array([[0.1, -2.0], [0.3, 0.1], [0.1, 0.2]])
    assert g.boundary_distance(square, near) == pytest.approx([2.0, 0.05, 0.05])


# --- boundary sampling ---------------------------------------------------------

def _chords(points, closed):
    """Distance from each sample to the next, back to the first if closed."""
    nxt = np.roll(points, -1, axis=0) if closed else points[1:]
    return np.hypot(*(nxt - points[:len(nxt)]).T)


def test_disk_four_samples():
    bs = g.sample_boundary(g.disk([0, 0], 1.0), 4)
    expect = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=float)
    assert np.allclose(bs.points, expect, atol=1e-12)
    assert bs.max_gap == pytest.approx(math.pi / 2.0)


def test_square_eight_samples_hit_vertices():
    bs = g.sample_boundary(g.polygon(UNIT_SQUARE), 8)
    pts = {tuple(np.round(p, 12)) for p in bs.points}
    for v in UNIT_SQUARE:
        assert tuple(map(float, v)) in pts
    assert np.max(_chords(bs.points, closed=True)) <= 0.5 + 1e-12


def test_perimeter_estimate_from_gaps():
    bs = g.sample_boundary(g.disk([0, 0], 1.0), 256)
    assert abs(np.sum(_chords(bs.points, closed=True)) - 2 * math.pi) / (2 * math.pi) < 0.01


@pytest.mark.parametrize("domain", [
    g.disk([0.3, -1.0], 0.7),
    g.polygon(L_SHAPE),
    g.tube_of([[0, 0], [1, 0.2], [1.5, 1.0]], 0.15),
])
def test_samples_lie_on_boundary_and_gap_bound(domain):
    n = 64
    bs = g.sample_boundary(domain, n)
    codes = g.locate_points(domain, bs.points)
    assert np.all(codes == g.BOUNDARY)
    assert bs.max_gap <= 2.0 * g.perimeter(domain) / n
    assert bs.max_gap == pytest.approx(g.perimeter(domain) / n)
    assert np.max(_chords(bs.points, closed=True)) <= bs.max_gap * (1.0 + 1e-12)  # up to rounding


@pytest.mark.parametrize("n", [1, 2, 7, 512])
def test_polyline_samples_are_cell_midpoints(n):
    # zig spine, length 2 * hypot(0.7, 0.3) + hypot(0.6, 0.6)
    zig = np.array([[-1, 0], [-0.3, 0.3], [0.3, -0.3], [1, 0]], dtype=float)
    length = 2 * math.hypot(0.7, 0.3) + math.hypot(0.6, 0.6)
    bs = g.sample_polyline(zig, n)
    assert len(bs.points) == n
    assert bs.max_gap == pytest.approx(length / n, rel=1e-15)
    assert np.allclose(bs.arclengths, (np.arange(n) + 0.5) * length / n, rtol=0, atol=1e-15)
    # on a segment of the spine: collinear with its ends
    d = zig[1:] - zig[:-1]
    cross = np.abs(d[None, :, 0] * (bs.points[:, None, 1] - zig[None, :-1, 1])
                   - d[None, :, 1] * (bs.points[:, None, 0] - zig[None, :-1, 0]))
    assert np.all(np.min(cross, axis=1) <= 1e-14)
    # both ends are half a cell from the nearest sample; chords are at most a cell
    for end in (zig[0], zig[-1]):
        assert np.min(np.hypot(*(bs.points - end).T)) <= bs.max_gap / 2 * (1 + 1e-12)
    assert np.all(_chords(bs.points, closed=False) <= bs.max_gap * (1 + 1e-12))


def test_sampling_offset_gives_disjoint_points():
    d = g.disk([0, 0], 1.0)
    a = g.sample_boundary(d, 16).points
    b = g.sample_boundary(d, 64, offset=0.5).points
    dist = np.min(np.hypot(a[:, None, 0] - b[None, :, 0],
                           a[:, None, 1] - b[None, :, 1]))
    assert dist > 1e-3


def test_outward_normals():
    d = g.disk([1.0, 2.0], 2.0)
    bs = g.sample_boundary(d, 32)
    radial = (bs.points - [1.0, 2.0]) / 2.0
    assert np.allclose(bs.normals, radial, atol=1e-12)
    sq = g.sample_boundary(g.polygon(UNIT_SQUARE), 16)
    outside = sq.points + 1e-3 * sq.normals
    assert np.all(g.locate_points(g.polygon(UNIT_SQUARE), outside) == g.OUTSIDE)


BENT = [[-1, 0], [0, 0.1], [1, 0]]
ZIG = [[-1, 0], [-0.3, 0.3], [0.3, -0.3], [1, 0]]


@pytest.mark.parametrize("verts", [UNIT_SQUARE, L_SHAPE])
def test_polygon_joints_are_the_vertices_in_order(verts):
    poly = g.polygon(verts)
    pts, _ = g.boundary_points_at(poly, g.joint_arclengths(poly))
    assert np.allclose(pts, poly.vertices, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("spine", [BENT, ZIG])
def test_tube_joints_lie_at_distance_epsilon(spine):
    tube = g.tube_of(spine, 0.15)
    joints = g.joint_arclengths(tube)
    assert len(joints) >= 4 and joints[0] == 0.0
    assert np.all(np.diff(joints) > 0.0)
    pts, _ = g.boundary_points_at(tube, joints)
    assert np.max(g.boundary_distance(tube, pts)) <= 1e-12


def test_disk_has_one_joint():
    assert g.joint_arclengths(g.disk([1.0, -2.0], 0.5)).tolist() == [0.0]


@pytest.mark.parametrize("domain", [
    g.disk([0.3, -1.0], 0.7),
    g.polygon(UNIT_SQUARE),
    g.polygon(L_SHAPE),
    g.tube_of(BENT, 0.15),
    g.tube_of(ZIG, 0.15),
])
def test_normals_have_unit_length(domain):
    s = np.concatenate([np.linspace(0.0, g.perimeter(domain), 997),
                        g.joint_arclengths(domain)])
    _, nrm = g.boundary_points_at(domain, s)
    assert np.allclose(np.hypot(nrm[:, 0], nrm[:, 1]), 1.0, rtol=0.0, atol=1e-12)


# --- containment ---------------------------------------------------------------

def test_contains_trivia():
    # inside_mask is strict: a boundary point is not inside
    d = g.disk([0, 0], 1.0)
    assert g.inside_mask(d, [[0, 0], [2, 0], [1, 0]]).tolist() == [True, False, False]
    assert g.locate_points(d, [1, 0]).tolist() == [g.BOUNDARY]
    sq = g.polygon(UNIT_SQUARE)
    assert g.inside_mask(sq, [[0.5, 0.5], [1.5, 0.5], [1.0, 0.5]]).tolist() == \
        [True, False, False]
    assert g.locate_points(sq, [1.0, 0.5]).tolist() == [g.BOUNDARY]


def test_boundary_tolerance_three_valued():
    sq = g.polygon(UNIT_SQUARE)
    assert g.locate_points(sq, [[0.5, 1e-13], [0.5, 1e-9], [0.5, -1e-9]]).tolist() == \
        [g.BOUNDARY, g.INSIDE, g.OUTSIDE]
    assert g.locate_points(sq, [0.5, 1e-7], tol=1e-6).tolist() == [g.BOUNDARY]
    assert not g.inside_mask(sq, [0.5, 1e-7], tol=1e-6)[0]


def _winding_inside(verts, pts):
    """Winding-number containment, the cross-check for the ray caster."""
    x1 = verts[None, :, 0]
    y1 = verts[None, :, 1]
    x2 = np.roll(verts, -1, axis=0)[None, :, 0]
    y2 = np.roll(verts, -1, axis=0)[None, :, 1]
    x = pts[:, 0:1]
    y = pts[:, 1:2]
    is_left = (x2 - x1) * (y - y1) - (x - x1) * (y2 - y1)
    up = (y1 <= y) & (y2 > y) & (is_left > 0)
    down = (y1 > y) & (y2 <= y) & (is_left < 0)
    wn = np.count_nonzero(up, axis=1) - np.count_nonzero(down, axis=1)
    return wn != 0


@pytest.mark.parametrize("verts", [
    UNIT_SQUARE,
    L_SHAPE,
    [[0, 0], [4, 0], [4, 1], [1, 1], [1, 3], [3, 3], [3, 4], [0, 4]],
])
def test_ray_casting_agrees_with_winding_number(verts):
    poly = g.polygon(verts)
    v = np.asarray(verts, dtype=float)
    lo, hi = v.min(axis=0) - 0.5, v.max(axis=0) + 0.5
    rng = np.random.default_rng(1234)
    pts = rng.uniform(lo, hi, size=(1000, 2))
    near = g.boundary_distance(poly, pts) < 1e-9
    crossing = g._crossing_inside(poly.vertices, pts)
    winding = _winding_inside(poly.vertices, pts)
    assert np.all(crossing[~near] == winding[~near])


# --- tubes ----------------------------------------------------------------------

def test_tube_of_point_is_disk():
    t = g.tube_of([[0.5, 0.5]], 0.3)
    assert isinstance(t, g.Disk)
    assert t.radius == pytest.approx(0.3)


def test_tube_self_overlap_raises():
    # hairpin: opposite legs closer than 2 * epsilon
    with pytest.raises(g.GeometryError):
        g.tube_of([[0, 0], [2, 0], [2, 0.15], [0, 0.15]], 0.2)


def test_tube_sharp_corner_rejected():
    # near-reversal corner: inner trim falls outside the segments
    with pytest.raises(g.GeometryError):
        g.tube_of([[0, 0], [1, 0], [0, 0.05]], 0.2)


def test_tube_epsilon_for_gate(capsys):
    # choosing epsilon with 2 eps L + pi eps^2 <= pi (j01/k)^2 passes downstream
    from helmholtz_positivity import specfun as sf
    j01 = sf.bessel_zero(0, 1)
    L, k = 2.0, 2.0
    budget = math.pi * (j01 / k) ** 2
    eps = 0.2
    assert 2 * eps * L + math.pi * eps ** 2 <= budget
    tube = g.tube_of([[-1, 0], [1, 0]], eps)
    assert g.area(tube) <= budget


# --- target sets ------------------------------------------------------------------

def test_target_set_validation():
    with pytest.raises(g.GeometryError):
        g.target_set(np.zeros((0, 2)))
    ts = g.target_set([[0, 0], [1, 1]])
    assert ts.points.shape == (2, 2)


# --- JSON -------------------------------------------------------------------------

@pytest.mark.parametrize("obj", [
    {"type": "disk", "center": [0.25, -1.0], "radius": 2.0},
    {"type": "polygon", "vertices": UNIT_SQUARE},
    {"type": "tube", "spine": [[-1, 0], [0, 0.3], [1, 0]], "epsilon": 0.1},
])
def test_domain_json_round_trip(obj, tmp_path):
    dom = g.domain_from_json(obj)
    path = tmp_path / "dom.json"
    g.save_domain(dom, path)
    again = g.load_domain(path)
    assert g.area(again) == pytest.approx(g.area(dom), rel=1e-15)


def test_domain_json_rejects_unknown_keys():
    with pytest.raises(g.GeometryError):
        g.domain_from_json({"type": "disk", "center": [0, 0], "radius": 1, "extra": 1})
    with pytest.raises(g.GeometryError):
        g.domain_from_json({"type": "disk", "center": [0, 0]})
    with pytest.raises(g.GeometryError):
        g.domain_from_json({"type": "banana"})
    with pytest.raises(g.GeometryError):
        g.domain_from_json({"type": "polygon", "vertices": UNIT_SQUARE, "radius": 1})


def test_target_json_round_trip(tmp_path):
    ts = g.target_set([[0, 0], [0.5, 0]])
    path = tmp_path / "t.json"
    path.write_text(json.dumps(g.targets_to_json(ts)))
    again = g.load_targets(path)
    assert np.allclose(again.points, ts.points)
    with pytest.raises(g.GeometryError):
        g.targets_from_json({"points": [[0, 0]], "extra": 2})


# --- kernels against their earlier formulations ----------------------------------

def dist_to_polyline_3d(pts, poly):
    """_dist_to_polyline on (points, segments, 2) arrays, as it was first written."""
    a, b = poly[:-1], poly[1:]
    ab = b - a
    ab2 = np.sum(ab * ab, axis=1)
    pa = pts[:, None, :] - a[None, :, :]
    dot = np.einsum("pse,se->ps", pa / 16.0, ab)
    t = np.clip(dot, 0.0, ab2 / 16.0) / (ab2 / 16.0)
    proj = a[None, :, :] + t[:, :, None] * ab[None, :, :]
    with np.errstate(over="ignore"):
        dist = np.hypot(pts[:, None, 0] - proj[:, :, 0], pts[:, None, 1] - proj[:, :, 1])
        return np.min(dist, axis=1)


def _ellipse(n, aspect=2.0):
    t = 2.0 * math.pi * np.arange(n) / n
    return np.stack([np.cos(t), np.sin(t) / aspect], axis=1)


@pytest.mark.parametrize("seed", range(6))
def test_dist_to_polyline_is_bit_identical_to_the_3d_formulation(seed):
    rng = np.random.default_rng(seed)
    ring = _ellipse(int(rng.integers(3, 200)))
    closed = np.concatenate([ring, ring[:1]])
    for poly in (rng.uniform(-2.0, 2.0, (int(rng.integers(2, 40)), 2)), closed):
        pts = np.concatenate([rng.uniform(-3.0, 3.0, (300, 2)), poly[:5],
                              [[0.1, -1.7e308], [-1.7e308, 0.1], [1.7e308, 1.7e308]]])
        got = g._dist_to_polyline(pts, poly)  # no warning: pytest makes them errors
        assert np.array_equal(got, dist_to_polyline_3d(pts, poly))
        assert got[-1] == math.inf


@pytest.mark.parametrize("n", [3, 7, 64, 199])
def test_polygon_circumradius_is_the_largest_vertex_distance(n):
    verts = _ellipse(n) + [0.3, -0.2]
    poly = g.polygon(verts)
    o = g.centroid(poly)
    assert g.circumradius(poly) == np.max(np.hypot(*(verts - o).T))
    assert g.circumradius(poly, (5.0, 0.0)) == np.max(np.hypot(*(verts - [5.0, 0.0]).T))
    # no boundary point is farther: a dense sampling stays within rounding
    far = np.max(np.hypot(*(g.sample_boundary(poly, 4096).points - o).T))
    assert far <= g.circumradius(poly) * (1.0 + 1e-15)


@pytest.mark.parametrize("spine, eps", [
    ([[-1, 0], [1, 0]], 0.2), ([[0, 0], [1, 0.3], [2, 0]], 0.2),
    ([[0, 0], [1, 1], [2, 0], [1, -1]], 0.1), ([[0.8 * i, 0.4 * (i % 2)] for i in range(11)], 0.2),
], ids=["straight", "bent", "zigzag", "zig10"])
def test_tube_circumradius_is_the_farthest_spine_vertex_plus_epsilon(spine, eps):
    tube = g.tube_of(spine, eps)
    dense = g.sample_boundary(tube, 20000).points
    # (1, -5) puts the bent spine's middle vertex farthest, on an outer corner arc
    for o in (g.centroid(tube), np.array([5.0, -1.0]), np.array([1.0, -5.0])):
        r = g.circumradius(tube, o)
        # no boundary point is farther: a dense sampling stays within rounding
        assert np.max(np.hypot(*(dense - o).T)) <= r * (1.0 + 1e-15)
        # and the boundary reaches it, epsilon beyond the farthest vertex
        v = tube.spine[np.argmax(np.hypot(*(tube.spine - o).T))]
        p = v + eps * (v - o) / np.hypot(*(v - o))
        assert g.boundary_distance(tube, p)[0] <= 1e-12
        assert abs(np.hypot(*(p - o)) - r) <= 1e-12 * r


def piece_points_general(pc, idx, local):
    """_piece_points with the masks and both branches, as on a table with arcs."""
    pts, nrm = np.empty((len(idx), 2)), np.empty((len(idx), 2))
    arc = pc.radius[idx] > 0.0
    i, s = idx[~arc], local[~arc]
    d = pc.b[i] - pc.a[i]
    L = pc.length[i]
    pts[~arc] = pc.a[i] + (s / L)[:, None] * d
    u = d / L[:, None]
    nrm[~arc] = np.stack([u[:, 1], -u[:, 0]], axis=1)
    i, s = idx[arc], local[arc]
    unit = np.stack([np.cos(pc.t0[i] + s / pc.radius[i]), np.sin(pc.t0[i] + s / pc.radius[i])], 1)
    pts[arc] = pc.a[i] + pc.radius[i][:, None] * unit
    nrm[arc] = unit
    return pts, nrm


@pytest.mark.parametrize("domain", [
    g.polygon(_ellipse(199)), g.polygon(L_SHAPE), g.tube_of([[0, 0], [1, 0.3], [2, 0]], 0.2),
], ids=["ellipse", "L", "bent-tube"])
def test_segment_only_piece_points_are_bit_identical_to_the_general_path(domain):
    pc = g._pieces(domain)
    s = np.random.default_rng(1).uniform(0.0, float(pc.starts[-1]), 4096)
    idx = np.clip(np.searchsorted(pc.starts, s, side="right") - 1, 0, len(pc.length) - 1)
    got, want = g._piece_points(pc, idx, s - pc.starts[idx]), \
        piece_points_general(pc, idx, s - pc.starts[idx])
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("domain", [
    g.polygon(L_SHAPE), g.polygon(_ellipse(37) + [0.5, 3.0]), g.disk([1.0, -2.0], 0.75),
    g.tube_of([[0, 0], [1, 0.3], [2, 0]], 0.2), g.tube_of([[0, 0], [1, 1], [2, 0], [1, -1]], 0.1),
    g.tube_of([[-1, 0], [1, 0]], 0.2),
], ids=["L", "ellipse", "disk", "bent-tube", "zigzag-tube", "straight-tube"])
def test_bounding_box_holds_the_boundary_and_touches_it(domain):
    lo, hi = g.bounding_box(domain)
    pts = g.sample_boundary(domain, 20000).points
    assert np.all(pts >= lo - 1e-15) and np.all(pts <= hi + 1e-15)
    assert np.allclose(pts.min(axis=0), lo, atol=1e-6)
    assert np.allclose(pts.max(axis=0), hi, atol=1e-6)


def test_bounding_box_exact_cases():
    lo, hi = g.bounding_box(g.disk([1.0, -2.0], 0.75))
    assert lo.tolist() == [0.25, -2.75] and hi.tolist() == [1.75, -1.25]
    lo, hi = g.bounding_box(g.polygon(L_SHAPE))
    assert lo.tolist() == [-1, -1] and hi.tolist() == [1, 1]
    # a straight tube: the caps' axis extremes are swept
    lo, hi = g.bounding_box(g.tube_of([[-1, 0], [1, 0]], 0.25))
    assert lo.tolist() == [-1.25, -0.25] and hi.tolist() == [1.25, 0.25]


def test_tube_too_thin_to_check_is_a_geometry_error():
    # validating it a tenth of epsilon apart would take 2e10 points
    with pytest.raises(g.GeometryError, match="epsilon"):
        g.tube_of([[-1, 0], [1, 0]], 1e-9)
    assert isinstance(g.tube_of([[-1, 0], [1, 0]], 1e-4), g.Tube)
