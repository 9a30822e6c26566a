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


# --- boundary sampling ---------------------------------------------------------

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
    assert np.max(bs.gaps) <= 0.5 + 1e-12


def test_perimeter_estimate_from_gaps():
    bs = g.sample_boundary(g.disk([0, 0], 1.0), 256)
    assert abs(np.sum(bs.gaps) - 2 * math.pi) / (2 * math.pi) < 0.01


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
    assert np.max(bs.gaps) <= bs.max_gap * (1.0 + 1e-12)  # chords, up to rounding


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


# --- containment ---------------------------------------------------------------

def test_contains_trivia():
    d = g.disk([0, 0], 1.0)
    assert g.contains(d, [0, 0])
    assert not g.contains(d, [2, 0])
    assert g.locate(d, [1, 0]) == "boundary"
    sq = g.polygon(UNIT_SQUARE)
    assert g.contains(sq, [0.5, 0.5])
    assert not g.contains(sq, [1.5, 0.5])
    assert g.locate(sq, [1.0, 0.5]) == "boundary"


def test_boundary_tolerance_three_valued():
    sq = g.polygon(UNIT_SQUARE)
    assert g.locate(sq, [0.5, 1e-13]) == "boundary"
    assert g.locate(sq, [0.5, 1e-9]) == "inside"
    assert g.locate(sq, [0.5, -1e-9]) == "outside"
    assert g.locate(sq, [0.5, 1e-7], tol=1e-6) == "boundary"


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
    winding = g._winding_inside(poly.vertices, pts)
    assert np.all(crossing[~near] == winding[~near])


# --- shrink ---------------------------------------------------------------------

def test_shrink_disk():
    assert g.shrink(g.disk([0, 0], 1.0), 0.1).radius == pytest.approx(0.9)


def test_shrink_square():
    inner = g.shrink(g.polygon(UNIT_SQUARE), 0.1)
    assert g.area(inner) == pytest.approx(0.64)
    assert np.allclose(np.sort(inner.vertices, axis=0),
                       np.sort(np.array([[0.1, 0.1], [0.9, 0.1],
                                         [0.9, 0.9], [0.1, 0.9]]), axis=0))


def test_shrink_preserves_offset_distance():
    for dom in (g.polygon(L_SHAPE), g.polygon(UNIT_SQUARE)):
        delta = 0.15
        inner = g.shrink(dom, delta)
        probe = g.sample_boundary(inner, 256).points
        assert np.min(g.boundary_distance(dom, probe)) >= delta * (1 - 1e-9)
        assert g.area(inner) < g.area(dom)


def test_shrink_keeps_far_targets_inside():
    dom = g.polygon(UNIT_SQUARE)
    targets = np.array([[0.5, 0.5], [0.3, 0.4], [0.25, 0.75]])
    assert np.min(g.boundary_distance(dom, targets)) >= 0.2
    inner = g.shrink(dom, 0.1)
    assert np.all(g.inside_mask(inner, targets))


def test_shrink_collapse_raises():
    with pytest.raises(g.ShrinkCollapseError):
        g.shrink(g.disk([0, 0], 1.0), 1.0)
    with pytest.raises(g.ShrinkCollapseError):
        g.shrink(g.polygon(UNIT_SQUARE), 0.5)
    with pytest.raises(g.ShrinkCollapseError):
        g.shrink(g.tube_of([[-1, 0], [1, 0]], 0.2), 0.25)


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


def test_densify_polyline():
    pts = g.densify_polyline([[0, 0], [1, 0]], 0.3)
    gaps = np.hypot(*np.diff(pts, axis=0).T)
    assert np.max(gaps) <= 0.3 + 1e-12
    assert np.allclose(pts[0], [0, 0]) and np.allclose(pts[-1], [1, 0])


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
