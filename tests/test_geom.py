"""Hyperboloid primitives: metric, transport, models, curvature lemmas."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypiso.geom import (
    ORIGIN,
    ORIGIN_FRAME,
    CurveKind,
    Frame,
    Point,
    classify_curvature,
    curvature_scaled,
    disk_curvature_at_origin,
    dist,
    dist_disk,
    exp_map,
    fermi_point,
    frame_defect,
    from_disk,
    hypercircle_curvature_from_angle,
    hypercircle_distance_from_angle,
    lorentz_cross,
    minkowski,
    random_isometry,
    sausage_side_curvature,
    to_disk,
    to_uhp,
)
from model_oracles import (
    apply_isometry_point,
    dist_uhp,
    from_uhp,
    isometry_from_frames,
    lorentz_cross_ref,
    parallel_transport,
)

finite_coord = st.floats(min_value=-3.0, max_value=3.0,
                         allow_nan=False, allow_infinity=False)


def _random_point(rng) -> Point:
    v = rng.normal(size=2) * 1.5
    return exp_map(ORIGIN, np.array([0.0, v[0], v[1]]))


def test_origin_is_on_sheet():
    assert minkowski(ORIGIN.v, ORIGIN.v) == pytest.approx(-1.0, abs=1e-15)
    assert frame_defect(ORIGIN_FRAME) < 1e-15


def test_frame_check_is_relative_to_coordinate_size():
    # an exact frame 7.67 units out has a Gram defect above 1e-9 from
    # roundoff alone, and still loads
    ch, sh = math.cosh(7.67), math.sinh(7.67)
    c, s = math.cos(0.7), math.sin(0.7)
    rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    boost = np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])
    g = rot @ boost @ rot.T
    f = Frame.create(g[:, 0], g[:, 1])
    assert frame_defect(f) > 1e-9
    # the bound grows like cosh(d)^2: 1e-9 at the origin, 1.1e-3 here
    with pytest.raises(ValueError):
        Frame.create(np.array([1.0, 0.0, 0.0]),
                     np.array([0.0, 1.0 + 1e-8, 0.0]))
    with pytest.raises(ValueError):
        Frame.create(g[:, 0], g[:, 1] * (1.0 + 1e-2))
    with pytest.raises(ValueError):
        Frame.create(np.array([math.nan, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))


def test_point_validation_rejects_off_sheet():
    with pytest.raises(ValueError):
        Point.from_array(np.array([1.0, 0.5, 0.0]))


def test_dist_exp_map_consistency():
    rng = np.random.default_rng(11)
    for _ in range(50):
        p = _random_point(rng)
        # unit tangent at p from a random direction
        w = rng.normal(size=3)
        w = w + minkowski(w, p.v) * p.v
        w = w / math.sqrt(minkowski(w, w))
        s = rng.uniform(0.01, 4.0)
        q = exp_map(p, s * w)
        assert dist(p, q) == pytest.approx(s, abs=1e-9)


def test_dist_symmetry_and_identity():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a, b = _random_point(rng), _random_point(rng)
        assert dist(a, b) == pytest.approx(dist(b, a), abs=1e-12)
        assert dist(a, a) <= 1e-6  # acosh noise floor near 1


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_dist_agrees_across_models(seed):
    rng = np.random.default_rng(seed)
    a, b = _random_point(rng), _random_point(rng)
    d_hyp = dist(a, b)
    d_dsk = dist_disk(to_disk(a), to_disk(b))
    d_uhp = dist_uhp(to_uhp(a), to_uhp(b))
    assert abs(d_hyp - d_dsk) < 1e-9
    assert abs(d_hyp - d_uhp) < 1e-9


def test_model_round_trips():
    rng = np.random.default_rng(7)
    for _ in range(40):
        p = _random_point(rng)
        q = from_disk(to_disk(p))
        assert np.allclose(p.v, q.v, atol=1e-12)
        q = from_uhp(to_uhp(p))
        assert np.allclose(p.v, q.v, atol=1e-11)


def test_parallel_transport_is_isometric():
    rng = np.random.default_rng(19)
    for _ in range(30):
        a, b = _random_point(rng), _random_point(rng)
        u = rng.normal(size=3)
        u = u + minkowski(u, a.v) * a.v
        w = rng.normal(size=3)
        w = w + minkowski(w, a.v) * a.v
        ut = parallel_transport(u, a, b)
        wt = parallel_transport(w, a, b)
        assert minkowski(ut, wt) == pytest.approx(minkowski(u, w),
                                                  rel=1e-9, abs=1e-10)
        # result is tangent at b
        assert abs(minkowski(ut, b.v)) < 1e-10


def test_isometry_from_frames_maps_exactly():
    rng = np.random.default_rng(23)
    g0 = random_isometry(rng)
    src = ORIGIN_FRAME
    dst = Frame(g0 @ src.m)
    g = isometry_from_frames(src, dst)
    assert np.allclose(g @ src.m, dst.m, atol=1e-12)


def test_random_isometry_preserves_minkowski():
    rng = np.random.default_rng(5)
    eta = np.diag([-1.0, 1.0, 1.0])
    for _ in range(20):
        g = random_isometry(rng)
        assert np.allclose(g.T @ eta @ g, eta, atol=1e-12)
        p = _random_point(rng)
        q = apply_isometry_point(g, p)
        assert minkowski(q.v, q.v) == pytest.approx(-1.0, abs=1e-12)


def test_classify_curvature_kinds():
    assert classify_curvature(0.0).kind is CurveKind.GEODESIC
    assert classify_curvature(0.5).kind is CurveKind.HYPERCIRCLE
    assert classify_curvature(1.0).kind is CurveKind.HOROCYCLE
    assert classify_curvature(1.0 + 1e-13).kind is CurveKind.HOROCYCLE
    assert classify_curvature(2.0).kind is CurveKind.CIRCLE
    with pytest.raises(ValueError):
        classify_curvature(-0.5)


def test_fermi_point_is_on_sheet():
    for s in (-2.0, 0.0, 1.3):
        for t in (-1.0, 0.0, 0.7):
            p = fermi_point(s, t)
            assert minkowski(p.v, p.v) == pytest.approx(-1.0, abs=1e-12)
    # t is the distance to the axis geodesic (normal (0,0,1))
    p = fermi_point(0.8, 0.6)
    assert math.asinh(abs(p.v[2])) == pytest.approx(0.6, abs=1e-12)


# --- hypercircle parameter lemmas ------------------------------------------

def test_hypercircle_angle_to_curvature():
    assert hypercircle_curvature_from_angle(math.pi / 3) == \
        pytest.approx(0.5, abs=1e-12)


def test_hypercircle_angle_to_distance():
    # beta = pi/3 gives R = (1/2) ln 3
    assert hypercircle_distance_from_angle(math.pi / 3) == \
        pytest.approx(0.5 * math.log(3.0), abs=1e-12)
    assert hypercircle_distance_from_angle(0.2) == \
        pytest.approx(2.2992439599460308, abs=1e-12)


def test_sausage_side_curvature_is_reciprocal():
    assert sausage_side_curvature(2.0) == pytest.approx(0.5, abs=1e-12)
    assert sausage_side_curvature(5.0) == pytest.approx(0.2, abs=1e-12)
    with pytest.raises(ValueError):
        sausage_side_curvature(1.0)


def test_curvature_scaled_values():
    # c=1 reduces to tanh R
    assert curvature_scaled(1.0, 0.549306) == \
        pytest.approx(math.tanh(0.549306), abs=1e-12)
    assert curvature_scaled(2.0, 0.3) == \
        pytest.approx(1.0740991339960706, abs=1e-12)


@given(st.floats(min_value=0.02, max_value=math.pi / 2 - 0.02))
@settings(max_examples=100, deadline=None)
def test_hypercircle_identities_pairwise(beta):
    # the three parameterizations of one hypercircle must agree
    kap = hypercircle_curvature_from_angle(beta)
    big_r = hypercircle_distance_from_angle(beta)
    assert abs(kap - math.cos(beta)) < 1e-12
    assert abs(math.tanh(big_r) - kap) < 1e-12
    assert abs(curvature_scaled(1.0, big_r) - kap) < 1e-12
    assert abs(disk_curvature_at_origin(2.0 * math.cos(beta)) - kap) < 1e-12
    lam = 1.0 / kap
    assert abs(sausage_side_curvature(lam) - kap) < 1e-12


def test_lorentz_cross_is_eta_times_np_cross_bit_for_bit():
    # the cross is written out term by term; each component must be
    # np.cross's, component 0 negated, on every broadcast shape, signed
    # zeros included, and negating component 0 back gives np.cross
    rng = np.random.default_rng(41)
    eta = np.array([-1.0, 1.0, 1.0])
    for sa, sb in (((3,), (3,)), ((7, 3), (7, 3)), ((5, 4, 3), (5, 4, 3)),
                   ((7, 3), (3,)), ((5, 1, 3), (4, 3))):
        a, b = rng.normal(size=sa), rng.normal(size=sb)
        a.reshape(-1)[::4] = 0.0
        b.reshape(-1)[1::5] = -0.0
        b.reshape(-1)[::7] = 0.0
        want = eta * np.cross(a, b)
        got = lorentz_cross(a, b)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == lorentz_cross_ref(a, b).tobytes()
        assert (eta * got).tobytes() == np.cross(a, b).tobytes()
