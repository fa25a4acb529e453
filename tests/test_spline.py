"""Arc chains: Frenet transport, closure, measures, splitting, simplicity."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypiso.geom import (
    ORIGIN_FRAME,
    Frame,
    Point,
    apply_isometry_frame,
    dist,
    frame_defect,
    minkowski,
    lorentz_cross,
    to_disk,
    to_uhp,
)
from hypiso.render import _view_arcs
from hypiso.spline import (
    Arc,
    ArcSpline,
    GeometryError,
    arc_points,
    arc_transports,
    frenet_matrix,
    _arc_generators,
    _arc_pairs,
    _c3,
    _closure_gaps,
    _kernel,
    _walk,
)

from model_oracles import (
    arc_frames_ref,
    byte_identity_corpus,
    focal_witness_ref,
    sample_frames_ref,
    view_arc_ref,
    winds_past_full_turn_ref,
)
from polygonal_area import area_polygonal

ETA = np.diag([-1.0, 1.0, 1.0])


def _arc_matrix(kappa, length):
    """exp(length M(kappa)), one arc's transport from the stacked builder."""
    return arc_transports([kappa], [length])[0][0]


def _transport(f, kappa, length):
    """Frame f carried along one arc."""
    return Frame(f.m @ _arc_matrix(kappa, length))


@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=1e-6, max_value=4.0))
@settings(max_examples=120, deadline=None)
def test_arc_matrix_is_lorentz(kappa, length):
    g = _arc_matrix(kappa, length)
    assert np.max(np.abs(g.T @ ETA @ g - ETA)) < 1e-11


def test_arc_matrix_series_branch_matches_expm():
    from scipy.linalg import expm
    # alpha*s^2 below the series cutoff, and just above it
    for kappa in (1.0, 1.0 + 5e-9, 0.999999, 1.000001):
        for s in (1e-5, 1e-3, 0.5):
            direct = expm(s * frenet_matrix(kappa))
            assert np.max(np.abs(_arc_matrix(kappa, s) - direct)) < 1e-12


def test_transport_zero_curvature_is_geodesic():
    f = _transport(ORIGIN_FRAME, 0.0, 1.7)
    assert dist(ORIGIN_FRAME.point, f.point) == pytest.approx(1.7, abs=1e-12)
    assert frame_defect(f) < 1e-12


def test_transport_circle_returns_home():
    # kappa > 1 traces a circle of radius atanh(1/kappa)
    kappa = 2.0
    circ = 2.0 * math.pi * math.sinh(math.atanh(1.0 / kappa))
    f = _transport(ORIGIN_FRAME, kappa, circ)
    assert ArcSpline(ORIGIN_FRAME, [Arc(kappa, circ)],
                     closure_tol=math.inf).closure_residual() < 1e-12
    assert np.max(np.abs(f.m - ORIGIN_FRAME.m)) < 1e-12


def test_transport_hypercircle_endpoint():
    # kappa = tanh(h) runs parallel to a geodesic at distance h; covering
    # base length d costs arclength d*cosh(h)
    h, d = 0.5, 1.0
    ell = d * math.cosh(h)
    u = np.array([math.sinh(h), 0.0, math.cosh(h)])  # core geodesic normal
    feet = []
    for s in (0.0, ell / 3.0, ell):
        p = _transport(ORIGIN_FRAME, math.tanh(h), s).point
        assert minkowski(p.v, u) == pytest.approx(-math.sinh(h), abs=1e-12)
        feet.append(Point.from_array(
            (p.v + math.sinh(h) * u) / math.cosh(h), validate=False))
    assert dist(feet[0], feet[2]) == pytest.approx(d, abs=1e-12)


def test_transport_composes():
    rng = np.random.default_rng(2)
    for _ in range(20):
        kappa = rng.uniform(-2, 2)
        s1, s2 = rng.uniform(0.1, 2.0, size=2)
        two_step = _transport(_transport(ORIGIN_FRAME, kappa, s1), kappa, s2)
        one_step = _transport(ORIGIN_FRAME, kappa, s1 + s2)
        assert np.max(np.abs(two_step.m - one_step.m)) < 1e-12


def test_transport_coeffs_match_trig():
    # alpha = 1 - kappa^2 > 0: boost-like (open curves); < 0: periodic
    c1, c2 = _kernel(0.0, 1.3)  # alpha = 1, a geodesic
    assert c1 == pytest.approx(math.sinh(1.3), abs=1e-14)
    assert c2 == pytest.approx(math.cosh(1.3) - 1.0, abs=1e-14)
    c1, c2 = _kernel(math.sqrt(2.0), 0.7)  # alpha = -1, a circle
    assert c1 == pytest.approx(math.sin(0.7), abs=1e-15)
    assert c2 == pytest.approx(1.0 - math.cos(0.7), abs=1e-15)


# one array mixing every regime: circles, hypercircles, a geodesic, a
# concave circle, and the horocycle band on both sides of kappa = 1
_MIXED_KAPPAS = np.array([2.0, 1.3, 0.5, 0.0, -1.7, -0.4, 1.0,
                          1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-5, 0.99999])
_MIXED_LENGTHS = np.array([1.1, 2.5, 0.8, 1.6, 0.4, 1.2, 0.9,
                           1.3, 0.7, 1e-3, 2.0])


def _series(kappa, s):
    """The Taylor polynomials of (c1, c2) in x = alpha s^2."""
    x = (1.0 - kappa * kappa) * s * s
    return (s * (1.0 + x / 6.0 + x * x / 120.0),
            s * s * (0.5 + x / 24.0 + x * x / 720.0))


def _scalar_coeffs(kappa, s):
    """Closed forms per regime; the band uses its Taylor polynomial."""
    alpha = 1.0 - kappa * kappa
    if abs(alpha * s * s) < 1e-8:
        return _series(kappa, s)
    if alpha > 0.0:
        mu = math.sqrt(alpha)
        return math.sinh(mu * s) / mu, (math.cosh(mu * s) - 1.0) / alpha
    w = math.sqrt(-alpha)
    return math.sin(w * s) / w, (1.0 - math.cos(w * s)) / -alpha


def test_transport_coeffs_mixed_array_matches_scalar_closed_forms():
    c1, c2 = _kernel(_MIXED_KAPPAS, _MIXED_LENGTHS)
    for i, (k, s) in enumerate(zip(_MIXED_KAPPAS, _MIXED_LENGTHS)):
        ref = _scalar_coeffs(k, s)
        for got, want in zip((c1[i], c2[i]), ref):
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    # one curvature against many arclengths, zero and band-small included
    s = np.array([0.0, 1e-9, 1e-5, 0.3, 2.0])
    for k in (0.5, 1.0, 1.0 + 1e-9, 1.5):
        c1, c2 = _kernel(k, s)
        for j, sj in enumerate(s):
            ref = _scalar_coeffs(k, sj)
            for got, want in zip((c1[j], c2[j]), ref):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
        # each element is computed alone: layout and batch do not matter
        grid = np.tile(s, (3, 1))
        for view in (grid, np.asfortranarray(grid), grid[:, ::-1].T):
            for got, want in zip(_kernel(k, view),
                                 _kernel(k, np.ascontiguousarray(view))):
                assert np.array_equal(got, want)
            for got, flat in zip(_kernel(k, view), (c1, c2)):
                assert set(np.ravel(got)) == set(flat)


def test_kernel_at_the_horocycle_band_is_its_series_without_warnings():
    # kappa = +-1 exactly (alpha = 0) has no closed form and takes the
    # series, as do kappa = 1 +- 1e-12 at these lengths.  The freed
    # buffers of 1e300 fill numpy's cache of small buffers, which the
    # call's arrays reuse: a slot read before it is written squares to
    # an overflow warning
    kappas = np.array([1.0, -1.0, 1.0 + 1e-12, 1.0 - 1e-12, 2.0, 0.5])
    s = np.linspace(0.1, 3.0, 7)
    want = _series(kappas[:4, None], s)
    flat = np.repeat(kappas, s.size), np.tile(s, kappas.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k, ss in (flat, (kappas[:, None], s)):
            for _ in range(50):
                junk = [np.full(flat[1].shape, 1e300) for _ in range(8)]
                del junk
                for got, w in zip(_kernel(k, ss), want):
                    assert got.reshape(kappas.size, s.size)[:4].tobytes() \
                        == w.tobytes()


def test_arc_end_coefficients_match_a_long_row_bit_for_bit():
    # distance queries evaluate the two arc ends once per arc; their
    # coefficients must be the entries a long row of queries holds
    rng = np.random.default_rng(17)
    kappas = (2.0, 1.3, 0.5, 0.0, -0.7, 1.0, 1.0 + 1e-9, 1.0 - 1e-9)
    for k in kappas:
        for length in (1e-5, 0.7, 4.0, 9.0):
            row = rng.uniform(0.0, length, 4099)
            where = [0, 1, 1000, 4097, 4098]
            row[where] = (0.0, length, 0.0, length, length)
            full = _kernel(k, row)
            ends = _kernel(k, np.array([0.0, length]))
            for got, want in zip(ends, full):
                for j in where:
                    assert got[0 if row[j] == 0.0 else 1].tobytes() \
                        == want[j].tobytes()
            for got, want in zip(_kernel(k, np.array([length])), full):
                assert got[0].tobytes() == want[1].tobytes()


def test_stacked_c12_matches_one_curvature_calls_bit_for_bit():
    # distance queries against a chain evaluate every arc's roots in one
    # call, one curvature per element; each element must be what its
    # arc's own one-curvature call gives, in every regime: circles,
    # hypercircles, geodesics, the horocycle band on both sides and at
    # alpha = 0, the series at small nonzero |x|, and s = 0
    rng = np.random.default_rng(29)
    kappas = np.array([2.0, 1.3, 0.5, 0.0, -0.7, -2.5, 1.0, -1.0,
                       1.0 + 3e-12, 1.0 - 4e-12, 1.0 + 1e-9, 40.0])
    s = rng.uniform(0.0, 3.0, (len(kappas), 3, 257))
    s[:, 0, :5] = (0.0, 1e-9, 1e-6, 3e-5, 1e-300)
    want = [_kernel(k, row) for k, row in zip(kappas, s)]
    for got in (_kernel(kappas[:, None, None], s),
                _kernel(np.repeat(kappas, s[0].size), s.reshape(-1))):
        for g, w in zip(got, zip(*want)):
            assert g.tobytes() == np.stack(w).tobytes()
    # one family throughout, as for a stack of circle arcs
    circles = kappas > 1.0 + 1e-6
    got = _kernel(kappas[circles, None, None], s[circles])
    for g, w in zip(got, zip(*[want[i] for i in np.flatnonzero(circles)])):
        assert g.tobytes() == np.stack(w).tobytes()


def test_arc_transports_of_a_stack_match_row_by_row_calls_bit_for_bit():
    # restoration evaluates its line-search trials as one (m, n) stack
    # and takes the Jacobian of the accepted row from its coefficients;
    # each row must be what its chain gives alone.  Rows mix every
    # regime in a different order and at lengths halved row by row, so
    # arcs near kappa = 1 move into the series bands of the kernel and
    # of the kappa-derivatives; kappa = 1 itself is in every row
    rng = np.random.default_rng(18)
    m = 9
    kap = np.stack([rng.permutation(_MIXED_KAPPAS) for _ in range(m)])
    lon = _MIXED_LENGTHS * 0.5 ** np.arange(m)[:, None]
    mats, coeffs = arc_transports(kap, lon)
    assert mats.shape == (m, len(_MIXED_KAPPAS), 3, 3)
    for i in range(m):
        row, row_coeffs = arc_transports(kap[i], lon[i])
        assert mats[i].tobytes() == row.tobytes()
        for got, want in zip(coeffs, row_coeffs):
            assert got[i].tobytes() == want.tobytes()


def test_closure_gap_reads_position_and_tangent():
    # a rotation about the origin keeps the point and turns the tangent
    # by th, a gap of 2 sin(th / 2); a boost along the tangent moves the
    # point d, a gap of 2 sinh(d / 2), and carries the tangent parallel
    th = np.array([0.0, 1e-6, 0.3, 2.0])
    c, s = np.cos(th), np.sin(th)
    rot = np.zeros((th.size, 3, 3))
    rot[:, 0, 0] = 1.0
    rot[:, 1, 1], rot[:, 1, 2], rot[:, 2, 1], rot[:, 2, 2] = c, -s, s, c
    d = np.array([1e-6, 0.5, 3.0])
    ch, sh = np.cosh(d), np.sinh(d)
    boost = np.zeros((d.size, 3, 3))
    boost[:, 0, 0], boost[:, 0, 1], boost[:, 1, 0], boost[:, 1, 1] = \
        ch, sh, sh, ch
    boost[:, 2, 2] = 1.0
    ends = np.concatenate([rot, boost])
    gaps = _closure_gaps(ends)
    want = np.concatenate([2.0 * np.sin(th / 2.0), 2.0 * np.sinh(d / 2.0)])
    assert np.allclose(gaps, want, rtol=1e-9, atol=1e-15)
    # elementwise over the stack: each gap is its end frame's alone
    for end, gap in zip(ends, gaps):
        assert _closure_gaps(end) == gap


def test_walk_of_a_stack_is_each_chain_walked_alone():
    rng = np.random.default_rng(8)
    kap = rng.uniform(-3.0, 3.0, size=(4, 7))
    lon = rng.uniform(0.01, 2.0, size=(4, 7))
    walk = _walk(arc_transports(kap, lon)[0])
    assert walk.shape == (8, 4, 3, 3)
    for i in range(4):
        alone = _walk(arc_transports(kap[i], lon[i])[0])
        assert walk[:, i].tobytes() == alone.tobytes()
        arcs = [Arc(k, l) for k, l in zip(kap[i], lon[i])]
        spline = ArcSpline(ORIGIN_FRAME, arcs, closure_tol=math.inf)
        assert spline.origin_frames.tobytes() == alone.tobytes()
        # the plain product, one arc at a time
        m = np.eye(3)
        for k, l in zip(kap[i], lon[i]):
            m = m @ _arc_matrix(k, l)
        assert np.allclose(alone[-1], m, rtol=1e-12, atol=1e-12)


def test_arc_matrices_match_expm():
    from scipy.linalg import expm
    A = arc_transports(_MIXED_KAPPAS, _MIXED_LENGTHS)[0]
    assert A.shape == (len(_MIXED_KAPPAS), 3, 3)
    for i, (k, s) in enumerate(zip(_MIXED_KAPPAS, _MIXED_LENGTHS)):
        direct = expm(s * frenet_matrix(k))
        assert np.max(np.abs(A[i] - direct)
                      / np.maximum(1.0, np.abs(direct))) < 1e-12
        # the single-arc view is the same stacked builder
        assert np.array_equal(_arc_matrix(k, s), A[i])


# _MIXED plus kappa = -1, a geodesic, horocycle and concave arcs, and
# circles past a half turn (kappa = 2 turns pi at length 1.81, kappa =
# 1.3 at 3.78)
_GEN_KAPPAS = np.concatenate([_MIXED_KAPPAS, [-1.0, 0.0, 1.0, -2.5, 2.0, 1.3]])
_GEN_LENGTHS = np.concatenate([_MIXED_LENGTHS, [1.4, 0.3, 3.0, 0.6, 3.2, 4.0]])


def _lie(v):
    """X(v), the matrix of x -> v [x] x, the Lorentz cross."""
    return lorentz_cross(v, np.eye(3)).T


def test_arc_generators_match_central_differences():
    # dA/dkappa A^-1 = X(u), and A^-1 = eta A^T eta for a Lorentz A
    A, coeffs = arc_transports(_GEN_KAPPAS, _GEN_LENGTHS)
    uv = _arc_generators(coeffs)
    assert uv.shape == (len(_GEN_KAPPAS), 3, 2)
    h = 1e-6
    fd = (arc_transports(_GEN_KAPPAS + h, _GEN_LENGTHS)[0]
          - arc_transports(_GEN_KAPPAS - h, _GEN_LENGTHS)[0]) / (2.0 * h)
    for i, k in enumerate(_GEN_KAPPAS):
        want = fd[i] @ ETA @ A[i].T @ ETA
        got = _lie(uv[i, :, 0])
        scale = np.maximum(1.0, np.abs(got))
        assert np.max(np.abs(got - want) / scale) < 1e-7, k
        # M = X(v) exactly, and the length derivative is X(v) A = A M
        assert np.array_equal(_lie(uv[i, :, 1]), frenet_matrix(k))
        assert np.array_equal(uv[i, :, 1], [k, 0.0, 1.0])


def _c3_series(s, x, terms=20):
    """s^3 times the sum of x^j / (2j + 3)!, j < terms."""
    return s ** 3 * sum(x ** j / math.factorial(2 * j + 3)
                        for j in range(terms))


def test_c3_matches_its_series_across_the_switch():
    # |x| = |alpha s^2| from 1e-12 to 1, hypercircles and circles, the
    # closed form above |x| = 0.1 and the series below it
    s = 1.5
    mags = np.logspace(-12.0, 0.0, 97)
    x = np.concatenate([mags, -mags])
    alpha = x / (s * s)
    for sign in (1.0, -1.0):
        kappa = sign * np.sqrt(1.0 - alpha)
        c1, _ = _kernel(kappa, s)
        x_k = (1.0 - kappa * kappa) * s * s
        got = _c3(kappa, np.full(x.size, s), c1)
        want = np.array([_c3_series(s, v) for v in x_k])
        # measured 4.4e-15, at |x| = 0.1 on the closed-form side
        assert np.max(np.abs(got - want) / want) < 1e-14
    # x = 0 (kappa = +-1, or s = 0) is the series' first term alone
    got = _c3(np.array([1.0, -1.0, 0.5]), np.array([0.7, 0.7, 0.0]),
              np.array([0.7, 0.7, 0.0]))
    assert got.tolist() == [0.7 ** 3 / 6.0, 0.7 ** 3 / 6.0, 0.0]


def test_chain_sampling_matches_the_per_arc_reference_bit_for_bit():
    # one kernel call per chain and one frame product per row of samples
    # must give what one kernel call and one frame product per arc gave:
    # samples, arc points, the rolling witness and render's arc points,
    # on the corpus and the snapped core of sausage(2, 1)
    from hypiso.bodies import offset, rolls_freely, sausage
    core = offset(sausage(2.0, 1.0), -math.atanh(0.5))
    assert core.meta["degenerate_caps"]
    bodies = [body for _, body in byte_identity_corpus()] + [core]
    focal = 0
    for body in bodies:
        spline = body.boundary
        for n in (1, 4, 64, 256, 720):
            for got, want in zip(spline.sample_frames(n),
                                 sample_frames_ref(spline, n)):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        for f, a in zip(spline.frames, spline.arcs):
            for s in (np.linspace(0.0, a.length, 7), np.array([0.5]),
                      a.length / 3.0):
                got, want = arc_points(f, a.kappa, s), arc_frames_ref(
                    f, a.kappa, s)[0]
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
        for model, to_view in (("disk", to_disk), ("uhp", to_uhp)):
            assert _view_arcs(body, model) == [
                view_arc_ref(f, a, to_view)
                for f, a in zip(spline.frames, spline.arcs)]
        if body.convex:
            for lam in (1.5, 2.0, 3.0):
                rep = rolls_freely(body, lam)
                top = int(np.argmax([a.kappa for a in spline.arcs]))
                if rep.binding_arcs != (top, top):
                    continue
                focal += 1
                center, point = focal_witness_ref(body, lam)
                assert rep.witness_center.v.tobytes() == center.tobytes()
                assert rep.witness_point.v.tobytes() == point.tobytes()
    assert focal > 100


def test_arc_points_on_sheet():
    s = np.linspace(0.0, 2.0, 9)
    pts = arc_points(ORIGIN_FRAME, 0.8, s)
    norms = np.einsum("ij,ij->i", pts @ ETA, pts)
    assert np.max(np.abs(norms + 1.0)) < 1e-12


def test_arc_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Arc(1.0, -0.5)
    with pytest.raises(ValueError):
        Arc(math.nan, 1.0)


def _circle_spline(r: float) -> ArcSpline:
    kappa = 1.0 / math.tanh(r)
    return ArcSpline(ORIGIN_FRAME, (Arc(kappa, 2.0 * math.pi * math.sinh(r)),))


def test_spline_rejects_unclosed_chain():
    with pytest.raises(GeometryError):
        ArcSpline(ORIGIN_FRAME, (Arc(0.0, 1.0),))
    # same chain is fine as an open diagnostic object
    open_chain = ArcSpline(ORIGIN_FRAME, (Arc(0.0, 1.0),),
                           closure_tol=math.inf)
    assert open_chain.closure_residual() > 1.0


def test_circle_measures_against_closed_forms():
    r = 0.9
    s = _circle_spline(r)
    assert s.perimeter() == pytest.approx(2 * math.pi * math.sinh(r), abs=1e-12)
    assert s.area_gauss_bonnet() == pytest.approx(
        2 * math.pi * (math.cosh(r) - 1.0), abs=1e-12)


def test_polygonal_area_agrees_with_gauss_bonnet():
    s = _circle_spline(1.2)
    a_gb = s.area_gauss_bonnet()
    assert area_polygonal(s, 20_000) == pytest.approx(a_gb, abs=1e-6)


def test_split_preserves_curve():
    s = _circle_spline(0.7)
    t = s.split(0, 1.0)
    assert len(t.arcs) == 2
    assert t.perimeter() == pytest.approx(s.perimeter(), abs=1e-15)
    assert t.area_gauss_bonnet() == pytest.approx(s.area_gauss_bonnet(), abs=1e-12)
    assert t.closure_residual() < 1e-9
    with pytest.raises(ValueError):
        s.split(0, s.arcs[0].length)


def test_thickness_certificate():
    s = _circle_spline(0.7)
    kappa = s.arcs[0].kappa  # coth 0.7 ~ 1.655
    good = s.check_thickness(2.0)
    assert good.ok and good.min_kappa == pytest.approx(kappa)
    bad = s.check_thickness(1.5)
    assert not bad.ok
    assert bad.violations[0][2] == "upper"
    with pytest.raises(ValueError):
        s.check_thickness(1.0)


def test_sample_frames_structure():
    s = _circle_spline(1.0).split(0, 2.0)
    pts, tans, nors, idxs, locs = s.sample_frames(64)
    assert len(pts) >= 64
    assert set(np.unique(idxs)) == {0, 1}
    # frames stay orthonormal along the samples
    assert np.max(np.abs(np.einsum("ij,ij->i", pts @ ETA, tans))) < 1e-10
    assert np.max(np.abs(np.einsum("ij,ij->i", tans @ ETA, tans) - 1.0)) < 1e-10
    assert np.max(np.abs(np.einsum("ij,ij->i", pts @ ETA, nors))) < 1e-10


def test_json_round_trip_is_exact():
    s = _circle_spline(0.8).split(0, 1.5)
    t = ArcSpline.from_json_dict(s.to_json_dict())
    assert [a.kappa for a in t.arcs] == [a.kappa for a in s.arcs]
    assert [a.length for a in t.arcs] == [a.length for a in s.arcs]
    assert np.allclose(t.start.m, s.start.m, atol=1e-12)
    with pytest.raises(ValueError):
        ArcSpline.from_json_dict({"arcs": []})


def test_simplicity_verdicts():
    from hypiso.bodies import sausage, two_ball_hull, offset
    assert sausage(2.0, 1.0).boundary.is_simple()
    hull = two_ball_hull(math.atanh(0.5), 1.0)
    assert hull.boundary.is_simple()
    # eroding the hull past its waist pinches the boundary
    pinched = offset(hull, -0.4, check_simple=False)
    assert not pinched.boundary.is_simple()


def test_arc_turning_more_than_once_is_not_simple():
    r = 0.8
    kappa = 1.0 / math.tanh(r)
    one_turn = 2.0 * math.pi * math.sinh(r)
    assert _circle_spline(r).is_simple()
    # the same circle run twice closes too, but overlaps itself
    twice = ArcSpline(ORIGIN_FRAME, (Arc(kappa, 2.0 * one_turn),))
    assert twice.closure_residual() < 1e-9
    assert not twice.is_simple()
    # a doubly wound arc inside a longer chain is caught as well
    wound = ArcSpline(ORIGIN_FRAME, (Arc(kappa, 1.5 * one_turn),
                                     Arc(kappa, 0.5 * one_turn)))
    assert not wound.is_simple()


# ── the disk-view sweep, oracle of the simplicity verdicts ────────────────
# Every arc maps to a Euclidean circle arc or chord in the Poincare disk,
# where planar predicates find the points two of them share.

def _on_span(arc, angle: float, pad: float = 1e-12) -> bool:
    u = ((angle - arc.a0) * math.copysign(1.0, arc.sweep)) % (2.0 * math.pi)
    if u > math.pi * 2.0 - pad:
        u = 0.0
    return u <= abs(arc.sweep) + pad


def _arc_point_angle(arc, z: complex) -> float:
    return math.atan2((z - arc.center).imag, (z - arc.center).real)


def _circle_circle(c1, r1, c2, r2):
    d = abs(c2 - c1)
    if d < 1e-15:
        return []
    a = (d * d + r1 * r1 - r2 * r2) / (2.0 * d)
    h2 = r1 * r1 - a * a
    if h2 < -1e-20:
        return []
    h = math.sqrt(max(h2, 0.0))
    u = (c2 - c1) / d
    base = c1 + a * u
    v = complex(-u.imag, u.real)
    if h < 1e-15:
        return [base]
    return [base + h * v, base - h * v]


def _circle_segment(c, r, p, q):
    d = q - p
    L2 = abs(d) ** 2
    if L2 < 1e-30:
        return []
    f = p - c
    b = 2.0 * (f.real * d.real + f.imag * d.imag)
    cc = abs(f) ** 2 - r * r
    disc = b * b - 4.0 * L2 * cc
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    return [p + t * d for t in ((-b - sq) / (2.0 * L2), (-b + sq) / (2.0 * L2))
            if -1e-12 <= t <= 1.0 + 1e-12]


def _segment_segment(p1, q1, p2, q2):
    d1 = q1 - p1
    d2 = q2 - p2
    denom = d1.real * d2.imag - d1.imag * d2.real
    if abs(denom) < 1e-18:
        return []
    dp = p2 - p1
    t = (dp.real * d2.imag - dp.imag * d2.real) / denom
    u = (dp.real * d1.imag - dp.imag * d1.real) / denom
    if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
        return [p1 + t * d1]
    return []


def _pair_intersections(a, b):
    """Points two disk arcs share (span-checked)."""
    if a.is_segment and b.is_segment:
        return _segment_segment(a.z0, a.z1, b.z0, b.z1)
    if a.is_segment or b.is_segment:
        seg, arc = (a, b) if a.is_segment else (b, a)
        pts = _circle_segment(arc.center, arc.radius, seg.z0, seg.z1)
        return [z for z in pts if _on_span(arc, _arc_point_angle(arc, z))]
    if (abs(a.center - b.center) < 1e-12
            and abs(a.radius - b.radius) < 1e-12):
        # same supporting circle: overlap beyond a point means non-simple
        for frac in (0.25, 0.5, 0.75):
            ang = a.a0 + a.sweep * frac
            if _on_span(b, ang, pad=1e-9):
                return [a.center + a.radius * complex(math.cos(ang),
                                                      math.sin(ang))]
        return []
    return [z for z in _circle_circle(a.center, a.radius, b.center, b.radius)
            if _on_span(a, _arc_point_angle(a, z))
            and _on_span(b, _arc_point_angle(b, z))]


def _disk_view_is_simple(s: ArcSpline, join_tol: float = 1e-9) -> bool:
    """The pairwise disk-view sweep over the chain walked from the origin."""
    if any(winds_past_full_turn_ref(a) for a in s.arcs):
        return False
    arcs = [view_arc_ref(Frame(m), a, to_disk)
            for m, a in zip(s.origin_frames, s.arcs)]
    n = len(arcs)
    for i in range(n):
        for j in range(i + 1, n):
            pts = _pair_intersections(arcs[i], arcs[j])
            if j == i + 1 or (i == 0 and j == n - 1):
                shared = arcs[i].z1 if j == i + 1 else arcs[i].z0
                if any(abs(z - shared) > join_tol for z in pts):
                    return False
            elif pts:
                return False
    return True


def _moved(s: ArcSpline, distance: float, angle: float) -> ArcSpline:
    c, sn = math.cos(angle), math.sin(angle)
    rot = np.array([[1.0, 0.0, 0.0], [0.0, c, -sn], [0.0, sn, c]])
    ch, sh = math.cosh(distance), math.sinh(distance)
    boost = np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])
    return ArcSpline(apply_isometry_frame(boost @ rot, s.start), s.arcs,
                     closure_tol=math.inf)


@pytest.fixture(scope="module")
def convex_chains():
    """Closed chains with kappa >= 0 everywhere, simple or not."""
    from hypiso.bodies import q_counterexample, sausage, two_ball_hull
    from hypiso.optimize import random_thick_body
    # every chain random_thick_body judges, the redrawn ones included;
    # (2, 80) winds one arc twice, (3, 26), (3, 39), (3, 65) turn twice,
    # and (2, 25) run backwards has two curves meet on the lower sheet
    # at parameters inside both arcs
    drawn = []
    judge = ArcSpline.is_simple
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ArcSpline, "is_simple",
                   lambda self: drawn.append(self) or judge(self))
        for lam, seeds in ((1.5, range(1, 21)),
                           (2.0, [*range(1, 21), 25, 80]),
                           (3.0, [*range(1, 21), 26, 39, 65])):
            for seed in seeds:
                random_thick_body(lam, 12, seed)
    chains = list(drawn)
    chains += [sausage(lam, d).boundary for lam in (1.5, 2.0, 3.0)
               for d in (0.0, 0.3, 1.0, 2.0)]
    chains += [q_counterexample(lam, e).boundary
               for lam, e in ((2.0, 0.1), (2.0, 0.2), (3.0, 0.1))]
    # a convex chain traversed twice closes and turns twice
    for s in (sausage(2.0, 1.0).boundary, drawn[0]):
        chains.append(ArcSpline(ORIGIN_FRAME, s.arcs * 2))
    # one circle as a single arc, as a 99.9 % arc and a 0.1 % arc, and
    # run twice as two arcs of one full turn each
    circle = _circle_spline(0.8)
    chains += [circle, circle.split(0, 0.999 * circle.arcs[0].length),
               ArcSpline(ORIGIN_FRAME, circle.arcs * 2)]
    # two_ball_hull bodies hold geodesic (kappa = 0) arcs and major arcs
    rng = np.random.default_rng(16)
    chains += [two_ball_hull(r, d).boundary for r, d in
               zip(rng.uniform(0.2, 1.5, 500), rng.uniform(0.05, 2.0, 500))]
    assert all(min(a.kappa for a in s.arcs) >= 0.0 for s in chains)
    return chains


def _reversed(s: ArcSpline) -> ArcSpline:
    """The chain run backwards: the normal flips, and with it kappa."""
    return ArcSpline(ORIGIN_FRAME, tuple(Arc(-a.kappa, a.length)
                                         for a in reversed(s.arcs)),
                     closure_tol=1e-8)


@pytest.fixture(scope="module")
def concave_chains(convex_chains):
    """Closed chains with a concave arc (kappa < 0), simple or not."""
    from test_bodies import _ERODED_HULLS
    from hypiso.bodies import offset, q_counterexample, two_ball_hull
    chains = [offset(two_ball_hull(r, d), -rho).boundary
              for r, d, rho in _ERODED_HULLS]
    # eroded past its waist the hull pinches
    chains.append(offset(two_ball_hull(math.atanh(0.5), 1.0), -0.4,
                         check_simple=False).boundary)
    # q bodies eroded until their hypercircle arcs turn concave; the
    # deeper erosions of (2, 0.2), (3, 0.3) and (1.5, 0.1) pinch
    for lam, eps, depths in ((2.0, 0.1, (0.5,)), (2.0, 0.2, (0.4, 0.5)),
                             (3.0, 0.1, (0.3,)), (3.0, 0.3, (0.1, 0.25)),
                             (1.5, 0.1, (0.7, 0.75))):
        chains += [offset(q_counterexample(lam, eps), -rho,
                          check_simple=False).boundary for rho in depths]
    # an eroded hull with one arc split once and twice, traversed twice,
    # and traversed twice with its caps halved on the second pass, where
    # no two arcs of one cap run a full turn together
    hull = chains[0]
    once = hull.split(1, 0.3 * hull.arcs[1].length)
    cap = hull.arcs[1].length
    halved = hull.split(1, 0.5 * cap).split(4, 0.5 * cap)
    chains += [once, once.split(2, 0.5 * once.arcs[2].length),
               ArcSpline(ORIGIN_FRAME, hull.arcs * 2),
               ArcSpline(ORIGIN_FRAME, hull.arcs + halved.arcs)]
    # one clockwise circle: whole, split in two, split in three, and run
    # twice as two arcs of one full turn each
    ccw = _circle_spline(0.8).arcs[0]
    turn = ccw.length
    circle = ArcSpline(ORIGIN_FRAME, (Arc(-ccw.kappa, turn),))
    chains += [circle, circle.split(0, 0.999 * turn),
               circle.split(0, 0.3 * turn).split(1, 0.3 * turn),
               ArcSpline(ORIGIN_FRAME, circle.arcs * 2)]
    # every convex chain run backwards turns right throughout; those of
    # the random bodies that turn twice cross on circle arcs past their
    # half turn
    chains += [_reversed(s) for s in convex_chains]
    assert all(min(a.kappa for a in s.arcs) < 0.0 for s in chains)
    return chains


def test_simplicity_verdict_matches_disk_view_sweep(convex_chains,
                                                    concave_chains):
    # convex chains are judged by their Klein rotation index, concave
    # ones by the pair solver; both must give the sweep's verdict
    for chains in (convex_chains, concave_chains):
        verdicts = set()
        for s in chains:
            want = _disk_view_is_simple(s)
            assert s.is_simple() == want
            verdicts.add(want)
        assert verdicts == {True, False}


def test_simplicity_verdict_does_not_depend_on_placement(convex_chains,
                                                         concave_chains):
    # sausage(2, 1) moved 12 units turns twice when read from its
    # placed frames instead of the chain from the origin
    rng = np.random.default_rng(17)
    for s in convex_chains + concave_chains:
        want = _disk_view_is_simple(s)
        for distance in (0.0, 3.0, 6.0, 12.0):
            moved = _moved(s, distance, rng.uniform(0.0, 2.0 * math.pi))
            assert moved.is_simple() == want


def test_simplicity_verdict_is_cached(monkeypatch):
    import hypiso.spline as hs
    from hypiso.bodies import offset, signed_boundary_distance, two_ball_hull
    solves = []
    solve = hs._chain_crosses
    monkeypatch.setattr(hs, "_chain_crosses",
                        lambda *args: solves.append(args) or solve(*args))
    eroded = offset(two_ball_hull(math.atanh(0.5), 1.0), -0.1)
    assert not eroded.convex
    assert min(a.kappa for a in eroded.boundary.arcs) < 0.0
    pts = eroded.boundary.sample_points(8)
    for _ in range(3):
        assert eroded.boundary.is_simple()
        signed_boundary_distance(eroded, pts)
    assert len(solves) == 1


def test_arc_pairs_table():
    # every pair i < j in lexicographic order, its two adjacency masks,
    # and the pairs sharing no joint, shared read-only
    for n in range(1, 9):
        t = _arc_pairs(n)
        i, j = np.triu_indices(n, 1)
        assert np.array_equal(t.i, i) and np.array_equal(t.j, j)
        assert np.array_equal(t.after, j == i + 1)
        assert np.array_equal(t.before, (i == 0) & (j == n - 1))
        far = (j > i + 1) & ~((i == 0) & (j == n - 1))
        assert np.array_equal(t.far_i, i[far])
        assert np.array_equal(t.far_j, j[far])
        assert t.far_i.dtype == i.dtype
        # every triple i < j < k, in lexicographic order
        ijk = np.array(list(itertools.combinations(range(n), 3)),
                       dtype=np.intp).reshape(-1, 3)
        assert np.array_equal(t.triples, ijk) and t.triples.dtype == np.intp
        assert t.triples.shape == ijk.shape
        assert not any(a.flags.writeable for a in t)
        assert _arc_pairs(n) is t
