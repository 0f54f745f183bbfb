import math

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from anisotetra import (
    Classification,
    DegenerateTetrahedron,
    InputError,
    InvalidGammaMax,
    Tetrahedron,
    TYPE1,
    TYPE2,
    angles,
    classify,
    mac_bound_constants,
    mac_check,
    mac_reverse_gamma,
    matrices,
    max_face_and_dihedral_angle,
    quality_ratio,
    reference_tetrahedron,
    sorted_edge_lengths,
    standard_position,
    volume,
)
from anisotetra.geom import (
    batch_angles,
    batch_edge_lengths,
    batch_standard_position_vertices,
    batch_trig_identities,
)

import geom_reference as ref

TOL = 1e-12
PARAM_TOL = 1e-10
IDENT_TOL = 1e-9

T_HAT = reference_tetrahedron(TYPE1)
T_TILDE = reference_tetrahedron(TYPE2)
REGULAR = Tetrahedron.from_points(
    [(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)]
)


def rotation_from(seed_, angle_scale=math.pi):
    rng = np.random.default_rng(seed_)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def moved_copy(t, seed_):
    rng = np.random.default_rng(seed_)
    rot = rotation_from(seed_ + 1)
    shift = rng.uniform(-5, 5, size=3)
    return Tetrahedron.from_points(t.as_array() @ rot.T + shift)


def random_tetra(rng, scale=1.0):
    while True:
        pts = rng.uniform(-1, 1, size=(4, 3)) * scale
        t = Tetrahedron.from_points(pts)
        try:
            volume(t)
        except DegenerateTetrahedron:
            continue
        return t


# ---------------------------------------------------------------------------
# volume


def test_volume_reference():
    assert abs(volume(T_HAT) - 1.0 / 6.0) < TOL


def test_volume_standard_position_formula():
    # alpha = (1,1,1), t1 = t2 = 1, all s = 0 gives |T| = 1/6.
    t = Tetrahedron.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert abs(volume(t) - 1.0 / 6.0) < TOL


def test_volume_vertex_permutation_invariant():
    import itertools

    pts = np.array([(0.3, 0.1, -0.2), (1.4, 0.2, 0.1), (0.2, 1.1, 0.3), (0.5, 0.4, 1.7)])
    base = volume(Tetrahedron.from_points(pts))
    for perm in itertools.permutations(range(4)):
        assert abs(volume(Tetrahedron.from_points(pts[list(perm)])) - base) < TOL


def test_volume_degenerate_raises():
    flat = Tetrahedron.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.3, 0.4, 0)])
    with pytest.raises(DegenerateTetrahedron):
        volume(flat)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_tetrahedron_rejects_nonfinite_vertices(bad):
    with pytest.raises(InputError):
        Tetrahedron.from_points([(0, 0, 0), (1, 0, 0), (0, bad, 0), (0, 0, 1)])


@pytest.mark.parametrize(
    "pts",
    [
        [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)],
        [(0, 0, 0), (1, 0, 0), (0, 1), (0, 0, 1)],
        [(0, 0, 0), (1, 0, 0), (0, 1, "z"), (0, 0, 1)],
    ],
)
def test_tetrahedron_rejects_malformed_vertices(pts):
    with pytest.raises(InputError):
        Tetrahedron.from_points(pts)


def test_tetrahedron_stores_float_triples():
    t = Tetrahedron.from_points(np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]))
    assert t.coords() is t.v
    assert all(type(c) is float for p in t.v for c in p)
    assert t == Tetrahedron.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_degeneracy_rule_shared_by_volume_classify_and_max_angle():
    # A flat wedge of height h: |T| = 2h/3 and h_T = 2, so the rule
    # |T| < 1e-14 * h_T^3 rejects it exactly when h < 1.2e-13.
    for h, degenerate in ((1e-13, True), (2e-13, False)):
        t = Tetrahedron.from_points([(1, 0, 0), (-1, 0, 0), (0, 1, h), (0, -1, h)])
        for op in (volume, classify, max_face_and_dihedral_angle, angles):
            if degenerate:
                with pytest.raises(DegenerateTetrahedron):
                    op(t)
            else:
                op(t)


# ---------------------------------------------------------------------------
# classification


def check_classification_consistency(t, cls: Classification):
    v = t.coords()
    hs = sorted_edge_lengths(t)
    a1, a2, a3 = cls.alpha
    assert sorted(cls.perm) == [0, 1, 2, 3]
    assert abs(a2 - hs[0]) < TOL * hs[5]
    assert a2 <= a3 + TOL * hs[5]
    assert a3 <= a1 + TOL * hs[5]

    def dist(i, j):
        return float(np.linalg.norm(np.subtract(v[i], v[j])))

    x1, x2, x3, x4 = cls.perm
    assert abs(dist(x1, x2) - a1) < TOL * hs[5]
    assert abs(dist(x1, x4) - a3) < TOL * hs[5]
    if cls.kind == TYPE1:
        assert set(cls.e2) == {x1, x3}
        assert abs(dist(x1, x3) - a2) < TOL * hs[5]
    else:
        assert set(cls.e2) == {x2, x3}
        assert abs(dist(x2, x3) - a2) < TOL * hs[5]
    assert set(cls.e1) == {x1, x2}
    # e1 and e2 share exactly one vertex.
    assert len(set(cls.e1) & set(cls.e2)) == 1


def test_classify_reference_type1():
    cls = classify(T_HAT)
    assert cls.kind == TYPE1
    assert abs(cls.alpha[1] - 1.0) < TOL
    assert abs(cls.alpha[0] - math.sqrt(2)) < TOL
    assert min(abs(cls.alpha[2] - 1.0), abs(cls.alpha[2] - math.sqrt(2))) < TOL
    check_classification_consistency(T_HAT, cls)


def test_classify_reference_type2():
    cls = classify(T_TILDE)
    assert cls.kind == TYPE2
    check_classification_consistency(T_TILDE, cls)


def test_classify_half_space_examples():
    # Shortest edge (v2,v3); longest edge adjacent to it is (v0,v2), and both
    # remaining vertices fall in the shared vertex's half-space.
    t = Tetrahedron.from_points([(0, 0, 0), (10, 0, 0), (5.2, 1, 0), (5, 0.5, 1)])
    cls = classify(t)
    assert cls.e2 == (2, 3)
    assert cls.e1 == (0, 2)
    assert cls.kind == TYPE1
    check_classification_consistency(t, cls)

    # Here the shortest edge is (v0,v2), not (v2,v3), and e1 is the 10-edge.
    t = Tetrahedron.from_points([(0, 0, 0), (10, 0, 0), (0.5, 1, 0), (0.4, 0.5, 1)])
    cls = classify(t)
    assert cls.e2 == (0, 2)
    assert cls.e1 == (0, 1)
    assert cls.kind == TYPE1
    check_classification_consistency(t, cls)


def test_classify_clear_type2():
    # x3 close to x2: the remaining vertex sits across the bisector plane.
    t = Tetrahedron.from_points([(0, 0, 0), (10, 0, 0), (9.5, 0.4, 0), (0.5, 0.2, 0.6)])
    cls = classify(t)
    assert cls.kind == TYPE2
    check_classification_consistency(t, cls)


def test_classify_permutation_stable():
    import itertools

    rng = np.random.default_rng(7)
    for _ in range(10):
        t = random_tetra(rng)
        base = classify(t)
        pts = t.as_array()
        for perm in itertools.permutations(range(4)):
            t2 = Tetrahedron.from_points(pts[list(perm)])
            cls2 = classify(t2)
            assert cls2.kind == base.kind
            assert np.allclose(cls2.alpha, base.alpha, rtol=0, atol=1e-13)
            # Same geometric edges after undoing the permutation.
            assert {perm[i] for i in cls2.e2} == set(base.e2)
            assert {perm[i] for i in cls2.e1} == set(base.e1)


def test_classify_degenerate_raises():
    flat = Tetrahedron.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.5, 0.5, 0)])
    with pytest.raises(DegenerateTetrahedron):
        classify(flat)


@seed(1)
@settings(max_examples=200, deadline=None)
@given(
    pts=arrays(
        np.float64,
        (4, 3),
        elements=st.floats(min_value=-10, max_value=10),
    )
)
def test_classify_properties_hypothesis(pts):
    t = Tetrahedron.from_points(pts)
    try:
        vol = volume(t)
    except DegenerateTetrahedron:
        assume(False)
    hs = sorted_edge_lengths(t)
    assume(vol > 1e-6 * hs[5] ** 3)
    cls = classify(t)
    check_classification_consistency(t, cls)


# ---------------------------------------------------------------------------
# standard position


def check_standard_position(t, cls, sp):
    s1, t1, s21, s22, t2 = sp.params
    a1, a2, a3 = sp.alpha
    h_t = sorted_edge_lengths(t)[5]
    assert abs(s1 * s1 + t1 * t1 - 1.0) < PARAM_TOL
    assert abs(s21 * s21 + s22 * s22 + t2 * t2 - 1.0) < PARAM_TOL
    assert s1 > 0 or abs(s1) < PARAM_TOL
    assert t1 > 0
    assert t2 > 0
    assert a2 * s1 <= a1 / 2 + PARAM_TOL * h_t
    assert a3 * s21 <= a1 / 2 + PARAM_TOL * h_t

    # The rigid motion carries the relabeled vertices onto the canonical ones.
    rot = sp.rotation
    assert np.allclose(rot @ rot.T, np.eye(3), atol=1e-12)
    labeled = t.as_array()[list(cls.perm)]
    moved = labeled @ rot.T + sp.translation
    canon = batch_standard_position_vertices(
        np.array([cls.kind]), np.array([sp.alpha]), np.array([sp.params]))[0]
    assert np.abs(moved - canon).max() < 1e-10 * h_t

    # Volume identity |T| = alpha1*alpha2*alpha3*t1*t2/6.
    assert abs(volume(t) - a1 * a2 * a3 * t1 * t2 / 6.0) < 1e-9 * h_t ** 3


def test_standard_position_reference():
    cls = classify(T_HAT)
    sp = standard_position(T_HAT, cls)
    check_standard_position(T_HAT, cls, sp)
    s1, t1, _, _, t2 = sp.params
    assert abs(sp.alpha[0] * sp.alpha[1] * sp.alpha[2] * t1 * t2 / 6 - 1.0 / 6.0) < TOL


def test_standard_position_fixed_point():
    # A tetrahedron already in standard position gets the identity motion.
    rng = np.random.default_rng(3)
    t = random_tetra(rng)
    sp = standard_position(t)
    cls = classify(t)
    t_std = Tetrahedron.from_points(batch_standard_position_vertices(
        np.array([cls.kind]), np.array([sp.alpha]), np.array([sp.params]))[0])
    sp2 = standard_position(t_std)
    assert not sp2.mirror
    assert np.allclose(sp2.rotation, np.eye(3), atol=1e-9)
    assert np.allclose(sp2.translation, 0.0, atol=1e-9)
    assert np.allclose(sp2.params, sp.params, atol=1e-9)
    assert np.allclose(sp2.alpha, sp.alpha, atol=1e-9)


def test_standard_position_rigid_motion_invariant():
    rng = np.random.default_rng(11)
    for i in range(20):
        t = random_tetra(rng)
        sp = standard_position(t)
        t_moved = moved_copy(t, seed_=100 + i)
        sp_moved = standard_position(t_moved)
        assert classify(t).kind == classify(t_moved).kind
        assert np.allclose(sp.alpha, sp_moved.alpha, rtol=1e-9, atol=0)
        assert np.allclose(sp.params, sp_moved.params, rtol=0, atol=1e-9)
        assert sp.mirror == sp_moved.mirror


def test_standard_position_mirror_flips_under_reflection():
    rng = np.random.default_rng(5)
    t = random_tetra(rng)
    sp = standard_position(t)
    reflected = Tetrahedron.from_points(t.as_array() * np.array([1.0, 1.0, -1.0]))
    sp_ref = standard_position(reflected)
    assert sp_ref.mirror != sp.mirror
    assert np.allclose(sp.params, sp_ref.params, atol=1e-9)


@seed(1)
@settings(max_examples=200, deadline=None)
@given(
    pts=arrays(
        np.float64,
        (4, 3),
        elements=st.floats(min_value=-10, max_value=10),
    )
)
def test_standard_position_hypothesis(pts):
    t = Tetrahedron.from_points(pts)
    try:
        vol = volume(t)
    except DegenerateTetrahedron:
        assume(False)
    hs = sorted_edge_lengths(t)
    assume(vol > 1e-6 * hs[5] ** 3)
    cls = classify(t)
    sp = standard_position(t, cls)
    check_standard_position(t, cls, sp)


# ---------------------------------------------------------------------------
# matrices


def test_matrices_identity_case():
    sp = standard_position(
        Tetrahedron.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    )
    # That tetrahedron classifies with nonzero shears, so build the degenerate
    # parameter case directly.
    from anisotetra.geom import StandardPosition

    sp0 = StandardPosition(
        alpha=(1.0, 1.0, 1.0),
        params=(0.0, 1.0, 0.0, 0.0, 1.0),
        rotation=np.eye(3),
        translation=np.zeros(3),
        mirror=False,
    )
    m = matrices(sp0, TYPE1)
    assert np.allclose(m.A, np.eye(3), atol=0)
    assert abs(m.normA - 1.0) < TOL
    assert abs(m.normAinv - 1.0) < TOL
    assert abs(m.normX - 1.0) < TOL
    del sp


def test_matrices_maps_reference_to_position():
    rng = np.random.default_rng(17)
    for _ in range(25):
        t = random_tetra(rng)
        cls = classify(t)
        sp = standard_position(t, cls)
        m = matrices(sp, cls.kind)
        assert np.allclose(m.A, m.X @ m.Y, atol=1e-15)
        ref = reference_tetrahedron(cls.kind).as_array()
        mapped = (m.A @ m.D @ ref.T).T
        canon = batch_standard_position_vertices(
            np.array([cls.kind]), np.array([sp.alpha]), np.array([sp.params]))[0]
        assert np.abs(mapped - canon).max() < 1e-12 * max(sp.alpha)


def test_matrices_norms_match_svd():
    rng = np.random.default_rng(23)
    for _ in range(50):
        t = random_tetra(rng)
        cls = classify(t)
        sp = standard_position(t, cls)
        m = matrices(sp, cls.kind)
        sx = np.linalg.svd(m.X, compute_uv=False)
        sy = np.linalg.svd(m.Y, compute_uv=False)
        assert abs(m.normX - sx[0]) < 1e-10 * sx[0]
        assert abs(m.normXinv - 1.0 / sx[-1]) < 1e-10 / sx[-1]
        assert abs(m.normY - sy[0]) < 1e-10 * sy[0]
        assert abs(m.normYinv - 1.0 / sy[-1]) < 1e-10 / sy[-1]


def test_matrices_norm_inequalities():
    rng = np.random.default_rng(29)
    for _ in range(50):
        t = random_tetra(rng)
        cls = classify(t)
        sp = standard_position(t, cls)
        m = matrices(sp, cls.kind)
        s1, t1, s21, s22, t2 = sp.params
        bold1, bold2 = abs(s1), math.hypot(s21, s22)
        prod_up = math.sqrt((1 + bold1) * (1 + bold2))
        prod_dn = math.sqrt((1 + bold1) * (1 + bold2)) / (t1 * t2)
        assert m.normA <= prod_up * (1 + 1e-12)
        assert m.normAinv <= prod_dn * (1 + 1e-12)
        assert m.normA <= 2.0 + 1e-12
        assert m.normAinv <= 2.0 / (t1 * t2) + 1e-12


# ---------------------------------------------------------------------------
# quality


def test_quality_reference():
    rep = angles(T_HAT)
    r_t, h_t = rep.R_T, rep.H_T
    assert abs(r_t - 12.0) < 1e-12 * 12.0
    assert 0.5 * h_t <= r_t <= 2.0 * h_t


def test_quality_scales_linearly():
    rng = np.random.default_rng(31)
    t = random_tetra(rng)
    c = 3.7
    rep1, rep2 = angles(t), angles(Tetrahedron.from_points(t.as_array() * c))
    assert abs(rep2.R_T - c * rep1.R_T) < 1e-9 * abs(c * rep1.R_T)
    assert abs(rep2.H_T - c * rep1.H_T) < 1e-9 * abs(c * rep1.H_T)


def test_quality_needle_bounded():
    # alpha = (1, eps, eps) right-corner needle: H_T stays bounded as eps -> 0.
    for eps in (1e-1, 1e-3, 1e-6):
        t = Tetrahedron.from_points(
            [(0, 0, 0), (1, 0, 0), (0, eps, 0), (0, 0, eps)]
        )
        h_t = angles(t).H_T
        h_max = sorted_edge_lengths(t)[5]
        assert h_t <= 10.0 * h_max
        ratio = quality_ratio(t)
        assert 0.5 - 1e-9 <= ratio <= 2.0 + 1e-9


def test_quality_ratio_lemma_sample():
    rng = np.random.default_rng(37)
    for _ in range(200):
        t = random_tetra(rng)
        ratio = quality_ratio(t)
        assert 0.5 - 1e-9 <= ratio <= 2.0 + 1e-9
        rep = angles(t)
        assert abs(ratio - rep.R_T / rep.H_T) < 1e-6


# ---------------------------------------------------------------------------
# angles


def test_angles_reference_dihedrals():
    rep = angles(T_HAT)
    slanted = math.pi - math.atan2(math.sqrt(2), -1)  # arccos(1/sqrt(3))
    expected = math.acos(1.0 / math.sqrt(3.0))
    del slanted
    # F_0 is the slanted face; its dihedral with each coordinate face.
    for j in (1, 2, 3):
        assert abs(rep.psi[(0, j)] - expected) < 1e-12
    # Coordinate faces meet at right angles.
    for pair in ((1, 2), (1, 3), (2, 3)):
        assert abs(rep.psi[pair] - math.pi / 2) < 1e-12
    assert abs(rep.max_angle - math.pi / 2) < 1e-12
    assert abs(rep.R_T - 12.0) < 1e-11


def test_angles_regular_tetrahedron():
    rep = angles(REGULAR)
    for v in rep.theta.values():
        assert abs(v - math.pi / 3) < 1e-12
    for v in rep.psi.values():
        assert abs(v - math.acos(1.0 / 3.0)) < 1e-12


def test_angles_phi_reference():
    rep = angles(T_HAT)
    # F_3 is the z=0 face; the edge from v3 to the origin is perpendicular to
    # it, the edges to the other corners make angle arcsin(1/sqrt(2)).
    assert abs(rep.phi[(3, 0)] - math.pi / 2) < 1e-12
    assert abs(rep.phi[(3, 1)] - math.asin(1 / math.sqrt(2))) < 1e-12
    assert abs(rep.phi[(3, 2)] - math.asin(1 / math.sqrt(2))) < 1e-12


def test_angles_counts_and_ranges():
    rng = np.random.default_rng(41)
    for _ in range(20):
        t = random_tetra(rng)
        rep = angles(t)
        assert len(rep.theta) == 12
        assert len(rep.psi) == 6
        assert len(rep.phi) == 12
        for v in rep.theta.values():
            assert 0.0 < v < math.pi
        for v in rep.psi.values():
            assert 0.0 < v < math.pi
        for v in rep.phi.values():
            assert 0.0 < v <= math.pi / 2
        assert rep.max_angle == max(
            max(rep.theta.values()), max(rep.psi.values())
        )
        # Face angles of each face sum to pi.
        for i in range(4):
            total = sum(rep.theta[(i, j)] for j in range(4) if j != i)
            assert abs(total - math.pi) < 1e-12
        assert abs(rep.max_angle - max_face_and_dihedral_angle(t)) < 1e-15


def test_angles_rejects_a_degenerate_element_when_called():
    # The report computes H_T and its angles when they are read, but the
    # degeneracy test runs when it is made.
    flat = Tetrahedron.from_points([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
    with pytest.raises(DegenerateTetrahedron):
        angles(flat)
    # Every scalar routine reads that one test, also with a classification
    # given: quality_ratio once returned 0.707 here.
    cls = classify(reference_tetrahedron(TYPE1))
    for call in (lambda: quality_ratio(flat, cls), lambda: standard_position(flat, cls)):
        with pytest.raises(DegenerateTetrahedron):
            call()


def test_report_read_lazily_equals_the_eager_quantities():
    rng = np.random.default_rng(59)
    for _ in range(20):
        t = random_tetra(rng)
        # The report is made once per element: read it from a second element
        # of the same vertices.
        first, second = angles(t), angles(Tetrahedron(t.v))
        assert first.max_angle == max_face_and_dihedral_angle(t)
        assert (first.R_T, first.H_T) == ref.quality(t)
        assert first.volume == volume(t) and first.h == sorted_edge_lengths(t)
        # Read in the other order: the same values, bitwise.
        assert second.phi == first.phi and second.theta == first.theta
        assert second.H_T == first.H_T and second.psi == first.psi
        assert second.max_angle == first.max_angle
        # The report compares by value: the element's cached arrays stay out.
        assert first == second


def test_trig_identities_random():
    rng = np.random.default_rng(43)
    verts = np.array([random_tetra(rng).v for _ in range(50)])
    residuals = batch_trig_identities(*batch_angles(verts, batch_edge_lengths(verts)))
    assert [r.shape for r in residuals] == [(50, 24), (50, 12), (50, 12)]
    assert max(np.abs(r).max() for r in residuals) < IDENT_TOL


def test_trig_identities_rigid_motion_invariant():
    rng = np.random.default_rng(47)
    t = random_tetra(rng)
    rep = angles(t)
    rep_moved = angles(moved_copy(t, seed_=53))
    for key in rep.psi:
        assert abs(rep.psi[key] - rep_moved.psi[key]) < 1e-9


# ---------------------------------------------------------------------------
# maximum angle condition


def test_mac_check_reference():
    assert mac_check(T_HAT, math.pi / 2)
    assert not mac_check(T_HAT, math.pi / 2 - 0.01)
    assert mac_check(REGULAR, math.pi / 2)


def test_mac_check_invalid_gamma():
    for bad in (0.9, math.pi, 4.0, 0.0):
        with pytest.raises(InvalidGammaMax):
            mac_check(T_HAT, bad)


def test_mac_constants_right_angle():
    mc = mac_bound_constants(math.pi / 2)
    assert abs(math.sin(mc.delta) - math.sqrt(1.0 / (1.0 + math.sin(math.pi / 4)))) < 1e-15
    assert abs(mc.C1 - math.sin(math.pi / 4)) < 1e-15
    assert abs(mc.C0 - math.sin(mc.delta)) < 1e-15
    assert abs(mc.D - 6.0 / (mc.C0 * mc.C1 ** 2)) < 1e-12 * mc.D
    assert abs(mc.D - 15.678755578516522) < 1e-9
    assert 0 < mc.delta <= math.pi / 2


def test_mac_constants_lower_endpoint():
    mc = mac_bound_constants(math.pi / 3)
    # sin(delta) = 1 at the equilateral endpoint.
    assert abs(mc.delta - math.pi / 2) < 1e-7
    root3_half = math.sqrt(3.0) / 2.0
    assert abs(mc.C0 - root3_half) < 1e-15
    assert abs(mc.C1 - root3_half) < 1e-15
    assert abs(mc.D - 16.0 / math.sqrt(3.0)) < 1e-12


def test_mac_reverse_gamma_behavior():
    # Larger admissible D means a weaker (larger) angle bound.
    g1 = mac_reverse_gamma(10.0)
    g2 = mac_reverse_gamma(100.0)
    assert math.pi / 2 < g1 < g2 < math.pi
    assert mac_reverse_gamma(10.0, None) == max(
        mac_reverse_gamma(10.0, TYPE1), mac_reverse_gamma(10.0, TYPE2)
    )
    with pytest.raises(InputError):
        mac_reverse_gamma(2.9)


@pytest.mark.parametrize("kind", [0, 3, "1"])
def test_a_bad_kind_is_an_input_error(kind):
    sp = standard_position(T_HAT)
    for op in (
        lambda: reference_tetrahedron(kind),
        lambda: matrices(sp, kind),
        lambda: mac_reverse_gamma(10.0, kind),
    ):
        with pytest.raises(InputError, match="kind"):
            op()


def test_mac_reverse_gamma_covers_samples():
    # Any tetrahedron with R_T/h_T <= D satisfies the MAC with gamma'(D).
    rng = np.random.default_rng(59)
    for _ in range(100):
        t = random_tetra(rng)
        r_t = angles(t).R_T
        h_t = sorted_edge_lengths(t)[5]
        d = r_t / h_t * 1.000001
        gamma_prime = mac_reverse_gamma(d, classify(t).kind)
        assert max_face_and_dihedral_angle(t) <= gamma_prime + 1e-9
