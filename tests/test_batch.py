"""The block path of the sampling experiments, and the geometry kernels.

The reference generator below is the per-sample generator the block path
replaced: one Philox stream per (seed, index), one QR and one matmul per
sample.  The geometry kernels are held to geom_reference, the per-element
float routines they replaced.  Edge lengths, volumes, the classification,
the standard position, the transform matrices, quality_ratio, R_T and H_T
must agree bitwise; the angles (numpy's arctan2 and arcsin against the math
module's) and the identity residuals within 1e-12.  The scalar API reads row
0 of the kernels, so it is checked against the same oracle.
"""

import itertools
import math

import numpy as np
import pytest

import geom_reference as ref
from anisotetra import verify
from anisotetra.errors import DegenerateTetrahedron
from anisotetra.geom import (
    _FACE_PAIRS,
    _PHI_KEYS,
    _THETA_KEYS,
    _TWOSIN_KEYS,
    EDGES,
    TYPE1,
    TYPE2,
    Tetrahedron,
    angles,
    batch_angles,
    batch_classify,
    batch_edge_lengths,
    batch_h_t,
    batch_matrices,
    batch_max_angle,
    batch_quality_ratio,
    batch_r_over_h,
    batch_standard_position,
    batch_standard_position_vertices,
    batch_trig_identities,
    batch_volume,
    classify,
    edge_lengths,
    mac_bound_constants,
    mac_check,
    mac_reverse_gamma,
    matrices,
    max_angle_at_most,
    max_face_and_dihedral_angle,
    quality_ratio,
    reference_tetrahedron,
    standard_position,
    volume,
)
from anisotetra.verify import TetraGenSpec, generate, mac_experiment

MIN_MAX_ANGLE = math.acos(1.0 / 3.0)
REGULAR = ((0.5, 0.5, 0.5), (0.5, -0.5, -0.5), (-0.5, 0.5, -0.5), (-0.5, -0.5, 0.5))
SAMPLES = 2000
# Criterion 8's angle bounds at or above acos(1/3), where the mac family exists.
MAC_GAMMAS = (math.pi / 2, 2 * math.pi / 3, 0.9 * math.pi)


# ---------------------------------------------------------------------------
# Per-sample reference generator


def ref_stream(seed, index):
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, index]))


def ref_moved(verts, rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return verts @ q.T + rng.uniform(-1.0, 1.0, 3)


def ref_uniform(rng):
    direction = rng.normal(size=(4, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return direction * rng.uniform(0.0, 1.0, (4, 1)) ** (1.0 / 3.0)


def ref_near_regular(rng, amplitude):
    verts = np.asarray(REGULAR) + amplitude * rng.uniform(-1.0, 1.0, (4, 3))
    scale = 10.0 ** rng.uniform(-1.0, 1.0)
    return ref_moved(verts * scale, rng)


def ref_attempt(rng, family, params, attempt):
    if family == "uniform":
        return ref_uniform(rng)
    if family == "needle":
        eps = params.get("eps")
        if eps is None:
            eps = 10.0 ** rng.uniform(-6.0, 0.0)
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, eps, 0], [0, 0, eps]], dtype=float)
        return ref_moved(verts, rng)
    if family == "sliver":
        eps = params.get("eps")
        if eps is None:
            eps = 10.0 ** rng.uniform(-6.0, -1.0)
        h = math.tan(eps / 2.0)
        verts = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, h], [0, -1, h]], dtype=float)
        return ref_moved(verts, rng)
    if family == "squeezed":
        alpha = np.asarray(params.get("alpha", (1.0, 1.0, 1.0)), dtype=float)
        verts = reference_tetrahedron(params.get("kind", TYPE1)).as_array() * alpha
        return ref_moved(verts, rng)
    headroom = min(1.0, (params["gamma"] - MIN_MAX_ANGLE) / MIN_MAX_ANGLE)
    if attempt % 2 == 0 and headroom > 0.0:
        return ref_near_regular(rng, 0.6 * headroom)
    return ref_uniform(rng)


def nondegenerate(verts):
    t = Tetrahedron.from_points(verts)
    try:
        volume(t)
    except DegenerateTetrahedron:
        return None
    return t


def ref_sample(gen, index):
    rng = ref_stream(gen.seed, index)
    family = gen.family
    if family == "mixed":
        family = ("uniform", "needle", "sliver")[index % 3]
    attempt = 0
    while True:
        t = nondegenerate(ref_attempt(rng, family, gen.params, attempt))
        attempt += 1
        if t is None:
            continue
        if family != "mac" or max_face_and_dihedral_angle(t) <= gen.params["gamma"]:
            return t


def ref_mac_experiment(n, gamma_max, seed):
    """mac_experiment(n, gamma_max, seed=seed) one sample at a time."""
    d = mac_bound_constants(gamma_max).D
    excluded_max = None
    if gamma_max >= MIN_MAX_ANGLE:
        mac_gen = TetraGenSpec("mac", seed, {"gamma": gamma_max})
        satisfying = [ref_sample(mac_gen, i) for i in range(n)]
    else:
        mixed = [ref_sample(TetraGenSpec("mixed", seed), i) for i in range(n)]
        satisfying = [t for t in mixed if mac_check(t, gamma_max)]
        excluded = [t for t in mixed if not mac_check(t, gamma_max)]
        if excluded:
            excluded_max = max(g.R_T / g.h[-1] for g in map(angles, excluded))
    forward = [(g.H_T / g.h[-1], g.R_T / g.h[-1]) for g in map(angles, satisfying)]
    headroom = max(0.0, min(1.0, d / (6.0 * math.sqrt(2.0)) - 1.0))
    checked = attempts = 0
    reverse = []
    while checked < n:
        rng = ref_stream(seed + 1, attempts)
        attempts += 1
        if attempts % 2 == 0:
            t = nondegenerate(ref_uniform(rng))
        else:
            t = nondegenerate(ref_near_regular(rng, 0.6 * headroom))
        if t is None:
            continue
        geo = angles(t)
        if geo.R_T / geo.h[-1] > d:
            continue
        checked += 1
        reverse.append(mac_check(t, mac_reverse_gamma(d, classify(t).kind)))
    return forward, excluded_max, attempts, reverse


# ---------------------------------------------------------------------------
# Comparison

ANGLE_TOL = 1e-12
NORMS = ("normA", "normAinv", "normX", "normXinv", "normY", "normYinv")


def values(table: dict, keys) -> np.ndarray:
    return np.array([table[key] for key in keys])


def assert_kernels_match(tetras, bound=None):
    verts = np.array([t.coords() for t in tetras])
    lengths = batch_edge_lengths(verts)
    vol, degenerate = batch_volume(verts, lengths)
    assert not degenerate.any()
    kind, perm, alpha, e1, e2 = batch_classify(verts, lengths)
    params, rotation, translation, mirror = batch_standard_position(verts, kind, perm, alpha)
    canonical = batch_standard_position_vertices(kind, alpha, params)
    A, D, X, Y, norms = batch_matrices(kind, alpha, params)
    ratio = batch_quality_ratio(lengths, alpha)
    r_over = batch_r_over_h(lengths, vol)
    big_h = batch_h_t(lengths, params)
    theta, psi, phi = batch_angles(verts, lengths)
    twosin, cos_theta, cos_psi = batch_trig_identities(theta, psi, phi)
    worst = batch_max_angle(verts)
    for i, t in enumerate(tetras):
        assert tuple(lengths[i]) == edge_lengths(t)
        assert vol[i] == volume(t)
        cls = ref.classify(t)
        got = (kind[i], tuple(perm[i]), tuple(alpha[i]), EDGES[e1[i]], EDGES[e2[i]])
        assert got == (cls.kind, cls.perm, cls.alpha, cls.e1, cls.e2)
        sp = ref.standard_position(t, cls)
        assert tuple(params[i]) == sp.params
        assert (rotation[i] == sp.rotation).all() and (translation[i] == sp.translation).all()
        assert mirror[i] == sp.mirror
        assert canonical[i].tolist() == [list(x) for x in ref.standard_position_vertices(sp, cls.kind)]
        mats = ref.matrices(sp, cls.kind)
        for got, want in zip((A[i], D[i], X[i], Y[i]), (mats.A, mats.D, mats.X, mats.Y)):
            assert (got == want).all()
        assert tuple(norms[i]) == tuple(getattr(mats, name) for name in NORMS)
        assert ratio[i] == ref.quality_ratio(t)
        r_t, h_t = ref.quality(t)
        assert r_over[i] == r_t / lengths[i].max()
        assert big_h[i] == h_t
        ref_theta, ref_psi, ref_phi = ref.angle_inventory(t)
        assert np.abs(theta[i] - values(ref_theta, _THETA_KEYS)).max() <= ANGLE_TOL
        assert np.abs(psi[i] - values(ref_psi, _FACE_PAIRS)).max() <= ANGLE_TOL
        assert np.abs(phi[i] - values(ref_phi, _PHI_KEYS)).max() <= ANGLE_TOL
        assert abs(worst[i] - ref.max_face_and_dihedral_angle(t)) <= ANGLE_TOL
        ref_twosin, ref_cos_theta, ref_cos_psi, _ = ref.trig_identities(t)
        assert np.abs(twosin[i] - values(ref_twosin, _TWOSIN_KEYS)).max() <= ANGLE_TOL
        assert np.abs(cos_theta[i] - values(ref_cos_theta, _THETA_KEYS)).max() <= ANGLE_TOL
        assert np.abs(cos_psi[i] - values(ref_cos_psi, _THETA_KEYS)).max() <= ANGLE_TOL
    if bound is not None:
        # Decided as the reference decides, except within the angle
        # tolerance of the bound.
        exact = np.array([ref.max_face_and_dihedral_angle(t) for t in tetras])
        clear = np.abs(exact - bound) > ANGLE_TOL
        assert (max_angle_at_most(verts, bound) == (exact <= bound))[clear].all()


def assert_scalar_api_matches(t):
    """The public per-element routines, each a batch of one, against the oracle."""
    cls = ref.classify(t)
    assert classify(t) == cls
    sp, want = standard_position(t), ref.standard_position(t, cls)
    assert (sp.alpha, sp.params, sp.mirror) == (want.alpha, want.params, want.mirror)
    assert type(sp.mirror) is bool and all(type(x) is float for x in sp.params)
    assert (sp.rotation == want.rotation).all() and (sp.translation == want.translation).all()
    mats, want_mats = matrices(sp, cls.kind), ref.matrices(want, cls.kind)
    for name in ("A", "D", "X", "Y"):
        assert (getattr(mats, name) == getattr(want_mats, name)).all()
    assert all(getattr(mats, name) == getattr(want_mats, name) for name in NORMS)
    assert quality_ratio(t) == ref.quality_ratio(t)
    rep = angles(t)
    assert (rep.R_T, rep.H_T) == ref.quality(t)
    for got, want_angles in zip((rep.theta, rep.psi, rep.phi), ref.angle_inventory(t)):
        assert list(got) == list(want_angles)
        assert max(abs(got[key] - want_angles[key]) for key in got) <= ANGLE_TOL
    assert abs(max_face_and_dihedral_angle(t) - ref.max_face_and_dihedral_angle(t)) <= ANGLE_TOL
    if abs(rep.max_angle - math.pi / 2) > ANGLE_TOL:
        assert mac_check(t, math.pi / 2) == ref.mac_check(t, math.pi / 2)


FAMILIES = [
    TetraGenSpec("uniform", 21),
    TetraGenSpec("needle", 22),
    TetraGenSpec("sliver", 23),
    TetraGenSpec("mixed", 24),
    TetraGenSpec("squeezed", 25, {"alpha": (1.0, 2.0 ** -10, 2.0 ** -20), "kind": TYPE2}),
    TetraGenSpec("needle", 26, {"eps": 1e-3}),
] + [TetraGenSpec("mac", 27, {"gamma": g}) for g in MAC_GAMMAS]


def family_id(gen):
    if gen.family == "mac":
        return "mac-%.4f" % gen.params["gamma"]
    return "%s-%d" % (gen.family, gen.seed)


@pytest.mark.parametrize("gen", FAMILIES, ids=family_id)
def test_block_draws_and_kernels_match_per_sample_reference(gen, monkeypatch):
    # A smaller block makes 2000 samples cross two block boundaries.
    monkeypatch.setattr(verify, "BLOCK", 768)
    tetras = generate(gen, SAMPLES)
    assert [t.coords() for t in tetras] == [ref_sample(gen, i).coords() for i in range(SAMPLES)]
    assert_kernels_match(tetras, bound=gen.params.get("gamma", math.pi / 2))
    for t in tetras[::100]:
        assert_scalar_api_matches(t)


@pytest.mark.parametrize("family", ["needle", "sliver"])
@pytest.mark.parametrize("eps", [1e-3, 1e-4, 1e-5, 1e-6])
def test_kernels_on_rotated_needles_and_slivers(family, eps):
    tetras = generate(TetraGenSpec(family, 41, {"eps": eps}), 200)
    assert_kernels_match(tetras, bound=math.pi / 2)
    for t in tetras[:5]:
        assert_scalar_api_matches(t)


def test_kernels_on_symmetric_elements_in_every_vertex_order():
    # The regular tetrahedron, the two reference elements and an isosceles
    # element (mirror-symmetric about x = 0, so two pairs of edges tie
    # exactly): 96 elements whose ties the classification must break alike.
    base = [Tetrahedron.from_points(REGULAR), reference_tetrahedron(TYPE1),
            reference_tetrahedron(TYPE2),
            Tetrahedron.from_points([(-1, 0, 0), (1, 0, 0), (0, 2, 0), (0, 0.5, 1.5)])]
    tetras = [
        Tetrahedron.from_points(np.asarray(t.as_array())[list(p)])
        for t in base
        for p in itertools.permutations(range(4))
    ]
    assert len(tetras) == 96
    assert_kernels_match(tetras, bound=math.pi / 2)
    for t in tetras:
        assert_scalar_api_matches(t)


def test_kernels_on_exact_ties_and_permutations():
    # The elements of test_classify_permutation_stable, plus elements whose
    # edge lengths tie exactly, in every vertex order.
    rng = np.random.default_rng(7)
    base = []
    while len(base) < 10:
        t = nondegenerate(rng.uniform(-1, 1, size=(4, 3)))
        if t is not None:
            base.append(t)
    base += [reference_tetrahedron(TYPE1), reference_tetrahedron(TYPE2),
             Tetrahedron.from_points(REGULAR),
             # Opposite edges of length 1 whose vertex ranks are {0, 3} and
             # {1, 2}: the two orders of a rank pair pick different edges.
             Tetrahedron.from_points([(-0.5, 0, 0), (0.5, 0, 0), (0, -0.5, 1), (0, 0.5, 1)])]
    tetras = [
        Tetrahedron.from_points(np.asarray(t.as_array())[list(p)])
        for t in base
        for p in itertools.permutations(range(4))
    ]
    assert_kernels_match(tetras, bound=math.pi / 2)


def test_degeneracy_mask_matches_volume():
    flat = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.3, 0.4, 0)]
    rows = [flat]
    # Lift the fourth vertex across the threshold |T| = 1e-14 h_T^3.
    for z in np.geomspace(1e-16, 1e-12, 41):
        rows.append([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.3, 0.4, float(z))])
    verts = np.array(rows, dtype=float)
    _, degenerate = batch_volume(verts, batch_edge_lengths(verts))
    want = [nondegenerate(v) is None for v in verts]
    assert degenerate.tolist() == want
    assert any(want) and not all(want)


def test_max_angle_at_most_decides_ties_as_the_scalar_code():
    # The scalar routine is the kernel's batch of one, so a block and its
    # rows one at a time agree to the last bit: bounds placed exactly on the
    # scalar values are decided alike.
    tetras = generate(TetraGenSpec("mixed", 31), 400)
    verts = np.array([t.coords() for t in tetras])
    exact = np.array([max_face_and_dihedral_angle(t) for t in tetras])
    assert (batch_max_angle(verts) == exact).all()
    assert max_angle_at_most(verts, exact).all()
    assert not max_angle_at_most(verts, np.nextafter(exact, -np.inf)).any()


@pytest.mark.parametrize("gamma", (math.pi / 3 + 0.01,) + MAC_GAMMAS)
def test_mac_experiment_matches_per_sample_reference(gamma):
    n = 150
    forward, excluded_max, attempts, reverse = ref_mac_experiment(n, gamma, seed=7)
    rep = mac_experiment(n, gamma, seed=7)
    d = rep.d_bound
    bad = [f for f in forward if f[0] > d * (1 + 1e-12) or f[1] > 2 * d * (1 + 1e-12)]
    assert rep.forward_checked == len(forward)
    assert [v[1:] for v in rep.forward_violations] == bad
    assert rep.excluded_count == n - len(forward)
    assert rep.excluded_max_quality == excluded_max
    assert rep.reverse_checked == len(reverse) == n
    assert rep.reverse_attempts == attempts
    assert len(rep.reverse_violations) == reverse.count(False)
