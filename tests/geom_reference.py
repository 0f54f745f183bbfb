"""Per-element geometry on plain floats, the oracle for the geom kernels.

These are the scalar routines the package used before every geometry
quantity became an (N, 4, 3) array kernel with the scalar API as its batch
of one.  They work on Python floats and the math module, one tetrahedron at
a time, and share no code with the kernels beyond the float helpers
(_sub, _dot, _cross, _norm, _scale), the degeneracy test and the EDGES
order.  The kernels must agree with them bitwise on lengths, volume,
classification, standard position, the transform matrices, quality_ratio,
R_T and H_T, and within 1e-12 rad on angles (numpy's arctan2 and arcsin
against the math module's).
"""

import math

import numpy as np

from anisotetra.errors import DegenerateTetrahedron, InvalidGammaMax
from anisotetra.geom import (
    EDGES,
    EPS_ANGLE,
    EPS_PLANE_REL,
    TYPE1,
    TYPE2,
    Classification,
    StandardPosition,
    TransformMatrices,
    _cross,
    _dot,
    _nondegenerate_volume,
    _norm,
    _scale,
    _sub,
    edge_lengths,
    sorted_edge_lengths,
)

_EDGE_OF = [[None] * 4 for _ in range(4)]
for _e, (_i, _j) in enumerate(EDGES):
    _EDGE_OF[_i][_j] = _EDGE_OF[_j][_i] = _e
# The edges sharing exactly one vertex with each edge, and classify's roles
# (c, w, d, f) for the pair (e2, e1): c shared, w on e1, d on e2, f the rest.
_NEIGHBOURS = [[b for b, e1 in enumerate(EDGES) if len(set(e1) & set(e2)) == 1] for e2 in EDGES]


def _roles(e2, e1):
    (c,) = set(e1) & set(e2)
    w, d = (set(e1) - {c}).pop(), (set(e2) - {c}).pop()
    return c, w, d, (set(range(4)) - {c, w, d}).pop()


_FACES = [[j for j in range(4) if j != i] for i in range(4)]
_CORNERS = [(i, j, *[k for k in face if k != j]) for i, face in enumerate(_FACES) for j in face]
_FACE_PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]


def _bisector_distance(vc, vw, vf, alpha1):
    mid = _scale((vc[0] + vw[0], vc[1] + vw[1], vc[2] + vw[2]), 0.5)
    axis = _scale(_sub(vw, vc), 1.0 / alpha1)
    return _dot(_sub(vf, mid), axis)


def classify(t):
    v = t.coords()
    lengths = edge_lengths(t)
    h_t = max(lengths)
    _nondegenerate_volume(v, h_t)

    rank = [0] * 4
    for r, i in enumerate(sorted(range(4), key=lambda i: v[i])):
        rank[i] = r
    tie = [4 * min(rank[i], rank[j]) + max(rank[i], rank[j]) for i, j in EDGES]
    e2 = min(range(6), key=lambda e: (lengths[e], tie[e]))
    e1 = min(_NEIGHBOURS[e2], key=lambda e: (-lengths[e], tie[e]))
    c, w, d, f = _roles(EDGES[e2], EDGES[e1])

    if _bisector_distance(v[c], v[w], v[f], lengths[e1]) <= EPS_PLANE_REL * h_t:
        kind, perm = TYPE1, (c, w, d, f)
    else:
        kind, perm = TYPE2, (w, c, d, f)
    alpha = (lengths[e1], lengths[e2], lengths[_EDGE_OF[perm[0]][f]])
    return Classification(kind=kind, perm=perm, alpha=alpha, e1=EDGES[e1], e2=EDGES[e2])


def standard_position(t, cls=None):
    if cls is None:
        cls = classify(t)
    v = t.coords()
    labeled = [v[i] for i in cls.perm]
    alpha1, alpha2, alpha3 = cls.alpha

    b1 = _scale(_sub(labeled[1], labeled[0]), 1.0 / alpha1)
    v3 = _sub(labeled[2], labeled[0])
    proj = _dot(v3, b1)
    w3 = (v3[0] - proj * b1[0], v3[1] - proj * b1[1], v3[2] - proj * b1[2])
    n3 = _norm(w3)
    if n3 <= 0.0:
        raise DegenerateTetrahedron("x3 lies on the line through x1 x2")
    b2 = _scale(w3, 1.0 / n3)
    t1 = n3 / alpha2
    if cls.kind == TYPE1:
        s1 = proj / alpha2
    else:
        s1 = (alpha1 - proj) / alpha2

    b3 = _cross(b1, b2)
    v4 = _sub(labeled[3], labeled[0])
    zc = _dot(v4, b3)
    mirror = zc < 0.0
    if mirror:
        b3 = _scale(b3, -1.0)
        zc = -zc
    s21 = _dot(v4, b1) / alpha3
    s22 = _dot(v4, b2) / alpha3
    t2 = zc / alpha3
    if t2 <= 0.0:
        raise DegenerateTetrahedron("x4 lies in the plane of x1 x2 x3")

    rotation = np.array([b1, b2, b3])
    return StandardPosition(
        alpha=cls.alpha,
        params=(s1, t1, s21, s22, t2),
        rotation=rotation,
        translation=-(rotation @ np.array(labeled[0])),
        mirror=mirror,
    )


def standard_position_vertices(sp, kind):
    alpha1, alpha2, alpha3 = sp.alpha
    s1, t1, s21, s22, t2 = sp.params
    if kind == TYPE1:
        x3 = (alpha2 * s1, alpha2 * t1, 0.0)
    else:
        x3 = (alpha1 - alpha2 * s1, alpha2 * t1, 0.0)
    return ((0.0, 0.0, 0.0), (alpha1, 0.0, 0.0), x3, (alpha3 * s21, alpha3 * s22, alpha3 * t2))


def matrices(sp, kind):
    s1, t1, s21, s22, t2 = sp.params
    s1_signed = -s1 if kind == TYPE2 else s1
    X = np.array([[1.0, 0.0, s21], [0.0, 1.0, s22], [0.0, 0.0, t2]])
    Y = np.array([[1.0, s1_signed, 0.0], [0.0, t1, 0.0], [0.0, 0.0, 1.0]])
    A = X @ Y
    bold_s1 = abs(s1)
    bold_s2 = math.hypot(s21, s22)
    sv = np.linalg.svd(A, compute_uv=False)
    return TransformMatrices(
        A=A,
        D=np.diag(sp.alpha),
        X=X,
        Y=Y,
        normA=float(sv[0]),
        normAinv=1.0 / float(sv[-1]),
        normX=math.sqrt(1.0 + bold_s2),
        normXinv=math.sqrt(1.0 + bold_s2) / t2,
        normY=math.sqrt(1.0 + bold_s1),
        normYinv=math.sqrt(1.0 + bold_s1) / t1,
    )


def quality(t):
    """(R_T, H_T)."""
    hs = sorted_edge_lengths(t)
    vol = _nondegenerate_volume(t.coords(), hs[5])
    _, t1, _, _, t2 = standard_position(t).params
    return hs[0] * hs[1] * hs[5] ** 2 / vol, 6.0 * hs[5] / (t1 * t2)


def quality_ratio(t, cls=None):
    if cls is None:
        cls = classify(t)
    hs = sorted_edge_lengths(t)
    a1, a2, a3 = cls.alpha
    return hs[0] * hs[1] * hs[5] / (a1 * a2 * a3)


def _face_angles(v):
    normals = []
    dists = []
    for i, face in enumerate(_FACES):
        a, b, c = (v[j] for j in face)
        n = _cross(_sub(b, a), _sub(c, a))
        nn = _norm(n)
        if nn == 0.0:
            raise DegenerateTetrahedron("face %d is degenerate" % i)
        n = _scale(n, 1.0 / nn)
        dist = _dot(_sub(v[i], a), n)
        if dist < 0.0:
            n = _scale(n, -1.0)
            dist = -dist
        normals.append(n)
        dists.append(dist)
    theta = {}
    for i, j, r0, r1 in _CORNERS:
        u, w = _sub(v[r0], v[j]), _sub(v[r1], v[j])
        theta[(i, j)] = math.atan2(_norm(_cross(u, w)), _dot(u, w))
    return theta, normals, dists


def _dihedral_angles(normals):
    psi = {}
    for i, j in _FACE_PAIRS:
        ni, nj = normals[i], normals[j]
        psi[(i, j)] = math.pi - math.atan2(_norm(_cross(ni, nj)), _dot(ni, nj))
    return psi


def angle_inventory(t):
    """(theta, psi, phi) as GeometryReport keys them."""
    v = t.coords()
    _nondegenerate_volume(v, max(edge_lengths(t)))
    lengths = edge_lengths(t)
    theta, normals, dists = _face_angles(v)
    phi = {
        (i, j): math.asin(min(1.0, dists[i] / lengths[_EDGE_OF[i][j]]))
        for i in range(4)
        for j in range(4)
        if j != i
    }
    return theta, _dihedral_angles(normals), phi


def max_face_and_dihedral_angle(t):
    theta, psi, _ = angle_inventory(t)
    return max(max(theta.values()), max(psi.values()))


def mac_check(t, gamma_max):
    if not (math.pi / 3.0 <= gamma_max < math.pi):
        raise InvalidGammaMax("gamma_max must lie in [pi/3, pi), got %r" % (gamma_max,))
    return max_face_and_dihedral_angle(t) <= gamma_max + EPS_ANGLE


def trig_identities(t):
    """(twosin, cos_theta, cos_psi, max_residual), the residuals keyed as
    geom.batch_trig_identities orders its columns (_TWOSIN_KEYS, _THETA_KEYS)."""
    theta, psi, phi = angle_inventory(t)

    def psi_at(i, j):
        return psi[(i, j) if i < j else (j, i)]

    twosin = {}
    for j, n, *others in _CORNERS:
        for k in others:
            twosin[(j, n, k)] = math.sin(phi[(j, n)]) - math.sin(theta[(k, n)]) * math.sin(psi_at(k, j))
    cos_theta = {}
    cos_psi = {}
    for j, k, m, n in _CORNERS:
        cos_theta[(j, k)] = math.cos(theta[(k, j)]) - (
            math.cos(theta[(m, j)]) * math.cos(theta[(n, j)])
            + math.sin(theta[(m, j)]) * math.sin(theta[(n, j)]) * math.cos(psi_at(m, n))
        )
        cos_psi[(j, k)] = math.cos(psi_at(m, n)) - (
            math.sin(psi_at(m, k)) * math.sin(psi_at(n, k)) * math.cos(theta[(k, j)])
            - math.cos(psi_at(m, k)) * math.cos(psi_at(n, k))
        )
    worst = max(abs(r) for d in (twosin, cos_theta, cos_psi) for r in d.values())
    return twosin, cos_theta, cos_psi, worst
