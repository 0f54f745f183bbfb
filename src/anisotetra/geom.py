"""Tetrahedron geometry: classification, standard position, quality.

An arbitrary nondegenerate tetrahedron is classified as Type 1 or Type 2 by
a half-space test built on its shortest edge e2 and the longest edge e1
adjacent to it.  After relabeling, a rigid motion (plus an optional mirror)
carries the tetrahedron onto canonical coordinates

    x1 = (0, 0, 0),  x2 = (alpha1, 0, 0),
    x3 = (alpha2*s1, alpha2*t1, 0)            (Type 1)
    x3 = (alpha1 - alpha2*s1, alpha2*t1, 0)   (Type 2)
    x4 = (alpha3*s21, alpha3*s22, alpha3*t2)

with s1^2 + t1^2 = 1, s21^2 + s22^2 + t2^2 = 1, t1, t2 > 0,
alpha2*s1 <= alpha1/2 and alpha3*s21 <= alpha1/2.  From these parameters the
module derives the factor matrices A = X*Y with closed-form spectral norms,
the quality quantities R_T and H_T, the full angle inventory (face angles,
dihedral angles, edge-face angles), maximum-angle-condition checks, and the
constants tying the maximum angle condition to R_T/h_T.  angles() tests
degeneracy and computes the edge lengths, volume and R_T when called; the
GeometryReport it returns computes H_T and the angle inventory when they are
first read, with the same arithmetic, so a reader of h_T and R_T alone (the
error ratio) pays for nothing else.

Two paths share one arithmetic and one set of combinatorial tables.  The
scalar routines (classify, quality_ratio, angles, mac_check, ...) take one
Tetrahedron and work on plain floats; they are the single-element API and
the reference the tests hold the array kernels to.  The array kernels
(batch_*) take N tetrahedra as an (N, 4, 3) array and evaluate the same
expressions, through the same _sub/_dot/_cross/_scale helpers and the same
bisector-plane test, on coordinate arrays; the sampling experiments in
verify run on them.  Which edges are adjacent, the roles (c, w, d, f) that
classify assigns, the faces, their corners and the face pairs are tabulated
once, and both paths read those tables.  A scalar call is not routed
through the kernels: at N = 1 numpy's per-call overhead dominates.  On a
2-vCPU x86-64 host (AVX-512, numpy 2.4) the kernels' max angle with its
degeneracy test took 163 us per call against 43 us for
max_face_and_dihedral_angle, and their quality_ratio 114 us against 25 us.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateTetrahedron, InputError, InvalidGammaMax

# Relative tolerances (all scale-invariant).
EPS_VOL_REL = 1e-14      # degeneracy: |T| < EPS_VOL_REL * h_T^3
EPS_PLANE_REL = 1e-12    # half-space test: |sigma| <= EPS_PLANE_REL * h_T
EPS_ANGLE = 1e-12        # slack for MAC comparisons, in radians

# Vertex index pairs of the six edges, in a fixed order.
EDGES = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

TYPE1 = 1
TYPE2 = 2


Vertex = tuple[float, float, float]


@dataclass(frozen=True)
class Tetrahedron:
    """Four vertices, stored once as triples of Python floats.

    The count and finiteness of the coordinates are checked here (InputError);
    nondegeneracy is enforced by the operations, not here.
    """

    v: tuple[Vertex, Vertex, Vertex, Vertex]

    def __post_init__(self):
        try:
            v = tuple(tuple(float(c) for c in p) for p in self.v)
        except (TypeError, ValueError) as exc:
            raise InputError("tetrahedron vertices must be numeric: %s" % exc)
        if len(v) != 4 or any(len(p) != 3 for p in v):
            raise InputError("a tetrahedron needs exactly 4 vertices of 3 coordinates")
        if not all(math.isfinite(c) for p in v for c in p):
            raise InputError("tetrahedron vertices must be finite, got %r" % (v,))
        object.__setattr__(self, "v", v)

    @classmethod
    def from_points(cls, pts) -> "Tetrahedron":
        return cls(pts)

    def coords(self) -> tuple[Vertex, Vertex, Vertex, Vertex]:
        return self.v

    @cached_property
    def _edge_lengths(self) -> tuple[float, ...]:
        """edge_lengths(self), computed once: interpolation, the seminorms'
        volume and the geometry report all read them."""
        return tuple(_dist(self.v[i], self.v[j]) for i, j in EDGES)

    def as_array(self) -> np.ndarray:
        return np.array(self.v)


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _norm(a):
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


def _dist(a, b):
    return _norm(_sub(a, b))


def _scale(a, s):
    return (a[0] * s, a[1] * s, a[2] * s)


def edge_lengths(t: Tetrahedron) -> tuple[float, ...]:
    """The six edge lengths in the fixed EDGES order."""
    return t._edge_lengths


def sorted_edge_lengths(t: Tetrahedron) -> tuple[float, ...]:
    """Edge lengths sorted ascending: h1 <= ... <= h6 = h_T."""
    return tuple(sorted(edge_lengths(t)))


def _signed_volume6(v) -> float:
    # 6 * signed volume = det[v2-v1, v3-v1, v4-v1]
    a = _sub(v[1], v[0])
    b = _sub(v[2], v[0])
    c = _sub(v[3], v[0])
    return _dot(a, _cross(b, c))


def _nondegenerate_volume(v, h_t: float) -> float:
    """|T| of the vertices v, whose longest edge is h_t.

    The one scalar degeneracy test, |T| < EPS_VOL_REL * h_T^3 (scale
    invariant), raising DegenerateTetrahedron; batch_volume is its array twin.
    """
    vol = abs(_signed_volume6(v)) / 6.0
    threshold = EPS_VOL_REL * h_t ** 3
    if vol < threshold:
        raise DegenerateTetrahedron(
            "volume %.3e below degeneracy threshold %.3e" % (vol, threshold)
        )
    return vol


def volume(t: Tetrahedron) -> float:
    """Unsigned volume |T|; raises DegenerateTetrahedron below the threshold."""
    return _nondegenerate_volume(t.coords(), max(edge_lengths(t)))


@dataclass(frozen=True)
class Classification:
    """Vertex relabeling of a tetrahedron.

    kind: TYPE1 or TYPE2.
    perm: perm[i] is the original vertex index playing the role of x_{i+1}.
    alpha: (alpha1, alpha2, alpha3); alpha2 is the shortest edge length,
        alpha1 the longest edge adjacent to it, alpha3 = |x1 x4|.
    e1, e2: the edges as sorted original vertex index pairs.
    """

    kind: int
    perm: tuple[int, int, int, int]
    alpha: tuple[float, float, float]
    e1: tuple[int, int]
    e2: tuple[int, int]


def _edge_tables():
    index = np.zeros((4, 4), dtype=int)
    adjacent = np.zeros((6, 6), dtype=bool)
    roles = np.zeros((6, 6, 4), dtype=int)
    for e, (i, j) in enumerate(EDGES):
        index[i, j] = index[j, i] = e
    for a, e2 in enumerate(EDGES):
        for b, e1 in enumerate(EDGES):
            shared = set(e1) & set(e2)
            if len(shared) == 1:
                c = shared.pop()
                w, d = (set(e1) - {c}).pop(), (set(e2) - {c}).pop()
                adjacent[a, b] = True
                roles[a, b] = (c, w, d, (set(range(4)) - {c, w, d}).pop())
    return index, adjacent, roles


# _EDGE_INDEX[i, j]: the EDGES index of edge {i, j}.  _ADJACENT[a, b]: edges
# a and b share one vertex.  _ROLES[e2, e1]: classify's (c, w, d, f).  The
# scalar routines read plain-list views of the same tables, because indexing
# a numpy array one element at a time costs more than their arithmetic.
_EDGE_INDEX, _ADJACENT, _ROLES = _edge_tables()
_EDGE_OF = _EDGE_INDEX.tolist()
_NEIGHBOURS = [np.flatnonzero(row).tolist() for row in _ADJACENT]
_ROLE_OF = _ROLES.tolist()
_EDGE_I = [i for i, _ in EDGES]
_EDGE_J = [j for _, j in EDGES]
# Face i is spanned by the other three vertices; (i, j, r0, r1) in _CORNERS
# says theta[(i, j)] is the angle at corner j between vertices r0 and r1.
_FACES = [[j for j in range(4) if j != i] for i in range(4)]
_CORNERS = [(i, j, *[k for k in face if k != j]) for i, face in enumerate(_FACES) for j in face]
_FACE_PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]


def _bisector_distance(vc, vw, vf, alpha1):
    """Signed distance of vf from the perpendicular bisector plane of the
    edge vc vw of length alpha1, positive toward vw."""
    mid = _scale((vc[0] + vw[0], vc[1] + vw[1], vc[2] + vw[2]), 0.5)
    axis = _scale(_sub(vw, vc), 1.0 / alpha1)
    return _dot(_sub(vf, mid), axis)


def classify(t: Tetrahedron) -> Classification:
    """Classify a tetrahedron as Type 1 or Type 2 and relabel its vertices.

    e2 is a globally shortest edge and e1 a longest edge sharing a vertex
    with it.  The deciding test is against the perpendicular bisector plane
    of e1: the far endpoint of e2 always lies weakly on the side of the
    shared vertex, so the remaining vertex x4 settles the dichotomy.  Ties
    are broken by the lexicographically smallest pair of canonical vertex
    ranks (vertices ordered lexicographically by coordinates), which makes
    the result stable under permutations of the input vertices.
    """
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
    c, w, d, f = _ROLE_OF[e2][e1]

    if _bisector_distance(v[c], v[w], v[f], lengths[e1]) <= EPS_PLANE_REL * h_t:
        # x3 and x4 share the half-space of the shared vertex: Type 1.
        kind, perm = TYPE1, (c, w, d, f)
    else:
        kind, perm = TYPE2, (w, c, d, f)
    alpha = (lengths[e1], lengths[e2], lengths[_EDGE_OF[perm[0]][f]])
    return Classification(kind=kind, perm=perm, alpha=alpha, e1=EDGES[e1], e2=EDGES[e2])


@dataclass(frozen=True)
class StandardPosition:
    """Parameters and rigid motion carrying a tetrahedron to standard position.

    motion(x) = rotation @ x + translation maps the original coordinates onto
    the canonical ones; `mirror` records whether a reflection was folded into
    the (still orthogonal) rotation matrix.
    """

    alpha: tuple[float, float, float]
    params: tuple[float, float, float, float, float]  # (s1, t1, s21, s22, t2)
    rotation: np.ndarray
    translation: np.ndarray
    mirror: bool

    def apply_motion(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        out = pts @ self.rotation.T + self.translation
        return out if np.ndim(points) > 1 else out[0]


def _standard_position_from(t: Tetrahedron, cls: Classification) -> StandardPosition:
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


def standard_position(t: Tetrahedron, cls: Classification | None = None) -> StandardPosition:
    """Rigid motion and parameters of the standard position of t.

    The classification is computed when not supplied.  The returned
    parameters satisfy s1^2 + t1^2 = 1 and s21^2 + s22^2 + t2^2 = 1 by
    construction; the half-space rule guarantees alpha2*s1 <= alpha1/2 and
    alpha3*s21 <= alpha1/2 up to the plane tolerance.
    """
    if cls is None:
        cls = classify(t)
    return _standard_position_from(t, cls)


def standard_position_vertices(sp: StandardPosition, kind: int) -> tuple[tuple[float, float, float], ...]:
    """The canonical vertex coordinates determined by (alpha, params, kind)."""
    alpha1, alpha2, alpha3 = sp.alpha
    s1, t1, s21, s22, t2 = sp.params
    if kind == TYPE1:
        x3 = (alpha2 * s1, alpha2 * t1, 0.0)
    elif kind == TYPE2:
        x3 = (alpha1 - alpha2 * s1, alpha2 * t1, 0.0)
    else:
        raise ValueError("kind must be TYPE1 or TYPE2, got %r" % (kind,))
    return (
        (0.0, 0.0, 0.0),
        (alpha1, 0.0, 0.0),
        x3,
        (alpha3 * s21, alpha3 * s22, alpha3 * t2),
    )


def reference_tetrahedron(kind: int) -> Tetrahedron:
    """The reference tetrahedron of the given type (unit right-corner or its
    sheared Type-2 companion)."""
    if kind == TYPE1:
        pts = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))
    elif kind == TYPE2:
        pts = ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1))
    else:
        raise ValueError("kind must be TYPE1 or TYPE2, got %r" % (kind,))
    return Tetrahedron.from_points(pts)


@dataclass(frozen=True)
class TransformMatrices:
    """The factorization T = A D(reference) with A = X Y.

    normX/normXinv/normY/normYinv are the closed-form spectral norms
    (1 + s)^(1/2) and (1 - s)^(-1/2); normA/normAinv are computed from the
    singular values of A.  The inverse norms are evaluated as
    sqrt(1 + s)/t, which is algebraically identical and does not cancel.
    """

    A: np.ndarray
    D: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    normA: float
    normAinv: float
    normX: float
    normXinv: float
    normY: float
    normYinv: float


def matrices(sp: StandardPosition, kind: int) -> TransformMatrices:
    """Transformation matrices and their spectral norms for a standard position."""
    s1, t1, s21, s22, t2 = sp.params
    if kind == TYPE2:
        s1_signed = -s1
    elif kind == TYPE1:
        s1_signed = s1
    else:
        raise ValueError("kind must be TYPE1 or TYPE2, got %r" % (kind,))

    X = np.array([[1.0, 0.0, s21], [0.0, 1.0, s22], [0.0, 0.0, t2]])
    Y = np.array([[1.0, s1_signed, 0.0], [0.0, t1, 0.0], [0.0, 0.0, 1.0]])
    A = X @ Y
    D = np.diag(sp.alpha)

    bold_s1 = abs(s1)
    bold_s2 = math.hypot(s21, s22)
    sv = np.linalg.svd(A, compute_uv=False)
    return TransformMatrices(
        A=A,
        D=D,
        X=X,
        Y=Y,
        normA=float(sv[0]),
        normAinv=1.0 / float(sv[-1]),
        normX=math.sqrt(1.0 + bold_s2),
        normXinv=math.sqrt(1.0 + bold_s2) / t2,
        normY=math.sqrt(1.0 + bold_s1),
        normYinv=math.sqrt(1.0 + bold_s1) / t1,
    )


def quality(t: Tetrahedron) -> tuple[float, float]:
    """The quality quantities (R_T, H_T).

    R_T = h1*h2*h_T^2/|T| comes from the sorted edge lengths and the
    determinant volume; H_T = 6*h_T/(t1*t2) comes from the standard-position
    parameters.  The two routes are independent; H_T equals
    alpha1*alpha2*alpha3*h_T/|T| identically.
    """
    hs = sorted_edge_lengths(t)
    return _r_t(hs, _nondegenerate_volume(t.coords(), hs[5])), _h_t(t, hs)


def _r_t(hs, vol: float) -> float:
    """R_T from the sorted edge lengths and the volume."""
    return hs[0] * hs[1] * hs[5] ** 2 / vol


def _h_t(t: Tetrahedron, hs) -> float:
    """H_T from the standard-position parameters and the sorted edge lengths."""
    _, t1, _, _, t2 = _standard_position_from(t, classify(t)).params
    return 6.0 * hs[5] / (t1 * t2)


def quality_ratio(t: Tetrahedron, cls: Classification | None = None) -> float:
    """R_T/H_T evaluated without the volume: h1*h2*h_T/(alpha1*alpha2*alpha3).

    The determinant volume cancels between R_T and H_T; this form keeps full
    relative accuracy on needle elements where |T| itself does not.
    """
    if cls is None:
        cls = classify(t)
    hs = sorted_edge_lengths(t)
    a1, a2, a3 = cls.alpha
    return hs[0] * hs[1] * hs[5] / (a1 * a2 * a3)


@dataclass(frozen=True)
class GeometryReport:
    """Edge lengths, volume, quality quantities and the full angle inventory.

    h (sorted), volume and R_T are computed when angles() makes the report;
    H_T and the angles are computed when first read, as most readers (the
    error ratio among them) need h_T and R_T alone.

    theta[(i, j)] is the internal angle of face F_i (opposite vertex i) at
    vertex j; psi[(i, j)] with i < j is the dihedral angle between faces F_i
    and F_j; phi[(i, j)] is the angle between face F_i and the edge x_i x_j.
    All indices are 0-based original vertex indices.  max_angle ranges over
    theta and psi only (the maximum angle condition does not involve phi).
    """

    h: tuple[float, ...]
    volume: float
    R_T: float
    _t: Tetrahedron

    @cached_property
    def H_T(self) -> float:
        return _h_t(self._t, self.h)

    @cached_property
    def _angles(self) -> tuple[dict, dict, dict]:
        """theta, psi and phi."""
        v = self._t.coords()
        lengths = edge_lengths(self._t)
        theta, normals, dists = _face_angles(v)
        phi = {
            (i, j): math.asin(min(1.0, dists[i] / lengths[_EDGE_OF[i][j]]))
            for i in range(4)
            for j in range(4)
            if j != i
        }
        return theta, _dihedral_angles(normals), phi

    @property
    def theta(self) -> dict[tuple[int, int], float]:
        return self._angles[0]

    @property
    def psi(self) -> dict[tuple[int, int], float]:
        return self._angles[1]

    @property
    def phi(self) -> dict[tuple[int, int], float]:
        return self._angles[2]

    @property
    def max_angle(self) -> float:
        return max(max(self.theta.values()), max(self.psi.values()))


def _face_angles(v):
    """theta, inward unit normals, and point-plane distances for all faces."""
    normals = []
    dists = []
    for i, face in enumerate(_FACES):
        a, b, c = (v[j] for j in face)
        n = _cross(_sub(b, a), _sub(c, a))
        nn = _norm(n)
        if nn == 0.0:
            raise DegenerateTetrahedron("face %d is degenerate" % i)
        n = _scale(n, 1.0 / nn)
        # Orient inward: toward the opposite vertex.
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
    """psi[(i, j)], i < j, from the inward unit normals of the faces."""
    psi = {}
    for i, j in _FACE_PAIRS:
        ni, nj = normals[i], normals[j]
        psi[(i, j)] = math.pi - math.atan2(_norm(_cross(ni, nj)), _dot(ni, nj))
    return psi


def angles(t: Tetrahedron) -> GeometryReport:
    """The geometry report of a tetrahedron; DegenerateTetrahedron here when
    it is degenerate, though H_T and the angles are computed when read."""
    hs = sorted_edge_lengths(t)
    vol = _nondegenerate_volume(t.coords(), hs[5])
    return GeometryReport(h=hs, volume=vol, R_T=_r_t(hs, vol), _t=t)


def max_face_and_dihedral_angle(t: Tetrahedron) -> float:
    """max(theta union psi) without the rest of the report."""
    v = t.coords()
    _nondegenerate_volume(v, max(edge_lengths(t)))
    theta, normals, _ = _face_angles(v)
    return max(max(theta.values()), max(_dihedral_angles(normals).values()))


def _check_gamma_max(gamma_max: float):
    if not (math.pi / 3.0 <= gamma_max < math.pi):
        raise InvalidGammaMax(
            "gamma_max must lie in [pi/3, pi), got %r" % (gamma_max,)
        )


def mac_check(t: Tetrahedron, gamma_max: float) -> bool:
    """True iff every face internal angle and dihedral angle is <= gamma_max
    (with EPS_ANGLE slack)."""
    _check_gamma_max(gamma_max)
    return max_face_and_dihedral_angle(t) <= gamma_max + EPS_ANGLE


# ---------------------------------------------------------------------------
# Array kernels
#
# The sampling experiments measure tetrahedra by the thousand.  These kernels
# take the vertices of N tetrahedra as an (N, 4, 3) array and return one
# value per row.  They evaluate the scalar routines' own expressions on
# coordinate arrays: a point is its x, y and z arrays, so _sub, _dot, _cross
# and _scale serve both paths and every +, -, *, / and sqrt runs in the same
# order.  Edge lengths, volumes, the classification, quality_ratio, R_T, t1
# and t2 are therefore bitwise equal to the scalar results.  Degenerate rows
# are not rejected: batch_volume flags them, and the other kernels' values
# on them mean nothing.

# Angles come from numpy's arctan2, which can differ from math.atan2 in the
# last bit; max_angle_at_most hands comparisons this close to the scalar code.
_ATAN2_SLACK = 1e-12


def _coords(verts: np.ndarray, idx) -> np.ndarray:
    """Vertices idx of every row as component-first arrays, (3, len(idx), N)."""
    return verts[:, idx].transpose(2, 1, 0)


def _row_points(verts: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Vertex idx[r] of each row r, as a (3, N) array."""
    return verts[np.arange(len(verts)), idx].T


def _bnorm(a):
    return np.sqrt(_dot(a, a))


def _float_pow(x: np.ndarray, e: int) -> np.ndarray:
    # Python's float power is the C library's pow.  numpy's vectorised power
    # differs from it in the last bit (for cubes, on 5% of inputs on an
    # AVX-512 build), so the scalar routines' powers are taken one by one.
    return np.array([h ** e for h in x.tolist()])


def batch_edge_lengths(verts: np.ndarray) -> np.ndarray:
    """(N, 6) edge lengths in the EDGES order, as edge_lengths per row."""
    return _bnorm(_sub(_coords(verts, _EDGE_I), _coords(verts, _EDGE_J))).T


def batch_volume(verts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|T|, degenerate) per row; degenerate marks the rows volume() rejects."""
    vol = np.abs(_signed_volume6(verts.transpose(1, 2, 0))) / 6.0
    return vol, vol < EPS_VOL_REL * _float_pow(lengths.max(axis=1), 3)


def _first(candidates: np.ndarray, tie: np.ndarray) -> np.ndarray:
    # Per row, the candidate edge with the smallest tie key.
    return np.argmin(np.where(candidates, tie, 16), axis=1)


def batch_classify(verts: np.ndarray, lengths: np.ndarray):
    """(kind, perm, alpha) per row, as classify: shapes (N,), (N, 4), (N, 3).

    Ties between edge lengths are broken as in classify, by the
    lexicographically smallest pair of vertex ranks, the vertices ranked
    lexicographically by coordinates.
    """
    rows = np.arange(len(verts))
    order = np.lexsort((verts[..., 2], verts[..., 1], verts[..., 0]), axis=-1)
    rank = np.empty_like(order)
    rank[rows[:, None], order] = np.arange(4)
    ri, rj = rank[:, _EDGE_I], rank[:, _EDGE_J]
    tie = 4 * np.minimum(ri, rj) + np.maximum(ri, rj)
    e2 = _first(lengths == lengths.min(axis=1, keepdims=True), tie)
    adjacent = np.where(_ADJACENT[e2], lengths, -np.inf)
    e1 = _first(adjacent == adjacent.max(axis=1, keepdims=True), tie)
    c, w, d, f = _ROLES[e2, e1].T

    alpha1 = lengths[rows, e1]
    sigma_f = _bisector_distance(*(_row_points(verts, i) for i in (c, w, f)), alpha1)
    type1 = sigma_f <= EPS_PLANE_REL * lengths.max(axis=1)

    perm = np.where(type1[:, None], np.stack([c, w, d, f], 1), np.stack([w, c, d, f], 1))
    alpha3 = lengths[rows, _EDGE_INDEX[perm[:, 0], f]]
    alpha = np.stack([alpha1, lengths[rows, e2], alpha3], axis=1)
    return np.where(type1, TYPE1, TYPE2), perm, alpha


def batch_quality_ratio(lengths: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """quality_ratio per row, from batch_edge_lengths and batch_classify."""
    hs = np.sort(lengths, axis=1)
    return hs[:, 0] * hs[:, 1] * hs[:, 5] / (alpha[:, 0] * alpha[:, 1] * alpha[:, 2])


def batch_r_over_h(lengths: np.ndarray, vol: np.ndarray) -> np.ndarray:
    """R_T/h_T per row, as quality()[0] / h_T."""
    hs = np.sort(lengths, axis=1)
    return hs[:, 0] * hs[:, 1] * _float_pow(hs[:, 5], 2) / vol / hs[:, 5]


def batch_t1_t2(verts: np.ndarray, perm: np.ndarray, alpha: np.ndarray):
    """The standard-position parameters (t1, t2) per row, as standard_position."""
    x1, x2, x3, x4 = (_row_points(verts, perm[:, i]) for i in range(4))
    b1 = _scale(_sub(x2, x1), 1.0 / alpha[:, 0])
    v3 = _sub(x3, x1)
    proj = _dot(v3, b1)
    w3 = _sub(v3, _scale(b1, proj))
    n3 = _bnorm(w3)
    b3 = _cross(b1, _scale(w3, 1.0 / n3))
    return n3 / alpha[:, 1], np.abs(_dot(_sub(x4, x1), b3)) / alpha[:, 2]


def batch_max_angle(verts: np.ndarray) -> np.ndarray:
    """max_face_and_dihedral_angle per row, to within a few ulps."""
    j, r0, r1 = (_coords(verts, list(idx)) for idx in list(zip(*_CORNERS))[1:])
    u, w = _sub(r0, j), _sub(r1, j)
    theta = np.arctan2(_bnorm(_cross(u, w)), _dot(u, w))

    a, b, c = (_coords(verts, list(idx)) for idx in zip(*_FACES))
    n = np.array(_cross(_sub(b, a), _sub(c, a)))
    n = np.array(_scale(n, 1.0 / _bnorm(n)))
    # Orient inward: toward the opposite vertex.
    n = np.where(_dot(_sub(_coords(verts, [0, 1, 2, 3]), a), n) < 0.0, -n, n)
    ni, nj = (n[:, list(idx)] for idx in zip(*_FACE_PAIRS))
    psi = math.pi - np.arctan2(_bnorm(_cross(ni, nj)), _dot(ni, nj))
    return np.maximum(theta.max(axis=0), psi.max(axis=0))


def max_angle_at_most(verts: np.ndarray, bound) -> np.ndarray:
    """max_face_and_dihedral_angle(t) <= bound per row, decided as the scalar
    routine decides it; bound is a number or one per row."""
    worst = batch_max_angle(verts)
    bound = np.broadcast_to(bound, worst.shape)
    ok = worst <= bound
    for i in np.flatnonzero(np.abs(worst - bound) <= _ATAN2_SLACK):
        ok[i] = max_face_and_dihedral_angle(Tetrahedron.from_points(verts[i])) <= bound[i]
    return ok


@dataclass(frozen=True)
class MacConstants:
    """Constants attached to a maximum angle condition with angle gamma_max.

    D = 6/(C0*C1^2) bounds H_T/h_T for MAC-satisfying tetrahedra; the
    corresponding R_T/h_T bound is 2*D.
    """

    gamma_max: float
    delta: float
    C0: float
    C1: float
    D: float


def mac_bound_constants(gamma_max: float) -> MacConstants:
    """delta, C0, C1 and D = 6/(C0*C1^2) for a given gamma_max."""
    _check_gamma_max(gamma_max)
    ratio = (math.cos(gamma_max) + 1.0) / (math.sin(gamma_max / 2.0) + 1.0)
    sin_delta = math.sqrt(ratio)
    delta = math.asin(min(1.0, sin_delta))
    c1 = min(math.sin((math.pi - gamma_max) / 2.0), math.sin(gamma_max))
    c0 = min(sin_delta, math.sin(gamma_max))
    return MacConstants(
        gamma_max=gamma_max,
        delta=delta,
        C0=c0,
        C1=c1,
        D=6.0 / (c0 * c1 * c1),
    )


def mac_reverse_gamma(d_bound: float, kind: int | None = None) -> float:
    """The angle gamma' such that R_T/h_T <= d_bound implies the MAC with gamma'.

    The implication is proved per type from the bound H_T/h_T <= 2*d_bound
    (H_T <= 2*R_T), with M = 6/(2*d_bound) = 3/d_bound:

        Type 1: gamma' = max(gamma(M/2), arccos(-sqrt(1-M^2)*sqrt(1-M^2/4)))
        Type 2: gamma' = max(gamma(M),   arccos(M^2 - 1))

    where gamma(M) = pi - arcsin(M).  With kind=None the weaker (larger) of
    the two values is returned, valid for a tetrahedron of unknown type.
    """
    m = 3.0 / d_bound
    if not 0.0 < m < 1.0:
        raise ValueError(
            "reverse MAC formula needs d_bound > 3 so that 0 < M < 1, got %r"
            % (d_bound,)
        )

    def type1(mm):
        g1 = math.pi - math.asin(mm / 2.0)
        g2 = math.acos(-math.sqrt(1.0 - mm * mm) * math.sqrt(1.0 - mm * mm / 4.0))
        return max(g1, g2)

    def type2(mm):
        g1 = math.pi - math.asin(mm)
        g2 = math.acos(mm * mm - 1.0)
        return max(g1, g2)

    if kind == TYPE1:
        return type1(m)
    if kind == TYPE2:
        return type2(m)
    if kind is None:
        return max(type1(m), type2(m))
    raise ValueError("kind must be TYPE1, TYPE2 or None, got %r" % (kind,))


@dataclass(frozen=True)
class TrigIdentityReport:
    """Residuals of the sine and cosine identities among theta, psi, phi.

    twosin:    sin phi[(j,n)] - sin theta[(k,n)] * sin psi[(k,j)]
    cos_theta: cos theta[(k,j)] - (cos theta[(m,j)] cos theta[(n,j)]
               + sin theta[(m,j)] sin theta[(n,j)] cos psi[(m,n)])
    cos_psi:   cos psi[(m,n)] - (sin psi[(m,k)] sin psi[(n,k)] cos theta[(k,j)]
               - cos psi[(m,k)] cos psi[(n,k)])
    keyed by (j, n, k) resp. (j, k); max_residual ranges over everything.
    """

    twosin: dict[tuple[int, int, int], float]
    cos_theta: dict[tuple[int, int], float]
    cos_psi: dict[tuple[int, int], float]
    max_residual: float


def verify_trig_identities(t: Tetrahedron) -> TrigIdentityReport:
    """Evaluate all instances of the angle identities on t."""
    rep = angles(t)

    def psi_at(i, j):
        return rep.psi[(i, j) if i < j else (j, i)]

    # Both loops read _CORNERS: face j (opposite vertex j), a corner of it
    # and that corner's other two vertices; twosin's corner is n.
    twosin = {}
    for j, n, *others in _CORNERS:
        for k in others:
            lhs = math.sin(rep.phi[(j, n)])
            rhs = math.sin(rep.theta[(k, n)]) * math.sin(psi_at(k, j))
            twosin[(j, n, k)] = lhs - rhs

    cos_theta = {}
    cos_psi = {}
    for j, k, m, n in _CORNERS:
        lhs = math.cos(rep.theta[(k, j)])
        rhs = math.cos(rep.theta[(m, j)]) * math.cos(rep.theta[(n, j)]) + math.sin(
            rep.theta[(m, j)]
        ) * math.sin(rep.theta[(n, j)]) * math.cos(psi_at(m, n))
        cos_theta[(j, k)] = lhs - rhs

        lhs2 = math.cos(psi_at(m, n))
        rhs2 = math.sin(psi_at(m, k)) * math.sin(psi_at(n, k)) * math.cos(
            rep.theta[(k, j)]
        ) - math.cos(psi_at(m, k)) * math.cos(psi_at(n, k))
        cos_psi[(j, k)] = lhs2 - rhs2

    worst = max(
        max(abs(r) for r in twosin.values()),
        max(abs(r) for r in cos_theta.values()),
        max(abs(r) for r in cos_psi.values()),
    )
    return TrigIdentityReport(
        twosin=twosin, cos_theta=cos_theta, cos_psi=cos_psi, max_residual=worst
    )
