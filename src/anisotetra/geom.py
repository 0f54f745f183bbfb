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
constants tying the maximum angle condition to R_T/h_T.

Each quantity has one implementation, an array kernel (batch_*) that takes
N tetrahedra as an (N, 4, 3) array and returns one value per row; the
sampling experiments in verify run on them.  A scalar call is a batch of
one, and a Tetrahedron is measured once: when first read it keeps its
(1, 4, 3) vertex row and (1, 6) edge lengths (batch_edge_lengths), then its
GeometryReport, whose |T| and degeneracy decision are batch_volume's on that
row, then its frame (vertices, J^{-T}) for interp.pull_back, all read-only.
The scalar routines (volume, angles, classify, standard_position,
quality_ratio, mac_check, ...) read that one measurement, so an element is
tested once however many of them read it; a degenerate one raises on every
call and caches nothing.  The first query of an element costs 50 to 90 us
(one-row kernels on a 2-vCPU x86-64 host, numpy 2.4), later ones a lookup.
The report computes H_T and the angle inventory when they are first read.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (DegenerateTetrahedron, InputError, InvalidGammaMax, NumericalError,
                     integer, real)

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
    nondegeneracy is decided when the element is first measured (_report).
    The measurements are cached on the element and never compared: two
    elements are equal when their vertices are.
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

    def as_array(self) -> np.ndarray:
        return np.array(self.v)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The (1, 4, 3) vertex row and its (1, 6) edge lengths, read-only and
        not tested for degeneracy: edge_lengths reads them as they are."""
        verts = np.array([self.v])
        lengths = batch_edge_lengths(verts)
        verts.flags.writeable = lengths.flags.writeable = False
        return verts, lengths

    @cached_property
    def _report(self) -> GeometryReport:
        """angles(self).  batch_volume on the row is the one degeneracy test:
        DegenerateTetrahedron or NumericalError, and then nothing is cached,
        so every later call raises alike."""
        verts, lengths = self._arrays
        vol, degenerate = batch_volume(verts, lengths)
        if degenerate[0]:
            raise DegenerateTetrahedron("volume %.3e below degeneracy threshold %.3e"
                                        % (vol[0], _volume_threshold(lengths.max(axis=1))[0][0]))
        return GeometryReport(h=sorted_edge_lengths(self), volume=float(vol[0]),
                              R_T=float(batch_r_t(lengths, vol)[0]), _t=self)

    @cached_property
    def _pull_back(self) -> tuple[np.ndarray, np.ndarray]:
        """interp.pull_back(self): the vertices (4, 3) and J^{-T}, read-only,
        from one inversion once the element has passed its test."""
        verts = self._report._rows[0][0]
        inverse_t = np.ascontiguousarray(np.linalg.inv((verts[1:] - verts[0]).T).T)
        inverse_t.flags.writeable = False
        return verts, inverse_t


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


def _scale(a, s):
    return (a[0] * s, a[1] * s, a[2] * s)


def edge_lengths(t: Tetrahedron) -> tuple[float, ...]:
    """The six edge lengths in the fixed EDGES order (batch_edge_lengths)."""
    return tuple(t._arrays[1][0].tolist())


def sorted_edge_lengths(t: Tetrahedron) -> tuple[float, ...]:
    """Edge lengths sorted ascending: h1 <= ... <= h6 = h_T."""
    return tuple(sorted(edge_lengths(t)))


def _signed_volume6(v) -> float:
    # 6 * signed volume = det[v2-v1, v3-v1, v4-v1]
    a = _sub(v[1], v[0])
    b = _sub(v[2], v[0])
    c = _sub(v[3], v[0])
    return _dot(a, _cross(b, c))


def volume(t: Tetrahedron) -> float:
    """Unsigned volume |T|; raises DegenerateTetrahedron below the threshold
    (batch_volume)."""
    return angles(t).volume


def _check_kind(kind) -> int:
    return integer(kind, "kind", TYPE1, TYPE2)


def reference_tetrahedron(kind: int) -> Tetrahedron:
    """The reference tetrahedron of the given type (unit right-corner or its
    sheared Type-2 companion)."""
    if _check_kind(kind) == TYPE1:
        return Tetrahedron.from_points(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)))
    return Tetrahedron.from_points(((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 0, 1)))


@dataclass(frozen=True)
class Classification:
    """Vertex relabeling of a tetrahedron.

    kind: TYPE1 or TYPE2.
    perm: perm[i] is the original vertex index playing the role of x_{i+1}.
    alpha: (alpha1, alpha2, alpha3); alpha2 is the shortest edge length,
        alpha1 the longest edge adjacent to it, alpha3 = |x1 x4|.
    e1, e2: the edges as sorted original vertex index pairs.
    The fields, in this order, are the keys of analyze's classification.
    """

    kind: int
    perm: tuple[int, int, int, int]
    alpha: tuple[float, float, float]
    e1: tuple[int, int]
    e2: tuple[int, int]


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


# ---------------------------------------------------------------------------
# Array kernels
#
# Each kernel takes the vertices of N tetrahedra as an (N, 4, 3) array, or
# per-row values another kernel returned, and returns one value per row.  A
# point is its x, y and z arrays, so _sub, _dot, _cross and _scale serve
# points of floats and of arrays alike.  Degenerate rows are not rejected:
# batch_volume flags them, and the other kernels' values on them mean nothing.


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
# a and b share one vertex.  _ROLES[e2, e1]: classify's (c, w, d, f).
_EDGE_INDEX, _ADJACENT, _ROLES = _edge_tables()
_EDGE_I = [i for i, _ in EDGES]
_EDGE_J = [j for _, j in EDGES]
# Face i is spanned by the other three vertices; (i, j, r0, r1) in _CORNERS
# says theta[(i, j)] is the angle at corner j between vertices r0 and r1.
_FACES = [[j for j in range(4) if j != i] for i in range(4)]
_CORNERS = [(i, j, *[k for k in face if k != j]) for i, face in enumerate(_FACES) for j in face]
_FACE_PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]
# The columns of batch_angles: theta, psi and phi keyed as GeometryReport.
_THETA_KEYS = [(i, j) for i, j, _, _ in _CORNERS]
_PHI_KEYS = [(i, j) for i in range(4) for j in range(4) if j != i]
_TWOSIN_KEYS = [(j, n, k) for j, n, *others in _CORNERS for k in others]


def _psi_column(i, j):
    return _FACE_PAIRS.index((min(i, j), max(i, j)))


# The angle columns each identity reads (batch_trig_identities gives the
# identities): twosin's phi (j, n), theta (k, n) and psi (k, j); per corner
# (j, k, m, n), theta (k, j), (m, j), (n, j) and psi (m, n), (m, k), (n, k).
_TWOSIN_COLUMNS = np.array([
    (_PHI_KEYS.index((j, n)), _THETA_KEYS.index((k, n)), _psi_column(k, j))
    for j, n, k in _TWOSIN_KEYS
]).T
_CORNER_COLUMNS = np.array([
    (_THETA_KEYS.index((k, j)), _THETA_KEYS.index((m, j)), _THETA_KEYS.index((n, j)),
     _psi_column(m, n), _psi_column(m, k), _psi_column(n, k))
    for j, k, m, n in _CORNERS
]).T


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
    # AVX-512 build), so powers that the scalar report takes on floats (the
    # threshold's h_T^3, R_T's h_T^2) are taken one by one.
    return np.array([h ** e for h in x.tolist()])


def batch_edge_lengths(verts: np.ndarray) -> np.ndarray:
    """(N, 6) edge lengths in the EDGES order, as edge_lengths per row; a
    length beyond the float range is inf, as in float arithmetic, unwarned."""
    with np.errstate(over="ignore"):
        return _bnorm(_sub(_coords(verts, _EDGE_I), _coords(verts, _EDGE_J))).T


def _volume_threshold(h_t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(EPS_VOL_REL * h_T^3, in_range, h_T^4) per row.  in_range: h_T^4 is
    finite and EPS_VOL_REL * h_T^4 a normal float (h_T from about 4e-74 to
    1e77); beyond it the threshold is 0."""
    with np.errstate(over="ignore"):
        h4 = (h_t * h_t) * (h_t * h_t)
    in_range = (h4 < math.inf) & (EPS_VOL_REL * h4 >= sys.float_info.min)
    return EPS_VOL_REL * _float_pow(np.where(in_range, h_t, 0.0), 3), in_range, h4


def batch_volume(verts: np.ndarray, lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(|T|, degenerate) per row, by the package's one degeneracy rule:
    |T| < EPS_VOL_REL * h_T^3 (scale invariant), or |T| = 0 at any h_T.
    Beyond the float range of _volume_threshold a row with |T| > 0 raises
    NumericalError for the whole block.  Within it lie the kernels' squared
    cross products of edges and R_T's numerator h1*h2*h_T^2, which is at
    least 6|T|h_T since |T| <= h1*h2*h_T/6: so R_T is finite and nonzero."""
    h_t = lengths.max(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        vol = np.abs(_signed_volume6(verts.transpose(1, 2, 0))) / 6.0
    threshold, in_range, h4 = _volume_threshold(h_t)
    degenerate = vol < threshold
    if not in_range.all():
        # Beyond the range |T| = 0 is degenerate, and any other |T| is refused.
        refused = np.flatnonzero(~in_range & (vol != 0.0))
        if len(refused):
            i = refused[0]
            raise NumericalError("h_T = %.3e is beyond the float range of the geometry: "
                                 "h_T^4 = %.3e" % (h_t[i], h4[i]))
        degenerate |= ~in_range
    return vol, degenerate


def _bisector_distance(vc, vw, vf, alpha1):
    """Signed distance of vf from the perpendicular bisector plane of the
    edge vc vw of length alpha1, positive toward vw."""
    mid = _scale((vc[0] + vw[0], vc[1] + vw[1], vc[2] + vw[2]), 0.5)
    axis = _scale(_sub(vw, vc), 1.0 / alpha1)
    return _dot(_sub(vf, mid), axis)


def _first(candidates: np.ndarray, tie: np.ndarray) -> np.ndarray:
    # Per row, the candidate edge with the smallest tie key.
    return np.argmin(np.where(candidates, tie, 16), axis=1)


def batch_classify(verts: np.ndarray, lengths: np.ndarray):
    """(kind, perm, alpha, e1, e2) per row, shapes (N,), (N, 4), (N, 3), (N,),
    (N,); e1 and e2 are EDGES indices.

    e2 is a globally shortest edge and e1 a longest edge sharing a vertex
    with it.  The deciding test is against the perpendicular bisector plane
    of e1: the far endpoint of e2 always lies weakly on the side of the
    shared vertex, so the remaining vertex x4 settles the dichotomy.  Ties
    are broken by the lexicographically smallest pair of canonical vertex
    ranks (vertices ordered lexicographically by coordinates), which makes
    the result stable under permutations of the input vertices.
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
    # x3 and x4 share the half-space of the shared vertex: Type 1.
    type1 = sigma_f <= EPS_PLANE_REL * lengths.max(axis=1)

    perm = np.where(type1[:, None], np.stack([c, w, d, f], 1), np.stack([w, c, d, f], 1))
    alpha3 = lengths[rows, _EDGE_INDEX[perm[:, 0], f]]
    alpha = np.stack([alpha1, lengths[rows, e2], alpha3], axis=1)
    return np.where(type1, TYPE1, TYPE2), perm, alpha, e1, e2


def batch_standard_position(verts: np.ndarray, kind: np.ndarray, perm: np.ndarray,
                            alpha: np.ndarray):
    """(params, rotation, translation, mirror) per row, shapes (N, 5),
    (N, 3, 3), (N, 3), (N,), from batch_classify's kind, perm and alpha.

    params are (s1, t1, s21, s22, t2); they satisfy s1^2 + t1^2 = 1 and
    s21^2 + s22^2 + t2^2 = 1 by construction, and the half-space rule
    guarantees alpha2*s1 <= alpha1/2 and alpha3*s21 <= alpha1/2 up to the
    plane tolerance.
    """
    x1, x2, x3, x4 = (_row_points(verts, perm[:, i]) for i in range(4))
    alpha1, alpha2, alpha3 = alpha.T
    b1 = _scale(_sub(x2, x1), 1.0 / alpha1)
    v3 = _sub(x3, x1)
    proj = _dot(v3, b1)
    w3 = _sub(v3, _scale(b1, proj))
    n3 = _bnorm(w3)
    b2 = _scale(w3, 1.0 / n3)
    b3 = _cross(b1, b2)
    v4 = _sub(x4, x1)
    zc = _dot(v4, b3)
    mirror = zc < 0.0
    b3 = _scale(b3, np.where(mirror, -1.0, 1.0))
    s1 = np.where(kind == TYPE1, proj, alpha1 - proj) / alpha2
    params = np.stack([s1, n3 / alpha2, _dot(v4, b1) / alpha3, _dot(v4, b2) / alpha3,
                       np.abs(zc) / alpha3], axis=1)
    rotation = np.stack([np.stack(b, axis=1) for b in (b1, b2, b3)], axis=1)
    translation = -(rotation @ np.ascontiguousarray(x1.T)[:, :, None])[:, :, 0]
    return params, rotation, translation, mirror


def batch_standard_position_vertices(kind: np.ndarray, alpha: np.ndarray,
                                     params: np.ndarray) -> np.ndarray:
    """(N, 4, 3) canonical vertices determined by (alpha, params, kind)."""
    alpha1, alpha2, alpha3 = alpha.T
    s1, t1 = params[:, 0], params[:, 1]
    out = np.zeros((len(alpha), 4, 3))
    out[:, 1, 0] = alpha1
    out[:, 2, 0] = np.where(kind == TYPE1, alpha2 * s1, alpha1 - alpha2 * s1)
    out[:, 2, 1] = alpha2 * t1
    out[:, 3] = alpha3[:, None] * params[:, 2:]
    return out


def batch_matrices(kind: np.ndarray, alpha: np.ndarray, params: np.ndarray):
    """(A, D, X, Y, norms) per row: the (N, 3, 3) factors of TransformMatrices
    and its six norms as an (N, 6) array, in the order of its fields."""
    s1, t1, s21, s22, t2 = params.T
    X = np.zeros((len(params), 3, 3))
    X[:, 0, 0] = X[:, 1, 1] = 1.0
    X[:, :, 2] = params[:, 2:]
    Y = np.zeros_like(X)
    Y[:, 0, 0] = Y[:, 2, 2] = 1.0
    Y[:, 0, 1] = np.where(kind == TYPE1, s1, -s1)
    Y[:, 1, 1] = t1
    A = X @ Y
    sv = np.linalg.svd(A, compute_uv=False)
    # math.hypot and numpy's hypot differ in the last bit on about 1% of
    # inputs; the norms are reported, so the one per row is math's.
    root_x = np.sqrt(1.0 + np.array(list(map(math.hypot, s21.tolist(), s22.tolist()))))
    root_y = np.sqrt(1.0 + np.abs(s1))
    norms = np.stack([sv[:, 0], 1.0 / sv[:, -1], root_x, root_x / t2, root_y, root_y / t1],
                     axis=1)
    return A, alpha[:, :, None] * np.eye(3), X, Y, norms


def batch_quality_ratio(lengths: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """R_T/H_T per row without the volume, h1*h2*h_T/(alpha1*alpha2*alpha3).

    The determinant volume cancels between R_T and H_T; this form keeps full
    relative accuracy on needle elements where |T| itself does not.
    """
    hs = np.sort(lengths, axis=1)
    return hs[:, 0] * hs[:, 1] * hs[:, 5] / (alpha[:, 0] * alpha[:, 1] * alpha[:, 2])


def batch_r_t(lengths: np.ndarray, vol: np.ndarray) -> np.ndarray:
    """R_T = h1*h2*h_T^2/|T| per row, GeometryReport.R_T."""
    hs = np.sort(lengths, axis=1)
    return hs[:, 0] * hs[:, 1] * _float_pow(hs[:, 5], 2) / vol


def batch_r_over_h(lengths: np.ndarray, vol: np.ndarray) -> np.ndarray:
    """R_T/h_T per row, as GeometryReport.R_T / h_T."""
    return batch_r_t(lengths, vol) / lengths.max(axis=1)


def batch_h_t(lengths: np.ndarray, params: np.ndarray) -> np.ndarray:
    """H_T = 6*h_T/(t1*t2) per row, from batch_standard_position's params.
    It equals alpha1*alpha2*alpha3*h_T/|T| identically."""
    return 6.0 * lengths.max(axis=1) / (params[:, 1] * params[:, 4])


def _theta_psi(verts: np.ndarray):
    """theta (12, N), psi (6, N), and each vertex's distance from its
    opposite face (4, N)."""
    j, r0, r1 = (_coords(verts, list(idx)) for idx in list(zip(*_CORNERS))[1:])
    u, w = _sub(r0, j), _sub(r1, j)
    theta = np.arctan2(_bnorm(_cross(u, w)), _dot(u, w))

    a, b, c = (_coords(verts, list(idx)) for idx in zip(*_FACES))
    n = np.array(_cross(_sub(b, a), _sub(c, a)))
    n = np.array(_scale(n, 1.0 / _bnorm(n)))
    dist = _dot(_sub(_coords(verts, [0, 1, 2, 3]), a), n)
    # Orient inward: toward the opposite vertex.
    n = np.where(dist < 0.0, -n, n)
    ni, nj = (n[:, list(idx)] for idx in zip(*_FACE_PAIRS))
    psi = math.pi - np.arctan2(_bnorm(_cross(ni, nj)), _dot(ni, nj))
    return theta, psi, np.abs(dist)


def batch_angles(verts: np.ndarray, lengths: np.ndarray):
    """(theta, psi, phi) per row, shapes (N, 12), (N, 6), (N, 12), their
    columns keyed as GeometryReport keys them (_THETA_KEYS, _FACE_PAIRS,
    _PHI_KEYS)."""
    theta, psi, dist = _theta_psi(verts)
    face, edge = zip(*((i, _EDGE_INDEX[i, j]) for i, j in _PHI_KEYS))
    phi = np.arcsin(np.minimum(1.0, dist[list(face)] / lengths.T[list(edge)]))
    return theta.T, psi.T, phi.T


def batch_max_angle(verts: np.ndarray) -> np.ndarray:
    """The largest face and dihedral angle per row."""
    theta, psi, _ = _theta_psi(verts)
    return np.maximum(theta.max(axis=0), psi.max(axis=0))


def max_angle_at_most(verts: np.ndarray, bound) -> np.ndarray:
    """batch_max_angle(verts) <= bound per row; bound is a number or one per row."""
    return batch_max_angle(verts) <= bound


def batch_trig_identities(theta: np.ndarray, psi: np.ndarray, phi: np.ndarray):
    """The residuals of the sine and cosine identities among theta, psi and
    phi per row, from batch_angles:

    twosin:    sin phi[(j,n)] - sin theta[(k,n)] * sin psi[(k,j)]
    cos_theta: cos theta[(k,j)] - (cos theta[(m,j)] cos theta[(n,j)]
               + sin theta[(m,j)] sin theta[(n,j)] cos psi[(m,n)])
    cos_psi:   cos psi[(m,n)] - (sin psi[(m,k)] sin psi[(n,k)] cos theta[(k,j)]
               - cos psi[(m,k)] cos psi[(n,k)])

    shapes (N, 24), (N, 12), (N, 12), with columns keyed (j, n, k) as
    _TWOSIN_KEYS and (j, k) as _THETA_KEYS.
    """
    phi_jn, theta_kn, psi_kj = _TWOSIN_COLUMNS
    twosin = np.sin(phi[:, phi_jn]) - np.sin(theta[:, theta_kn]) * np.sin(psi[:, psi_kj])
    kj, mj, nj, mn, mk, nk = _CORNER_COLUMNS
    cos_t, sin_t, cos_p, sin_p = np.cos(theta), np.sin(theta), np.cos(psi), np.sin(psi)
    cos_theta = cos_t[:, kj] - (cos_t[:, mj] * cos_t[:, nj]
                                + sin_t[:, mj] * sin_t[:, nj] * cos_p[:, mn])
    cos_psi = cos_p[:, mn] - (sin_p[:, mk] * sin_p[:, nk] * cos_t[:, kj]
                              - cos_p[:, mk] * cos_p[:, nk])
    return twosin, cos_theta, cos_psi


# ---------------------------------------------------------------------------
# Scalar routines: one tetrahedron, a batch of one, read from its one
# measurement (Tetrahedron._report)


def classify(t: Tetrahedron) -> Classification:
    """Classify a tetrahedron as Type 1 or Type 2 and relabel its vertices,
    as batch_classify describes."""
    kind, perm, alpha, e1, e2 = batch_classify(*angles(t)._rows)
    return Classification(kind=int(kind[0]), perm=tuple(perm[0].tolist()),
                          alpha=tuple(alpha[0].tolist()), e1=EDGES[e1[0]], e2=EDGES[e2[0]])


def standard_position(t: Tetrahedron, cls: Classification | None = None) -> StandardPosition:
    """Rigid motion and parameters of the standard position of t, as
    batch_standard_position describes.  The classification is computed when
    not supplied."""
    if cls is None:
        cls = classify(t)
    params, rotation, translation, mirror = batch_standard_position(
        angles(t)._rows[0], np.array([cls.kind]), np.array([cls.perm]), np.array([cls.alpha]))
    return StandardPosition(alpha=cls.alpha, params=tuple(params[0].tolist()),
                            rotation=rotation[0], translation=translation[0],
                            mirror=bool(mirror[0]))


def matrices(sp: StandardPosition, kind: int) -> TransformMatrices:
    """Transformation matrices and their spectral norms for a standard position."""
    _check_kind(kind)
    A, D, X, Y, norms = batch_matrices(np.array([kind]), np.array([sp.alpha]),
                                       np.array([sp.params]))
    return TransformMatrices(A[0], D[0], X[0], Y[0], *norms[0].tolist())


def quality_ratio(t: Tetrahedron, cls: Classification | None = None) -> float:
    """R_T/H_T as batch_quality_ratio describes."""
    if cls is None:
        cls = classify(t)
    return float(batch_quality_ratio(angles(t)._rows[1], np.array([cls.alpha]))[0])


@dataclass(frozen=True)
class GeometryReport:
    """Edge lengths, volume, quality quantities and the full angle inventory.

    h (sorted), volume and R_T are computed when the element is measured
    (Tetrahedron._report); H_T and the angles are computed when first read,
    as most readers (the error ratio among them) need h_T and R_T alone.
    The report compares by these values and the element's vertices.

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

    @property
    def _rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The element's (1, 4, 3) vertex row and (1, 6) edge lengths, which
        this report has found nondegenerate."""
        return self._t._arrays

    @cached_property
    def H_T(self) -> float:
        verts, lengths = self._rows
        kind, perm, alpha, _, _ = batch_classify(verts, lengths)
        params = batch_standard_position(verts, kind, perm, alpha)[0]
        return float(batch_h_t(lengths, params)[0])

    @cached_property
    def _angles(self) -> tuple[dict, dict, dict]:
        """theta, psi and phi."""
        theta, psi, phi = batch_angles(*self._rows)
        return (dict(zip(_THETA_KEYS, theta[0].tolist())), dict(zip(_FACE_PAIRS, psi[0].tolist())),
                dict(zip(_PHI_KEYS, phi[0].tolist())))

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


def angles(t: Tetrahedron) -> GeometryReport:
    """The geometry report of a tetrahedron, made once per element;
    DegenerateTetrahedron here when it is degenerate, though H_T and the
    angles are computed when read."""
    return t._report


def max_face_and_dihedral_angle(t: Tetrahedron) -> float:
    """max(theta union psi) without the rest of the report."""
    return float(batch_max_angle(angles(t)._rows[0])[0])


def _check_gamma_max(gamma_max) -> float:
    # [pi/3, pi): the largest float below pi is the upper end.
    return real(gamma_max, "gamma_max", math.pi / 3.0, math.nextafter(math.pi, 0.0),
                InvalidGammaMax)


def mac_check(t: Tetrahedron, gamma_max: float) -> bool:
    """True iff every face internal angle and dihedral angle is <= gamma_max
    (with EPS_ANGLE slack)."""
    _check_gamma_max(gamma_max)
    return bool(max_angle_at_most(angles(t)._rows[0], gamma_max + EPS_ANGLE)[0])


# ---------------------------------------------------------------------------
# Maximum angle condition constants


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
    if kind is not None:
        _check_kind(kind)
    # d_bound in (3, inf), so that 0 < M < 1.
    m = 3.0 / real(d_bound, "d_bound", math.nextafter(3.0, math.inf), sys.float_info.max)

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
    return max(type1(m), type2(m))
