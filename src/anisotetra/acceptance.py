"""The package's acceptance suite: ten numbered, self-contained checks.

Each criterion function runs one check at its full sample size and returns a
CriterionResult.  The CLI ``selftest`` command and the acceptance test file
both call these, so the gate is identical everywhere.  Expected total runtime
is a few minutes; sample sizes are part of the contract and must not be
reduced here.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .expr import field_from_expression
from .geom import (
    TYPE1,
    TYPE2,
    Tetrahedron,
    batch_angles,
    batch_classify,
    batch_matrices,
    batch_standard_position,
    batch_standard_position_vertices,
    batch_trig_identities,
    reference_tetrahedron,
)
from .interp import Polynomial3, interpolate, monomial_indices
from .lattice import forward_differences, quotient_coefficients, unit_weights
from .quad import rule_for_degree
from .verify import (
    TetraGenSpec,
    _blocks,
    convergence_study,
    equivalence_sample,
    generate,
    mac_experiment,
    max_residual_quotient,
    squeeze_sweep,
)


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    detail: str


def criterion_1() -> CriterionResult:
    """Quality equivalence H_T/2 <= R_T <= 2 H_T on 1e5 mixed samples."""
    rep = equivalence_sample(100_000, TetraGenSpec(family="mixed", seed=101))
    return CriterionResult(
        1,
        "quality equivalence on 100000 mixed samples",
        rep.violations == 0,
        "violations=%d worst_margin=%.3e ratio in [%.6f, %.6f]"
        % (rep.violations, rep.worst_margin, rep.min_ratio, rep.max_ratio),
    )


def criterion_2() -> CriterionResult:
    """Sine/cosine angle identities on 1e4 random tetrahedra."""
    worst = 0.0
    for verts, lengths, _ in _blocks(TetraGenSpec(family="uniform", seed=102), 10_000):
        residuals = batch_trig_identities(*batch_angles(verts, lengths))
        worst = max(worst, *(float(np.abs(r).max()) for r in residuals))
    return CriterionResult(
        2,
        "trig identities on 10000 random tetrahedra",
        worst < 1e-9,
        "max residual %.3e" % worst,
    )


def criterion_3() -> CriterionResult:
    """Standard position parameters, factor map and norms on 1e4 samples."""
    tol = 1e-10
    worst_param = worst_map = worst_norm = 0.0
    refs = np.array([reference_tetrahedron(kind).as_array() for kind in (TYPE1, TYPE2)])
    for verts, lengths, _ in _blocks(TetraGenSpec(family="uniform", seed=103), 10_000):
        kind, perm, alpha, _, _ = batch_classify(verts, lengths)
        params = batch_standard_position(verts, kind, perm, alpha)[0]
        s1, t1, s21, s22, t2 = params.T
        a1, a2, a3 = alpha.T
        worst_param = max(worst_param, float(np.max([
            np.abs(s1 * s1 + t1 * t1 - 1.0),
            np.abs(s21 * s21 + s22 * s22 + t2 * t2 - 1.0),
            a2 * s1 - a1 / 2.0,
            a3 * s21 - a1 / 2.0,
            -t1,
            -t2,
        ])))
        A, D, X, Y, norms = batch_matrices(kind, alpha, params)
        mapped = refs[kind - TYPE1] @ (A @ D).transpose(0, 2, 1)
        target = batch_standard_position_vertices(kind, alpha, params)
        worst_map = max(worst_map, float(np.max(
            np.abs(mapped - target).max(axis=(1, 2)) / alpha.max(axis=1))))
        x_sv = np.linalg.svd(X, compute_uv=False)
        y_sv = np.linalg.svd(Y, compute_uv=False)
        svd_norms = np.stack([x_sv[:, 0], 1.0 / x_sv[:, -1], y_sv[:, 0], 1.0 / y_sv[:, -1]], 1)
        worst_norm = max(worst_norm, float(np.max(
            np.abs(norms[:, 2:] - svd_norms) / np.maximum(1.0, svd_norms))))
    passed = worst_param <= tol and worst_map <= tol and worst_norm <= tol
    return CriterionResult(
        3,
        "standard position on 10000 random tetrahedra",
        passed,
        "param=%.3e map=%.3e norm=%.3e" % (worst_param, worst_map, worst_norm),
    )


def criterion_4() -> CriterionResult:
    """Interpolation reproduces P_k on random anisotropic elements."""
    bary = unit_weights(8)
    rng = np.random.default_rng(104)
    samples = iter(generate(TetraGenSpec(family="mixed", seed=104), 400))
    worst = 0.0
    for k in (1, 2, 3, 4):
        for _ in range(100):
            t = next(samples)
            q = Polynomial3({g: rng.uniform(-1, 1) for g in monomial_indices(k)})
            ip = interpolate(q, t, k)
            pts = bary @ np.asarray(t.as_array())
            qv = q.evaluate(pts)
            sup = float(np.max(np.abs(qv)))
            err = float(np.max(np.abs(ip.evaluate(pts) - qv)))
            worst = max(worst, err / sup)
    return CriterionResult(
        4,
        "P_k reproduction, k = 1..4, 100 fields each",
        worst < 1e-9,
        "worst |q - Iq|/|q| = %.3e" % worst,
    )


def criterion_5() -> CriterionResult:
    """Exact quotient coefficients, vanishing residual quotients, box counts."""
    # The twelve-term fourth-order expansion, in integer arithmetic.
    coeffs = dict(quotient_coefficients((2, 1, 1)))
    from fractions import Fraction

    coeff_ok = len(coeffs) == 12 and all(
        c
        == (-1) ** (4 - sum(eta))
        * Fraction(math.comb(2, eta[0]) * math.comb(1, eta[1]) * math.comb(1, eta[2]), 2)
        for eta, c in coeffs.items()
    )

    counts_ok = True
    for kind in (TYPE1, TYPE2):
        for k in range(1, 6):
            for delta in monomial_indices(k)[1:]:
                want = math.comb(k - sum(delta) + 3, 3)
                if len(forward_differences(k, delta, kind)[0]) != want:
                    counts_ok = False

    worst = max(max_residual_quotient(k, monomial_indices(k)[1:]) for k in (1, 2, 3, 4))
    passed = coeff_ok and counts_ok and worst < 1e-9
    return CriterionResult(
        5,
        "difference quotients: coefficients, residual quotients, box counts",
        passed,
        "coeffs=%s counts=%s max residual quotient=%.3e"
        % (coeff_ok, counts_ok, worst),
    )


def criterion_6() -> CriterionResult:
    """Squeeze sweep: normalized ratio flat within factor 4, slope <= 0.1."""
    details = []
    passed = True
    for m, p in ((0, 2.0), (1, 3.0)):
        sw = squeeze_sweep(1, m, p)
        ok = sw.variation_factor < 4.0 and sw.slope <= 0.1
        passed = passed and ok
        details.append(
            "m=%d p=%g variation=%.3f slope=%.4f" % (m, p, sw.variation_factor, sw.slope)
        )
    return CriterionResult(
        6,
        "anisotropy robustness over alpha = (1, 2^-l, 2^-l), l = 0..10",
        passed,
        "; ".join(details),
    )


def criterion_7() -> CriterionResult:
    """Observed convergence orders match k+1-m at the finest two levels."""
    v = field_from_expression("sin(x + 2*y + 3*z)")
    t0 = Tetrahedron.from_points(
        [(x + 0.1, y + 0.1, z + 0.1) for x, y, z in reference_tetrahedron(TYPE1).coords()]
    )
    details = []
    passed = True
    for k, m in ((1, 0), (2, 0), (2, 1), (3, 1)):
        res = convergence_study(v, t0, k, m, 2.0)
        want = k + 1 - m
        ok = (
            not res.exact
            and abs(res.orders[-1] - want) < 0.1
            and abs(res.orders[-2] - want) < 0.1
        )
        passed = passed and ok
        details.append("(k=%d,m=%d) order=%.3f" % (k, m, res.orders[-1]))
    return CriterionResult(
        7,
        "convergence orders for (k, m) in {(1,0), (2,0), (2,1), (3,1)}",
        passed,
        "; ".join(details),
    )


def criterion_8() -> CriterionResult:
    """Angle condition equivalence, both directions, four gamma values."""
    details = []
    passed = True
    for gamma in (math.pi / 3 + 0.01, math.pi / 2, 2 * math.pi / 3, 0.9 * math.pi):
        rep = mac_experiment(10_000, gamma)
        ok = rep.counterexamples == 0
        passed = passed and ok
        details.append(
            "gamma=%.4f fwd=%d%s rev=%d counterexamples=%d"
            % (
                gamma,
                rep.forward_checked,
                " (vacuous)" if rep.forward_vacuous else "",
                rep.reverse_checked,
                rep.counterexamples,
            )
        )
    return CriterionResult(
        8,
        "maximum angle condition, both directions, 10000 samples per gamma",
        passed,
        "; ".join(details),
    )


def criterion_9() -> CriterionResult:
    """Quadrature reproduces simplex monomial integrals through degree 12."""
    rule = rule_for_degree(12)
    t = reference_tetrahedron(TYPE1)
    pts = rule.points_on(t.as_array())
    vol = 1.0 / 6.0
    worst = 0.0
    for a, b, c in monomial_indices(12):
        want = (
            math.factorial(a) * math.factorial(b) * math.factorial(c)
            / math.factorial(a + b + c + 3)
        )
        got = vol * float(
            np.dot(rule.weights, pts[:, 0] ** a * pts[:, 1] ** b * pts[:, 2] ** c)
        )
        worst = max(worst, abs(got - want) / want)
    return CriterionResult(
        9,
        "monomial quadrature exactness through degree 12",
        worst <= 1e-12,
        "worst relative error %.3e" % worst,
    )


def criterion_10() -> CriterionResult:
    """The sweep command is byte-identical across reruns."""
    from . import cli

    outputs = []
    for run in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            csv_path = os.path.join(tmp, "sweep.csv")
            json_path = os.path.join(tmp, "sweep.json")
            code = cli.main(
                [
                    "sweep",
                    "--k", "1",
                    "--m", "0",
                    "--p", "2",
                    "--eps-levels", "5",
                    "--csv", csv_path,
                    "--out", json_path,
                ]
            )
            if code != 0:
                return CriterionResult(
                    10, "sweep determinism", False, "exit code %d" % code
                )
            with open(csv_path, "rb") as fh:
                csv_bytes = fh.read()
            with open(json_path, "rb") as fh:
                json_bytes = fh.read()
            outputs.append((csv_bytes, json_bytes))
    same = outputs[0] == outputs[1]
    return CriterionResult(
        10,
        "sweep reruns are byte-identical",
        same,
        "csv %d bytes, json %d bytes, identical=%s"
        % (len(outputs[0][0]), len(outputs[0][1]), same),
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all() -> bool:
    """Run every criterion, print one line each with its wall time, return
    overall pass."""
    all_ok = True
    for fn in CRITERIA:
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
        all_ok = all_ok and result.passed
        print(
            "criterion %2d: %s - %s (%s) [%.2f s]"
            % (
                result.number,
                "PASS" if result.passed else "FAIL",
                result.title,
                result.detail,
                seconds,
            )
        )
    return all_ok
