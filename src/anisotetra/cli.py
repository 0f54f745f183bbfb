"""Command-line surface: geometry reports, error ratios, sweeps, experiments.

Subcommands
    analyze    classification, standard position, norms, angles, MAC verdict
    error      interpolation error ratio for an expression or corpus field
    sweep      anisotropy sweep over a squeezed reference element (CSV + JSON)
    mac        maximum-angle-condition experiment, both directions
    dq         difference-quotient coefficient table and residual check
    selftest   the full acceptance suite

Exit codes: 0 success, 2 bad input, 3 degenerate geometry, 4 numerical
failure.  Reports are JSON with floats at 17 significant digits; sweep tables
are CSV with a fixed, versioned column order.  The environment variable
ANISOTETRA_SEED supplies the default seed of `mac`; --seed overrides it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import (
    DegenerateTetrahedron,
    ExpressionParseError,
    InputError,
    NumericalError,
    ParseError,
)
from .expr import field_from_expression
from .geom import (
    TYPE1,
    TYPE2,
    Tetrahedron,
    angles,
    classify,
    mac_bound_constants,
    mac_check,
    matrices,
    reference_tetrahedron,
    standard_position,
)
from .lattice import Box, quotient_coefficients, quotient_from_function
from .verify import corpus, error_ratio, mac_experiment, max_residual_quotient, squeeze_sweep

SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "schema_version",
    "level",
    "alpha1",
    "alpha2",
    "alpha3",
    "r_t",
    "h_t",
    "max_ratio",
    "max_scaled",
    "worst_field",
)


# ---------------------------------------------------------------------------
# Serialization


def _json_fragment(value, indent):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return "%.17g" % v
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            "%s%s: %s" % (inner, json.dumps(str(k)), _json_fragment(v, indent + 1))
            for k, v in value.items()
        ]
        return "{\n%s\n%s}" % (",\n".join(rows), pad)
    if isinstance(value, (list, tuple, np.ndarray)):
        items = list(value)
        if not items:
            return "[]"
        rows = ["%s%s" % (inner, _json_fragment(v, indent + 1)) for v in items]
        return "[\n%s\n%s]" % (",\n".join(rows), pad)
    raise TypeError("cannot serialize %r" % type(value))


def render_json(report: dict) -> str:
    return _json_fragment(report, 0) + "\n"


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _csv_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def render_csv(rows: list[dict]) -> str:
    """Sweep rows as CSV, each row's alpha split into alpha1..alpha3."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        a1, a2, a3 = row["alpha"]
        cells = dict(row, schema_version=SCHEMA_VERSION, alpha1=a1, alpha2=a2, alpha3=a3)
        lines.append(",".join(_csv_cell(cells[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _report(args, results: dict) -> dict:
    """The report of a subcommand; its config is every parsed option in
    declaration order, output paths excepted."""
    config = {
        key: value
        for key, value in vars(args).items()
        if key not in ("command", "func", "out", "csv")
    }
    return {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "command": args.command,
        "config": config,
        "results": results,
    }


# ---------------------------------------------------------------------------
# Input handling


def _env_seed() -> int:
    raw = os.environ.get("ANISOTETRA_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ParseError("ANISOTETRA_SEED must be an integer, got %r" % raw)


def _parse_vertices(text: str) -> Tetrahedron:
    groups = text.split()
    if len(groups) != 4:
        raise ParseError(
            "--vertices needs four comma-separated points, got %d" % len(groups)
        )
    points = []
    for g in groups:
        parts = g.split(",")
        if len(parts) != 3:
            raise ParseError("--vertices entry %r is not of the form x,y,z" % g)
        try:
            points.append(tuple(float(p) for p in parts))
        except ValueError:
            raise ParseError("--vertices entry %r has a non-numeric part" % g)
    return Tetrahedron.from_points(points)


def _read_tetra_file(path: str) -> Tetrahedron:
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ParseError("cannot read --tetra-file %s: %s" % (path, exc))
    points = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise ParseError(
                "%s:%d: expected three floats, got %r" % (path, lineno, body)
            )
        try:
            points.append(tuple(float(p) for p in parts))
        except ValueError:
            raise ParseError("%s:%d: non-numeric coordinate in %r" % (path, lineno, body))
    if len(points) != 4:
        raise ParseError("%s: expected 4 vertices, found %d" % (path, len(points)))
    return Tetrahedron.from_points(points)


_NAMED_TETRA = {"ref": TYPE1, "hat": TYPE1, "tilde": TYPE2}


def _resolve_tetra(args) -> Tetrahedron:
    sources = [s for s in ("vertices", "tetra_file", "tetra") if getattr(args, s, None)]
    if len(sources) != 1:
        raise ParseError(
            "exactly one of --vertices, --tetra-file, --tetra is required"
        )
    if args.vertices:
        return _parse_vertices(args.vertices)
    if args.tetra_file:
        return _read_tetra_file(args.tetra_file)
    return reference_tetrahedron(_NAMED_TETRA[args.tetra])


def _add_tetra_args(sub):
    sub.add_argument("--vertices", help="four points 'x,y,z x,y,z x,y,z x,y,z'")
    sub.add_argument("--tetra-file", help="file with four 'x y z' lines, # comments")
    sub.add_argument(
        "--tetra", choices=sorted(_NAMED_TETRA), help="a named reference element"
    )


def _parse_delta(text: str) -> tuple[int, int, int]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ParseError("--delta must be three comma-separated integers")
    try:
        delta = tuple(int(p) for p in parts)
    except ValueError:
        raise ParseError("--delta has a non-integer part in %r" % text)
    if min(delta) < 0 or sum(delta) == 0:
        raise ParseError("--delta must be nonnegative and nonzero, got %r" % text)
    return delta


def _parse_alpha_pattern(pattern: str, levels: int) -> list[tuple[float, float, float]]:
    parts = pattern.split(",")
    if len(parts) != 3:
        raise ParseError("--alphas must be three comma-separated entries")
    grid = []
    for level in range(levels):
        eps = 2.0 ** -level
        alpha = []
        for part in parts:
            if part.strip() == "eps":
                alpha.append(eps)
            else:
                try:
                    alpha.append(float(part))
                except ValueError:
                    raise ParseError("--alphas entry %r is neither a float nor 'eps'" % part)
                if not 0.0 < alpha[-1] <= 1.0:
                    raise ParseError("--alphas entry %r must lie in (0, 1]" % part)
        grid.append(tuple(alpha))
    return grid


# ---------------------------------------------------------------------------
# Report builders


def _angle_table(table: dict) -> list[dict]:
    return [
        {"i": i, "j": j, "angle": v} for (i, j), v in sorted(table.items())
    ]


def _geometry_dict(geo) -> dict:
    return {
        "edge_lengths_sorted": list(geo.h),
        "volume": geo.volume,
        "R_T": geo.R_T,
        "H_T": geo.H_T,
        "h_T": geo.h[-1],
        "max_angle": geo.max_angle,
        "theta": _angle_table(geo.theta),
        "psi": _angle_table(geo.psi),
        "phi": _angle_table(geo.phi),
    }


def _tetra_dict(t: Tetrahedron) -> list[list[float]]:
    return [list(p) for p in t.coords()]


# ---------------------------------------------------------------------------
# Commands


def cmd_analyze(args) -> int:
    t = _resolve_tetra(args)
    geo = angles(t)
    cls = classify(t)
    sp = standard_position(t, cls)
    mats = matrices(sp, cls.kind)
    const = mac_bound_constants(args.gamma_max)
    results = {
        "vertices": _tetra_dict(t),
        "classification": {
            "kind": cls.kind,
            "perm": list(cls.perm),
            "alpha": list(cls.alpha),
            "e1": list(cls.e1),
            "e2": list(cls.e2),
        },
        "standard_position": {
            "params": {
                "s1": sp.params[0],
                "t1": sp.params[1],
                "s21": sp.params[2],
                "s22": sp.params[3],
                "t2": sp.params[4],
            },
            "rotation": [list(row) for row in sp.rotation],
            "translation": sp.translation.tolist(),
            "mirror": sp.mirror,
        },
        "matrix_norms": {
            "normA": mats.normA,
            "normAinv": mats.normAinv,
            "normX": mats.normX,
            "normXinv": mats.normXinv,
            "normY": mats.normY,
            "normYinv": mats.normYinv,
        },
        "geometry": _geometry_dict(geo),
        "mac": {
            "gamma_max": args.gamma_max,
            "satisfied": mac_check(t, args.gamma_max),
            "delta": const.delta,
            "C0": const.C0,
            "C1": const.C1,
            "D": const.D,
        },
    }
    _write_text(args.out, render_json(_report(args, results)))
    return 0


def _select_field(args, t: Tetrahedron, k: int):
    if (args.expr is None) == (args.field is None):
        raise ParseError("exactly one of --expr and --field is required")
    if args.expr is not None:
        return field_from_expression(args.expr), args.expr
    library = dict(corpus(k, t))
    if args.field not in library:
        raise ParseError(
            "unknown corpus field %r; available: %s"
            % (args.field, ", ".join(sorted(library)))
        )
    return library[args.field], args.field


def cmd_error(args) -> int:
    t = _resolve_tetra(args)
    v, label = _select_field(args, t, args.k)
    result = error_ratio(v, t, args.k, args.m, args.p, degree=args.degree)
    results = {
        "field": label,
        "k": result.k,
        "m": result.m,
        "p": result.p,
        "error": result.error,
        "seminorm_hi": result.seminorm_hi,
        "bound_factor": result.bound_factor,
        "ratio": result.ratio,
        "indeterminate": result.indeterminate,
        "warnings": list(result.warnings),
        "geometry": _geometry_dict(result.geometry),
    }
    _write_text(args.out, render_json(_report(args, results)))
    return 0


def cmd_sweep(args) -> int:
    if args.eps_levels < 1:
        raise InputError("--eps-levels must be >= 1, got %d" % args.eps_levels)
    grid = _parse_alpha_pattern(args.alphas, args.eps_levels)
    result = squeeze_sweep(args.k, args.m, args.p, alphas=grid, kind=args.kind)
    rows_out = [
        {
            "level": row.level,
            "alpha": list(row.alpha),
            "r_t": row.r_t,
            "h_t": row.h_t,
            "max_ratio": row.max_ratio,
            "max_scaled": row.max_scaled,
            "worst_field": row.worst_field,
        }
        for row in result.rows
    ]
    results = {
        "k": result.k,
        "m": result.m,
        "p": result.p,
        "kind": result.kind,
        "field_names": list(result.field_names),
        "rows": rows_out,
        "max_ratio": result.max_ratio,
        "variation_factor": result.variation_factor,
        "slope": result.slope,
        "slope_scaled": result.slope_scaled,
        "trend_ok": result.trend_ok,
    }
    if args.csv:
        _write_text(args.csv, render_csv(rows_out))
    _write_text(args.out, render_json(_report(args, results)))
    return 0


def cmd_mac(args) -> int:
    if args.n < 1:
        raise InputError("--n must be >= 1, got %d" % args.n)
    if args.seed is None:  # so that the config reports the seed used
        args.seed = _env_seed()
    rep = mac_experiment(args.n, args.gamma_max, seed=args.seed)
    results = {
        "gamma_max": rep.gamma_max,
        "d_bound": rep.d_bound,
        "reverse_gamma": rep.reverse_gamma,
        "n": rep.n,
        "forward_checked": rep.forward_checked,
        "forward_vacuous": rep.forward_vacuous,
        "forward_violations": [
            {"vertices": _tetra_dict(t), "H_over_h": h, "R_over_h": r}
            for t, h, r in rep.forward_violations
        ],
        "excluded_count": rep.excluded_count,
        "excluded_max_quality": rep.excluded_max_quality,
        "reverse_checked": rep.reverse_checked,
        "reverse_attempts": rep.reverse_attempts,
        "reverse_violations": [
            {"vertices": _tetra_dict(t), "max_angle": a, "R_over_h": r}
            for t, a, r in rep.reverse_violations
        ],
        "counterexamples": rep.counterexamples,
    }
    _write_text(args.out, render_json(_report(args, results)))
    return 0


def cmd_dq(args) -> int:
    delta = _parse_delta(args.delta)
    if sum(delta) > args.k:
        raise ParseError(
            "--delta %s exceeds --k %d; no boxes exist" % (args.delta, args.k)
        )
    coeffs = quotient_coefficients(delta)

    # Independent check: the quotient reproduces the matching monomial with
    # value 1 and annihilates every lower-degree monomial.
    def monomial(exponents):
        def f(pts):
            return (
                pts[:, 0] ** exponents[0]
                * pts[:, 1] ** exponents[1]
                * pts[:, 2] ** exponents[2]
            )
        return f

    base = (0, 0, 0)
    match = quotient_from_function(monomial(delta), base, delta, args.k)
    annihilation = 0.0
    for eta in Box(base, delta).corners():
        if eta != delta:
            q = quotient_from_function(monomial(eta), base, delta, args.k)
            annihilation = max(annihilation, abs(q))
    expansion_ok = abs(match - 1.0) < 1e-9 and annihilation < 1e-9

    results = {
        "k": args.k,
        "delta": list(delta),
        "coefficients": [
            {
                "eta": list(eta),
                "numerator": c.numerator,
                "denominator": c.denominator,
            }
            for eta, c in coeffs
        ],
        "term_count": len(coeffs),
        "monomial_match": match,
        "annihilation_max": annihilation,
        "expansion_ok": expansion_ok,
        "residual_quotient_max": max_residual_quotient(args.k, [delta]),
    }
    _write_text(args.out, render_json(_report(args, results)))
    return 0


def cmd_selftest(args) -> int:
    from .acceptance import run_all

    ok = run_all(report=print)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anisotetra",
        description="Interpolation error analysis on arbitrary tetrahedra.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="geometry and classification report")
    _add_tetra_args(analyze)
    analyze.add_argument("--gamma-max", type=float, default=math.pi / 2)
    analyze.add_argument("--out", default="-")
    analyze.set_defaults(func=cmd_analyze)

    error = sub.add_parser("error", help="interpolation error ratio")
    _add_tetra_args(error)
    error.add_argument("--expr", help="field expression in x, y, z")
    error.add_argument("--field", help="named corpus field")
    error.add_argument("--k", type=int, required=True)
    error.add_argument("--m", type=int, required=True)
    error.add_argument("--p", type=float, required=True, help="exponent; 'inf' allowed")
    error.add_argument("--degree", type=int, default=None,
                       help="quadrature exactness 1..20; finite p only")
    error.add_argument("--out", default="-")
    error.set_defaults(func=cmd_error)

    sweep = sub.add_parser("sweep", help="anisotropy sweep on a squeezed reference")
    sweep.add_argument("--k", type=int, required=True)
    sweep.add_argument("--m", type=int, required=True)
    sweep.add_argument("--p", type=float, required=True)
    sweep.add_argument("--kind", type=int, choices=(TYPE1, TYPE2), default=TYPE1)
    sweep.add_argument("--alphas", default="1,eps,eps",
                       help="three entries, floats in (0, 1] or 'eps' (default 1,eps,eps)")
    sweep.add_argument("--eps-levels", type=int, default=11,
                       help="levels l = 0..n-1 with eps = 2^-l")
    sweep.add_argument("--csv", help="write the per-level table here")
    sweep.add_argument("--out", default="-")
    sweep.set_defaults(func=cmd_sweep)

    mac = sub.add_parser("mac", help="maximum angle condition experiment")
    mac.add_argument("--gamma-max", type=float, required=True)
    mac.add_argument("--n", type=int, default=10_000)
    mac.add_argument("--seed", type=int, default=None)
    mac.add_argument("--out", default="-")
    mac.set_defaults(func=cmd_mac)

    dq = sub.add_parser("dq", help="difference quotient table and checks")
    dq.add_argument("--k", type=int, required=True)
    dq.add_argument("--delta", required=True, help="three integers, e.g. 2,1,1")
    dq.add_argument("--out", default="-")
    dq.set_defaults(func=cmd_dq)

    selftest = sub.add_parser("selftest", help="run the acceptance suite")
    selftest.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ExpressionParseError as exc:
        print(exc.caret_diagnostic(), file=sys.stderr)
        return 2
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except DegenerateTetrahedron as exc:
        print("degenerate tetrahedron: %s" % exc, file=sys.stderr)
        return 3
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
