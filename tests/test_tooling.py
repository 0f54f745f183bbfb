"""Checks on the repository's tooling.

The benchmark scripts in perfbench/ import the package by name and are not
part of this suite, so a public name deleted or renamed in src/ would only
show when the benchmark runs.  Their imports are read with ast (the scripts
are not executed) and each one is resolved here, as is each keyword they
pass to an imported name.
"""

import ast
import importlib
import inspect
import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from anisotetra import ScalarField, corpus, error_ratio, generate
from anisotetra.expr import Node, field_from_expression, parse_expression
from anisotetra.lattice import unit_weights
from anisotetra.quad import BLOCK, DENSE_LATTICE_ORDER
from anisotetra.verify import TetraGenSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_imports():
    """(script, module, name) for each name a perfbench script imports from
    anisotetra; name is None for a plain `import anisotetra...`."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module.split(".")[0] == "anisotetra":
                    found += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, a.name, None)
                    for a in node.names
                    if a.name.split(".")[0] == "anisotetra"
                ]
    return found


def resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or hasattr(mod, name):
        return True
    try:  # `from package import submodule`
        importlib.import_module("%s.%s" % (module, name))
    except ImportError:
        return False
    return True


def test_perfbench_imports_resolve():
    imports = perfbench_imports()
    assert len({script for script, _, _ in imports}) >= 3, imports
    missing = [imp for imp in imports if not resolves(imp[1], imp[2])]
    assert not missing, "perfbench imports names the package no longer has: %r" % missing


def perfbench_keyword_calls():
    """(script, module, name, keywords) for each call in a perfbench script
    to a name imported from anisotetra, called by its local name."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {
            a.asname or a.name: (node.module, a.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "anisotetra"
            for a in node.names
        }
        found += [
            (path.name, *imported[node.func.id], [kw.arg for kw in node.keywords if kw.arg])
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in imported
        ]
    return found


def test_perfbench_keywords_are_accepted():
    # A keyword that the callee no longer accepts only shows when the
    # benchmark runs, e.g. ScalarField(v, partial_fn=..., exact=...).
    calls = [c for c in perfbench_keyword_calls() if c[3]]
    assert len(calls) >= 3, calls
    rejected = []
    for script, module, name, keywords in calls:
        params = inspect.signature(getattr(importlib.import_module(module), name)).parameters
        if any(p.kind is p.VAR_KEYWORD for p in params.values()):
            continue
        named = {n for n, p in params.items() if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)}
        rejected += [(script, name, kw) for kw in keywords if kw not in named]
    assert not rejected, "perfbench passes keywords the callee does not accept: %r" % rejected


@pytest.mark.parametrize("spec", [(1, 0, 2.0), (2, 1, 3.0), (3, 2, 2.0), (4, 2, math.inf)])
def test_per_gamma_wrapped_field_matches(spec):
    # perfbench's traced replay wraps each field so that every partial is
    # one call, ScalarField(v, partial_fn=...); error_ratio must give the
    # same numbers through that per-gamma protocol.
    t = generate(TetraGenSpec("sliver", 5), 6)[4]
    for name, v in corpus(spec[0], t):
        if not isinstance(v, ScalarField):
            continue
        wrapped = ScalarField(v, partial_fn=lambda g, p, v=v: v.partial(g, p),
                              order=v.order, scale=v.scale, exact=v.exact_partials)
        want, got = error_ratio(v, t, *spec), error_ratio(wrapped, t, *spec)
        for key in ("error", "seminorm_hi", "ratio"):
            a, b = getattr(want, key), getattr(got, key)
            assert abs(a - b) <= 1e-12 * abs(a), (name, key, a, b)


SRC = Path(__file__).resolve().parent.parent / "src" / "anisotetra"


def private_definitions(tree):
    """(name, node) for each private top-level def, class or assignment and
    each private method of a top-level class; dunder names are not private."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    found = []
    for node in tree.body:
        targets = []
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                targets += [n.id for n in ast.walk(target) if isinstance(n, ast.Name)]
        found += [(name, node) for name in targets if private(name)]
        if isinstance(node, ast.ClassDef):
            found += [
                (item.name, item)
                for item in node.body
                if isinstance(item, ast.FunctionDef) and private(item.name)
            ]
    return found


def name_uses(node):
    """How often each identifier is read, named as an attribute or imported
    in the subtree of node."""
    uses = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            uses[n.id] += 1
        elif isinstance(n, ast.Attribute):
            uses[n.attr] += 1
        elif isinstance(n, ast.alias):
            uses[n.name] += 1
    return uses


def test_private_helpers_are_referenced():
    # A private helper that nothing in the package names is dead code.  Uses
    # are counted once per module; a definition's own subtree is subtracted,
    # so a helper that names only itself counts as unused.
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    total = sum((name_uses(tree) for tree in trees.values()), Counter())
    unused = [
        (module, name)
        for module, tree in trees.items()
        for name, node in private_definitions(tree)
        if total[name] == name_uses(node)[name]
    ]
    assert len(trees) >= 10
    assert not unused, "private names defined but never used: %r" % unused


def test_public_names_have_callers():
    # A name the package exports is there for a caller outside the tests:
    # another module of the package or a benchmark script names it.  The
    # name's own definition and the package's import lines do not count,
    # so a routine that only the tests call counts as unused.
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    exported = [a.asname or a.name for node in trees.pop("__init__.py").body
                if isinstance(node, ast.ImportFrom) for a in node.names]
    uses = sum((name_uses(ast.parse(path.read_text(), str(path)))
                for path in sorted(PERFBENCH.glob("*.py"))), Counter())
    for tree in trees.values():
        uses += name_uses(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                uses.subtract(name_uses(node))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                uses[node.name] -= name_uses(node)[node.name]
    assert len(exported) >= 50, exported
    uncalled = [name for name in exported if uses[name] <= 0]
    assert not uncalled, "exported names that only the tests call: %r" % uncalled


TESTS = Path(__file__).resolve().parent


def result_fields(tree):
    """(class, name) for each field of a top-level @dataclass and each
    @property of a top-level class."""
    def named(decorator, name):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        return isinstance(target, ast.Name) and target.id == name

    found = []
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        dataclass = any(named(d, "dataclass") for d in node.decorator_list)
        for item in node.body:
            if dataclass and isinstance(item, ast.AnnAssign):
                found.append((node.name, item.target.id))
            elif isinstance(item, ast.FunctionDef) and any(
                named(d, "property") for d in item.decorator_list
            ):
                found.append((node.name, item.name))
    return found


def test_result_fields_are_read():
    # A field or property that no code names as an attribute, in the package,
    # the benchmark scripts or the tests, has no reader and is dead weight.
    paths = [*SRC.glob("*.py"), *PERFBENCH.glob("*.py"), *TESTS.glob("*.py")]
    read = {
        n.attr
        for path in paths
        for n in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(n, ast.Attribute)
    }
    fields = [
        (path.name, cls, name)
        for path in sorted(SRC.glob("*.py"))
        for cls, name in result_fields(ast.parse(path.read_text(), str(path)))
    ]
    unread = [f for f in fields if f[2] not in read]
    assert len(fields) >= 100, fields
    assert not unread, "fields and properties that nothing reads: %r" % unread


def test_polynomial_partials_are_one_matrix_product():
    # Every polynomial's partials of one order are one BLAS product: the
    # derivative matrix against the monomial table.  A loop that adds the
    # table's rows one at a time (the old interp._contract) is several times
    # slower on the degree-(k+2) corpus polynomials.  So Polynomial3.partials
    # has a matrix product and no loop, no subclass replaces it, and no
    # _contract is left.
    tree = ast.parse((SRC / "interp.py").read_text())
    classes = {n.name: n for n in tree.body if isinstance(n, ast.ClassDef)}
    partials = next(
        n for n in classes["Polynomial3"].body
        if isinstance(n, ast.FunctionDef) and n.name == "partials"
    )
    nodes = list(ast.walk(partials))
    assert any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.MatMult) for n in nodes)
    loops = [n for n in nodes if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    assert not loops, "Polynomial3.partials loops: %r" % [ast.unparse(n) for n in loops]
    subclasses = [
        c for c in classes.values() if any(ast.unparse(b) == "Polynomial3" for b in c.bases)
    ]
    assert subclasses, "Interpolant is a Polynomial3"
    for c in subclasses:
        assert "partials" not in {n.name for n in c.body if isinstance(n, ast.FunctionDef)}, c.name
    defined = {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert "_contract" not in defined


def test_one_field_class_with_one_source_of_partials():
    # Every field is a ScalarField whose partials come from one primitive,
    # partials_of: no class in the package subclasses ScalarField, it
    # defines partials_of once, its values are order 0 of it (it keeps no
    # _eval), and no finite-difference path (_fd_partial) or second field
    # protocol (_OnePass) is left.
    trees = [ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))]
    classes = [n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    fields = [c for c in classes if c.name == "ScalarField"]
    assert len(fields) == 1
    subclasses = [c.name for c in classes if any(ast.unparse(b).split(".")[-1] == "ScalarField"
                                                 for b in c.bases)]
    assert not subclasses, "ScalarField subclasses: %r" % subclasses
    methods = [n.name for n in fields[0].body if isinstance(n, ast.FunctionDef)]
    assert methods.count("partials_of") == 1
    assert "_eval" not in {n.attr for n in ast.walk(fields[0]) if isinstance(n, ast.Attribute)}
    names = {n.name for tree in trees for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    names = names.union(*map(name_uses, trees))
    assert not {"_fd_partial", "_OnePass"} & names


def test_numeric_arguments_have_one_rule():
    # Whether an argument is an integer or a real in range is decided in
    # errors.py alone (errors.integer and errors.real): no other module
    # imports numbers, names its number classes or np.integer, or tests for
    # bool, and the old validators _is_count and _order are gone.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.Import) and any(a.name == "numbers" for a in n.names) or (
                    isinstance(n, ast.ImportFrom) and n.module == "numbers"):
                found.append((path.name, "import numbers"))
            elif isinstance(n, ast.Attribute) and ast.unparse(n) in (
                    "numbers.Integral", "numbers.Real", "np.integer", "numpy.integer"):
                found.append((path.name, ast.unparse(n)))
            elif (isinstance(n, ast.Call) and ast.unparse(n.func) == "isinstance"
                  and len(n.args) == 2 and "bool" in {
                      ast.unparse(e) for e in getattr(n.args[1], "elts", [n.args[1]])}):
                found.append((path.name, ast.unparse(n)))
            elif isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name in ("_is_count", "_order"):
                found.append((path.name, "def " + n.name))
    assert not found, found


def test_geometry_has_one_kernel_per_quantity():
    # Each geometry quantity of an element has one implementation, an array
    # kernel, and a scalar routine is its batch of one.  So the float twins
    # of the angles and the standard position are gone; no element angle
    # comes from the math module (math.asin stays in the mac constants, which
    # are functions of gamma alone); the max-angle test has no per-row
    # fallback; and every public scalar routine reaches a batch_* kernel,
    # directly or through geom's own functions and the element's cached
    # measurements (Tetrahedron._report and the like, read as attributes).
    # The float twins of the volume and edge lengths, and the per-call
    # degeneracy tests and frames, are gone too.
    tree = ast.parse((SRC / "geom.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    methods = {}
    for cls in (n for n in tree.body if isinstance(n, ast.ClassDef)):
        for n in (n for n in cls.body if isinstance(n, ast.FunctionDef)):
            methods[n.name] = "%s.%s" % (cls.name, n.name)
            functions[methods[n.name]] = n
    defined = set(functions) | {n.id for n in ast.walk(tree)
                                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    twins = {"_face_angles", "_dihedral_angles", "_standard_position_from", "_ATAN2_SLACK",
             "_nondegenerate_volume", "_dist", "_norm", "_r_t", "_row", "_h_t"}
    assert not twins & defined, twins & defined
    interp = {n.name: n for n in ast.parse((SRC / "interp.py").read_text()).body
              if isinstance(n, ast.FunctionDef)}
    assert "_frame" not in interp
    math_angles = [
        (name, ast.unparse(n)) for name, node in functions.items() for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and ast.unparse(n) in ("math.atan2", "math.asin")
        and not (name.startswith("mac_") and ast.unparse(n) == "math.asin")
    ]
    assert not math_angles, math_angles
    loops = [n for n in ast.walk(functions["max_angle_at_most"])
             if isinstance(n, (ast.For, ast.While, ast.comprehension))]
    assert not loops
    # R_T has one formula, batch_r_t: the report and R_T/h_T read it, and
    # neither multiplies or raises to a power of its own.
    for name in ("Tetrahedron._report", "batch_r_over_h"):
        nodes = list(ast.walk(functions[name]))
        assert "batch_r_t" in {ast.unparse(n.func) for n in nodes if isinstance(n, ast.Call)}, name
        assert not [ast.unparse(n) for n in nodes
                    if isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Mult, ast.Pow))], name

    functions["pull_back"] = interp["pull_back"]

    def callees(name):
        nodes = list(ast.walk(functions[name]))
        return ({ast.unparse(n.func) for n in nodes if isinstance(n, ast.Call)}
                | {methods[n.attr] for n in nodes
                   if isinstance(n, ast.Attribute) and n.attr in methods})

    def reaches_kernel(name, seen):
        seen.add(name)
        found = callees(name)
        return any(c.startswith("batch_") for c in found) or any(
            reaches_kernel(c, seen) for c in found if c in functions and c not in seen
        )

    scalar = ["classify", "standard_position", "matrices", "quality_ratio",
              "GeometryReport.H_T", "GeometryReport._angles", "max_face_and_dihedral_angle",
              "mac_check", "volume", "angles", "edge_lengths", "sorted_edge_lengths",
              "pull_back"]
    assert [name for name in scalar if not reaches_kernel(name, set())] == []


def test_the_element_is_the_frame():
    # Interpolants, polynomials in a frame and sample sets hold their
    # Tetrahedron, not a (verts, J^{-T}) tuple: interp checks no frame
    # shapes (_checked_frame) and compares no frame arrays, two frames being
    # the same when their elements are; quad hands the element on and reads
    # no frame arrays, mapping points through interp's one spelling of
    # xi = (x - x_0) J^{-T}.
    from anisotetra import interp, quad

    tree = ast.parse((SRC / "interp.py").read_text())
    defined = {n.name for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    assert "_checked_frame" not in defined
    assert "array_equal" not in name_uses(tree)
    assert "_frame" not in interp.Polynomial3.__slots__
    assert "verts" not in interp.Samples.__slots__

    def params(fn):
        return [p for p in inspect.signature(fn).parameters if p != "self"]

    assert params(quad._seminorms) == ["field_u", "t", "specs", "degree"]
    assert params(interp.Interpolant) == ["coef", "k", "t"]
    assert params(interp.Polynomial3.in_frame) == ["t"]
    assert params(interp.SampleSet.on) == ["t"]
    uses = name_uses(ast.parse((SRC / "quad.py").read_text()))
    assert not {"pull_back", "_pull_back", "inverse_t"} & set(uses)
    assert uses["_xi"] >= 2  # imported and called by _inside


def call_sites(trees):
    """callee -> {(module, top-level definition)} for every call in the
    modules' parsed trees; raising an exception class counts as calling it."""
    callers = {}
    for module, tree in trees.items():
        for top in tree.body:
            for n in ast.walk(top):
                if isinstance(n, ast.Call):
                    callee = ast.unparse(n.func).split(".")[-1]
                    callers.setdefault(callee, set()).add((module, getattr(top, "name", None)))
    return callers


def test_difference_calculus_has_one_stencil():
    # The forward difference on X^k has one implementation, the cached
    # stencil lattice.forward_differences: the interpolant, the residual
    # quotients and the dq command apply it, and the exact coefficients are
    # read only where the stencil is built and where dq and criterion 5 print
    # or check them.  The dict-keyed lattice API that it replaced is gone.
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    gone = {"Box", "enumerate_boxes", "difference_quotient", "quotient_from_function",
            "node_values", "in_lattice", "lattice_points", "lattice_to_gamma",
            "gamma_to_lattice", "_shear", "MissingNodeValue"}
    names = {n.name for tree in trees.values() for n in ast.walk(tree)
             if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    names = names.union(*map(name_uses, trees.values()))
    assert not gone & names, gone & names
    callers = call_sites(trees)
    for caller in [("interp", "_newton"), ("verify", "max_residual_quotient"), ("cli", "cmd_dq")]:
        assert caller in callers["forward_differences"], caller
    outside = {c for c in callers["quotient_coefficients"] if c[0] != "lattice"}
    assert outside == {("cli", "cmd_dq"), ("acceptance", "criterion_5")}, outside


def test_verify_measures_error_ratios_in_one_loop():
    # Every experiment over elements and fields is a study (squeeze_sweep and
    # convergence_study reduce its rows), and one helper checks (k, m, p).
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    callers = call_sites(trees)
    in_verify = {name: {c for c in callers[name] if c[0] == "verify"}
                 for name in ("error_ratio", "InadmissiblePC")}
    assert in_verify["error_ratio"] == {("verify", "study")}, in_verify["error_ratio"]
    assert len(in_verify["InadmissiblePC"]) == 1, in_verify["InadmissiblePC"]


def test_package_imports_without_scipy():
    # scipy is a test-only dependency: importing scipy.special alone costs
    # more set-up time and memory than numpy.  A fresh interpreter, since
    # this suite's own oracles import scipy.
    code = (
        "import sys, anisotetra, anisotetra.cli, anisotetra.acceptance; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]", out.stdout


class CountedNode(Node):
    """An expression tree that counts the jets taken of it."""

    def __init__(self, node: Node):
        self.node, self.calls = node, 0

    def jet(self, pts, n, keep=None, rank_one=()):
        self.calls += 1
        return self.node.jet(pts, n, keep)


@pytest.mark.parametrize("spec", [(1, 0, 2.0), (2, 1, 3.0), (3, 2, 2.0), (2, 2, math.inf),
                                  (4, 2, math.inf)])
def test_error_ratio_evaluates_an_expression_once_per_sample_set(spec):
    # error_ratio takes both seminorms from one sampling loop: an expression
    # field is evaluated once at the interpolation nodes and once per sample
    # set, the stacked 12/18 rule pair at finite p and each lattice block at
    # p = inf, never once per seminorm or per rule.
    t = generate(TetraGenSpec("sliver", 2), 1)[0]
    node = CountedNode(parse_expression("exp((0.3)*x + (-1.2)*y + (0.8)*z + (0.1))"))
    error_ratio(field_from_expression(node), t, *spec)
    lattice = len(unit_weights(DENSE_LATTICE_ORDER))
    sets = -(-lattice // BLOCK) if spec[2] == math.inf else 1
    assert node.calls == 1 + sets, node.calls
