"""Module boundaries: no module of the package imports a private name
(one starting with an underscore) from a sibling module, no public name is
reached only from the tests, and only the stability runner refines a
scheme."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import subrep
from subrep import functions, norms, quadrature, verify

PACKAGE = Path(subrep.__file__).resolve().parent

# Public names that no module of the package references, kept on purpose.
UNREFERENCED_ALLOWED = {
    # Acceptance criterion 11 checks the Lorentz scale invariance through it.
    "ball_lorentz_scale_invariance",
}


def _trees():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_no_private_imports_between_modules():
    offenders = []
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("subrep"):
                continue
            offenders += [
                f"{name}:{node.lineno} imports {alias.name}"
                for alias in node.names if alias.name.startswith("_")
            ]
    assert offenders == []


def _public_definitions(tree):
    """Top-level functions, classes and assigned names, and the methods and
    properties of those classes, whose names do not start with an
    underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (
                target.id for target in targets
                if isinstance(target, ast.Name) and not target.id.startswith("_")
            )
        if isinstance(node, ast.ClassDef):
            yield from (
                item.name for item in node.body
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
            )


def test_every_public_name_is_used_by_the_package():
    trees = _trees()
    used = set()
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(
        f"{name}: {defined}"
        for name, tree in trees.items()
        for defined in _public_definitions(tree)
        if defined not in used and defined not in UNREFERENCED_ALLOWED
    )
    assert unused == []


def test_only_the_stability_runner_refines_a_scheme():
    # Every two-pass check gets its refined pass from verify._two_pass.
    owners = [
        node.name
        for node in _trees()["verify.py"].body
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "refined"
    ]
    assert owners == ["_two_pass"]


def test_only_the_declarations_read_a_symmetry():
    # A field or weight states its symmetry once; every rule that uses it
    # reads the declarations through functions.symmetry_of, never on its own.
    declaring = {"TestFunction", "GradientMagnitude", "Weight", "FracDerivativeField"}
    readers, type_tests = set(), []
    for name, tree in _trees().items():
        for node in tree.body:
            for sub in ast.walk(node):
                # .symmetry, or the name handed to getattr or hasattr
                if (isinstance(sub, ast.Attribute) and sub.attr == "symmetry"
                        or isinstance(sub, ast.Constant) and sub.value == "symmetry"):
                    readers.add(getattr(node, "name", f"{name}:{node.lineno}"))
                if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                        and sub.func.id == "isinstance" and len(sub.args) == 2
                        and "GradientMagnitude" in ast.unparse(sub.args[1])):
                    type_tests.append(f"{name}:{sub.lineno}")
    assert readers <= declaring | {"symmetry_of"}
    assert "symmetry_of" in readers
    assert type_tests == []


THEOREMS = ("check_subrepresentation_identity", "check_rough_subrepresentation",
            "check_fractional_domination", "check_identity_fractional", "check_rough_fractional")


def test_each_pointwise_theorem_is_one_call_into_the_runner():
    # Theorems 2.1, 2.2, 2.3, 2.6 and 2.7 differ only in their ingredients,
    # so each is its docstring and one return of verify._theorem.
    bodies = {node.name: node.body for node in _trees()["verify.py"].body
              if isinstance(node, ast.FunctionDef) and node.name in THEOREMS}
    assert sorted(bodies) == sorted(THEOREMS)
    for name, body in bodies.items():
        assert len(body) == 2, name
        assert isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant), name
        ret = body[1]
        assert isinstance(ret, ast.Return) and isinstance(ret.value, ast.Call), name
        assert isinstance(ret.value.func, ast.Name) and ret.value.func.id == "_theorem", name


def test_only_the_theorem_runner_and_three_checks_call_two_pass():
    callers = [
        node.name
        for node in _trees()["verify.py"].body
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "_two_pass"
    ]
    assert sorted(callers) == sorted(
        ["_theorem", "check_poincare_bbm", "check_hedberg_split", "check_sobolev_mapping"]
    )


def test_only_the_weight_reads_its_pole():
    # Every other module learns where a weight is singular from its
    # symmetry declaration.
    readers = sorted(
        f"{name}:{node.lineno}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "pole" and name != "weights.py"
    )
    assert readers == []


def _definitions(tree):
    """(qualified name, node) of every top-level function and of every
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{item.name}", item)
                        for item in node.body if isinstance(item, ast.FunctionDef))


def _callers(callee, test=lambda call: True):
    """Where the package calls callee, by name or as an attribute."""
    return sorted(
        f"{name}:{qualname}"
        for name, tree in _trees().items()
        for qualname, node in _definitions(tree)
        if any(isinstance(call, ast.Call)
               and (getattr(call.func, "id", None) == callee or getattr(call.func, "attr", None) == callee)
               and test(call)
               for call in ast.walk(node))
    )


def test_the_fractional_field_has_one_rule_outside_the_support():
    # The near band takes frac_derivative's adaptive single layer; the cell
    # rule is summed only for the far field of a non-radial f.
    named = [
        f"{name}:{node.lineno}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if "_near_values" in (getattr(node, "id", None), getattr(node, "attr", None),
                              getattr(node, "name", None))
    ]
    assert named == []
    assert _callers("_single_layer") == ["operators.py:FracDerivativeField._far_values"]


def test_shell_geometry_lives_only_in_quadrature():
    # One shell and refinement engine: every other module reaches shells
    # through integrate_annular, never by building them itself.
    for name in ("annulus_nodes", "shell_edges", "core_ratio"):
        callers = _callers(name)
        assert callers and all(c.startswith("quadrature.py:") for c in callers), (name, callers)


def test_pyramid_geometry_lives_only_in_quadrature():
    # The Poincare inner integral reaches its pyramids through
    # integrate_cells, whose rule never crosses the faces of Q, so no
    # module builds the indicator of a box.
    for name in ("_pyramids", "_pyramid_rule"):
        callers = _callers(name)
        assert callers and all(c.startswith("quadrature.py:") for c in callers), (name, callers)
    assert _callers("integrate_cells") == ["verify.py:_bbm_double_integral"]
    assert _callers("contains") == []


def test_one_loop_stops_every_integral():
    # Shells, pyramids and the box's midpoint rule double in one loop, which
    # alone decides when an integral stops and holds the one node cap.
    assert _callers("_refine_to_tolerance") == ["quadrature.py:integrate_annular",
                                                "quadrature.py:integrate_box",
                                                "quadrature.py:integrate_cells"]
    assert "_MAX_BOX_CELLS" not in (PACKAGE / "quadrature.py").read_text()


def test_one_evaluator_calls_every_kernel():
    # Shells, pyramids and the box only build nodes: _rule_values alone packs
    # them into calls, calls the kernel (the box's fn through an adapter) and
    # sums the products, so the order of summation is written once.
    assert _callers("kernel") == ["quadrature.py:_rule_values"]
    assert _callers("fn") == ["quadrature.py:_midpoint_values"]
    assert _callers("_packed") == ["quadrature.py:_rule_values"]
    assert not hasattr(quadrature, "_chunks")
    # One map onto log r serves the log and tail shells and the pyramids' rays.
    assert [c for c in _callers("exp") if c.startswith("quadrature.py:")] == [
        "quadrature.py:_radial_rule"]


def test_integrate_box_keeps_its_traced_signature():
    # The benchmark's tracer wraps integrate_box wherever a module binds it
    # and counts its points through fn, its first argument.
    for module in (functions, norms, verify):
        assert module.integrate_box is quadrature.integrate_box, module.__name__
    assert next(iter(inspect.signature(quadrature.integrate_box).parameters)) == "fn"


def test_one_gauss_legendre_table():
    # Shell rules, ball masses and the fractional field read one memoized,
    # read-only table, quadrature.gauss_legendre.
    assert _callers("leggauss") == ["quadrature.py:gauss_legendre"]


def test_only_the_memo_builds_a_fractional_field():
    # Every check reads D^alpha f through frac_derivative_field, so a field
    # is built once per (f, alpha, scheme, grid_points).
    assert _callers("FracDerivativeField") == ["operators.py:frac_derivative_field"]


def test_only_the_memo_estimates_a1():
    # [w]_A1 depends on no point, so the checks sample it once per
    # (w, f, samples per ball) through verify._a1_constant.
    assert _callers("estimate_a1") == ["verify.py:_a1_constant"]


def test_only_the_stability_runner_shares_rules():
    # A rule store lives for the two passes of one check, and only the
    # operators that name their whole integrand read or fill it.
    assert _callers("shared_rules") == ["verify.py:_two_pass"]
    keyed = _callers("integrate_annular", lambda call: any(k.arg == "key" for k in call.keywords))
    assert keyed == ["operators.py:potential_Tw_pieces", "operators.py:riesz_potential",
                     "operators.py:rough_maximal"]


def test_importing_the_cli_loads_no_scipy():
    # scipy is imported only where a rule needs it, so every subrep process
    # starts without paying for it.
    code = "import sys, subrep.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent),
                                                        os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "[]"


def test_only_the_grid_orbits_fold_lattice_indices():
    # Every lattice folded under the cube's symmetries reads Box.grid_orbits.
    def folds(call):
        if len(call.args) != 2:
            return False
        idx, mirror = call.args
        return (isinstance(mirror, ast.BinOp) and isinstance(mirror.op, ast.Sub)
                and ast.dump(mirror.right) == ast.dump(idx))

    assert _callers("minimum", folds) == ["functions.py:Box.grid_orbits"]
