import ast
import importlib
import re
from collections.abc import Mapping
from pathlib import Path

import hypercong
from hypercong import cli, exact_core, jets, padic, series, verify

MODULES = (exact_core, jets, padic, series, verify, cli)


def test_the_package_exports_each_module_list_once():
    # Each module's __all__ is the one statement of its public names; the package
    # re-exports the six lists in order, and a name means the same object in both.
    names = [name for module in MODULES for name in module.__all__]
    assert hypercong.__all__ == names
    assert len(set(names)) == len(names)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hypercong, name) is getattr(module, name), (module.__name__, name)


def test_the_exact_values_and_the_command_line_are_package_names():
    from hypercong import (  # noqa: F401
        CHECK_NAMES,
        Unreduced,
        lemma_sums,
        main,
        reflection_differences,
        second_order_sum,
        taylor_values,
        theorem_sum,
        upsilon_coefficients,
    )
    assert Unreduced is padic.Unreduced and main is cli.main and theorem_sum is series.theorem_sum
    # Each of these sums is theorem_sum at its check's point in verify.CHECKS, or psi(x),
    # which is phi_value(tp, x, x); the jets of phi, Delta and Upsilon are a test-only fold
    # (tests/jet_fold.py), and the theorem-2 prefactor a Pochhammer ratio no check reads.
    for gone in ("guo_sum", "sun_e_sum", "sun_bernoulli_lhs", "dflst_sum", "dflst_dual",
                 "lhs_theorem1", "lhs_theorem2", "psi_value", "psi_jet", "phi_jet", "delta_jet",
                 "upsilon_jet", "theorem2_prefactor"):
        assert not hasattr(series, gone) and not hasattr(hypercong, gone), gone


def test_no_cap_is_a_package_attribute():
    # Caps are read at call time through their module, where a test or a caller may
    # change them; a package-level copy would not follow that change.
    for module, cap in [(padic, "RESIDUE_CAP"), (padic, "BERNOULLI_CAP"),
                        (jets, "MAX_DEGREE_CAP"), (verify, "CHECKS"), (series, "WALK_CAP"),
                        (cli, "SIEVE_LIMIT"), (cli, "GRID_LIMIT")]:
        assert hasattr(module, cap) and cap not in module.__all__
        assert not hasattr(hypercong, cap), cap


def test_no_module_holds_a_second_table_of_checks():
    # verify.CHECKS states each check once, its cap included: no other module-level mapping
    # is keyed by check ids.
    tables = [(module.__name__, name) for module in (hypercong, *MODULES)
              for name, value in vars(module).items()
              if isinstance(value, Mapping) and value is not verify.CHECKS
              and any(key in verify.CHECKS for key in value)]
    assert tables == []


def test_no_library_module_calls_an_oracle():
    # ord_rational and reduce_mod are the independent oracles the tests hold
    # Unreduced.ord and Unreduced.residue to; the library itself never calls them.  Jet2 and
    # pochhammer_jet are the one derivative oracle: no module but jets refers to either name.
    oracles, jet_oracles = {"ord_rational", "reduce_mod"}, {"Jet2", "pochhammer_jet"}
    defined, calls = set(), []
    for path in sorted(Path(hypercong.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in oracles:
                    calls.append((path.name, node.lineno, name))
            elif isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and path.name != "jets.py":
                name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
                if name in jet_oracles:
                    calls.append((path.name, node.lineno, name))
    assert oracles <= defined  # the scan reached padic, where both are defined
    assert calls == []


def test_no_module_imports_a_name_it_neither_uses_nor_exports():
    # No linter runs on this package; an import left behind by a refactor fails here.
    unused = []
    for path in sorted(Path(hypercong.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        name = "hypercong" if path.stem == "__init__" else f"hypercong.{path.stem}"
        exported = set(getattr(importlib.import_module(name), "__all__", ()))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                bound = {(a.asname or a.name).split(".")[0] for a in node.names if a.name != "*"}
                unused += [(path.name, node.lineno, b) for b in sorted(bound - used - exported)]
    assert unused == []


def test_the_readme_library_tour_runs():
    # The tour's python block runs as written, in a fresh namespace, so a name the package
    # no longer has fails here instead of in a reader's session.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```python\n(.*?)```", tour, re.S)
    exec(compile(block, "README.md", "exec"), {})
