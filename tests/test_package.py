import ast
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
    # Each of these sums is theorem_sum at its check's point in verify.CHECKS.
    for gone in ("guo_sum", "sun_e_sum", "sun_bernoulli_lhs", "dflst_sum", "dflst_dual"):
        assert not hasattr(series, gone) and not hasattr(hypercong, gone), gone


def test_no_cap_is_a_package_attribute():
    # Caps are read at call time through their module, where a test or a caller may
    # change them; a package-level copy would not follow that change.
    for module, cap in [(padic, "MORITA_CAP"), (padic, "BERNOULLI_CAP"),
                        (jets, "MAX_DEGREE_CAP"), (verify, "P_CAPS"),
                        (cli, "SIEVE_LIMIT"), (cli, "GRID_LIMIT")]:
        assert hasattr(module, cap) and cap not in module.__all__
        assert not hasattr(hypercong, cap), cap


def test_no_library_module_calls_an_oracle():
    # ord_rational and reduce_mod are the independent oracles the tests hold
    # Unreduced.ord and Unreduced.residue to; the library itself never calls them.
    oracles = {"ord_rational", "reduce_mod"}
    defined, calls = set(), []
    for path in sorted(Path(hypercong.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name in oracles:
                    calls.append((path.name, node.lineno, name))
    assert oracles <= defined  # the scan reached padic, where both are defined
    assert calls == []
