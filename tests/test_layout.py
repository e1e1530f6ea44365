"""Every def, class and dataclass field in src/airsnet is used somewhere in src/.

A definition that only the tests use is API surface that exists for tests.
The walk collects each module's function and class definitions and every
`Name` / `Attribute` reference across the package, and lists the
definitions nothing in src/ refers to. Dunders are called by Python itself
and are exempt. A second walk lists the `@dataclass` fields src/ never
reads; a read is an attribute load. A third walk lists the src/ code
outside the quadrature rule and the mixture built on it that reads a rule's
`.weights`. A fourth lists the top-level defs of analytic.py that call the
semi-infinite quadrature: only _quad may; and those of simulate.py that form
the cascade amplitude: only _element_sums may. A fifth lists the top-level
defs of simulate.py that draw Gamma or exponential variates themselves
(channel.sample_nakagami_power draws every fading power), and a sixth
those that spell the "estimate is not finite" error: only _finite may. A
seventh lists the top-level src/ defs that call `.std(...)` with a ddof: only
simulate.sample_se may. An eighth lists each name a module of src/airsnet
or tests/ imports and never uses. Run this file directly to print these
lists. Last, each config key is declared once: on its own field of one of the
two config dataclasses.
"""

import ast
import dataclasses
from pathlib import Path

from airsnet.config import ExperimentConfig, NetworkConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "airsnet"
TESTS = Path(__file__).resolve().parent


def unreferenced_definitions(root: Path = SRC) -> list[str]:
    defined = []
    used = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.append(f"{path.name}:{node.name}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(d for d in defined if d.split(":", 1)[1] not in used)


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(target, ast.Name) and target.id == "dataclass"


def unread_dataclass_fields(root: Path = SRC) -> list[str]:
    fields = []
    read = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                fields += [f"{path.name}:{node.name}.{stmt.target.id}" for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(f for f in fields if f.rsplit(".", 1)[1] not in read)


# The only places a Gauss-Laguerre rule's weights may be read: the rule itself,
# mixgamma, whose cascade mixture takes them as its masses, and the two places
# that print or check the raw rule. Any other read is a second copy of the
# mass formula.
WEIGHTS_READERS = {"mathkit.py", "mixgamma.py", "experiments.py:_check_glq",
                   "cli.py:_cmd_glq_table"}


def tops_with(hit, root: Path = SRC) -> list[str]:
    """Each top-level def ("module:name") or module statement of src/ holding a
    node for which hit(node) is true."""
    found = set()
    for path in sorted(root.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if any(hit(node) for node in ast.walk(top)):
                name = getattr(top, "name", None)
                found.add(f"{path.name}:{name}" if name else path.name)
    return sorted(found)


def weights_readers(root: Path = SRC) -> list[str]:
    """Each top-level def or module statement reading `.weights`."""
    return tops_with(lambda node: isinstance(node, ast.Attribute) and node.attr == "weights",
                     root)


def stray_weights_readers(root: Path = SRC) -> list[str]:
    return [w for w in weights_readers(root)
            if w not in WEIGHTS_READERS and w.split(":")[0] not in WEIGHTS_READERS]


def test_laguerre_weights_are_read_only_by_the_mass_functions():
    assert stray_weights_readers() == []


def test_weights_walk_flags_a_second_mass_formula(tmp_path):
    (tmp_path / "mixgamma.py").write_text("def masses(rule):\n    return rule.weights\n")
    (tmp_path / "cli.py").write_text(
        "def _cmd_glq_table(rule):\n    return rule.weights\n"
        "def _cmd_dump(rule):\n    return [w for w in rule.weights]\n")
    (tmp_path / "analytic.py").write_text("W = RULE.weights\n")
    assert stray_weights_readers(tmp_path) == ["analytic.py", "cli.py:_cmd_dump"]


def defs_with(module: str, hit, root: Path = SRC) -> list[str]:
    """Top-level defs of `module` holding a node for which hit(node) is true."""
    tree = ast.parse((root / module).read_text(encoding="utf-8"))
    return sorted(top.name for top in tree.body if isinstance(top, ast.FunctionDef)
                  and any(hit(node) for node in ast.walk(top)))


def referrers(module: str, name: str, root: Path = SRC) -> list[str]:
    """Top-level defs of `module` referencing the bare name `name`."""
    return defs_with(module, lambda node: isinstance(node, ast.Name) and node.id == name, root)


def quadrature_callers(root: Path = SRC) -> list[str]:
    return referrers("analytic.py", "integrate_semi_infinite_with_error", root)


def cascade_callers(root: Path = SRC) -> list[str]:
    return referrers("simulate.py", "cascade_amplitude", root)


def test_analytic_has_one_semi_infinite_quadrature_call_site():
    # one place re-raises an exhausted budget with the point that caused it
    assert quadrature_callers() == ["_quad"]


def test_quadrature_walk_flags_a_second_call_site(tmp_path):
    (tmp_path / "analytic.py").write_text(
        "def _quad(f):\n    return integrate_semi_infinite_with_error(f)\n"
        "def rate(f):\n    def inner(g):\n"
        "        return integrate_semi_infinite_with_error(g)\n    return inner(f)\n"
        "def mean(f):\n    return _quad(f)\n")
    assert quadrature_callers(tmp_path) == ["_quad", "rate"]


def test_simulate_draws_reflector_links_in_one_place():
    # one helper draws the reflector-link powers and sums them per surface size
    assert cascade_callers() == ["_element_sums"]


def test_cascade_walk_flags_a_second_call_site(tmp_path):
    (tmp_path / "simulate.py").write_text(
        "def _element_sums(a, b):\n    return cascade_amplitude(a, b).sum(axis=0)\n"
        "def physical(a, b):\n    def rows(x, y):\n"
        "        return cascade_amplitude(x, y).sum(axis=1)\n    return rows(a, b)\n"
        "def cell(a, b):\n    return _element_sums(a, b)\n")
    assert cascade_callers(tmp_path) == ["_element_sums", "physical"]


def own_gamma_samplers(root: Path = SRC) -> list[str]:
    """Top-level defs of simulate.py calling a generator's standard_gamma or
    standard_exponential."""
    return defs_with("simulate.py", lambda node: isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Attribute)
                     and node.func.attr in ("standard_gamma", "standard_exponential"), root)


def test_simulate_draws_fading_powers_through_the_channel_sampler():
    assert own_gamma_samplers() == []


def test_gamma_walk_flags_a_second_sampler(tmp_path):
    (tmp_path / "simulate.py").write_text(
        "def bulk(rng, m, n):\n    return rng.standard_gamma(m, n) / m\n"
        "def draw(rng, m):\n    return sample_nakagami_power(m, rng, 4)\n"
        "def unit(rng):\n    def inner(r):\n"
        "        return r.standard_exponential(3)\n    return inner(rng)\n")
    assert own_gamma_samplers(tmp_path) == ["bulk", "unit"]


def non_finite_error_writers(root: Path = SRC) -> list[str]:
    """Top-level defs of simulate.py holding a string with "estimate is not finite"."""
    return defs_with("simulate.py", lambda node: isinstance(node, ast.Constant)
                     and isinstance(node.value, str)
                     and "estimate is not finite" in node.value, root)


def test_one_def_forms_the_non_finite_estimate_error():
    # every estimator names a non-finite estimate through the same helper
    assert non_finite_error_writers() == ["_finite"]


def test_non_finite_walk_flags_a_second_message(tmp_path):
    (tmp_path / "simulate.py").write_text(
        "def _finite(where, mean):\n"
        "    raise ValueError(f'{where}: estimate is not finite (mean {mean})')\n"
        "def physical(mean):\n    def check(m):\n"
        "        raise ValueError(f'the active estimate is not finite ({m})')\n"
        "    return check(mean)\n"
        "def cell(mean):\n    return _finite('cell', mean)\n")
    assert non_finite_error_writers(tmp_path) == ["_finite", "physical"]


def ddof_std_callers(root: Path = SRC) -> list[str]:
    """Each top-level def or module statement calling `.std(...)` with a ddof keyword."""
    return tops_with(lambda node: isinstance(node, ast.Call)
                     and isinstance(node.func, ast.Attribute) and node.func.attr == "std"
                     and any(kw.arg == "ddof" for kw in node.keywords), root)


def test_one_def_forms_the_sample_standard_error():
    # every paired or per-user standard error is simulate.sample_se
    assert ddof_std_callers() == ["simulate.py:sample_se"]


def test_std_walk_flags_a_second_site(tmp_path):
    (tmp_path / "simulate.py").write_text(
        "def sample_se(x):\n    return x.std(ddof=1) / math.sqrt(x.size)\n"
        "def spread(x):\n    return x.std()\n")
    (tmp_path / "experiments.py").write_text(
        "def density(tp):\n    def z(d):\n"
        "        return d.mean() / (d.std(ddof=1) / math.sqrt(d.size))\n"
        "    return z(tp)\n"
        "def assoc(rel):\n    return sample_se(rel)\n"
        "SE = np.std(X, ddof=1)\n")
    assert ddof_std_callers(tmp_path) == [
        "experiments.py", "experiments.py:density", "simulate.py:sample_se"]


def test_every_definition_is_referenced_in_src():
    assert unreferenced_definitions() == []


def test_every_dataclass_field_is_read_in_src():
    assert unread_dataclass_fields() == []


def test_walk_flags_what_nothing_references(tmp_path):
    (tmp_path / "a.py").write_text(
        "class Orphan:\n"
        "    def __init__(self):\n"
        "        self.kept = used\n"
        "    def helper(self):\n"
        "        pass\n"
        "    def kept(self):\n"
        "        pass\n"
    )
    (tmp_path / "b.py").write_text("def used():\n    pass\n")
    (tmp_path / "c.py").write_text(
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Record:\n"
        "    shown: int\n"
        "    named: int\n"
        "    orphan: int\n"
        "    stored: int\n"
        "def show(r: Record):\n"
        "    r.stored = 0\n"
        "    return r.shown, 'cfg.named', 'see orphan.'\n"
        "show(Record(1, 2, 3, 4))\n"
    )
    assert unreferenced_definitions(tmp_path) == ["a.py:Orphan", "a.py:helper"]
    # a field named only inside a string is not read
    assert unread_dataclass_fields(tmp_path) == [
        "c.py:Record.named", "c.py:Record.orphan", "c.py:Record.stored"]


def unused_imports(*roots: Path) -> list[str]:
    """Each name ("dir/module:name") a module of the roots imports and never
    uses; `__future__` imports are exempt, and naming an import in `__all__`
    does not use it."""
    found = []
    for root in roots:
        for path in sorted(root.glob("*.py")):
            imported, used = set(), set()
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                                    and node.module != "__future__"):
                    imported |= {alias.asname or alias.name.split(".")[0]
                                 for alias in node.names}
                elif isinstance(node, ast.Name):
                    used.add(node.id)
            found += [f"{root.name}/{path.name}:{name}" for name in sorted(imported - used)]
    return found


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports(SRC, TESTS) == []


def test_import_walk_flags_a_second_site(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom .b import shown, hidden\n"
        "__all__ = ['shown']\n"
        "def f(x):\n    import json\n    return np.sum(os.path.join(x))\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_a.py").write_text(
        "import pytest\nfrom pathlib import Path as P\n"
        "def test_a(tmp_path):\n    assert 'pytest' and P\n")
    assert unused_imports(tmp_path / "pkg", tmp_path / "tests") == [
        "pkg/a.py:hidden", "pkg/a.py:json", "pkg/a.py:shown", "tests/test_a.py:pytest"]


CONFIG_CLASSES = (ExperimentConfig, NetworkConfig)
UNKEYED_FIELDS = {"network"}


def test_each_config_key_is_declared_once_on_its_field():
    keys = []
    for cls in CONFIG_CLASSES:
        for f in dataclasses.fields(cls):
            if f.name not in UNKEYED_FIELDS:
                assert "key" in f.metadata, f"{cls.__name__}.{f.name} declares no config key"
                keys.append(f.metadata["key"])
    # a repeated key would silently shadow another in the parser's key map
    assert len(set(keys)) == len(keys)
    # the number of keys config.echo.json records
    assert len(keys) == 41


if __name__ == "__main__":
    print(unreferenced_definitions())
    print(unread_dataclass_fields())
    print(stray_weights_readers())
    print(quadrature_callers())
    print(cascade_callers())
    print(own_gamma_samplers())
    print(non_finite_error_writers())
    print(ddof_std_callers())
    print(unused_imports(SRC, TESTS))
