"""The package namespace and the README's library code."""

import contextlib
import importlib
import io
import pathlib
import re
import types

import pathmn

MODULES = ("characters", "oracles", "partial_perm", "partitions", "ribbons", "statistics", "symfunc")
README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_package_binds_exactly_its_modules_public_names():
    declared = {"GuardError": "errors", "OracleMismatch": "errors", "ParseError": "errors"}
    for module in MODULES:
        for name in importlib.import_module(f"pathmn.{module}").__all__:
            assert name not in declared, f"{name} is declared in {declared.get(name)} and {module}"
            declared[name] = module
    bound = {name for name, obj in vars(pathmn).items()
             if not name.startswith("_") and not isinstance(obj, types.ModuleType)}
    assert bound == set(declared)
    for name, module in declared.items():
        assert getattr(pathmn, name) is getattr(importlib.import_module(f"pathmn.{module}"), name)


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks  # the library example
    for block in blocks:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            exec(compile(block, str(README), "exec"), {})
        assert out.getvalue()
