"""The package's modules depend only downward: the polynomial and Segre
kernels, then models, then evaluation, then the command line, the one
module that reads option text.  Each rule is read from the import
statements of the source, so a new upward import fails here.  The
modules that an engine import loads are pinned too: each is compiled on
every cold start."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "torusloc"
MODULES = sorted(PACKAGE.glob("*.py"))

# the kernels may use these sibling modules and no others
KERNELS = {"poly.py", "weighted.py"}
KERNEL_DEPENDENCIES = {"errors", "frozen", "poly"}


def package_imports(path: Path) -> set[str]:
    """The sibling modules a module imports, by name: "model" for both
    `from .model import x` and `from . import model`."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                names.update([node.module] if node.module else (alias.name for alias in node.names))
            elif node.module and node.module.startswith("torusloc"):
                names.add(node.module.partition(".")[2] or "__init__")
        elif isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[2] for alias in node.names
                         if alias.name.startswith("torusloc."))
    return {name.partition(".")[0] for name in names}


def test_every_module_is_read():
    assert {"cli.py", "poly.py", "weighted.py", "model.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_the_command_line_imports_itself(path):
    if path.name != "cli.py":
        assert "cli" not in package_imports(path)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_kernels_import_only_the_kernel_layer(name):
    assert package_imports(PACKAGE / name) <= KERNEL_DEPENDENCIES


def test_the_reader_sees_each_import_form(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from .model import a\nfrom . import cli\nimport torusloc.plans\n"
                      "from torusloc.expr import b\nfrom .poly import c\n")
    assert package_imports(source) == {"model", "cli", "plans", "expr", "poly"}


# what `import torusloc.localization` loads: the package runs __init__,
# which imports every public name
ENGINE = {f"torusloc.{name}" for name in
          ("errors", "frozen", "localization", "model", "plans", "poly", "weighted")} | {"torusloc"}


def loaded_modules(statement: str) -> set[str]:
    """The torusloc modules a fresh interpreter holds after the statement."""
    code = (f"import json, sys\n{statement}\n"
            "print(json.dumps([name for name in sys.modules if name.partition('.')[0] == 'torusloc']))\n")
    paths = [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    return set(json.loads(out.strip().splitlines()[-1]))


@pytest.mark.parametrize("statement, expected", [
    ("import torusloc.localization", ENGINE),
    ("import torusloc.cli", ENGINE | {"torusloc.cli", "torusloc.expr"}),
], ids=["engine", "cli"])
def test_the_import_path_loads_only_these_modules(statement, expected):
    loaded = loaded_modules(statement)
    assert loaded == expected
    assert "torusloc.closedforms" not in loaded
