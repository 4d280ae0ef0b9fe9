import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import alphaseq
from alphaseq.oracle import oracle_ln

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block():
    text = README.read_text(encoding="utf-8")
    return re.search(r"## Library\n\n```python\n(.*?)```", text, re.S).group(1)


def test_readme_imports_are_the_public_names():
    imports = ast.parse(library_block()).body[0]
    assert isinstance(imports, ast.ImportFrom) and imports.module == "alphaseq"
    assert [alias.name for alias in imports.names] == alphaseq.__all__


def test_readme_examples_return_the_commented_values():
    block = library_block()
    namespace = {}
    exec(block, namespace)  # the import, then the examples as bare expressions
    examples = [line.split("#", 1) for line in block.splitlines() if "#" in line]
    results = [eval(code, namespace) for code, _ in examples]
    notes = [note.strip() for _, note in examples]
    assert results[0] == ast.literal_eval(notes[0])
    assert results[1] == ast.literal_eval(notes[1].partition(" via ")[0])
    assert notes[2] == "the nine members of L_7, ascending"
    assert results[2] == oracle_ln(7) and len(results[2]) == 9


def test_oracle_imports_none_of_the_adjacency_machinery():
    # the oracle certifies the walks, so at module level it may share only the
    # comparator, the cap reader and the errors with them
    source = Path(alphaseq.oracle.__file__).read_text(encoding="utf-8")
    allowed = {
        "caps": None,
        "core": {"compare", "GREATER", "AlphaSeq", "ZERO"},
        "errors": None,
    }
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("alphaseq") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                assert not node.module.startswith("alphaseq"), node.module
                continue
            assert node.level == 1 and node.module in allowed, node.module
            names = allowed[node.module]
            if names is not None:
                assert {alias.name for alias in node.names} <= names, node.module


def _module_body(name):
    path = Path(alphaseq.__file__).parent / f"{name}.py"
    return ast.parse(path.read_text(encoding="utf-8")).body


def _relative_imports(name):
    """{module: imported names} for the module-level imports of alphaseq.<name>,
    which reaches its own package only by `from .module import ...`."""
    out = {}
    for node in _module_body(name):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("alphaseq") for alias in node.names), name
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                assert not node.module.startswith("alphaseq"), name
            else:
                assert node.level == 1 and node.module, name  # not `from . import cells`
                out.setdefault(node.module, set()).update(alias.name for alias in node.names)
    return out


def test_each_concern_lives_in_its_own_module():
    # core holds the head-suffix tests, cells the paper's rewrites, and adjacency
    # decides how a step probes: it uses nothing of cells, and cells no private core name
    assert "cells" not in _relative_imports("adjacency")
    assert not any(n.startswith("_") for n in _relative_imports("cells")["core"])
    defined = {node.name for node in _module_body("core") if isinstance(node, ast.FunctionDef)}
    assert {"_head_table", "_above_heads", "_above_suffix"} <= defined
    assert "_head_windows" not in defined


def test_errors_import_nothing_of_the_package():
    # core raises NotInSet and NotInSet prints with core's format_sequence: that
    # import waits inside NotInSet.__str__, so errors loads before core with no cycle
    assert _relative_imports("errors") == {}


def test_cli_import_stays_light():
    # every CLI process pays for what `import alphaseq.cli` loads, whatever the command
    heavy = ("dataclasses", "inspect", "typing", "json", "csv")
    code = f"import sys, alphaseq.cli; print(sorted(set({heavy!r}) & set(sys.modules)))"
    src = str(Path(alphaseq.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"
