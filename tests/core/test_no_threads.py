"""Node code runs on one kernel per OS process, on every backend: the
communication and join processes of a node take turns at step
boundaries, so nothing under ``repro.core`` needs a thread or a lock."""

import ast
from pathlib import Path

import repro.core

#: Modules whose import would mean node code reaches for threads.
THREAD_MODULES = {"threading", "_thread"}


def test_no_core_module_imports_threading():
    offenders = []
    for path in sorted(Path(repro.core.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.split(".")[0] in THREAD_MODULES
            ]
    assert offenders == []
