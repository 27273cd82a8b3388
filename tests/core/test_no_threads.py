"""Node code runs on one kernel per OS process, on every backend: the
communication and join processes of a node take turns at step
boundaries, so nothing under ``repro.core`` needs a thread or a lock,
and the runtimes and transports that drive that kernel — the launcher
included — wait on selectors, not threads."""

import ast
from pathlib import Path

import repro.core
import repro.net
import repro.runtime

#: Modules whose import would mean node code reaches for threads.
THREAD_MODULES = {"threading", "_thread"}
#: ...and, for the runtimes and transports, a thread-fed queue too.
LOOP_THREAD_MODULES = THREAD_MODULES | {"queue"}
#: The tcp worker's mesh set-up acceptor: a connect and an accept that
#: must overlap before the node's kernel exists.
SETUP_THREADS = {"tcp.py"}


def thread_imports(package, banned, exempt=frozenset()):
    offenders = []
    for path in sorted(Path(package.__file__).parent.rglob("*.py")):
        if path.name in exempt:
            continue
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
                if name.split(".")[0] in banned
            ]
    return offenders


def test_no_core_module_imports_threading():
    assert thread_imports(repro.core, THREAD_MODULES) == []


def test_runtimes_and_transports_run_one_loop_per_process():
    assert thread_imports(
        repro.runtime, LOOP_THREAD_MODULES, exempt=SETUP_THREADS
    ) == []
    assert thread_imports(repro.net, LOOP_THREAD_MODULES) == []
