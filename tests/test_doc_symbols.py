"""The prose docs name real code.

README.md, DESIGN.md and EXPERIMENTS.md refer to the package in
backticks: module paths (```repro.core.system```) and class members
(```RunResult.node_metrics```, ```Cluster.processes()```).  A rename
that forgets the docs leaves a reader looking for something that is not
there; this test resolves every such reference against the code.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
import re
import typing as t
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

_CODE = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(r"repro(?:\.\w+)+(?:\(\))?")
_MEMBER = re.compile(r"([A-Z]\w*)\.(\w+)(?:\(.*\))?")


def _classes() -> dict[str, list[type]]:
    """Every class defined in the package, by name."""
    out: dict[str, list[type]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == info.name:
                out.setdefault(name, []).append(obj)
    return out


CLASSES = _classes()


def _references() -> tuple[list[t.Any], list[t.Any]]:
    """One test case per distinct reference per doc, named after both
    (not the line, so editing a doc keeps the other cases' ids)."""
    paths, members = {}, {}
    for doc in DOCS:
        for code in _CODE.findall((ROOT / doc).read_text(encoding="utf-8")):
            case = f"{doc}:{code}"
            if _PATH.fullmatch(code):
                paths[case] = pytest.param(code, id=case)
            match = _MEMBER.fullmatch(code)
            if match and match.group(1) in CLASSES:
                members[case] = pytest.param(*match.groups(), id=case)
    return list(paths.values()), list(members.values())


PATHS, MEMBERS = _references()


def _has_member(cls: type, name: str) -> bool:
    """A class attribute, a dataclass or annotated field, or an
    instance attribute some method of the class assigns."""
    if hasattr(cls, name):
        return True
    if dataclasses.is_dataclass(cls) and name in {
        f.name for f in dataclasses.fields(cls)
    }:
        return True
    assigned = re.compile(rf"\bself\.{name}\b\s*(?::[^=\n]*)?=[^=]")
    for base in cls.__mro__:
        if name in vars(base).get("__annotations__", {}):
            return True
        if base.__module__.startswith("repro") and assigned.search(
            inspect.getsource(base)
        ):
            return True
    return False


def test_docs_name_the_package() -> None:
    assert len(PATHS) >= 10 and len(MEMBERS) >= 50


@pytest.mark.parametrize("path", PATHS)
def test_module_path_resolves(path: str) -> None:
    parts = path.removesuffix("()").split(".")
    obj: t.Any = None
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            assert hasattr(obj, attr), f"{path}: no {attr!r} on {obj!r}"
            obj = getattr(obj, attr)
        return
    pytest.fail(f"{path}: no such module")


@pytest.mark.parametrize(("cls_name", "member"), MEMBERS)
def test_class_member_resolves(cls_name: str, member: str) -> None:
    assert any(_has_member(cls, member) for cls in CLASSES[cls_name]), (
        f"no class {cls_name} in repro has a member {member!r}"
    )
