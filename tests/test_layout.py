"""Source-layout rules of the package."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import fano2ray

SRC = Path(fano2ray.__file__).resolve().parent


def test_no_module_imports_another_modules_private_names():
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offenders += [
                    f"{path.name}: from .{node.module or ''} import {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert offenders == []


def test_start_up_imports_no_heavy_standard_modules():
    # a fresh interpreter without site-packages running a plain command
    # line, as a cold CLI run starts: it reaches no argparse (whose width
    # lookup imports shutil), and the records are built without typing
    heavy = (
        "dataclasses",
        "inspect",
        "importlib.resources",
        "pathlib",
        "tempfile",
        "shutil",
        "bz2",
        "lzma",
        "zlib",
        "typing",
    )
    code = (
        "import io, sys; sys.path.insert(0, sys.argv[1]); import fano2ray.cli; "
        "sys.stdout = io.StringIO(); "
        "status = fano2ray.cli.main(['verify', '--format', 'json']); "
        "sys.stdout = sys.__stdout__; "
        f"print(status, sorted(m for m in {heavy!r} if m in sys.modules))"
    )
    child = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC.parent)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert child.stdout.strip() == "0 []"


def _is_int_literal(node: ast.expr) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_int_literal, node.elts))
    return isinstance(node, ast.Constant) and type(node.value) is int


def test_no_module_compares_a_record_id_with_an_integer_literal():
    # family ids are data: a rule or a data column decides, not `record.id == 110`
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(isinstance(op, ast.Attribute) and op.attr == "id" for op in operands) and any(
                map(_is_int_literal, operands)
            ):
                offenders.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert offenders == []


def _defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def test_every_name_a_module_exports_is_defined_there():
    # a submodule exports only its own API; the package __init__ gathers it
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exported = [
            elt.value
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            for elt in node.value.elts
        ]
        defined = _defined_names(tree)
        offenders += [f"{path.name}: {name}" for name in exported if name not in defined]
    assert offenders == []
