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


def test_start_up_defers_re_fractions_and_json():
    # library calls and the markdown game, catalog and analyze build no
    # Fraction, no JSON document, parse no text with a pattern and use no
    # functools cache, so a fresh interpreter reaches none of these; a JSON
    # exclude report then imports fractions and json itself
    deferred = (
        "re",
        "enum",
        "fractions",
        "decimal",
        "numbers",
        "json",
        "functools",
        "collections",
        "types",
    )
    code = "\n".join(
        [
            "import io, sys",
            "sys.path.insert(0, sys.argv[1])",
            "import fano2ray, fano2ray.cli",
            "from fano2ray import family, load_catalog, monomial_support, run_game, singular_locus",
            "load_catalog()",
            "record = family(110)",
            "monomial_support(record.weights, record.degree)",
            "entry = singular_locus(record)[0]",
            "run_game(record, entry, entry.tangent_candidates[0][1])",
            "sys.stdout = io.StringIO()",
            "game = fano2ray.cli.main(['game', '110', '--point', 'p2'])",
            "listing = fano2ray.cli.main(['catalog'])",
            "analysis = fano2ray.cli.main(['analyze', '110'])",
            f"loaded = sorted(m for m in {deferred!r} if m in sys.modules)",
            "exclude = fano2ray.cli.main(['exclude', '100', '--format', 'json'])",
            "sys.stdout = sys.__stdout__",
            "print(game, listing, analysis, loaded, exclude, 'fractions' in sys.modules,"
            " 'json' in sys.modules)",
        ]
    )
    child = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC.parent)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert child.stdout.strip() == "0 0 0 [] 0 True True"


def test_start_up_compiles_no_source_string():
    # collections.namedtuple compiles each class's __new__ from a string
    # (filename "<string>"), and so does functools for the namedtuple of
    # lru_cache's cache_info; the records are built from bytecode instead,
    # and no module imports functools.  A module compiled from its file
    # fires "compile" with its own path
    code = "\n".join(
        [
            "import sys",
            "sys.path.insert(0, sys.argv[1])",
            "compiled = []",
            "sys.addaudithook(lambda event, args: event == 'compile' and compiled.append(args[1]))",
            "import fano2ray.cli",
            "from fano2ray import load_catalog",
            "load_catalog()",
            "print(compiled.count('<string>'))",
        ]
    )
    child = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC.parent)],
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert child.stdout.strip() == "0"


def test_no_module_compiles_source():
    # no eval, exec or compile of a string, and no namedtuple, which does so
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name in ("eval", "exec", "compile", "namedtuple"):
                offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert offenders == []


def test_no_module_imports_functools_collections_or_types():
    # functools imports the other two: 2-4 ms of a start-up that needs none,
    # even from inside a function; the package memoises in plain dicts
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            offenders += [
                f"{path.name}:{node.lineno}: {name}"
                for name in names
                if name.partition(".")[0] in ("functools", "collections", "types")
            ]
    assert offenders == []


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


def test_the_geometric_core_reads_no_recorded_data():
    # singular_locus, blowup_weights, build_model, run_game and the exclusion
    # tests read the hypersurface only: a recorded field in a message or a
    # verdict would make FamilyRecord(weights=w, degree=d) a second-class
    # input.  smooth_point_test still takes the recorded h column, through
    # default_h_degree, until the isolating class is derived (ROADMAP item 11)
    recorded = {"id", "expected", "rational"}
    trees = {
        name: ast.parse((SRC / f"{name}.py").read_text(encoding="utf-8"))
        for name in ("singular", "toric2ray", "linkengine", "exclusion")
    }

    def function(module: str, name: str) -> ast.FunctionDef:
        return next(
            node
            for node in trees[module].body
            if isinstance(node, ast.FunctionDef) and node.name == name
        )

    scopes = {
        "singular.py": (trees["singular"], recorded | {"h_degree"}),
        "toric2ray.py": (trees["toric2ray"], recorded | {"h_degree"}),
        "linkengine.run_game": (function("linkengine", "run_game"), recorded | {"h_degree"}),
    }
    for name in ("curve_test", "fibration_witness", "smooth_point_test"):
        scopes[f"exclusion.{name}"] = (function("exclusion", name), recorded)
    offenders = [
        f"{scope}:{node.lineno}: {ast.unparse(node)}"
        for scope, (tree, fields) in scopes.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in fields
    ]
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
