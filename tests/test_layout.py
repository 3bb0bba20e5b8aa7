"""Rules about how the package's modules depend on each other."""

import ast
from pathlib import Path

from bkcdf.boundary import FAMILY_NAMES

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "bkcdf").glob("*.py"))


def test_no_module_imports_another_modules_private_names():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            ours = isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "bkcdf"
            )
            if ours:
                found += [f"{path.name}: {n.name}" for n in node.names if n.name[0] == "_"]
    assert SOURCES and found == []


def test_only_build_parser_and_main_touch_the_parser_in_cli():
    # every other rejected input raises, and main reports it as one error line
    path = SOURCES[0].parent / "cli.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.FunctionDef) or node.name in ("build_parser", "main"):
            continue
        params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        found += [f"{node.name}: parser parameter" for p in params if p.arg == "parser"]
        found += [
            f"{node.name}: .error() call"
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "error"
        ]
    assert found == []


def test_only_boundary_spells_the_family_names_as_a_collection():
    # every other module builds on FAMILY_NAMES, so a new family is added once
    found = []
    for path in SOURCES:
        if path.name == "boundary.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
                names = [e.value for e in node.elts if isinstance(e, ast.Constant)]
                if set(names) & set(FAMILY_NAMES):
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_only_grid_builds_blocks_and_strips():
    # every estimate goes through Grid, so there is one evaluation path
    inside, outside = set(), []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        grids = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == "Grid"]
        in_grid = {id(n) for grid in grids for n in ast.walk(grid)}
        for node in ast.walk(tree):
            func = getattr(node, "func", None)
            name = getattr(func, "id", getattr(func, "attr", None))
            if name in ("_Blocks", "_Strip") and id(node) in in_grid:
                inside.add(name)
            elif name in ("_Blocks", "_Strip"):
                outside.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert inside == {"_Blocks", "_Strip"} and outside == []


def test_estimator_and_analysis_do_not_use_the_family_oracle_methods():
    # the tests integrate these closed forms as an oracle for the estimator
    # and the analysis; if either called them, or passed them on, the oracle
    # would check a path against itself.  A distribution's ``support`` is an
    # interval, not the family's method, so ``support`` counts when called.
    oracle = {"left_density", "left_antiderivative", "support", "antiderivative"}
    found = []
    for path in SOURCES:
        if path.name not in ("estimator.py", "analysis.py"):
            continue
        tree = ast.parse(path.read_text(), str(path))
        called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in oracle:
                if node.attr != "support" or id(node) in called:
                    found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
    assert found == []


def test_analysis_imports_nothing_from_distributions():
    # the analysis integrates the CDF it is given; the right strip mirrors it
    # in place, so no distribution class is needed to carry 1 - F(a + b - y)
    path = SOURCES[0].parent / "analysis.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        found += [f"analysis.py:{node.lineno}" for m in modules if "distributions" in m.split(".")]
    assert found == []


def test_only_boundary_decides_the_strips():
    # boundary.regions decides strip membership by the cut point for Grid and
    # the analysis alike; comparing a point with a + h or b - h in either
    # module would state a second rule, which rounding can make disagree
    def name(node):
        return getattr(node, "id", getattr(node, "attr", None))

    def strip_edge(node):
        if not isinstance(node, ast.BinOp) or name(node.right) != "h":
            return False
        return (isinstance(node.op, ast.Add) and name(node.left) == "a") or (
            isinstance(node.op, ast.Sub) and name(node.left) == "b"
        )

    found = []
    for path in SOURCES:
        if path.name not in ("estimator.py", "analysis.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare) or name(getattr(node, "func", None)) == "searchsorted":
                found += [
                    f"{path.name}:{node.lineno}: {ast.unparse(node)}"
                    for edge in ast.walk(node)
                    if strip_edge(edge)
                ]
    assert SOURCES and found == []
