"""Checks on the package source itself."""
import ast
import collections
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "sumgames").glob("*.py"))


def test_sources_are_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_guard_depends_on_assert(path):
    # python -O strips assert statements, so a guard must raise instead
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert statements on lines {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_json_parse_refuses_a_duplicate_key(path):
    # plain json.loads keeps the last of two values for a key, so a config
    # or report line could claim one value and run another
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("load", "loads")
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
             and "object_pairs_hook" not in {kw.arg for kw in node.keywords}]
    assert lines == [], f"{path.name}: json parsed without object_pairs_hook on lines {lines}"


_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _top_level(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path)).body


def test_every_top_level_name_has_a_caller_outside_the_tests():
    # Library surface that only tests reach is code no command, verifier,
    # search, demo or benchmark pays for.  A name counts as used when the
    # package, a demo or the benchmark mentions it outside its own body.
    modules = [p for p in SOURCES if p.name != "__init__.py"]
    callers = (modules + sorted((ROOT / "demos").glob("*.py"))
               + [p for p in sorted((ROOT / "bench").glob("*.py"))
                  if not p.name.startswith("test_")])
    users = collections.defaultdict(set)
    for path in callers:
        for stmt in _top_level(path):
            owner = stmt.name if isinstance(stmt, _DEFINITIONS) else None
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    users[node.id].add((path, owner))
                elif isinstance(node, ast.Attribute):
                    users[node.attr].add((path, owner))
    unused = [f"{path.stem}.{stmt.name}" for path in modules for stmt in _top_level(path)
              if isinstance(stmt, _DEFINITIONS) and users[stmt.name] <= {(path, stmt.name)}]
    assert unused == [], f"reached only by tests: {unused}"


def test_every_top_level_import_is_used():
    # An import that its file never reads is dead weight.  The package's
    # __init__.py is left out: its imports are the public API.
    paths = ([p for p in SOURCES if p.name != "__init__.py"]
             + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "tests").glob("*.py")))
    unused = []
    for path in paths:
        body = _top_level(path)
        # the base of an attribute, as in pytest.mark, is itself a Name
        read = {node.id for stmt in body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)}
        for stmt in body:
            if isinstance(stmt, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in stmt.names]
            elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
                bound = [alias.asname or alias.name for alias in stmt.names]
            else:
                continue
            unused += [f"{path.parent.name}/{path.name}: {name}"
                       for name in bound if name not in read]
    assert unused == [], f"imported but never used: {unused}"


def test_every_parameter_is_read():
    # A parameter its function never reads is an input that changes
    # nothing.  Top-level functions and methods only: a nested callback or
    # lambda takes the arguments its caller's protocol passes.
    unread = []
    for path in SOURCES:
        for stmt in _top_level(path):
            if isinstance(stmt, ast.ClassDef):
                functions = [(f"{stmt.name}.", f) for f in stmt.body
                             if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions = [("", stmt)]
            else:
                continue
            for prefix, fn in functions:
                a = fn.args
                params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
                          + [a.vararg, a.kwarg] if p is not None]
                if prefix and params:
                    params = params[1:]  # self or cls
                read = {node.id for body in fn.body for node in ast.walk(body)
                        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
                unread += [f"{path.stem}.{prefix}{fn.name}({p})" for p in params
                           if p not in read]
    assert unread == [], f"parameters never read: {unread}"



def _named(body) -> set:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(body) if isinstance(node, (ast.Name, ast.Attribute))}


# check.py decides what a valid certificate is.  It may read the
# definitions a certificate is checked against, but no search: a defect in
# code that a search and its check share would make them agree.
_CHECK_IMPORTS = {"coloring", "covers", "semigroups", "verdicts"}
_SEARCH_NAMES = {"_prefix_sums", "_depth_first", "_chain_candidates", "_candidate_blocks",
                 "_NodeBudget", "_lex_first_avoider", "_avoider_exists_fc",
                 "threshold_search", "menger_mt_search", "allowed_indices"}


def test_checkers_import_only_definitions_and_name_no_search():
    tree = ast.parse((ROOT / "src" / "sumgames" / "check.py").read_text(encoding="utf-8"))
    outside = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.level != 1 or node.module not in _CHECK_IMPORTS:
                outside.append("." * node.level + (node.module or ""))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
            outside += [name for name in names
                        if name.partition(".")[0] not in sys.stdlib_module_names]
    assert outside == [], f"check.py imports {outside}"
    named = _named(tree)
    assert named & _SEARCH_NAMES == set(), f"check.py names {sorted(named & _SEARCH_NAMES)}"


def test_every_checker_is_in_check_py():
    # verify_dichotomy stays in search.py as a dispatch by result type
    checkers = [f"{name}.{stmt.name}" for name in ("search", "partition")
                for stmt in _top_level(ROOT / "src" / "sumgames" / f"{name}.py")
                if isinstance(stmt, ast.FunctionDef)
                and stmt.name.startswith(("verify_", "_recheck"))]
    assert checkers == ["search.verify_dichotomy"]


def test_only_recheck_compares_records():
    # A certifier rebuilds a result from its certificate; verify-report's
    # _recheck compares the whole record, once, for certified and re-run
    # records alike.  A certifier that compared on its own would check less.
    certifiers = [stmt for stmt in _top_level(ROOT / "src" / "sumgames" / "cli.py")
                  if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_certify_")]
    assert len(certifiers) == 5
    comparing = {body.name: sorted(_named(body) & {"_same_json", "json"})
                 for body in certifiers}
    assert {name: named for name, named in comparing.items() if named} == {}


def test_searches_read_every_chain_from_the_chain_table():
    # one chain enumeration: block_chains builds chain_table, and the
    # searches read their chains from the table, never from what builds it
    reached = {}
    for name in ("search", "partition"):
        tree = ast.parse((ROOT / "src" / "sumgames" / f"{name}.py").read_text(encoding="utf-8"))
        reached[name] = _named(tree) | {alias.name for node in ast.walk(tree)
                                        if isinstance(node, ast.ImportFrom)
                                        for alias in node.names}
    assert {name: sorted(names & {"block_chains", "blocks_within"})
            for name, names in reached.items()} == {"search": [], "partition": []}
    assert "chain_table" in reached["search"]


def test_only_the_block_searches_call_the_prefix_kernel():
    # the kernel checks search nodes: a top-level function other than the
    # four block searches that names it runs the check outside a search
    callers = []
    for name in ("search", "partition"):
        for stmt in _top_level(ROOT / "src" / "sumgames" / f"{name}.py"):
            if not isinstance(stmt, _DEFINITIONS) or stmt.name == "_prefix_sums":
                continue
            roots = [node for node in ast.walk(stmt) if isinstance(node, ast.Attribute)
                     and node.attr == "root" and isinstance(node.value, ast.Name)
                     and node.value.id == "_PrefixState"]
            if roots or "_prefix_sums" in {node.id for node in ast.walk(stmt)
                                           if isinstance(node, ast.Name)}:
                callers.append(f"{name}.{stmt.name}")
    assert sorted(callers) == ["partition.menger_mt_search", "search.hindman_search",
                               "search.mt_search", "search.proper_or_collapse"]


def test_threshold_dfs_names_its_budget_only_as_spend():
    # the tracer counts spend calls as nodes, and a pass that could resume
    # must keep no budget arithmetic of its own: _lex_first_avoider reads
    # its budget only as nodes.spend, never its used, limit or refused
    tree = ast.parse((ROOT / "src" / "sumgames" / "search.py").read_text(encoding="utf-8"))
    dfs = next(node for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "_lex_first_avoider")
    parents = {child: node for node in ast.walk(dfs) for child in ast.iter_child_nodes(node)}
    uses = [parents[node] for node in ast.walk(dfs)
            if isinstance(node, ast.Name) and node.id == "nodes"]
    assert {ast.unparse(use) for use in uses} == {"nodes.spend"}
    assert not _named(dfs) & {"used", "limit", "refused"}


def test_partition_search_cuts_with_the_covers_bound():
    # menger_mt_search drops a prefix by completion_floor, and t and f
    # default once in covers.py, in classify_cover, so that the bound and
    # the verdict it anticipates read the same thresholds
    partition = _top_level(ROOT / "src" / "sumgames" / "partition.py")
    search = next(stmt for stmt in partition
                  if isinstance(stmt, ast.FunctionDef) and stmt.name == "menger_mt_search")
    assert "completion_floor" in _named(search)
    covers = _top_level(ROOT / "src" / "sumgames" / "covers.py")
    defaults = []
    for fn in covers:
        if isinstance(fn, ast.FunctionDef):
            a = fn.args
            positional = a.posonlyargs + a.args
            with_default = (list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
                            + list(zip(a.kwonlyargs, a.kw_defaults)))
            defaults += [(fn.name, arg.arg) for arg, default in with_default
                         if default is not None and arg.arg in ("t", "f")]
    assert defaults == [("classify_cover", "t"), ("classify_cover", "f")]
    # nor does the bound restate them as numbers
    bound = next(fn for fn in covers
                 if isinstance(fn, ast.FunctionDef) and fn.name == "completion_floor")
    assert not [node.value for node in ast.walk(bound)
                if isinstance(node, ast.Constant) and isinstance(node.value, int)]


def test_only_coloring_py_calls_keyed_or_checks_the_palette():
    # Coloring.of_keys and of_set hold the arity and palette checks; a module
    # that called keyed itself, or checked colors against a palette of its
    # own, would color subjects past them
    found = []
    for path in SOURCES:
        if path.name == "coloring.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "keyed":
                    found.append(f"{path.name}:{node.lineno}: calls keyed")
            elif isinstance(node, ast.Attribute) and node.attr in ("palette", "_set_key"):
                found.append(f"{path.name}:{node.lineno}: reads {node.attr}")
            elif isinstance(node, ast.Name) and node.id == "_set_key":
                found.append(f"{path.name}:{node.lineno}: names _set_key")
    assert found == []
