"""A mutation sweep: how many small breaks of a module the tests notice.

Usage, from the repository root::

    python tools/mutants.py src/rangecube/cube.py src/rangecube/dynamic.py

Each module's mutation sites are found with the standard library's ``ast``:

* ``<``/``<=`` and ``>``/``>=`` swapped, ``==``/``!=`` swapped;
* ``+``/``-`` swapped (``+=``/``-=`` too), ``and``/``or`` swapped;
* an int constant of magnitude at most ``SMALL`` plus one;
* a ``raise`` that drops its exception (a bare ``raise`` outside a handler
  raises ``RuntimeError``, which no domain check may leak).

One mutant at a time is written into a scratch copy of ``src`` and
``tests``, and ``pytest -x`` runs the test files that import the module
(its own ``test_<name>.py`` first) with ``--hypothesis-seed=SEED``.  The
unmutated module, written back from its ``ast``, must pass first; a mutant
is killed when its run fails or takes three times as long as that one plus
ten seconds (a mutated loop bound may never end).

The results go to ``MUTANTS.json`` under the module's path: the test files,
the site count, the killed count, the survivors and the allowlist.  The
allowlist maps an equivalent mutant's key to a one-line reason and is kept
by hand in that file; a sweep keeps each entry that still survives and
lists every other survivor.  A key names the enclosing function, the source
of the mutated node and the mutation, so it outlives line moves.  The exit
status is 1 while a survivor is not allowlisted.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Int constants up to this magnitude are mutated to one more.
SMALL = 64

#: The ``--hypothesis-seed`` of every run, so two sweeps draw the same cases.
SEED = 0

OUT = ROOT / "MUTANTS.json"

SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.And: ast.Or, ast.Or: ast.And,
}
SYMBOLS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.Add: "+", ast.Sub: "-", ast.And: "and", ast.Or: "or",
}


def find_sites(tree: ast.Module) -> list:
    """``(key, line, edits)`` per mutation site, in source order.  ``edits``
    are ``(node, field, index, value)`` assignments; ``index`` is None for
    a plain field and a list position otherwise."""
    sites = []

    def add(scope, shown, node, what, edits):
        # A statement shows its first line only: a compound one's header.
        source = ast.unparse(shown).split("\n")[0]
        if len(source) > 60:
            source = source[:57] + "..."
        sites.append((f"{'.'.join(scope) or '<module>'}: {source}: {what}", node.lineno, edits))

    def visit(node, scope, statement):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + [node.name]
        if isinstance(node, ast.stmt):
            statement = node
        if isinstance(node, ast.Compare):
            for j, op in enumerate(node.ops):
                if type(op) in SWAPS:
                    new = SWAPS[type(op)]
                    what = f"{SYMBOLS[type(op)]} -> {SYMBOLS[new]} at {j}"
                    add(scope, node, node, what, [(node, "ops", j, new())])
        elif isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in SWAPS:
            new = SWAPS[type(node.op)]
            add(scope, node, node, f"{SYMBOLS[type(node.op)]} -> {SYMBOLS[new]}", [(node, "op", None, new())])
        elif isinstance(node, ast.Constant) and type(node.value) is int and abs(node.value) <= SMALL:
            # A bare constant says little: show the statement it sits in.
            what = f"{node.value} -> {node.value + 1}"
            add(scope, statement, node, what, [(node, "value", None, node.value + 1)])
        elif isinstance(node, ast.Raise) and node.exc is not None:
            add(scope, node, node, "bare raise", [(node, "exc", None, None), (node, "cause", None, None)])
        for child in ast.iter_child_nodes(node):
            visit(child, scope, statement)

    visit(tree, [], tree)
    seen = {}
    for i, (key, line, edits) in enumerate(sites):
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:
            sites[i] = (f"{key} #{seen[key]}", line, edits)
    return sites


def mutated_source(tree: ast.Module, edits: list) -> str:
    """The module's source with ``edits`` applied, which are then undone."""
    undo = []
    for node, field, index, value in edits:
        old = getattr(node, field)
        if index is None:
            undo.append((node, field, None, old))
            setattr(node, field, value)
        else:
            undo.append((node, field, index, old[index]))
            old[index] = value
    try:
        return ast.unparse(tree) + "\n"
    finally:
        for node, field, index, value in reversed(undo):
            if index is None:
                setattr(node, field, value)
            else:
                getattr(node, field)[index] = value


def importing_tests(module: pathlib.Path) -> list:
    """The test files that import ``module`` or a name of its ``__all__``
    from its package, the module's own ``test_<name>.py`` first."""
    package, name = module.parent.name, module.stem
    public = set()
    for node in ast.parse(module.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            public = set(ast.literal_eval(node.value))
    chosen = []
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                hit = any(alias.name == f"{package}.{name}" for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = node.module == f"{package}.{name}" or (
                    node.module == package
                    and any(alias.name == name or alias.name in public for alias in node.names)
                )
            else:
                continue
            if hit:
                chosen.append(path.relative_to(ROOT).as_posix())
                break
    return sorted(chosen, key=lambda p: pathlib.Path(p).stem != f"test_{name}")


def passes(work: pathlib.Path, files: list, timeout) -> bool:
    """Whether ``pytest -x`` passes ``files`` in the scratch copy ``work``
    within ``timeout`` seconds (None: no limit)."""
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)  # no replay across mutants
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(work / "src"), env.get("PYTHONPATH")]))
    command = [
        sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
        f"--hypothesis-seed={SEED}", *files,
    ]
    try:
        run = subprocess.run(
            command, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def sweep(module: pathlib.Path, work: pathlib.Path, record: dict) -> dict:
    rel = module.relative_to(ROOT).as_posix()
    target = work / rel
    original = module.read_text()
    tree = ast.parse(original)
    files = importing_tests(module)
    if not files:
        raise SystemExit(f"{rel}: no test file imports it")
    sites = find_sites(tree)
    target.write_text(ast.unparse(tree) + "\n")
    start = time.monotonic()
    if not passes(work, files, None):
        raise SystemExit(f"{rel}: the tests fail on the unmutated module; fix that first")
    timeout = 3 * (time.monotonic() - start) + 10
    allowlist = record.get("allowlist", {})
    killed, survivors, kept = 0, {}, {}
    try:
        for i, (key, line, edits) in enumerate(sites, 1):
            target.write_text(mutated_source(tree, edits))
            start = time.monotonic()
            alive = passes(work, files, timeout)
            print(f"[{i}/{len(sites)}] {rel}:{line} {key}: {'SURVIVED' if alive else 'killed'} "
                  f"({time.monotonic() - start:.1f} s)", file=sys.stderr, flush=True)
            if not alive:
                killed += 1
            elif key in allowlist:
                kept[key] = allowlist[key]
            else:
                survivors[key] = line
    finally:
        target.write_text(original)
    for key in sorted(set(allowlist) - set(kept)):
        print(f"{rel}: allowlist entry no longer survives, dropped: {key}", file=sys.stderr)
    return {
        "tests": files,
        "sites": len(sites),
        "killed": killed,
        "survivors": survivors,
        "allowlist": kept,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", type=pathlib.Path, help="module files under src/")
    args = parser.parse_args(argv)
    # A stopped sweep stops its pytest run too: subprocess.run kills the
    # child when an exception, here SystemExit, leaves it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    results = json.loads(OUT.read_text()) if OUT.exists() else {}
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        work = pathlib.Path(scratch)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        for module in args.modules:
            module = module.resolve()
            rel = module.relative_to(ROOT).as_posix()
            results[rel] = sweep(module, work, results.get(rel, {}))
            OUT.write_text(json.dumps(results, indent=1, ensure_ascii=False) + "\n")
    open_survivors = sum(len(r.get("survivors", ())) for r in results.values())
    print(f"{open_survivors} survivors not allowlisted", file=sys.stderr)
    return 1 if open_survivors else 0


if __name__ == "__main__":
    sys.exit(main())
