"""The benchmark's tracer, ``perfbench/traced.py``, wraps qtrees functions by
name and sizes what some of them return.  Every name it lists must resolve,
and every size must read the artifact it is given, so that a rename in
``src/`` fails here before it breaks a traced benchmark run.  Each command,
started in a fresh process as the benchmark starts it, loads only the
modules it runs.  Every definition in ``src/qtrees`` has a reader:
something in the program or the benchmark names it.  Every name that a
module's top-level imports bind, in ``src/qtrees`` and in ``tests/``, is
named again in that module.  And the README's CLI section names the flags
of ``run``, no more and no fewer.  The ``embed`` script starts where
``python -m qtrees.cli`` starts, and only that process entry freezes the
heap, while only the forked worker of ``verify all`` ends its process
with ``os._exit``."""
import ast
import collections
import importlib
import importlib.util
import os
import pathlib
import re
import subprocess
import sys

import pytest

TRACED = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "traced.py"


def traced_names() -> dict[str, tuple]:
    """The literal ``SPANS`` and ``COUNTS`` tuples of the tracer, read from
    its source without importing it."""
    tree = ast.parse(TRACED.read_text(), filename=str(TRACED))
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                node.targets[0].id in ("SPANS", "COUNTS"):
            out[node.targets[0].id] = ast.literal_eval(node.value)
    return out


def resolve(name: str):
    module, *owner, attr = name.split(".")
    target = importlib.import_module(f"qtrees.{module}")
    for part in owner:
        target = getattr(target, part)
    return getattr(target, attr)


def test_every_traced_name_resolves():
    names = traced_names()
    assert set(names) == {"SPANS", "COUNTS"}
    assert names["SPANS"] and names["COUNTS"]
    for name in names["SPANS"] + names["COUNTS"]:
        assert callable(resolve(name)), name


def traced_sizes() -> dict:
    """The ``SIZES`` of the tracer, loaded from its file.  Loading wraps
    nothing: only ``Recorder.install`` does, and it is not called."""
    spec = importlib.util.spec_from_file_location("traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SIZES


def test_every_traced_size_reads_its_artifact():
    from qtrees.pipeline import Pipeline
    from qtrees.presets import config_for

    pipe = Pipeline(config_for("cantor"))
    artifacts = {
        "approx.build_approximation": pipe.graph,
        "coverings.generate_covering_sequence": pipe.seq,
        "stage1.stage1_suite": (pipe.checks("stage1"), pipe.pair_rows),
    }
    sizes = traced_sizes()
    assert set(sizes) == set(artifacts)
    for name, size_of in sizes.items():
        counts = size_of(artifacts[name])
        assert counts, name
        for key, n in counts.items():
            assert type(n) is int and n > 0, (name, key, n)


CODEC_JOB = TRACED.parent / "codec_job.py"


def test_every_codec_job_name_resolves():
    # the codec jobs call the program by module attribute, outside the
    # tracer's lists
    tree = ast.parse(CODEC_JOB.read_text(), filename=str(CODEC_JOB))
    names = {f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name)
             and node.value.id in ("diary", "morse_thue", "verify")}
    assert {name.split(".")[0] for name in names} == {
        "diary", "morse_thue", "verify"}
    for name in sorted(names):
        resolve(name)


def test_resolve_fails_on_a_missing_name():
    with pytest.raises(AttributeError):
        resolve("stage1.no_such_check")


def loaded_modules(code: str, *argv: str) -> list[str]:
    """The modules loaded after ``code`` ran in a fresh process, without
    cached bytecode, as ``python -S -c code argv...``.  ``-S`` leaves out
    the site hooks, which on some hosts load modules (``random`` among
    them) that nothing of the program asked for."""
    code += "\nimport sys\nprint(' '.join(sorted(sys.modules)))"
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-S", "-c", code, *argv],
                          env=env, check=True, capture_output=True,
                          text=True).stdout.split()


def quiet_cli(*args: str) -> str:
    """Code that runs ``embed args...`` in-process, followed by the
    process's own arguments, and asserts exit status 0."""
    return ("import contextlib, io, sys\n"
            "from qtrees import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({list(args)!r} + sys.argv[1:]) == 0")


# the codec suites' modules, and the geometry stack with the pipeline
CODEC = ("qtrees.verify", "qtrees.diary", "qtrees.morse_thue", "random")
GEOMETRY = ("qtrees.pipeline", "qtrees.approx", "qtrees.coverings",
            "qtrees.metric", "qtrees.geometry")
# (code, modules it must leave unloaded): a command pays at every start
# for each module it loads
LOADING_GATES = {
    "import-cli": ("import qtrees.cli", ("dataclasses", "inspect",
                                         *CODEC, *GEOMETRY)),
    "run-cantor": (quiet_cli("run", "--preset", "cantor", "--out"),
                   ("dataclasses", "qtrees.verify")),
    "import-verify": ("import qtrees.verify",
                      ("dataclasses", "multiprocessing",
                       "concurrent.futures")),
    "verify-approx": (quiet_cli("verify", "approx", "--preset", "cantor"),
                      CODEC),
    # only `run` writes the pair table as CSV
    "verify-stage1": (quiet_cli("verify", "stage1", "--preset", "cantor"),
                      ("csv", "_csv", *CODEC)),
    "verify-diary": (quiet_cli("verify", "diary"), GEOMETRY),
    "verify-morse_thue": (quiet_cli("verify", "morse_thue"), GEOMETRY),
}


@pytest.mark.parametrize("gate", LOADING_GATES)
def test_commands_leave_unused_modules_unloaded(gate, tmp_path):
    # run writes its artifacts to the directory passed after its --out;
    # verify takes no --out
    code, unloaded = LOADING_GATES[gate]
    argv = [str(tmp_path)] if gate == "run-cantor" else []
    out = loaded_modules(code, *argv)
    assert "qtrees.reporting" in out
    assert [name for name in unloaded if name in out] == []


def test_codec_modules_import_without_the_geometry_stack():
    out = loaded_modules("from qtrees import diary, morse_thue, verify")
    assert "qtrees.verify" in out
    for heavy in ("qtrees.pipeline", "qtrees.approx", "qtrees.coverings"):
        assert heavy not in out


def test_verify_covering_leaves_the_tree_side_unloaded():
    # the pipeline runs the suite itself: nor does it load the codec
    out = loaded_modules(quiet_cli("verify", "covering", "--preset", "grid"))
    assert "qtrees.coverings" in out
    for tree_side in ("qtrees.trees", "qtrees.stage1", "qtrees.labelling",
                      *CODEC):
        assert tree_side not in out
    # the diary worker of `verify all` is a bare fork, not a process pool
    for pool in ("multiprocessing", "concurrent.futures"):
        assert pool not in out


def test_verify_all_forks_its_worker_before_loading_the_pipeline():
    # the geometry stack then loads beside the diary worker
    code = ("import os, sys\n"
            "fork, at_fork = os.fork, []\n"
            "def recorded():\n"
            "    at_fork.append('qtrees.pipeline' in sys.modules)\n"
            "    return fork()\n"
            "os.fork = recorded\n"
            + quiet_cli("verify", "all", "--preset", "cantor")
            + "\nassert at_fork == [False], at_fork")
    assert "qtrees.pipeline" in loaded_modules(code)


SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qtrees"
# file-format functions kept for the supplied-covering and loaded-space
# round trips, which no command reads yet
UNREAD_ALLOWED = {"coverings.load_covering_json", "metric.save_space_csv"}


def definitions(path: pathlib.Path):
    """(qualified name, name, first line, last line) of each top-level
    function and class of a module, and of each non-dunder method of its
    top-level classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if not isinstance(node, kinds):
            continue
        yield (f"{path.stem}.{node.name}", node.name, node.lineno,
               node.end_lineno)
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]) and not (
                        item.name.startswith("__")
                        and item.name.endswith("__")):
                    yield (f"{path.stem}.{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def test_every_definition_is_named_outside_itself():
    # a name counts as read when it occurs as a word in the program or the
    # benchmark more often than inside its own definition
    words = collections.Counter()
    spans = []
    for path in sorted(SRC.glob("*.py")) + sorted(TRACED.parent.glob("*.py")):
        lines = path.read_text().splitlines()
        words.update(re.findall(r"\w+", "\n".join(lines)))
        if path.parent == SRC:
            spans += [(qualified, name, lines[first - 1:last])
                      for qualified, name, first, last in definitions(path)]
    unread = [qualified for qualified, name, own in spans
              if words[name] == sum(re.findall(r"\w+", line).count(name)
                                    for line in own)]
    assert sorted(unread) == sorted(UNREAD_ALLOWED)


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z-]*")


def test_readme_names_the_flags_of_run(monkeypatch, capsys):
    # the CLI section of the README runs from its heading to the next
    # second-level one; the parser's flags are read off the invocations
    # that `run --help` lists, one per line on a wide terminal
    from qtrees.cli import main

    text = README.read_text()
    section = text[text.index("\n## CLI\n") + 1:]
    section = section[:section.index("\n## ")]
    monkeypatch.setenv("COLUMNS", "400")
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    options = capsys.readouterr().out.split("\noptions:\n")[1]
    invocations = [line.strip().split("  ")[0]
                   for line in options.splitlines() if line.startswith("  -")]
    assert set(FLAG.findall(section)) == \
        set(FLAG.findall(" ".join(invocations))) - {"--help"}


def module_level(node):
    """The nodes below ``node`` that lie outside every function and class,
    in source order."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
            yield child
            yield from module_level(child)


def unused_imports(path: pathlib.Path) -> list[str]:
    """The names that the module's imports outside functions and classes
    bind, the ``__future__`` import excepted, and that the module names
    nowhere else."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in module_level(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0]
                      for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    named = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in named]


TESTS = pathlib.Path(__file__).resolve().parent


def test_every_top_level_import_is_named():
    unused = {path.relative_to(SRC.parents[1]).as_posix(): names
              for path in sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))
              if (names := unused_imports(path))}
    assert unused == {}


def test_the_import_gate_catches_an_unnamed_import(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("from __future__ import annotations\n"
                      "import itertools\nimport os.path\n"
                      "from qtrees.diary import decode, encode as enc\n"
                      "if True:\n    import random\n"
                      "try:\n    import json\nexcept ImportError:\n"
                      "    import pickle\n"
                      "def f():\n    import shutil\n"
                      "    return os.path.sep, decode\n"
                      "# itertools and enc, named only in a comment\n")
    assert unused_imports(module) == ["itertools", "enc", "random", "json",
                                      "pickle"]


PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
CLI = SRC / "cli.py"


def main_block_calls(path: pathlib.Path) -> list[str]:
    """The names of the functions that the ``if __name__ == "__main__":``
    block of a module calls, in source order."""
    tree = ast.parse(path.read_text(), filename=str(path))
    calls = []
    for node in tree.body:
        if isinstance(node, ast.If) and \
                ast.unparse(node.test) == "__name__ == '__main__'":
            calls += [call.func.id for call in ast.walk(node)
                      if isinstance(call, ast.Call)
                      and isinstance(call.func, ast.Name)]
    return calls


def test_embed_script_is_the_process_entry_of_the_module():
    # read with a regex: tomllib exists only from Python 3.11, and the
    # project supports 3.10
    text = PYPROJECT.read_text()
    scripts = text[text.index("\n[project.scripts]\n"):]
    target = re.search(r'^embed\s*=\s*"qtrees\.cli:(\w+)"$', scripts,
                       re.MULTILINE)
    assert target, scripts
    assert main_block_calls(CLI) == [target.group(1)]


# calls that change how a process ends: what its shutdown collects, or
# whether its stdio flushes and atexit handlers run at all
PROCESS_ENDS = {"gc.freeze", "gc.disable", "atexit.register", "os._exit"}


def process_end_calls(path: pathlib.Path) -> list[tuple[str, str]]:
    """(scope, callee) of each call in a module of a name in
    ``PROCESS_ENDS``.  The scope is the module's stem with the names of
    the functions and classes around the call; the callee is the dotted
    name that the module's imports, aliases included, make of it."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = alias.name if alias.asname else name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = \
                    f"{node.module}.{alias.name}"

    def dotted(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call) and \
                    (callee := dotted(child.func)) in PROCESS_ENDS:
                found.append((scope, callee))
            visit(child, scope)

    visit(tree, path.stem)
    return found


def test_only_the_process_entry_and_the_worker_end_a_process():
    # the entry freezes the heap after main returns, so that in-process
    # callers of main keep a collectable heap; the worker of `verify all`
    # must never return into its parent's frames
    calls = [call for path in sorted(SRC.glob("*.py"))
             for call in process_end_calls(path)]
    assert sorted(calls) == [("cli.launch", "gc.freeze"),
                             ("verify._beside", "os._exit")]


def test_the_process_end_gate_sees_through_aliases(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import atexit\nimport gc as g\n"
                      "from os import _exit as leave\n"
                      "g.disable()\n"
                      "class Runner:\n"
                      "    def stop(self):\n"
                      "        def now():\n            leave(0)\n"
                      "        atexit.register(now)\n"
                      "def freeze():\n    g.freeze()\n")
    assert process_end_calls(module) == [
        ("module", "gc.disable"), ("module.Runner.stop.now", "os._exit"),
        ("module.Runner.stop", "atexit.register"),
        ("module.freeze", "gc.freeze")]
