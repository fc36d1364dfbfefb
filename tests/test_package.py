"""The package root: every name in ``bibnet.__all__`` imports from
``bibnet`` as the object its module defines, a module is loaded only when a
name of it is used or a command runs it, and the README's Python example runs.

These tests take no pytest import, so an interpreter without pytest can call
them too, e.g. ``test_package.test_every_export_is_its_modules_object()``.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import bibnet
import bibnet.version
from bibnet.cli import main

REPO = Path(__file__).resolve().parent.parent


def _child(code: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    child = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert child.returncode == 0, child.stderr
    return child


def test_every_export_is_its_modules_object():
    assert bibnet.__all__[0] == "__version__"
    assert bibnet.__version__ is bibnet.version.ENGINE_VERSION
    for name in bibnet.__all__[1:]:
        namespace: dict = {}
        exec(f"from bibnet import {name}", namespace)
        module = sys.modules[f"bibnet.{bibnet._MODULE_OF[name]}"]
        assert namespace[name] is getattr(module, name), name
        assert getattr(namespace[name], "__module__", module.__name__) == module.__name__, name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from bibnet import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(bibnet.__all__)
    assert len(set(bibnet.__all__)) == len(bibnet.__all__)


def test_unknown_name_raises_attribute_error_naming_it():
    try:
        bibnet.no_such_export
    except AttributeError as exc:
        assert "no_such_export" in str(exc)
    else:
        raise AssertionError("bibnet.no_such_export resolved")


def test_submodules_still_import_from_the_root():
    # in a fresh interpreter, where no submodule is an attribute of the package yet
    _child(
        "import sys\n"
        "from bibnet import corpus, sqlgen\n"
        "assert corpus is sys.modules['bibnet.corpus'] and sqlgen is sys.modules['bibnet.sqlgen']\n"
    )


def test_readme_python_example_runs():
    section = (REPO / "README.md").read_text("utf-8").split("### In Python", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace: dict = {}
    exec(code, namespace)
    corpus = namespace["corpus"]
    assert list(corpus.publications) == ["p1"]
    assert corpus.organisations["grid.1"].name == "Alpha University"


# Run each command in turn and record which bibnet modules, and which of the
# names passed as unwanted, are loaded after it; ["serve"] stands for
# importing bibnet.server.
# The record is the last line, after whatever the commands print.
COMMANDS_LOAD = """
import json, sys
from bibnet.cli import main
def loaded_now():
    return [name for name in sys.modules if name.startswith("bibnet") or name in {unwanted!r}]
loaded = {{}}
for argv in {commands!r}:
    if argv == ["serve"]:
        import bibnet.server
    else:
        assert main(argv) == 0, argv
    loaded[argv[0]] = loaded_now()
print("\\n" + json.dumps(loaded))
"""
# records are named tuples or plain classes: no command pays for dataclasses,
# nor for the inspect module it imports
UNWANTED = ("bibnet.query", "bibnet.pipeline", "dataclasses", "inspect")
# corpus, network and SQL code: the commands that check or serve a bundle
# load none of it
CORPUS_CODE = ("bibnet.corpus", "bibnet.network", "bibnet.sqlgen")


def test_commands_load_only_the_modules_they_run(tmp_path):
    fixtures = REPO / "fixtures"
    bundle, subset = tmp_path / "bundle", tmp_path / "subset.sql"
    build = ["build", "--corpus", str(fixtures / "corpus"), "--queries", str(fixtures / "queries")]
    assert main([*build, "--out", str(bundle), "--today", "2022-07-01"]) == 0
    subset.write_text("select id from somewhere", encoding="utf-8")
    commands = [
        ["--version"],  # the set-up command of the benchmark; first, so it runs alone
        ["validate", "--dir", str(bundle)],
        ["serve"],
        ["ingest", "--corpus", str(fixtures / "corpus")],
        ["sql", "--kind", "concept", "--query-file", str(subset)],
    ]
    child = _child(COMMANDS_LOAD.format(commands=commands, unwanted=(*UNWANTED, "html")))
    loaded = json.loads(child.stdout.splitlines()[-1])
    assert list(loaded) == ["--version", "validate", "serve", "ingest", "sql"]
    assert "bibnet.vos" in loaded["validate"]
    assert "bibnet.sqlgen" in loaded["sql"]
    for command, modules in loaded.items():
        assert not set(UNWANTED) & set(modules), command
    for command in ("--version", "validate", "serve"):
        assert not set(CORPUS_CODE) & set(loaded[command]), command
    # only the index page escapes HTML; serve loads html through http.server
    for command in ("--version", "validate"):
        assert "html" not in loaded[command], command

    bare = _child("import json, sys, bibnet; print(json.dumps(sorted(sys.modules)))")
    loaded_by_import = [name for name in json.loads(bare.stdout) if name.startswith("bibnet")]
    assert loaded_by_import == ["bibnet", "bibnet.version"]
