"""Claims the repository makes about itself outside the library: the
fixture generator reproduces ``fixtures/``, the runtime needs nothing
outside the standard library, and no library module imports another's
private names."""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_gen_fixtures_reproduces_the_checked_in_files(fixtures_dir, tmp_path):
    script = REPO / "scripts" / "gen_fixtures.py"
    spec = importlib.util.spec_from_file_location("gen_fixtures", script)
    gen_fixtures = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_fixtures)
    gen_fixtures.FIXTURES = tmp_path
    gen_fixtures.main()
    for folder in ("corpus", "queries"):
        checked_in = sorted(p.name for p in (fixtures_dir / folder).iterdir())
        assert sorted(p.name for p in (tmp_path / folder).iterdir()) == checked_in
        for name in checked_in:
            expected = (fixtures_dir / folder / name).read_bytes()
            assert (tmp_path / folder / name).read_bytes() == expected, f"{folder}/{name}"


# Run with -S, so site-packages is not on sys.path: a third-party import
# fails outright, and anything loaded must come from the standard library.
CHILD = """
import json, sys
sys.path.insert(0, {src!r})
from bibnet.cli import main
fixtures = {fixtures!r}
assert main(["build", "--corpus", fixtures + "/corpus", "--queries", fixtures + "/queries",
             "--out", "bundle", "--today", "2022-07-01"]) == 0
assert main(["validate", "--dir", "bundle"]) == 0
with open("subset.sql", "w", encoding="utf-8") as fh:
    fh.write("select id from somewhere")
assert main(["sql", "--kind", "concept", "--query-file", "subset.sql"]) == 0
import bibnet.server
print(json.dumps(sorted({{name.split(".")[0] for name in sys.modules}})))
"""


def test_runtime_needs_only_the_standard_library(fixtures_dir, tmp_path):
    code = CHILD.format(src=str(REPO / "src"), fixtures=str(fixtures_dir))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    child = subprocess.run(
        [sys.executable, "-S", "-c", code],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert child.returncode == 0, child.stderr
    loaded = set(json.loads(child.stdout.splitlines()[-1]))
    assert not loaded & {"numpy", "jsonschema", "hypothesis"}
    assert loaded - set(sys.stdlib_module_names) == {"__main__", "bibnet"}


def test_no_module_imports_another_modules_private_names():
    imported = []
    for path in sorted((REPO / "src" / "bibnet").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").split(".")[0] == "bibnet"
            ):
                imported += [(path.name, node.module, alias.name) for alias in node.names]
    assert imported, "the scan found no bibnet imports at all"
    assert [entry for entry in imported if entry[2].startswith("_")] == []
