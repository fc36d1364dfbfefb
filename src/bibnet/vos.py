"""VOSviewer JSON export and static bundle assembly.

Networks become interchange documents (``network.items`` +
``network.links``; run metadata under the ``bibnet_meta`` key, which
VOSviewer ignores). The kinds and :class:`NetworkParams` a document records
are defined here, and ``NetworkParams`` checks a field by the document's rule.
Bundles are a directory of one JSON file per network, an ``index.html``
with relative links, a ``manifest.json`` table of contents and, from a
build, its ``run_report.json``. JSON is
emitted with sorted keys and LF endings so reruns are diffable; writes are
temp-then-rename and guarded by a lock file. Every file bibnet writes is
UTF-8, with a lone surrogate (a file name that is not UTF-8, a JSONL
``\\udcxx`` escape) written as JSON's ``\\udcxx`` escape.

Every JSON file has exactly the layout of ``json.dumps(value,
sort_keys=True, indent=2, ensure_ascii=False)`` plus a final newline.
Before Python 3.13 ``json`` indents only in Python, leaving a reference cycle
per call, so bibnet lays text out itself: network items and links through
fixed templates, labels through ``json.encoder.encode_basestring``, and
``bibnet_meta``, the manifest and the run report through one writer. A
bundle is planned (every file named, no I/O) before its lock is taken.
"""

from __future__ import annotations

import json
import os
import re
from collections.abc import Iterator
from contextlib import contextmanager
from datetime import datetime, timezone
from json.encoder import encode_basestring
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from bibnet.version import ENGINE_VERSION

if TYPE_CHECKING:  # annotations only: exporting a network needs no network code
    from bibnet.network import Network

META_KEY = "bibnet_meta"
DOCUMENTS_WEIGHT = "Documents"
LOCK_FILE = ".bibnet.lock"
MANIFEST_FILE = "manifest.json"
INDEX_FILE = "index.html"
RUN_REPORT_FILE = "run_report.json"
NETWORK_DIR = "networks"

VOSVIEWER_ONLINE_URL = "https://app.vosviewer.com/"

# a manifest ``file``: one file directly in NETWORK_DIR, named so a URL needs no quoting
_NETWORK_FILE = re.compile(rf"{NETWORK_DIR}/[A-Za-z0-9._~-]+\.json")

ORGANISATION = "organisation"
CONCEPT = "concept"
# each kind -> the spellings the command line accepts, its file-name slug first
KIND_SPELLINGS: dict[str, tuple[str, ...]] = {
    ORGANISATION: ("org", "orgs", "organisation", "organization", "organisations"),
    CONCEPT: ("concept", "concepts"),
}
KINDS = tuple(KIND_SPELLINGS)
KIND_SLUGS = tuple(spellings[0] for spellings in KIND_SPELLINGS.values())
_KIND_OF_SPELLING = {s: kind for kind, spellings in KIND_SPELLINGS.items() for s in spellings}


def check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise ValueError(f"unknown network kind {kind!r} (expected one of {KINDS})")


def normalize_kind(value: str) -> str:
    """Map a command-line spelling (org, orgs, concepts, ...) to its kind."""
    kind = _KIND_OF_SPELLING.get(value.strip().lower())
    if kind is None:
        expected = " or ".join(map(repr, KIND_SLUGS))
        raise ValueError(f"unknown network kind {value!r} (expected {expected})")
    return kind


def kind_slug(kind: str) -> str:
    check_kind(kind)
    return KIND_SPELLINGS[kind][0]


class BundleLockError(RuntimeError):
    pass


class VosDocument(NamedTuple):
    """A network document as the rows it is written as: ``items`` holds
    ``(id, label, documents)`` and ``links`` holds ``(source_id, target_id,
    strength)``, every field an ``int`` but the ``str`` label; ``meta`` is
    the ``bibnet_meta`` object."""

    items: list[tuple[int, str, int]]
    links: list[tuple[int, int, int]]
    meta: dict


def now_stamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def to_vos_json(network: Network, generated_at: str | None = None) -> VosDocument:
    """Map a network to the interchange document.

    Nodes become items in their ranked order with ids 1..N; each canonical
    edge becomes one link whose endpoints are ordered source_id < target_id.
    """
    node_ids = {node.key: i for i, node in enumerate(network.nodes, start=1)}
    items = [(i, node.label, node.pubs) for i, node in enumerate(network.nodes, start=1)]
    links = [
        (min(ia := node_ids[a], ib := node_ids[b]), max(ia, ib), weight)
        for a, b, weight in network.edges
    ]
    meta = {
        "query_name": network.name,
        "kind": network.kind,
        "params": network.params._asdict(),
        "subset_size": network.subset_size,
        "generated_at": generated_at if generated_at is not None else now_stamp(),
        "engine_version": ENGINE_VERSION,
    }
    return VosDocument(items=items, links=links, meta=meta)


# One item and one link as json.dumps(..., indent=2) lays them out inside
# the document, sorted keys included.
_ITEM = (
    '      {\n        "id": %d,\n        "label": %s,\n        "weights": {\n'
    f'          "{DOCUMENTS_WEIGHT}": %d\n        }}\n      }}'
)
_LINK = (
    '      {\n        "source_id": %d,\n        "strength": %d,\n'
    '        "target_id": %d\n      }'
)


def _array(parts: list[str]) -> str:
    return "[\n" + ",\n".join(parts) + "\n    ]" if parts else "[]"


# a scalar, an empty object or an empty array, by the C encoder: it keeps no cycle
_scalar = json.JSONEncoder(ensure_ascii=False).encode


def _layout(value: object, indent: str) -> str:
    """``value`` as ``json.dumps(value, sort_keys=True, indent=2,
    ensure_ascii=False)`` lays it out at ``indent``; object keys are ``str``."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        rows = (f"{inner}{encode_basestring(k)}: {_layout(value[k], inner)}" for k in sorted(value))
        return "{\n" + ",\n".join(rows) + f"\n{indent}}}"
    if isinstance(value, (list, tuple)) and value:
        return "[\n" + ",\n".join(inner + _layout(v, inner) for v in value) + f"\n{indent}]"
    return _scalar(value)


def dumps_document(doc: VosDocument) -> str:
    """The document's dict form as ``json.dumps(..., sort_keys=True,
    indent=2, ensure_ascii=False) + "\\n"`` writes it, byte for byte."""
    items = _array([_ITEM % (i, encode_basestring(label), n) for i, label, n in doc.items])
    links = _array([_LINK % (source, weight, target) for source, target, weight in doc.links])
    meta = _layout(doc.meta, "  ")
    return (
        f'{{\n  "{META_KEY}": {meta},\n  "network": {{\n    "items": {items},\n'
        f'    "links": {links}\n  }}\n}}\n'
    )


def json_text(value: object) -> str:
    """The text of each JSON file bibnet writes but a network document:
    sorted keys, a two-space indent, non-ASCII text as is, a final newline.
    :func:`encode_text` writes a lone surrogate in it as ``\\udcxx``."""
    return _layout(value, "") + "\n"


def encode_text(text: str) -> bytes:
    """The bytes of every file bibnet writes: UTF-8, but a lone surrogate (in JSON text
    only a string holds one) becomes the ``\\udcxx`` escape that ``json.dumps`` writes."""
    return text.encode("utf-8", "backslashreplace")


def _integer(value: object) -> bool:
    """JSON Schema "integer": bools are not; a float is when its fraction is zero."""
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _positive(value: object) -> bool:
    return _integer(value) and value >= 1


def _weights(value: object) -> bool:
    return (
        isinstance(value, dict)
        and _positive(value.get(DOCUMENTS_WEIGHT))
        and all(_number(v) for k, v in value.items() if k != DOCUMENTS_WEIGHT)
    )


# The rules of vos_schema.json. A field maps to a (test, expected) pair, or
# to the field table of a nested object; every field of a table is required
# and no other key is allowed.
_POSITIVE = (_positive, "an integer >= 1")
_TEXT = (lambda v: isinstance(v, str) and len(v) >= 1, "a non-empty string")
_ARRAY = (lambda v: isinstance(v, list), "an array")
_ITEM_FIELDS = {
    "id": _POSITIVE,
    "label": _TEXT,
    "weights": (_weights, f"an object of numbers with an integer {DOCUMENTS_WEIGHT!r} >= 1"),
}
_LINK_FIELDS = {"source_id": _POSITIVE, "target_id": _POSITIVE, "strength": _POSITIVE}
_PARAM_FIELDS = {  # NetworkParams checks its fields with these rules too
    "max_nodes": _POSITIVE,
    "min_edge_weight": _POSITIVE,
    "concept_min_relevance": (lambda v: _number(v) and 0 <= v <= 1, "a number in [0, 1]"),
}
_DOCUMENT_FIELDS = {
    "network": {"items": _ARRAY, "links": _ARRAY},
    META_KEY: {
        "engine_version": _TEXT,
        "generated_at": _TEXT,
        "kind": (lambda v: v in KINDS, f"one of {KINDS}"),
        "params": _PARAM_FIELDS,
        "query_name": (lambda v: isinstance(v, str), "a string"),
        "subset_size": (lambda v: _integer(v) and v >= 0, "an integer >= 0"),
    },
}


class _NetworkParams(NamedTuple):
    max_nodes: int = 500
    min_edge_weight: int = 2
    concept_min_relevance: float = 0.5


class NetworkParams(_NetworkParams):
    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> NetworkParams:
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            test, expected = _PARAM_FIELDS[name]
            if not test(value):
                raise ValueError(f"{name} must be {expected}, got {value!r}")
        max_nodes, min_edge_weight, concept_min_relevance = self
        if isinstance(max_nodes, float) or isinstance(min_edge_weight, float):
            # 2.0 passes the integer rule, as in JSON Schema; the network code needs an int
            return super().__new__(cls, int(max_nodes), int(min_edge_weight), concept_min_relevance)
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # _replace calls _make: check it too


def _check_fields(value: object, fields: dict, path: str, problems: list[str]) -> bool:
    """Check one JSON object against a field table; True when it passes."""
    if not isinstance(value, dict):
        problems.append(f"schema: {path}: {value!r} is not an object")
        return False
    count = len(problems)
    for key in fields:
        if key not in value:
            problems.append(f"schema: {path}: missing required key {key!r}")
    for key, field_value in value.items():
        rule = fields.get(key)
        where = f"{path}/{key}" if path else key
        if rule is None:
            problems.append(f"schema: {path}: unexpected key {key!r}")
        elif isinstance(rule, dict):
            _check_fields(field_value, rule, where, problems)
        elif not rule[0](field_value):
            problems.append(f"schema: {where}: {field_value!r} is not {rule[1]}")
    return len(problems) == count


# The fast passes accept an array only when no rule and no integrity check
# could find a problem in it, reading every field by its exact type; anything
# else (a bool or 2.0 for an id, an extra key, a reversed pair) they leave to
# the rule table, which words the problems.
def _exact_items(items: list) -> bool:
    """Every item has exactly an int ``id`` equal to its 1-based position, a
    non-empty ``str`` label and ``weights`` holding only an int ``Documents`` >= 1."""
    for n, item in enumerate(items, start=1):
        if type(item) is not dict or len(item) != 3:
            return False
        item_id, label, weights = item.get("id"), item.get("label"), item.get("weights")
        if type(item_id) is not int or item_id != n or type(label) is not str or not label:
            return False
        if type(weights) is not dict or len(weights) != 1:
            return False
        documents = weights.get(DOCUMENTS_WEIGHT)
        if type(documents) is not int or documents < 1:
            return False
    return True


def _exact_links(links: list, n_items: int, min_weight: float) -> bool:
    """Every link has exactly three int fields with ``1 <= source_id <
    target_id <= n_items`` and a strength >= ``min_weight`` (itself >= 1),
    and no pair repeats."""
    pairs = set()
    for link in links:
        if type(link) is not dict or len(link) != 3:
            return False
        source, target = link.get("source_id"), link.get("target_id")
        strength = link.get("strength")
        if type(source) is not int or type(target) is not int or type(strength) is not int:
            return False
        if not 1 <= source < target <= n_items or strength < min_weight:
            return False
        pairs.add((source, target))
    return len(pairs) == len(links)


def validate_document_dict(data: object) -> list[str]:
    """Check a parsed document against every rule of ``vos_schema.json``
    and for link integrity, in one pass; returns problems.

    Schema problems carry a ``schema: <path>:`` prefix. Items and links are
    checked once the top level, ``network`` and ``bibnet_meta`` pass.
    Integrity checks (consecutive item ids, link endpoints, self loops,
    duplicate pairs, strengths below ``min_edge_weight``) apply only to
    schema-valid items and links. Items and links that the exact passes
    accept have no problem to report, so the rule table runs only when one
    of them declines.
    """
    problems: list[str] = []
    if not _check_fields(data, _DOCUMENT_FIELDS, "", problems):
        return problems
    items = data["network"]["items"]
    links = data["network"]["links"]
    min_weight = data[META_KEY]["params"]["min_edge_weight"]
    if _exact_items(items) and _exact_links(links, len(items), min_weight):
        return []
    for n, item in enumerate(items):
        _check_fields(item, _ITEM_FIELDS, f"network/items/{n}", problems)
    # link endpoints are judged only against a schema-valid item list
    items_ok = not problems
    ids = [it["id"] for it in items] if items_ok else []
    if ids != list(range(1, len(ids) + 1)):
        problems.append("item ids are not consecutive from 1")
    valid_ids = set(ids)
    seen_pairs: set[tuple[int, int]] = set()
    for n, ln in enumerate(links):
        if not _check_fields(ln, _LINK_FIELDS, f"network/links/{n}", problems) or not items_ok:
            continue
        s, t = ln["source_id"], ln["target_id"]
        if s not in valid_ids or t not in valid_ids:
            problems.append(f"link ({s}, {t}) references a missing item id")
            continue
        if s == t:
            problems.append(f"link ({s}, {t}) is a self loop")
        pair = (min(s, t), max(s, t))
        if pair in seen_pairs:
            problems.append(f"duplicate link pair {pair}")
        seen_pairs.add(pair)
        if ln["strength"] < min_weight:
            problems.append(f"link {pair} strength {ln['strength']} below min_edge_weight")
    return problems


def slugify(name: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")
    return slug or "network"


class BundleManifest(NamedTuple):
    generated_at: str
    engine_version: str
    networks: list[dict]
    collisions: list[dict]


def atomic_write_text(path: Path, text: str) -> None:
    # a file already under the temp name was left by a crashed run that had
    # this process id; open() makes the new one with the umask's mode
    tmp_name = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    tmp_name.unlink(missing_ok=True)
    try:
        with open(tmp_name, "xb") as fh:
            fh.write(encode_text(text))
        os.replace(tmp_name, path)
    except BaseException:
        tmp_name.unlink(missing_ok=True)
        raise


@contextmanager
def _bundle_lock(out_dir: Path) -> Iterator[None]:
    path = out_dir / LOCK_FILE
    try:
        with open(path, "xb") as fh:
            fh.write(b"%d" % os.getpid())
    except FileExistsError:
        raise BundleLockError(
            f"bundle directory is locked by another writer ({path}); "
            "remove the lock file if no other run is active"
        ) from None
    try:
        yield
    finally:
        path.unlink(missing_ok=True)


def plan_bundle(documents: list[VosDocument], generated_at: str | None = None) -> BundleManifest:
    """The manifest :func:`write_bundle` writes for ``documents``, with no I/O: its
    entries align one-to-one with them, and slug collisions get a numeric suffix."""
    assigned: set[str] = set()
    entries: list[dict] = []
    collisions: list[dict] = []
    for doc in documents:
        slug = slugify(doc.meta["query_name"])
        suffix = kind_slug(doc.meta["kind"])
        name = requested = f"{slug}__{suffix}.json"
        counter = 2
        while name in assigned:
            name = f"{slug}-{counter}__{suffix}.json"
            counter += 1
        if name != requested:
            collisions.append({"requested": requested, "assigned": name})
        assigned.add(name)
        entries.append(
            {
                "file": f"{NETWORK_DIR}/{name}",
                "query": doc.meta["query_name"],
                "kind": doc.meta["kind"],
                "nodes": len(doc.items),
                "edges": len(doc.links),
                "subset_size": doc.meta["subset_size"],
            }
        )
    stamp = generated_at if generated_at is not None else now_stamp()
    return BundleManifest(stamp, ENGINE_VERSION, entries, collisions)


def write_bundle(
    documents: list[VosDocument],
    out_dir: str | Path,
    generated_at: str | None = None,
    run_report: str | None = None,
) -> BundleManifest:
    """Write one JSON per document plus index.html and manifest.json.

    The bundle is planned by :func:`plan_bundle` before anything is written,
    so a document it cannot name leaves the directory untouched. Then, while
    the lock is held, files are replaced atomically; once the new manifest is
    written, regular network files it does not list (left by an earlier run)
    are removed; ``run_report``, the text of ``run_report.json``, is written last.
    """
    manifest = plan_bundle(documents, generated_at)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / NETWORK_DIR).mkdir(exist_ok=True)
    with _bundle_lock(out):
        for doc, entry in zip(documents, manifest.networks):
            atomic_write_text(out / entry["file"], dumps_document(doc))
        atomic_write_text(out / MANIFEST_FILE, json_text(manifest._asdict()))
        listed = {entry["file"] for entry in manifest.networks}
        for path in (out / NETWORK_DIR).glob("*.json"):
            if f"{NETWORK_DIR}/{path.name}" not in listed and path.is_file():
                path.unlink()
        atomic_write_text(out / INDEX_FILE, render_index(manifest.networks))
        if run_report is not None:
            atomic_write_text(out / RUN_REPORT_FILE, run_report)
    return manifest


def render_index(entries: list[dict]) -> str:
    """Static index page; links stay relative so any host path works."""
    import html  # only the build writes a page: validate and --version skip it

    rows = []
    for entry in entries:
        rows.append(
            "      <tr>"
            f"<td>{html.escape(entry['query'])}</td>"
            f"<td>{html.escape(entry['kind'])}</td>"
            f"<td class=\"num\">{entry['nodes']}</td>"
            f"<td class=\"num\">{entry['edges']}</td>"
            f"<td class=\"num\">{entry['subset_size']}</td>"
            f"<td><a href=\"{html.escape(entry['file'])}\" download>JSON</a> "
            f"<a class=\"vos-link\" data-json=\"{html.escape(entry['file'])}\" href=\"#\">"
            "open in VOSviewer</a></td>"
            "</tr>"
        )
    table_body = "\n".join(rows) if rows else "      <tr><td colspan=\"6\">no networks</td></tr>"
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
  <meta charset="utf-8">
  <title>Network bundle</title>
  <style>
    body {{ font-family: sans-serif; margin: 2rem; }}
    table {{ border-collapse: collapse; }}
    td, th {{ border: 1px solid #ccc; padding: 0.4rem 0.8rem; }}
    td.num {{ text-align: right; }}
  </style>
</head>
<body>
  <h1>Generated networks</h1>
  <table>
    <thead>
      <tr><th>query</th><th>kind</th><th>nodes</th><th>edges</th><th>subset</th><th>open</th></tr>
    </thead>
    <tbody>
{table_body}
    </tbody>
  </table>
  <p>The VOSviewer links hand the JSON URL of a network to
     <a href="{VOSVIEWER_ONLINE_URL}">VOSviewer Online</a>, which performs the
     layout and clustering. They require this page to be reachable by the
     VOSviewer servers; for a purely local bundle, download the JSON and use
     the VOSviewer "open file" dialog instead.</p>
  <script>
    for (const link of document.querySelectorAll("a.vos-link")) {{
      const jsonUrl = new URL(link.dataset.json, window.location.href).href;
      link.href = "{VOSVIEWER_ONLINE_URL}?json=" + encodeURIComponent(jsonUrl);
    }}
  </script>
</body>
</html>
"""


def validate_bundle(directory: str | Path) -> list[str]:
    """Check a bundle on disk: manifest, schema, and link integrity."""
    root = Path(directory)
    problems: list[str] = []
    manifest_path = root / MANIFEST_FILE
    if not manifest_path.is_file():
        return [f"missing {MANIFEST_FILE} in {root}"]
    try:
        manifest = json.loads(manifest_path.read_text("utf-8"))
    except (ValueError, RecursionError) as exc:  # also an over-long integer, deep nesting
        return [f"{MANIFEST_FILE} is not valid UTF-8 JSON: {exc}"]

    networks = manifest.get("networks") if isinstance(manifest, dict) else None
    if not isinstance(networks, list):
        return [f"{MANIFEST_FILE} is not an object with a 'networks' list"]

    listed = set()
    for n, entry in enumerate(networks):
        rel = entry.get("file") if isinstance(entry, dict) else None
        if not isinstance(rel, str):
            problems.append(f"{MANIFEST_FILE}: networks entry {n} has no string 'file'")
            continue
        if not _NETWORK_FILE.fullmatch(rel):
            problems.append(
                f"{MANIFEST_FILE}: networks entry {n} file {rel!r} is not {NETWORK_DIR}/<name>.json"
            )
            continue
        if rel in listed:
            problems.append(f"{MANIFEST_FILE}: networks entry {n} lists {rel} again")
            continue
        listed.add(rel)
        path = root / rel
        if not path.is_file():
            problems.append(f"{rel}: listed in manifest but missing on disk")
            continue
        try:
            data = json.loads(path.read_text("utf-8"))
        except (ValueError, RecursionError) as exc:
            problems.append(f"{rel}: not valid UTF-8 JSON: {exc}")
            continue
        document_problems = validate_document_dict(data)
        problems.extend(f"{rel}: {problem}" for problem in document_problems)
        if any(problem.startswith("schema:") for problem in document_problems):
            continue  # counts are compared only for a schema-valid document
        for name, rows in (("node", "items"), ("edge", "links")):
            count = entry.get(name + "s")  # a bool is no count, though true == 1
            if not _integer(count) or count != len(data["network"][rows]):
                problems.append(f"{rel}: manifest {name} count disagrees with file")

    network_dir = root / NETWORK_DIR
    if network_dir.is_dir():
        for path in sorted(network_dir.glob("*.json")):
            rel = f"{NETWORK_DIR}/{path.name}"
            if rel not in listed and path.is_file():
                problems.append(f"{rel}: on disk but not listed in manifest")
    if not (root / INDEX_FILE).is_file():
        problems.append(f"missing {INDEX_FILE}")
    return problems
