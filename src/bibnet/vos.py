"""VOSviewer JSON export and static bundle assembly.

Networks become interchange documents (``network.items`` +
``network.links``; run metadata under the ``bibnet_meta`` key, which
VOSviewer ignores). Bundles are a directory of one JSON file per network,
an ``index.html`` with relative links, and a ``manifest.json`` table of
contents. JSON is emitted with sorted keys and LF endings so reruns are
diffable; writes are temp-then-rename and guarded by a lock file.
"""

from __future__ import annotations

import html
import json
import os
import re
import tempfile
from dataclasses import dataclass
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import jsonschema

from bibnet.network import Network, NetworkParams, kind_slug
from bibnet.version import ENGINE_VERSION

META_KEY = "bibnet_meta"
DOCUMENTS_WEIGHT = "Documents"
LOCK_FILE = ".bibnet.lock"
MANIFEST_FILE = "manifest.json"
INDEX_FILE = "index.html"
NETWORK_DIR = "networks"

VOSVIEWER_ONLINE_URL = "https://app.vosviewer.com/"


class BundleLockError(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class VosItem:
    id: int
    label: str
    documents: int


@dataclass(frozen=True, slots=True)
class VosLink:
    source_id: int
    target_id: int
    strength: int


@dataclass(frozen=True, slots=True)
class VosMetadata:
    query_name: str
    kind: str
    params: NetworkParams
    subset_size: int
    generated_at: str
    engine_version: str


@dataclass(frozen=True)
class VosDocument:
    items: tuple[VosItem, ...]
    links: tuple[VosLink, ...]
    metadata: VosMetadata


def now_stamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def to_vos_json(network: Network, generated_at: str | None = None) -> VosDocument:
    """Map a network to the interchange document.

    Nodes become items in their ranked order with ids 1..N; each canonical
    edge becomes one link whose endpoints are ordered source_id < target_id.
    """
    items = tuple(
        VosItem(id=i, label=node.label, documents=node.pubs)
        for i, node in enumerate(network.nodes, start=1)
    )
    node_ids = {node.key: i for i, node in enumerate(network.nodes, start=1)}
    links = []
    for edge in network.edges:
        ia, ib = node_ids[edge.a], node_ids[edge.b]
        links.append(
            VosLink(source_id=min(ia, ib), target_id=max(ia, ib), strength=edge.weight)
        )
    return VosDocument(
        items=items,
        links=tuple(links),
        metadata=VosMetadata(
            query_name=network.name,
            kind=network.kind,
            params=network.params,
            subset_size=network.subset_size,
            generated_at=generated_at if generated_at is not None else now_stamp(),
            engine_version=ENGINE_VERSION,
        ),
    )


def document_to_dict(doc: VosDocument) -> dict:
    return {
        "network": {
            "items": [
                {"id": it.id, "label": it.label, "weights": {DOCUMENTS_WEIGHT: it.documents}}
                for it in doc.items
            ],
            "links": [
                {"source_id": ln.source_id, "target_id": ln.target_id, "strength": ln.strength}
                for ln in doc.links
            ],
        },
        META_KEY: {
            "query_name": doc.metadata.query_name,
            "kind": doc.metadata.kind,
            "params": doc.metadata.params.to_dict(),
            "subset_size": doc.metadata.subset_size,
            "generated_at": doc.metadata.generated_at,
            "engine_version": doc.metadata.engine_version,
        },
    }


def document_from_dict(data: dict) -> VosDocument:
    meta = data[META_KEY]
    return VosDocument(
        items=tuple(
            VosItem(id=it["id"], label=it["label"], documents=it["weights"][DOCUMENTS_WEIGHT])
            for it in data["network"]["items"]
        ),
        links=tuple(
            VosLink(
                source_id=ln["source_id"],
                target_id=ln["target_id"],
                strength=ln["strength"],
            )
            for ln in data["network"]["links"]
        ),
        metadata=VosMetadata(
            query_name=meta["query_name"],
            kind=meta["kind"],
            params=NetworkParams(**meta["params"]),
            subset_size=meta["subset_size"],
            generated_at=meta["generated_at"],
            engine_version=meta["engine_version"],
        ),
    )


def dumps_document(doc: VosDocument) -> str:
    return json.dumps(document_to_dict(doc), sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def _schema() -> dict:
    return json.loads(resources.files("bibnet").joinpath("vos_schema.json").read_text("utf-8"))


def validate_document_dict(data: dict) -> list[str]:
    """Independent validator pass over a parsed document; returns problems."""
    problems: list[str] = []
    validator = jsonschema.Draft202012Validator(_schema())
    for error in sorted(validator.iter_errors(data), key=lambda e: list(e.absolute_path)):
        problems.append(f"schema: {'/'.join(str(p) for p in error.absolute_path)}: {error.message}")
    if problems:
        return problems

    items = data["network"]["items"]
    links = data["network"]["links"]
    ids = [it["id"] for it in items]
    if ids != list(range(1, len(ids) + 1)):
        problems.append("item ids are not consecutive from 1")
    valid_ids = set(ids)
    seen_pairs: set[tuple[int, int]] = set()
    min_weight = data[META_KEY]["params"]["min_edge_weight"]
    for ln in links:
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


@dataclass(frozen=True)
class BundleManifest:
    generated_at: str
    engine_version: str
    networks: list[dict]
    collisions: list[dict]

    def to_dict(self) -> dict:
        return {
            "generated_at": self.generated_at,
            "engine_version": self.engine_version,
            "networks": self.networks,
            "collisions": self.collisions,
        }


def _atomic_write_text(path: Path, text: str) -> None:
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


class _BundleLock:
    def __init__(self, out_dir: Path) -> None:
        self.path = out_dir / LOCK_FILE

    def __enter__(self) -> "_BundleLock":
        try:
            fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise BundleLockError(
                f"bundle directory is locked by another writer ({self.path}); "
                "remove the lock file if no other run is active"
            ) from None
        with os.fdopen(fd, "w") as fh:
            fh.write(str(os.getpid()))
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


def write_bundle(
    documents: list[VosDocument], out_dir: str | Path, generated_at: str | None = None
) -> BundleManifest:
    """Write one JSON per document plus index.html and manifest.json.

    Manifest entries align one-to-one with ``documents``. Slug collisions
    get a numeric suffix and are recorded. Files are replaced atomically.
    Once the new manifest is written, network files it does not list (left
    by an earlier run) are removed.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / NETWORK_DIR).mkdir(exist_ok=True)
    stamp = generated_at if generated_at is not None else now_stamp()

    with _BundleLock(out):
        assigned: set[str] = set()
        entries: list[dict] = []
        collisions: list[dict] = []
        for doc in documents:
            slug = slugify(doc.metadata.query_name)
            suffix = kind_slug(doc.metadata.kind)
            name = f"{slug}__{suffix}.json"
            counter = 2
            while name in assigned:
                name = f"{slug}-{counter}__{suffix}.json"
                counter += 1
            if name != f"{slug}__{suffix}.json":
                collisions.append({"requested": f"{slug}__{suffix}.json", "assigned": name})
            assigned.add(name)
            rel_path = f"{NETWORK_DIR}/{name}"
            _atomic_write_text(out / NETWORK_DIR / name, dumps_document(doc))
            entries.append(
                {
                    "file": rel_path,
                    "query": doc.metadata.query_name,
                    "kind": doc.metadata.kind,
                    "nodes": len(doc.items),
                    "edges": len(doc.links),
                    "subset_size": doc.metadata.subset_size,
                }
            )
        manifest = BundleManifest(
            generated_at=stamp,
            engine_version=ENGINE_VERSION,
            networks=entries,
            collisions=collisions,
        )
        _atomic_write_text(
            out / MANIFEST_FILE,
            json.dumps(manifest.to_dict(), sort_keys=True, indent=2, ensure_ascii=False) + "\n",
        )
        for path in (out / NETWORK_DIR).glob("*.json"):
            if path.name not in assigned:
                path.unlink()
        _atomic_write_text(out / INDEX_FILE, render_index(entries))
    return manifest


def render_index(entries: list[dict]) -> str:
    """Static index page; links stay relative so any host path works."""
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
    except json.JSONDecodeError as exc:
        return [f"{MANIFEST_FILE} is not valid JSON: {exc.msg}"]

    listed = set()
    for entry in manifest.get("networks", []):
        rel = entry.get("file", "")
        listed.add(rel)
        path = root / rel
        if not path.is_file():
            problems.append(f"{rel}: listed in manifest but missing on disk")
            continue
        try:
            data = json.loads(path.read_text("utf-8"))
        except json.JSONDecodeError as exc:
            problems.append(f"{rel}: not valid JSON: {exc.msg}")
            continue
        for problem in validate_document_dict(data):
            problems.append(f"{rel}: {problem}")
        if entry.get("nodes") != len(data["network"]["items"]):
            problems.append(f"{rel}: manifest node count disagrees with file")
        if entry.get("edges") != len(data["network"]["links"]):
            problems.append(f"{rel}: manifest edge count disagrees with file")

    network_dir = root / NETWORK_DIR
    if network_dir.is_dir():
        for path in sorted(network_dir.glob("*.json")):
            rel = f"{NETWORK_DIR}/{path.name}"
            if rel not in listed:
                problems.append(f"{rel}: on disk but not listed in manifest")
    if not (root / INDEX_FILE).is_file():
        problems.append(f"missing {INDEX_FILE}")
    return problems
