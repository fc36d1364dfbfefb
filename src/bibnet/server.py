"""Read-only static HTTP server for generated bundles.

Serves GET/HEAD under one directory, 404s anything that normalizes
outside it (directory traversal, symlink escapes), maps ``/`` to the
bundle's index page, and logs one line per request. Never writes to disk.
"""

from __future__ import annotations

import sys
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import unquote, urlsplit

from bibnet.vos import INDEX_FILE, MANIFEST_FILE

CONTENT_TYPES = {
    ".html": "text/html; charset=utf-8",
    ".json": "application/json",
    ".js": "text/javascript; charset=utf-8",
    ".css": "text/css; charset=utf-8",
}
DEFAULT_CONTENT_TYPE = "application/octet-stream"


def resolve_request_path(root: Path, raw_path: str) -> Path | None:
    """Map a request path to a file strictly inside ``root``, else None.

    Rejects any path whose segments contain ``..``, backslashes, or NUL,
    and re-checks containment after resolving symlinks. A path that cannot
    be split or resolved (a malformed authority such as ``//[x``, a segment
    past the file-name limit, a symlink loop) is None too.
    """
    try:
        path = unquote(urlsplit(raw_path).path)
    except ValueError:
        return None
    if "\x00" in path or "\\" in path:
        return None
    segments = [seg for seg in path.split("/") if seg not in ("", ".")]
    if any(seg == ".." for seg in segments):
        return None
    if not segments:
        segments = [INDEX_FILE]
    try:
        root_resolved = root.resolve(strict=True)
        candidate = root_resolved.joinpath(*segments).resolve()
        if candidate != root_resolved and root_resolved not in candidate.parents:
            return None
        if not candidate.is_file():
            return None
    except (OSError, RuntimeError):  # Python before 3.13 reports a symlink loop as RuntimeError
        return None
    return candidate


class BundleRequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "bibnet-serve"

    def __init__(self, *args, root: Path, **kwargs) -> None:
        self.root = root
        super().__init__(*args, **kwargs)

    def do_GET(self) -> None:
        self._serve(include_body=True)

    def do_HEAD(self) -> None:
        self._serve(include_body=False)

    def _serve(self, include_body: bool) -> None:
        target = resolve_request_path(self.root, self.path)
        if target is None:
            body = b"not found\n"
            self.send_response(404)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            if include_body:
                self.wfile.write(body)
            return
        data = target.read_bytes()
        self.send_response(200)
        self.send_header(
            "Content-Type", CONTENT_TYPES.get(target.suffix.lower(), DEFAULT_CONTENT_TYPE)
        )
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        if include_body:
            self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:
        sys.stderr.write(f"{self.address_string()} - {format % args}\n")


def make_server(directory: str | Path, port: int, host: str = "") -> ThreadingHTTPServer:
    """Bind the server; raises if the directory or its manifest is missing."""
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"bundle directory not found: {root}")
    if not (root / MANIFEST_FILE).is_file():
        raise FileNotFoundError(f"{root} does not contain {MANIFEST_FILE}; not a bundle")

    def handler(*args, **kwargs):
        return BundleRequestHandler(*args, root=root, **kwargs)

    return ThreadingHTTPServer((host, port), handler)


def serve(directory: str | Path, port: int) -> None:
    """Serve the bundle until interrupted."""
    httpd = make_server(directory, port)
    host, bound_port = httpd.server_address[:2]
    sys.stderr.write(f"serving {directory} on http://{host or 'localhost'}:{bound_port}/\n")
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
