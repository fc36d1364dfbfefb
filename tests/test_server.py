from __future__ import annotations

import http.client
import json
import threading
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibnet.server import make_server, resolve_request_path
from bibnet.vos import to_vos_json, write_bundle
from bibnet.network import Network, NetworkParams, ORGANISATION, Node, Edge

STAMP = "2022-07-01T00:00:00+00:00"


@pytest.fixture
def bundle_dir(tmp_path):
    network = Network(
        kind=ORGANISATION,
        name="recent",
        params=NetworkParams(min_edge_weight=1),
        nodes=(Node("B", "Org B (B)", 2), Node("A", "Org A (A)", 2)),
        edges=(Edge("B", "A", 2),),
        subset_size=2,
    )
    write_bundle([to_vos_json(network, generated_at=STAMP)], tmp_path, generated_at=STAMP)
    # a file outside the bundle that a traversal would love to read
    (tmp_path.parent / "secret.txt").write_text("top secret", encoding="utf-8")
    return tmp_path


@contextmanager
def running_server(directory):
    httpd = make_server(directory, port=0, host="127.0.0.1")
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield httpd.server_address[1]
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=5)


def raw_get(port: int, path: str, method: str = "GET"):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


# --- path resolution (pure) ----------------------------------------------------


def test_traversal_patterns_resolve_to_none(bundle_dir):
    for path in (
        "/../etc/hosts",
        "/../../etc/hosts",
        "/..%2f..%2fetc/hosts",
        "/%2e%2e/secret.txt",
        "/networks/../../secret.txt",
        "/..\\secret.txt",
        "/\x00",
    ):
        assert resolve_request_path(bundle_dir, path) is None


def test_root_maps_to_index(bundle_dir):
    assert resolve_request_path(bundle_dir, "/") == (bundle_dir / "index.html").resolve()
    assert resolve_request_path(bundle_dir, "/?utm=1") == (bundle_dir / "index.html").resolve()


def test_symlink_escape_is_rejected(bundle_dir):
    link = bundle_dir / "escape.json"
    link.symlink_to(bundle_dir.parent / "secret.txt")
    assert resolve_request_path(bundle_dir, "/escape.json") is None


def test_directory_paths_are_not_served(bundle_dir):
    assert resolve_request_path(bundle_dir, "/networks") is None
    assert resolve_request_path(bundle_dir, "/networks/") is None


def test_unresolvable_paths_resolve_to_none(bundle_dir):
    (bundle_dir / "loop_a").symlink_to(bundle_dir / "loop_b")
    (bundle_dir / "loop_b").symlink_to(bundle_dir / "loop_a")
    for path in (
        "/" + "a" * 300,  # a segment past the file-name limit
        "/networks/" + "a" * 300,
        "/loop_a",  # a symlink loop
        "/loop_a/index.html",
        "//[x",  # urlsplit rejects the authority as an unclosed IPv6 host
    ):
        assert resolve_request_path(bundle_dir, path) is None


@given(
    st.lists(
        st.sampled_from(["..", ".", "", "networks", "index.html", "%2e%2e", "a", "etc", "~"]),
        min_size=0,
        max_size=6,
    )
)
@settings(max_examples=200, deadline=None)
def test_resolution_never_escapes_root(tmp_path_factory, segments):
    root = tmp_path_factory.mktemp("bundle")
    (root / "index.html").write_text("x", encoding="utf-8")
    resolved = resolve_request_path(root, "/" + "/".join(segments))
    if resolved is not None:
        root_resolved = root.resolve()
        assert resolved == root_resolved or root_resolved in resolved.parents


# --- live server -----------------------------------------------------------------


def test_serves_network_json_byte_equal(bundle_dir):
    with running_server(bundle_dir) as port:
        status, headers, body = raw_get(port, "/networks/recent__org.json")
    assert status == 200
    assert headers["Content-Type"] == "application/json"
    assert body == (bundle_dir / "networks" / "recent__org.json").read_bytes()
    json.loads(body)


def test_traversal_request_is_404(bundle_dir):
    with running_server(bundle_dir) as port:
        status, _, _ = raw_get(port, "/../etc/hosts")
        assert status == 404
        status, _, _ = raw_get(port, "/../secret.txt")
        assert status == 404


def test_root_serves_index_html(bundle_dir):
    with running_server(bundle_dir) as port:
        status, headers, body = raw_get(port, "/")
    assert status == 200
    assert headers["Content-Type"].startswith("text/html")
    assert body == (bundle_dir / "index.html").read_bytes()


def test_missing_file_is_404(bundle_dir):
    with running_server(bundle_dir) as port:
        status, _, _ = raw_get(port, "/networks/nope.json")
    assert status == 404


def test_overlong_path_segment_is_404(bundle_dir):
    with running_server(bundle_dir) as port:
        status, _, body = raw_get(port, "/" + "a" * 300)
        assert (status, body) == (404, b"not found\n")
        status, _, _ = raw_get(port, "/")
        assert status == 200


def test_head_sends_headers_without_body(bundle_dir):
    with running_server(bundle_dir) as port:
        status, headers, body = raw_get(port, "/manifest.json", method="HEAD")
    assert status == 200
    assert body == b""
    assert int(headers["Content-Length"]) > 0


def test_write_methods_are_rejected(bundle_dir):
    with running_server(bundle_dir) as port:
        status, _, _ = raw_get(port, "/networks/recent__org.json", method="POST")
        assert status == 501
        status, _, _ = raw_get(port, "/networks/recent__org.json", method="DELETE")
        assert status == 501
    # and nothing was written into the bundle
    names = sorted(p.name for p in bundle_dir.iterdir())
    assert names == ["index.html", "manifest.json", "networks"]


def test_missing_manifest_is_fatal(tmp_path):
    with pytest.raises(FileNotFoundError):
        make_server(tmp_path, port=0)


def test_missing_directory_is_fatal(tmp_path):
    with pytest.raises(FileNotFoundError):
        make_server(tmp_path / "nope", port=0)


def test_port_already_bound_is_fatal(bundle_dir):
    with running_server(bundle_dir) as port:
        with pytest.raises(OSError):
            make_server(bundle_dir, port=port, host="127.0.0.1")
