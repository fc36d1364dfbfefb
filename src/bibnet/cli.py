"""Command-line entry point.

Subcommands: ``ingest`` (load and report on corpus files), ``build`` (run
the whole pipeline over a folder of query files), ``sql`` (render the
BigQuery templates for cloud execution), ``serve`` (local static server
for a bundle), ``validate`` (schema-check a bundle).

Exit codes: 0 success, 1 fatal configuration or I/O error, 2 the build ran
but produced zero networks. ``main`` alone turns a fatal error into one
``error: <message>`` line and exit code 1.
"""

from __future__ import annotations

import argparse
import os
import sys
from datetime import date
from pathlib import Path
from typing import TextIO

from bibnet.version import ENGINE_VERSION
from bibnet.vos import KIND_SLUGS, KINDS, BundleLockError, NetworkParams, normalize_kind
from bibnet.vos import encode_text, json_text, validate_bundle

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_NO_NETWORKS = 2

DEFAULT_PORT = 8000
PORT_ENV_VAR = "BIBNET_PORT"


def _print(text: str, file: TextIO | None = None, end: str = "\n") -> None:
    """``print`` by the rule of the files bibnet writes (:func:`encode_text`): a lone
    surrogate prints as the six characters ``\\udcxx``, whatever the stream's errors."""
    print(encode_text(text).decode("utf-8"), end=end, file=file)


def _parse_today(value: str) -> date:
    from bibnet.corpus import parse_date

    try:
        return parse_date(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--today expects YYYY-MM-DD, got {value!r}")


def _parse_kinds(value: str) -> tuple[str, ...]:
    try:
        kinds = [normalize_kind(part) for part in map(str.strip, value.split(",")) if part]
    except ValueError as exc:  # argparse would print only the function's name
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not kinds:
        raise argparse.ArgumentTypeError(f"--kinds needs at least one of: {', '.join(KIND_SLUGS)}")
    # stable de-dup, preserving first occurrence
    return tuple(dict.fromkeys(kinds))


# help for the flag of each NetworkParams field (--max-nodes for max_nodes)
_PARAM_HELP = {
    "max_nodes": "node cap per network",
    "min_edge_weight": "drop edges below this weight",
    "concept_min_relevance": "relevance gate for concept mentions (concept networks only)",
}


def _add_params_flags(parser: argparse.ArgumentParser) -> None:
    for name, default in NetworkParams._field_defaults.items():
        flag = "--" + name.replace("_", "-")
        parser.add_argument(flag, type=type(default), default=default, help=_PARAM_HELP[name])


def _params_from_args(args: argparse.Namespace) -> NetworkParams:
    return NetworkParams._make(getattr(args, name) for name in NetworkParams._fields)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bibnet",
        description="co-occurrence networks from bibliometric publication exports",
    )
    parser.add_argument("--version", action="version", version=f"bibnet {ENGINE_VERSION}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="load corpus files and print an ingest report")
    p_ingest.add_argument("--corpus", nargs="+", required=True, help="files or directories")
    p_ingest.add_argument("--report", default=None, help="write the machine-readable report here")

    p_build = sub.add_parser("build", help="build all networks for a folder of query files")
    p_build.add_argument("--corpus", nargs="+", required=True, help="files or directories")
    p_build.add_argument("--queries", required=True, help="directory of .nql query files")
    p_build.add_argument("--out", required=True, help="output bundle directory")
    p_build.add_argument(
        "--kinds",
        type=_parse_kinds,
        default=KINDS,
        help=f"comma list of network kinds ({', '.join(KIND_SLUGS)}); default both",
    )
    p_build.add_argument(
        "--today",
        type=_parse_today,
        default=None,
        help="fix the reference date for last_days() (default: current date)",
    )
    _add_params_flags(p_build)

    p_sql = sub.add_parser("sql", help="render the BigQuery template for a subquery file")
    p_sql.add_argument("--kind", required=True, help=" or ".join(KIND_SLUGS))
    p_sql.add_argument("--query-file", required=True, help="file containing the SQL subquery")
    p_sql.add_argument("--dataset-prefix")
    p_sql.add_argument(
        "--params-out", default=None, help="write the parameter manifest here instead of stderr"
    )
    _add_params_flags(p_sql)

    p_serve = sub.add_parser("serve", help="serve a generated bundle over HTTP")
    p_serve.add_argument("--dir", default=".", help="bundle directory (default: cwd)")
    p_serve.add_argument(
        "--port",
        type=int,
        default=None,
        help=f"TCP port (default: ${PORT_ENV_VAR} or {DEFAULT_PORT})",
    )

    p_validate = sub.add_parser("validate", help="schema-check a generated bundle")
    p_validate.add_argument("--dir", required=True, help="bundle directory")

    return parser


def cmd_ingest(args: argparse.Namespace) -> int:
    from bibnet.corpus import corpus_stats, ingest

    corpus, report = ingest(args.corpus)
    stats = corpus_stats(corpus)
    if args.report:
        payload = {"ingest": vars(report), "stats": stats._asdict()}
        Path(args.report).write_bytes(encode_text(json_text(payload)))
    _print(report.summary())
    _print(
        f"corpus: {stats.publications} publications, {stats.organisations} organisations, "
        f"{stats.concepts} distinct concepts"
    )
    return EXIT_OK


def cmd_build(args: argparse.Namespace) -> int:
    from bibnet.pipeline import RunConfig, run_all

    config = RunConfig(
        corpus_paths=tuple(args.corpus),
        query_dir=args.queries,
        out_dir=args.out,
        kinds=args.kinds,
        params=_params_from_args(args),
        today=args.today,
    )
    report = run_all(config)
    _print(report.summary())
    if report.networks_produced == 0:
        _print("error: no networks were produced", sys.stderr)
        return EXIT_NO_NETWORKS
    return EXIT_OK


def cmd_sql(args: argparse.Namespace) -> int:
    from bibnet.corpus import read_text
    from bibnet.sqlgen import DEFAULT_DATASET_PREFIX, SqlRequest, render_sql

    kind = normalize_kind(args.kind)
    subquery = read_text(args.query_file)
    prefix = DEFAULT_DATASET_PREFIX if args.dataset_prefix is None else args.dataset_prefix
    rendered = render_sql(
        SqlRequest(
            user_subquery=subquery,
            kind=kind,
            params=_params_from_args(args),
            dataset_prefix=prefix,
        )
    )
    manifest = json_text(rendered.named_params)
    if args.params_out:
        Path(args.params_out).write_bytes(encode_text(manifest))
    _print(rendered.sql, end="")
    if not args.params_out:
        _print(manifest, sys.stderr, end="")
    return EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    from bibnet.server import serve

    port = args.port
    if port is None:
        try:
            port = int(os.environ.get(PORT_ENV_VAR, DEFAULT_PORT))
        except ValueError:
            raise ValueError(f"${PORT_ENV_VAR} is not an integer") from None
    if not 1 <= port <= 65535:
        raise ValueError(f"port must be in [1, 65535], got {port}")
    try:
        serve(args.dir, port=port)
    except OSError as exc:
        raise OSError(f"cannot serve {args.dir} on port {port}: {exc}") from exc
    return EXIT_OK


def cmd_validate(args: argparse.Namespace) -> int:
    problems = validate_bundle(args.dir)
    if problems:
        for problem in problems:
            _print(f"invalid: {problem}", sys.stderr)
        return EXIT_FATAL
    _print(f"bundle {args.dir} is valid")
    return EXIT_OK


# A handler imports the modules only it runs (bibnet.corpus, bibnet.sqlgen, bibnet.pipeline,
# bibnet.server), so --version and validate load no bibnet module but bibnet.vos.
_COMMANDS = {
    "ingest": cmd_ingest,
    "build": cmd_build,
    "sql": cmd_sql,
    "serve": cmd_serve,
    "validate": cmd_validate,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; exit code 2 is reserved for
        # "ran but produced zero networks", so remap
        return EXIT_OK if exc.code in (0, None) else EXIT_FATAL
    try:
        return _COMMANDS[args.command](args)
    except (BundleLockError, OSError, ValueError) as exc:  # a CorpusError is a ValueError
        _print(f"error: {exc}", sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
