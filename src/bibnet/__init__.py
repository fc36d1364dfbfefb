"""Co-occurrence network generation from bibliometric publication exports.

Pipeline: ingest exported records into a :class:`~bibnet.corpus.Corpus`,
select publication subsets with the query DSL, build organisation
collaboration or concept co-word networks, and export VOSviewer-ready
JSON bundles. For cloud users, :mod:`bibnet.sqlgen` renders
parameterized BigQuery SQL for the same networks, whose ``top_nodes`` step
differs as :mod:`bibnet.network` states.

Each public name is listed once in ``_EXPORTS`` under the module that
defines it. A module is imported when one of its names is first used
(PEP 562), so ``import bibnet`` loads only :mod:`bibnet.version`.
"""

from importlib import import_module

from bibnet.version import ENGINE_VERSION as __version__

_EXPORTS = {
    "corpus": """Corpus DuplicateIdError EmptyCorpusError IngestReport Organisation
        Publication StatsReport build_corpus corpus_stats ingest""",
    "network": "Edge Network Node build_network top_nodes",
    "pipeline": "RunConfig RunReport run_all",
    "query": """QueryError SubsetQuery SubsetResult eval_query load_query_folder parse_query
        print_query""",
    "sqlgen": "SqlRequest render_sql",
    "vos": """CONCEPT KINDS ORGANISATION NetworkParams VosDocument to_vos_json validate_bundle
        validate_document_dict write_bundle""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # bound now, so later lookups skip this function
    return value
