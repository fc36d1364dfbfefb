"""Co-occurrence network generation from bibliometric publication exports.

Pipeline: ingest exported records into a :class:`~bibnet.corpus.Corpus`,
select publication subsets with the query DSL, build organisation
collaboration or concept co-word networks, and export VOSviewer-ready
JSON bundles. For cloud users, :mod:`bibnet.sqlgen` renders
parameterized BigQuery SQL for the same networks, whose ``top_nodes`` step
differs as :mod:`bibnet.network` states.
"""

from bibnet.version import ENGINE_VERSION as __version__

from bibnet.corpus import (
    Corpus,
    DuplicateIdError,
    EmptyCorpusError,
    IngestReport,
    Organisation,
    Publication,
    StatsReport,
    build_corpus,
    corpus_stats,
    ingest,
)
from bibnet.network import (
    CONCEPT,
    KINDS,
    ORGANISATION,
    Edge,
    Network,
    NetworkParams,
    Node,
    build_network,
    top_nodes,
)
from bibnet.pipeline import RunConfig, RunReport, run_all
from bibnet.query import (
    QueryError,
    SubsetQuery,
    SubsetResult,
    eval_query,
    load_query_folder,
    parse_query,
    print_query,
)
from bibnet.sqlgen import SqlRequest, render_sql
from bibnet.vos import (
    VosDocument,
    to_vos_json,
    validate_bundle,
    validate_document_dict,
    write_bundle,
)

__all__ = [
    "__version__",
    "Corpus",
    "DuplicateIdError",
    "EmptyCorpusError",
    "IngestReport",
    "Organisation",
    "Publication",
    "StatsReport",
    "build_corpus",
    "corpus_stats",
    "ingest",
    "CONCEPT",
    "KINDS",
    "ORGANISATION",
    "Edge",
    "Network",
    "NetworkParams",
    "Node",
    "build_network",
    "top_nodes",
    "RunConfig",
    "RunReport",
    "run_all",
    "QueryError",
    "SubsetQuery",
    "SubsetResult",
    "eval_query",
    "load_query_folder",
    "parse_query",
    "print_query",
    "SqlRequest",
    "render_sql",
    "VosDocument",
    "to_vos_json",
    "validate_bundle",
    "validate_document_dict",
    "write_bundle",
]
