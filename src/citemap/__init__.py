"""citemap: keyword co-occurrence maps from citation contexts.

Builds keyword co-occurrence networks from titles/abstracts of a cited
paper set, from the papers citing it, and from the citation-context
snippets around those citations; clusters and lays out each network; and
compares the three. The input is one JSONL corpus dump (see corpus).
"""

__version__ = "0.1.0"

from .clustering import Clustering, cluster, quality
from .compare import (
    ComparisonReport,
    frequency_table,
    term_set_similarity,
    triplet_report,
    weighted_profile_similarity,
)
from .corpus import (
    CitationContext,
    CorpusStats,
    Document,
    dataset_stats,
    load_corpus,
    write_corpus,
)
from .errors import (
    CitemapError,
    CitemapWarning,
    ConfigError,
    ConsistencyError,
    ParseError,
    StageError,
)
from .exports import (
    MapRecord,
    export_graph_json,
    export_map,
    export_network,
    map_records,
    read_map_file,
    read_network_file,
    render_svg,
)
from .layout import MapLayout, layout_objective
from .network import (
    CoocNetwork,
    SimilarityMatrix,
    TermNode,
    association_strength,
    count_cooccurrences,
    relevance_scores,
    select_top_terms,
)
from .pipeline import (
    PipelineConfig,
    Run,
    analyze,
    builtin_corpus_path,
    compare_networks,
    run_pipeline,
)
from .terms import (
    CITATION_CONTEXT,
    TITLE_ABSTRACT,
    Lexicon,
    build_lexicon,
    make_units,
    strip_citation_authors,
    unit_candidates,
)

__all__ = sorted(name for name in dir() if not name.startswith("_"))
