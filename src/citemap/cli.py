"""Command-line front end.

Each subcommand runs the pipeline only as far as the files it writes need:

    subcommand  stages run                                    files written
    ingest      corpus load, or a provider fetch              corpus_stats.json (and corpus.jsonl when fetching)
    extract     network stage                                 lexicon.tsv
    build       network stage                                 network.tsv, network_terms.tsv
    cluster     network stage, cluster                        clusters.tsv
    layout      network stage, cluster, layout                map.tsv
    export      network stage, cluster, layout                map.tsv, network.tsv, network_terms.tsv, graph.json, map.svg
    compare     network stage, cluster, layout, per network   comparison.json
    pipeline    network stage, cluster, layout                export's files, corpus_stats.json, manifest.json

The network stage is ingest, units, lexicon, co-occurrence, relevance cut and
association strength. Every subcommand writes its row all or nothing, so a
failed write keeps the earlier run's files. Settings come from flags, which
override a JSON config file, which overrides the built-in defaults.

Exit codes: 0 success, 2 configuration error, 3 input/parse error,
4 provider/transport error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .corpus import dataset_stats, load_corpus, write_corpus
from .errors import (
    CitemapError,
    ConfigError,
    ConsistencyError,
    ParseError,
    ProviderError,
    StageError,
)
from .exports import write_json, write_lines
from .pipeline import (
    PipelineConfig,
    analyze,
    build_network,
    cluster_network,
    compare_networks,
    run_pipeline,
    write_files,
    write_outputs,
)


def _settings_parser() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("pipeline settings")
    group.add_argument("--config", help="JSON config file (or a previous run's manifest)")
    group.add_argument("--corpus", help="corpus dump (JSONL)")
    group.add_argument("--mode", choices=("title-abstract", "citation-context"),
                       help="unit mode (default title-abstract)")
    group.add_argument("--set", dest="doc_set", choices=("cited", "citing", "both"),
                       help="document set for title-abstract mode (default cited)")
    group.add_argument("--min-occurrences", dest="min_occurrences", type=int, help="term frequency threshold (default 4)")
    group.add_argument("--counting", choices=("binary", "full"), help="co-occurrence counting (default binary)")
    group.add_argument("--relevance-fraction", dest="relevance_fraction", type=float,
                       help="fraction of most relevant terms kept (default 0.6)")
    group.add_argument("--resolution", type=float, help="clustering resolution (default 1.0)")
    group.add_argument("--seed", type=int, help="random seed (default 42)")
    group.add_argument("--restarts", type=int, help="clustering restarts (default 10)")
    group.add_argument("--stoplist", help="stoplist file (default: bundled)")
    group.add_argument("--exclusions", help="exclusion list file (default: bundled)")
    group.add_argument("--thesaurus", help="thesaurus TSV (variant<TAB>canonical)")
    group.add_argument("--out", dest="out_dir", help="output directory (default out)")
    return parent


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    if getattr(args, "config", None):
        config = PipelineConfig.from_file(args.config)
    else:
        config = PipelineConfig()
    for name in PipelineConfig.__dataclass_fields__:
        value = getattr(args, name, None)
        if value is not None:
            setattr(config, name, value)
    config.validate()
    return config


def cmd_ingest(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    writers = {}
    if args.provider_config:
        if not args.query:
            raise ConfigError("--query is required when fetching from a provider")
        # imported here so that no other subcommand loads the HTTP stack
        from .providers import HttpProvider, ProviderSpec, fetch_citing_with_contexts, fetch_publications

        provider = HttpProvider(ProviderSpec.from_file(args.provider_config))
        cited = fetch_publications(provider, args.query, args.page_size)
        citing, contexts = fetch_citing_with_contexts(provider, list(cited.ids()), args.page_size)
        docs = cited
        for doc in citing:
            docs.add(doc)
        writers["corpus.jsonl"] = lambda path: write_corpus(path, docs, contexts)
    elif config.corpus:
        docs, contexts = load_corpus(config.corpus)
    else:
        raise ConfigError("either --corpus or --provider-config is required")
    stats = dataset_stats(docs.filter_tag("cited"), docs.filter_tag("citing"), contexts)
    writers["corpus_stats.json"] = lambda path: write_json(path, stats.to_dict())
    paths = write_files(config.out_dir, writers)
    if "corpus.jsonl" in paths:
        print(f"wrote {paths['corpus.jsonl']} ({len(docs)} documents, {len(contexts)} contexts)")
    print(f"{stats.n_cited} cited, {stats.n_citing} citing, {stats.n_contexts} contexts, "
          f"overlap {stats.n_overlap} -> {paths['corpus_stats.json']}")
    return 0


def cmd_extract(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = build_network(config)
    rows = [f"{entry.term}\t{entry.occurrence_count}" for entry in result.lexicon]
    path = write_files(config.out_dir, {"lexicon.tsv": lambda p: write_lines(p, rows)})["lexicon.tsv"]
    print(f"{len(result.lexicon)} terms with {config.min_occurrences}+ occurrences -> {path}")
    return 0


def cmd_build(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = build_network(config)
    paths = write_outputs(result, ("network.tsv", "network_terms.tsv"))
    provenance = result.network.provenance
    print(f"{len(result.network.terms)} terms ({provenance.get('retained_before_exclusions')} before exclusions), "
          f"{len(result.network.edges)} edges -> {paths['network.tsv']}")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = build_network(config)
    clustering = cluster_network(result)
    rows = [f"{i + 1}\t{node.term}\t{clustering.assignment[i]}" for i, node in enumerate(result.network.terms)]
    path = write_files(config.out_dir, {"clusters.tsv": lambda p: write_lines(p, rows)})["clusters.tsv"]
    print(f"{clustering.n_clusters} clusters at resolution {config.resolution} "
          f"(quality {clustering.quality:.6f}) -> {path}")
    return 0


def cmd_layout(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    result = analyze(config)
    path = write_outputs(result, ("map.tsv",))["map.tsv"]
    state = "converged" if result.map_layout.converged else "max_iter reached"
    print(f"layout objective {result.map_layout.objective:.6f} ({state}, "
          f"{result.map_layout.iterations_used} iterations) -> {path}")
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    paths = write_outputs(analyze(config), ("map.tsv", "network.tsv", "network_terms.tsv", "graph.json", "map.svg"))
    print(f"wrote {', '.join(paths)} under {Path(config.out_dir)}")
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    report = compare_networks(config)
    paths = write_files(config.out_dir, {"comparison.json": lambda p: write_json(p, report.to_dict())})
    path = paths["comparison.json"]
    for metric in ("jaccard", "cosine"):
        matrix = getattr(report, metric)
        verdict = "holds" if report.ordering_holds[metric] else "does not hold"
        print(f"{metric}: sim(cited, context) = {matrix['cited']['context']:.4f}, "
              f"sim(citing, context) = {matrix['citing']['context']:.4f} -> ordering {verdict}")
    print(f"report -> {path}")
    return 0


def cmd_pipeline(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    paths = run_pipeline(config)
    print(f"wrote {len(paths)} artifacts under {Path(config.out_dir)}")
    for name in sorted(paths):
        print(f"  {paths[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citemap",
        description="Keyword co-occurrence maps from citation contexts and titles/abstracts.",
    )
    settings = _settings_parser()
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", parents=[settings], help="validate a corpus dump or fetch one from a provider")
    ingest.add_argument("--provider-config", help="JSON file with provider base URL and field mapping")
    ingest.add_argument("--query", help="entity query expression for the provider")
    ingest.add_argument("--page-size", dest="page_size", type=int, default=50)
    ingest.set_defaults(func=cmd_ingest)

    for name, func, help_text in (
        ("extract", cmd_extract, "build the thresholded lexicon"),
        ("build", cmd_build, "build the co-occurrence network files"),
        ("cluster", cmd_cluster, "cluster the network terms"),
        ("layout", cmd_layout, "compute the 2D map"),
        ("export", cmd_export, "write map, network, JSON, and SVG exports"),
        ("compare", cmd_compare, "compare the cited/citing/context networks"),
        ("pipeline", cmd_pipeline, "run everything and write the manifest"),
    ):
        command = sub.add_parser(name, parents=[settings], help=help_text)
        command.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        cause = exc.cause
        if isinstance(cause, ConfigError):
            return 2
        if isinstance(cause, ProviderError):
            return 4
        return 3
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, ConsistencyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ProviderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except CitemapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
