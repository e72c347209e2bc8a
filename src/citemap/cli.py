"""Command-line front end.

Each subcommand writes a fixed set of files and runs exactly the stages those
files read (``pipeline.Run``), from the corpus load up to the last one below:

    subcommand  files written                                                 last stage run                         numpy
    ingest      corpus_stats.json                                             corpus and word-list load              no
    extract     lexicon.tsv                                                   lexicon                                no
    build       network.tsv, network_terms.tsv                                relevance cut                          no
    cluster     clusters.tsv                                                  clustering                             no
    layout      map.tsv                                                       clustering and layout                  yes
    export      map.tsv, network.tsv, network_terms.tsv, graph.json, map.svg  clustering and layout                  yes
    compare     comparison.json                                               clustering and layout, 3 side by side  yes
    pipeline    export's files, corpus_stats.json, manifest.json              clustering and layout                  yes

numpy is imported only to lay out a map: by the first layout of a run, or,
when compare runs on more than one worker, once before it forks them.
Importing this module loads only the standard library and ``citemap``.

compare reads only the three networks but still computes their maps: it loads
the corpus three times, then builds the three networks and maps side by side
on up to three workers, one per CPU (``citemap.fork``). Every subcommand
writes its files all or nothing, so a failed write keeps the earlier run's
files. Settings come from flags, which override a JSON config file, which
overrides the built-in defaults.

Exit codes: 0 success, 2 configuration error, 3 input/parse error. Each
data-quality warning (CitemapWarning) is one ``warning: <message>`` line on
stderr.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import asdict
from pathlib import Path

from .errors import CitemapError, CitemapWarning, ConfigError, StageError
from .exports import write_json
from .network import COUNTINGS, top_count
from .pipeline import (DOC_SETS, EXPORT_NAMES, MODES, PipelineConfig, Run, compare_networks, run_pipeline,
                       write_files, write_outputs)
from .terms import TITLE_ABSTRACT


def _settings_parser() -> argparse.ArgumentParser:
    default = PipelineConfig()
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("pipeline settings")
    group.add_argument("--config", help="JSON config file (or a previous run's manifest)")
    group.add_argument("--corpus", help="corpus dump (JSONL)")
    group.add_argument("--mode", choices=MODES,
                       help=f"unit mode (default {default.mode})")
    group.add_argument("--set", dest="doc_set", choices=DOC_SETS,
                       help=f"document set for {TITLE_ABSTRACT} mode (default {default.doc_set})")
    group.add_argument("--min-occurrences", dest="min_occurrences", type=int,
                       help=f"term frequency threshold (default {default.min_occurrences})")
    group.add_argument("--counting", choices=COUNTINGS, help=f"co-occurrence counting (default {default.counting})")
    group.add_argument("--relevance-fraction", dest="relevance_fraction", type=float,
                       help=f"fraction of most relevant terms kept (default {default.relevance_fraction})")
    group.add_argument("--resolution", type=float, help=f"clustering resolution (default {default.resolution})")
    group.add_argument("--seed", type=int, help=f"random seed (default {default.seed})")
    group.add_argument("--restarts", type=int, help=f"clustering restarts (default {default.restarts})")
    group.add_argument("--stoplist", help="stoplist file (default: bundled)")
    group.add_argument("--exclusions", help="exclusion list file (default: bundled)")
    group.add_argument("--thesaurus", help="thesaurus TSV (variant<TAB>canonical)")
    group.add_argument("--out", dest="out_dir", help=f"output directory (default {default.out_dir})")
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


# subcommand -> (help, files written, summary line); the run computes only the stages those files read
STAGED = {
    "ingest": ("validate a corpus dump and write its totals", ("corpus_stats.json",), lambda r, paths: (
        f"{r.corpus_stats.n_cited} cited, {r.corpus_stats.n_citing} citing, {r.corpus_stats.n_contexts} contexts, "
        f"overlap {r.corpus_stats.n_overlap} -> {paths['corpus_stats.json']}")),
    "extract": ("build the thresholded lexicon", ("lexicon.tsv",), lambda r, paths: (
        f"{len(r.lexicon)} terms with {r.config.min_occurrences}+ occurrences -> {paths['lexicon.tsv']}")),
    "build": ("build the co-occurrence network files", ("network.tsv", "network_terms.tsv"), lambda r, paths: (
        f"{len(r.network.terms)} terms ({top_count(r.config.relevance_fraction, len(r.lexicon))} before exclusions), "
        f"{len(r.network.edges)} edges -> {paths['network.tsv']}")),
    "cluster": ("cluster the network terms", ("clusters.tsv",), lambda r, paths: (
        f"{r.clustering.n_clusters} clusters at resolution {r.config.resolution} "
        f"(quality {r.clustering.quality:.6f}) -> {paths['clusters.tsv']}")),
    "layout": ("compute the 2D map", ("map.tsv",), lambda r, paths: (
        f"layout objective {r.map_layout.objective:.6f} "
        f"({'converged' if r.map_layout.converged else 'max_iter reached'}, "
        f"{r.map_layout.iterations_used} iterations) -> {paths['map.tsv']}")),
    "export": ("write map, network, JSON, and SVG exports",
               EXPORT_NAMES,
               lambda r, paths: f"wrote {', '.join(paths)} under {Path(r.config.out_dir)}"),
}


def cmd_staged(args: argparse.Namespace) -> int:
    run = Run(_config_from_args(args))
    _, names, summary = STAGED[args.command]
    print(summary(run, write_outputs(run, names)))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    report = compare_networks(config)
    paths = write_files(config.out_dir, {"comparison.json": lambda p: write_json(p, asdict(report))})
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

    for name, (help_text, _, _) in STAGED.items():
        sub.add_parser(name, parents=[settings], help=help_text).set_defaults(func=cmd_staged)
    for name, func, help_text in (
        ("compare", cmd_compare, "compare the cited/citing/context networks"),
        ("pipeline", cmd_pipeline, "run everything and write the manifest"),
    ):
        command = sub.add_parser(name, parents=[settings], help=help_text)
        command.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # restores the hook below on the way out
        show = warnings.showwarning

        def show_citemap_warning(message, category, *where):
            if issubclass(category, CitemapWarning):
                print(f"warning: {message}", file=sys.stderr)
            else:
                show(message, category, *where)

        warnings.showwarning = show_citemap_warning
        try:
            return args.func(args)
        except (CitemapError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            cause = exc.cause if isinstance(exc, StageError) else exc
            return 2 if isinstance(cause, ConfigError) else 3


if __name__ == "__main__":
    sys.exit(main())
