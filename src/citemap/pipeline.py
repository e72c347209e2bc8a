"""End-to-end pipeline: corpus -> units -> lexicon -> network -> map files.

Defaults: binary counting, minimum term occurrence 4, the 60% most relevant
terms kept, resolution 1.0, seed 42. A run writes all exports plus a
manifest holding every tunable parameter and the SHA-256 of every input,
and contains no timestamps, so identical inputs reproduce identical bytes.
The manifest doubles as a config file: feeding it back in reproduces the
run.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import suppress
from dataclasses import asdict, dataclass, replace
from functools import partial
from importlib import resources
from pathlib import Path
from types import NoneType
from typing import Callable, Iterable

from . import __version__
from .clustering import Clustering, cluster
from .compare import ComparisonReport, triplet_report
from .corpus import CitationContext, DocumentSet, dataset_stats, load_corpus
from .errors import CitemapError, ConfigError, StageError
from .exports import export_graph_json, export_map, export_network, export_terms, render_svg, write_json
from .layout import MapLayout, layout
from .network import (
    CoocNetwork,
    SimilarityMatrix,
    association_strength,
    count_cooccurrences,
    relevance_scores,
    select_top_terms,
)
from .terms import (
    CITATION_CONTEXT,
    TITLE_ABSTRACT,
    Lexicon,
    TextUnit,
    build_lexicon,
    make_units,
    parse_thesaurus,
    parse_word_list,
)

MODES = ("title-abstract", "citation-context")
DOC_SETS = ("cited", "citing", "both")


@dataclass
class PipelineConfig:
    """All tunables of one run. A bare config runs the standard settings."""

    corpus: str | None = None
    mode: str = "title-abstract"
    doc_set: str = "cited"
    min_occurrences: int = 4
    counting: str = "binary"
    relevance_fraction: float = 0.6
    resolution: float = 1.0
    seed: int = 42
    restarts: int = 10
    stoplist: str | None = None
    exclusions: str | None = None
    thesaurus: str | None = None
    out_dir: str = "out"
    svg_node_scale: float = 1.0
    layout_max_iter: int = 10_000
    layout_tol: float = 1e-8

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.doc_set not in DOC_SETS:
            raise ConfigError(f"doc_set must be one of {DOC_SETS}, got {self.doc_set!r}")
        if self.min_occurrences < 1:
            raise ConfigError(f"min_occurrences must be >= 1, got {self.min_occurrences}")
        if self.counting not in ("binary", "full"):
            raise ConfigError(f"counting must be 'binary' or 'full', got {self.counting!r}")
        if not 0 < self.relevance_fraction <= 1:
            raise ConfigError(f"relevance_fraction must be in (0, 1], got {self.relevance_fraction}")
        if self.resolution <= 0:
            raise ConfigError(f"resolution must be > 0, got {self.resolution}")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "PipelineConfig":
        if "parameters" in mapping and isinstance(mapping["parameters"], dict):
            mapping = mapping["parameters"]  # accept a manifest as config
        known = set(cls.__dataclass_fields__)
        unknown = set(mapping) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for name, value in mapping.items():
            kind = cls.__dataclass_fields__[name].type  # "int", "float", "str" or "str | None"
            accepted = {"int": int, "float": (int, float), "str": str, "str | None": (str, NoneType)}[kind]
            if isinstance(value, bool) or not isinstance(value, accepted):  # bool subclasses int
                raise ConfigError(f"{name} must be {kind}, got {value!r}")
        config = cls(**mapping)
        config.validate()
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        try:
            mapping = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid config JSON: {exc.msg}") from exc
        if not isinstance(mapping, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        return cls.from_mapping(mapping)


def builtin_corpus_path(name: str) -> Path:
    """Path of a bundled corpus ('demo' or 'planted')."""
    resource = resources.files("citemap").joinpath("data").joinpath(f"{name}_corpus.jsonl")
    with resources.as_file(resource) as concrete:
        return Path(concrete)


@dataclass
class WordLists:
    stoplist: frozenset[str]
    exclusions: frozenset[str]
    thesaurus: dict[str, str]
    digests: dict[str, str | None]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_word_list(path: str | None, bundled: str | None) -> bytes | None:
    """The configured file's bytes, else the bundled file's, else None."""
    if path:
        return Path(path).read_bytes()
    if bundled:
        return resources.files("citemap").joinpath(f"data/{bundled}").read_bytes()
    return None


def _resolve_word_lists(config: PipelineConfig) -> WordLists:
    raw = {
        "stoplist": _read_word_list(config.stoplist, "stoplist.txt"),
        "exclusions": _read_word_list(config.exclusions, "exclusions.txt"),
        "thesaurus": _read_word_list(config.thesaurus, None),
    }
    # parse and digest the same bytes, so the manifest names what was used
    text = {name: data.decode("utf-8") if data is not None else "" for name, data in raw.items()}
    return WordLists(
        stoplist=frozenset(parse_word_list(text["stoplist"])),
        exclusions=frozenset(parse_word_list(text["exclusions"])),
        thesaurus=parse_thesaurus(text["thesaurus"], config.thesaurus),
        digests={name: _sha256(data) if data is not None else None for name, data in raw.items()},
    )


@dataclass
class NetworkResult:
    """The network stage of one run: ingest through association strength."""

    config: PipelineConfig
    documents: DocumentSet
    contexts: list[CitationContext]
    units: list[TextUnit]
    lexicon: Lexicon
    network: CoocNetwork
    similarity: SimilarityMatrix
    word_lists: WordLists
    corpus_digest: str


@dataclass
class PipelineResult(NetworkResult):
    """Everything one run produced, for programmatic use and the exporters."""

    clustering: Clustering
    map_layout: MapLayout


def _stage(name: str, call: Callable):
    try:
        return call()
    except (CitemapError, ValueError, OSError) as exc:
        raise StageError(name, exc) from exc


def _select_units(config: PipelineConfig, docs: DocumentSet, contexts: list[CitationContext]) -> list[TextUnit]:
    if config.mode == "citation-context":
        return make_units(contexts, CITATION_CONTEXT)
    if config.doc_set == "both":
        selected = docs
    else:
        selected = docs.filter_tag(config.doc_set)
    return make_units(selected, TITLE_ABSTRACT)


def build_network(config: PipelineConfig) -> NetworkResult:
    """Run ingest, units, lexicon, co-occurrence, relevance cut and association strength."""
    config.validate()
    if not config.corpus:
        raise ConfigError("no corpus path configured; fetch one with 'ingest' first")
    corpus_path = Path(config.corpus)
    docs, contexts = _stage("ingest", lambda: load_corpus(corpus_path))
    corpus_digest = _sha256(corpus_path.read_bytes())
    word_lists = _stage("ingest", lambda: _resolve_word_lists(config))

    units = _stage("units", lambda: _select_units(config, docs, contexts))
    if not units:
        raise StageError("units", ValueError(f"no units for mode {config.mode!r} / set {config.doc_set!r}"))

    lexicon = _stage(
        "lexicon",
        lambda: build_lexicon(
            units,
            min_occurrences=config.min_occurrences,
            thesaurus=word_lists.thesaurus,
            stoplist=word_lists.stoplist,
        ),
    )
    if len(lexicon) == 0:
        raise StageError("lexicon", ValueError(f"empty lexicon: no term occurs in {config.min_occurrences}+ units"))

    counted = _stage("network", lambda: count_cooccurrences(units, lexicon, config.counting))

    def _relevance_cut() -> CoocNetwork:
        scores = relevance_scores(counted)
        selected = select_top_terms(counted, scores, config.relevance_fraction, word_lists.exclusions)
        strengths = selected.node_strengths()
        connected = [i for i, w in enumerate(strengths) if w > 0]
        if len(connected) < len(selected.terms):
            # isolated terms have no similarity, hence no position on the map
            return selected.subnetwork(connected)
        return selected

    network = _stage("relevance", _relevance_cut)
    similarity = _stage("relevance", lambda: association_strength(network))
    return NetworkResult(
        config=config,
        documents=docs,
        contexts=contexts,
        units=units,
        lexicon=lexicon,
        network=network,
        similarity=similarity,
        word_lists=word_lists,
        corpus_digest=corpus_digest,
    )


def cluster_network(net: NetworkResult) -> Clustering:
    """Cluster the network's terms at the configured resolution, seed and restarts."""
    config = net.config
    return _stage("cluster", lambda: cluster(net.similarity, config.resolution, config.seed, config.restarts))


def analyze(config: PipelineConfig) -> PipelineResult:
    """Run every computation stage (no files written)."""
    net = build_network(config)
    clustering = cluster_network(net)
    map_layout = _stage(
        "layout", lambda: layout(net.similarity, config.seed, config.layout_max_iter, config.layout_tol)
    )
    return PipelineResult(**vars(net), clustering=clustering, map_layout=map_layout)


def build_manifest(result: PipelineResult, outputs: Iterable[str]) -> dict:
    config = result.config
    provenance = result.network.provenance
    return {
        "artifact": {"name": "citemap", "version": __version__},
        "parameters": asdict(config),
        "inputs": {
            "corpus_sha256": result.corpus_digest,
            "stoplist_sha256": result.word_lists.digests["stoplist"],
            "exclusions_sha256": result.word_lists.digests["exclusions"],
            "thesaurus_sha256": result.word_lists.digests["thesaurus"],
        },
        "summary": {
            "documents": len(result.documents),
            "contexts": len(result.contexts),
            "units": len(result.units),
            "lexicon_terms": len(result.lexicon),
            "retained_before_exclusions": provenance.get("retained_before_exclusions"),
            "retained_terms": len(result.network.terms),
            "edges": len(result.network.edges),
            "clusters": result.clustering.n_clusters,
            "clustering_quality": result.clustering.quality,
            "layout_objective": result.map_layout.objective,
            "layout_converged": result.map_layout.converged,
        },
        "outputs": sorted(outputs),
    }


def _corpus_stats(result: NetworkResult) -> dict:
    docs = result.documents
    return dataset_stats(docs.filter_tag("cited"), docs.filter_tag("citing"), result.contexts).to_dict()


# Output name -> writer(result, path), in the order a full run writes them;
# the manifest comes last. The network writers need only a NetworkResult.
WRITERS: dict[str, Callable[[PipelineResult, Path], object]] = {
    "map.tsv": lambda r, p: export_map(r.map_layout, r.network, r.clustering, p),
    "network.tsv": lambda r, p: export_network(r.network, p),
    "network_terms.tsv": lambda r, p: export_terms(r.network, p),
    "graph.json": lambda r, p: export_graph_json(r.network, r.similarity, r.map_layout, r.clustering, p),
    "map.svg": lambda r, p: render_svg(r.map_layout, r.network, r.clustering, p,
                                       sim=r.similarity, node_scale=r.config.svg_node_scale),
    "corpus_stats.json": lambda r, p: write_json(p, _corpus_stats(r)),
    "manifest.json": lambda r, p: write_json(p, build_manifest(r, OUTPUT_NAMES)),
}
OUTPUT_NAMES = tuple(WRITERS)


def write_files(out_dir: str | Path, writers: dict[str, Callable[[Path], object]]) -> dict[str, Path]:
    """Write ``{name: writer(path)}`` into ``out_dir`` all or nothing; returns name -> path.

    Every writer writes a staged file; only then are they renamed into place,
    in order (manifest last). On failure the staged and renamed files are
    removed and StageError('export') raised, so the files that stay are the
    earlier run's.
    """
    out_dir = Path(out_dir)
    paths = {name: out_dir / name for name in writers}
    staged = {name: out_dir / f".{name}.{os.getpid()}.tmp" for name in writers}
    placed: list[Path] = []
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, write in writers.items():
            write(staged[name])
        for name in writers:
            os.replace(staged[name], paths[name])
            placed.append(paths[name])
    except Exception as exc:
        for path in [*staged.values(), *placed]:
            with suppress(OSError):  # cleanup must not hide the failure that triggered it
                path.unlink(missing_ok=True)
        raise StageError("export", exc) from exc
    return paths


def write_outputs(result: NetworkResult, names: Iterable[str]) -> dict[str, Path]:
    """Commit the named ``WRITERS`` outputs of ``result`` into its ``out_dir`` (see write_files)."""
    return write_files(result.config.out_dir, {name: partial(WRITERS[name], result) for name in names})


def run_pipeline(config: PipelineConfig) -> dict[str, Path]:
    """Execute all stages and write every output into ``config.out_dir``.

    Any stage failure aborts with the stage name; a failed export keeps the
    previous run's files. Returns output name -> path.
    """
    return write_outputs(analyze(config), OUTPUT_NAMES)


def compare_networks(config: PipelineConfig) -> ComparisonReport:
    """Build the three networks (cited, citing, context) and compare them."""
    variants = {
        "cited": replace(config, mode="title-abstract", doc_set="cited"),
        "citing": replace(config, mode="title-abstract", doc_set="citing"),
        "context": replace(config, mode="citation-context"),
    }
    networks = {label: analyze(variant).network for label, variant in variants.items()}
    return triplet_report(networks["cited"], networks["citing"], networks["context"])
