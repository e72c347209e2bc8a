"""End-to-end pipeline: corpus -> units -> lexicon -> network -> map files.

A ``Run`` computes each stage the first time it is read, and writing a file
reads the stages that file needs, so a command runs exactly those. Defaults:
binary counting, minimum term occurrence 4, the 60% most relevant terms
kept, resolution 1.0, seed 42. A full run writes all exports plus a
manifest holding every tunable parameter and the SHA-256 of every input,
and contains no timestamps, so identical inputs reproduce identical bytes.
The manifest doubles as a config file: feeding it back in reproduces the
run.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from contextlib import suppress
from dataclasses import asdict, dataclass, replace
from functools import cached_property, partial
from importlib import resources
from pathlib import Path
from typing import Callable, Iterable

from . import __version__, fork
from .clustering import Clustering, cluster
from .compare import ComparisonReport, triplet_report
from .corpus import SET_TAGS, CorpusStats, Document, check_field_types, dataset_stats, load_corpus
from .errors import CitemapError, ConfigError, StageError
from .exports import export_graph_json, export_map, export_network, export_terms, render_svg, write_json, write_lines
from .layout import MapLayout, layout, layout_worker
from .network import (
    BINARY,
    COUNTINGS,
    FULL,
    CoocNetwork,
    SimilarityMatrix,
    association_strength,
    count_cooccurrences,
    relevance_scores,
    select_top_terms,
    top_count,
)
from .terms import (
    CITATION_CONTEXT,
    TITLE_ABSTRACT,
    Lexicon,
    build_lexicon,
    make_units,
    parse_thesaurus,
    parse_word_list,
)

MODES = (TITLE_ABSTRACT, CITATION_CONTEXT)
DOC_SETS = (*SET_TAGS, "both")
# setting -> the least value it may take
MINIMA = {"min_occurrences": 1, "restarts": 1, "seed": 0, "svg_node_scale": 0, "layout_max_iter": 1, "layout_tol": 0}


@dataclass
class PipelineConfig:
    """All tunables of one run. A bare config runs the standard settings."""

    corpus: str | None = None
    mode: str = TITLE_ABSTRACT
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
        try:
            check_field_types(self)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc
        for name, spec in self.__dataclass_fields__.items():
            # nan fails the comparison, and so does an int too large for a float
            if spec.type == "float" and not abs(getattr(self, name)) <= sys.float_info.max:
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.doc_set not in DOC_SETS:
            raise ConfigError(f"doc_set must be one of {DOC_SETS}, got {self.doc_set!r}")
        if self.counting not in COUNTINGS:
            raise ConfigError(f"counting must be '{BINARY}' or '{FULL}', got {self.counting!r}")
        if not 0 < self.relevance_fraction <= 1:
            raise ConfigError(f"relevance_fraction must be in (0, 1], got {self.relevance_fraction}")
        if self.resolution <= 0:
            raise ConfigError(f"resolution must be > 0, got {self.resolution}")
        for name, minimum in MINIMA.items():
            if getattr(self, name) < minimum:
                raise ConfigError(f"{name} must be >= {minimum}, got {getattr(self, name)}")

    @classmethod
    def from_mapping(cls, mapping: dict) -> "PipelineConfig":
        if "parameters" in mapping and isinstance(mapping["parameters"], dict):
            mapping = mapping["parameters"]  # accept a manifest as config
        unknown = set(mapping) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
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
    # parse and digest the same bytes, so the manifest names what was used; a BOM is no part of an entry
    text = {name: data.decode("utf-8-sig") if data is not None else "" for name, data in raw.items()}
    return WordLists(
        stoplist=frozenset(parse_word_list(text["stoplist"])),
        exclusions=frozenset(parse_word_list(text["exclusions"])),
        thesaurus=parse_thesaurus(text["thesaurus"], config.thesaurus),
        digests={name: _sha256(data) if data is not None else None for name, data in raw.items()},
    )


def _stage(name: str, call: Callable, *args, **kwargs):
    """``call(*args, **kwargs)``, failing as StageError(name). Upstream stages passed in
    ``args`` are computed before this stage begins, so their failures keep their names."""
    try:
        return call(*args, **kwargs)
    except (CitemapError, ValueError, OSError) as exc:
        raise StageError(name, exc) from exc


def _relevance_cut(counted: CoocNetwork, fraction: float, exclusions: frozenset[str]) -> CoocNetwork:
    selected = select_top_terms(counted, relevance_scores(counted), fraction, exclusions)
    if not selected.edges:  # no map without an edge; checked here, so that build fails too
        raise ValueError("association strength needs at least one edge")
    connected = [i for i, w in enumerate(selected.node_strengths()) if w > 0]
    if len(connected) < len(selected.terms):
        # isolated terms have no similarity, hence no position on the map
        return selected.subnetwork(connected)
    return selected


class Run:
    """One run: its config and loaded inputs, and each stage computed when first read.

    The constructor validates the config and loads the corpus and word lists.
    Each stage is a property computed once: corpus_stats, units, lexicon,
    network (after the relevance cut), similarity, clustering and map_layout.
    A ``layout_worker()`` given here lays out the map for map_layout.
    """

    def __init__(self, config: PipelineConfig, layout_worker: fork.ForkedCall | None = None):
        config.validate()
        if not config.corpus:
            raise ConfigError("no corpus path configured; give one with --corpus or the config's 'corpus' key")
        corpus_path = Path(config.corpus)
        self.config = config
        self.layout_worker = layout_worker
        # parse and digest the same bytes, as for the word lists
        data = _stage("ingest", corpus_path.read_bytes)
        self.documents, self.contexts = _stage("ingest", load_corpus, corpus_path, data)
        self.corpus_digest = _sha256(data)
        self.word_lists = _stage("ingest", _resolve_word_lists, config)

    def _tagged(self, doc_set: str) -> tuple[Document, ...]:
        """The documents of one ``DOC_SETS`` entry, in corpus order."""
        return tuple(doc for doc in self.documents if doc_set in (doc.set_tag, "both"))

    @cached_property
    def corpus_stats(self) -> CorpusStats:
        return dataset_stats(self._tagged("cited"), self._tagged("citing"), self.contexts)

    @cached_property
    def units(self) -> list[str]:
        config = self.config
        source = self.contexts if config.mode == CITATION_CONTEXT else self._tagged(config.doc_set)
        units = _stage("units", make_units, source, config.mode)
        if not units:
            raise StageError("units", ValueError(f"no units for mode {config.mode!r} / set {config.doc_set!r}"))
        return units

    @cached_property
    def lexicon(self) -> Lexicon:
        minimum, words = self.config.min_occurrences, self.word_lists
        lexicon = _stage("lexicon", build_lexicon, self.units, minimum, words.thesaurus, words.stoplist)
        if len(lexicon) == 0:
            raise StageError("lexicon", ValueError(f"empty lexicon: no term occurs in {minimum}+ units"))
        return lexicon

    @cached_property
    def network(self) -> CoocNetwork:
        counted = _stage("network", count_cooccurrences, self.units, self.lexicon, self.config.counting)
        return _stage("relevance", _relevance_cut, counted, self.config.relevance_fraction,
                      self.word_lists.exclusions)

    @cached_property
    def similarity(self) -> SimilarityMatrix:
        return _stage("relevance", association_strength, self.network)

    @cached_property
    def clustering(self) -> Clustering:
        config = self.config
        return _stage("cluster", cluster, self.similarity, config.resolution, config.seed, config.restarts)

    @cached_property
    def map_layout(self) -> MapLayout:
        config = self.config
        return _stage("layout", layout, self.similarity, config.seed, config.layout_max_iter, config.layout_tol,
                      worker=self.layout_worker)


def _clustered(run: Run) -> dict[str, object] | Exception:
    """``run``'s stages up to its clustering, by property name, or the error a stage raised."""
    try:
        return {name: getattr(run, name) for name in ("network", "similarity", "clustering")}
    except (CitemapError, ValueError, OSError) as exc:
        return exc


def _analyze(configs: list[PipelineConfig]) -> list[Run]:
    """One run per config with every stage computed, the maps in config order (no files written).

    Where ``layout_worker()`` forks a worker, it starts first, so numpy loads
    beside the corpus loads. The runs are then clustered side by side on up
    to one worker per config and per CPU (``fork.forked``; this process is
    worker 0), and a worker's stages become the cached stages of this
    process's run. The maps follow in config order, in the layout worker if
    there is one. The first failure in that order is raised, a clustering's
    before its map's: the one running the configs in turn would stop at. The
    worker is reaped before this returns or raises.
    """
    worker = layout_worker()
    try:
        runs = [Run(config, worker) for config in configs]
        tasks = len(runs)
        results = fork.forked(lambda share: [_clustered(runs[task]) for task in share], tasks,
                              min(tasks, fork.cpus()))
        for run, result in zip(runs, results):
            if isinstance(result, Exception):
                raise result
            vars(run).update(result)  # a cached_property reads its value from the instance dict
            run.map_layout  # reading a stage computes it
    finally:
        if worker is not None:
            worker.close()
    return runs


def analyze(config: PipelineConfig) -> Run:
    """A run with every stage computed, clustering before layout (no files written).

    Its layout worker, if one is forked, imports numpy beside the text stages
    and lays out the map once this process has clustered (see ``_analyze``).
    """
    return _analyze([config])[0]


def build_manifest(run: Run, outputs: Iterable[str]) -> dict:
    config = run.config
    return {
        "artifact": {"name": "citemap", "version": __version__},
        "parameters": asdict(config),
        "inputs": {
            "corpus_sha256": run.corpus_digest,
            "stoplist_sha256": run.word_lists.digests["stoplist"],
            "exclusions_sha256": run.word_lists.digests["exclusions"],
            "thesaurus_sha256": run.word_lists.digests["thesaurus"],
        },
        "summary": {
            "documents": len(run.documents),
            "contexts": len(run.contexts),
            "units": len(run.units),
            "lexicon_terms": len(run.lexicon),
            "retained_before_exclusions": top_count(config.relevance_fraction, len(run.lexicon)),
            "retained_terms": len(run.network.terms),
            "edges": len(run.network.edges),
            "clusters": run.clustering.n_clusters,
            "clustering_quality": run.clustering.quality,
            "layout_objective": run.map_layout.objective,
            "layout_converged": run.map_layout.converged,
        },
        "outputs": sorted(outputs),
    }


# Output name -> factory(run) -> writer(path). A factory reads the stages its
# file needs, so calling it computes them; it looks the exporter up when it
# runs, so a patched module attribute is the one called.
WRITERS: dict[str, Callable[[Run], Callable[[Path], object]]] = {
    "lexicon.tsv": lambda r: partial(write_lines, rows=[f"{entry.term}\t{entry.occurrence_count}"
                                                        for entry in r.lexicon]),
    "clusters.tsv": lambda r: partial(write_lines, rows=[f"{i + 1}\t{node.term}\t{label}" for i, (node, label)
                                                         in enumerate(zip(r.network.terms, r.clustering.assignment))]),
    "map.tsv": lambda r: partial(export_map, r.map_layout, r.network, r.clustering),
    "network.tsv": lambda r: partial(export_network, r.network),
    "network_terms.tsv": lambda r: partial(export_terms, r.network),
    "graph.json": lambda r: partial(export_graph_json, r.network, r.similarity, r.map_layout, r.clustering),
    "map.svg": lambda r: partial(render_svg, r.map_layout, r.network, r.clustering,
                                 sim=r.similarity, node_scale=r.config.svg_node_scale),
    "corpus_stats.json": lambda r: partial(write_json, payload=asdict(r.corpus_stats)),
    "manifest.json": lambda r: partial(write_json, payload=build_manifest(r, OUTPUT_NAMES)),
}
# the export subcommand's files: the map, its network, and their JSON and SVG renderings
EXPORT_NAMES = ("map.tsv", "network.tsv", "network_terms.tsv", "graph.json", "map.svg")
# a full run's outputs, in the order they are written; the manifest comes last
OUTPUT_NAMES = (*EXPORT_NAMES, "corpus_stats.json", "manifest.json")


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


def write_outputs(run: Run, names: Iterable[str]) -> dict[str, Path]:
    """Commit the named ``WRITERS`` outputs of ``run`` into its ``out_dir`` (see write_files).
    The writers are made first, so a failing stage keeps its name and writes nothing."""
    writers = {name: WRITERS[name](run) for name in names}
    return write_files(run.config.out_dir, writers)


def run_pipeline(config: PipelineConfig) -> dict[str, Path]:
    """Execute all stages and write every output into ``config.out_dir``.

    Any stage failure aborts with the stage name; a failed export keeps the
    previous run's files. Returns output name -> path.
    """
    return write_outputs(analyze(config), OUTPUT_NAMES)


def compare_networks(config: PipelineConfig) -> ComparisonReport:
    """Compare the cited, citing and context networks, built with their clusterings and maps by ``_analyze``:
    side by side on up to three workers, one per CPU, the maps in cited, citing, context order."""
    runs = _analyze([
        replace(config, mode=TITLE_ABSTRACT, doc_set="cited"),
        replace(config, mode=TITLE_ABSTRACT, doc_set="citing"),
        replace(config, mode=CITATION_CONTEXT),
    ])
    return triplet_report(*(run.network for run in runs))
