"""End-to-end pipeline runs, manifest contract, CLI subcommands and exit codes."""

from __future__ import annotations

import hashlib
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path
from types import ModuleType

import pytest

import citemap
import citemap.layout as layout_module
import citemap.pipeline as pipeline_module
from citemap.cli import main
from citemap.corpus import write_corpus
from citemap.errors import ConfigError, StageError
from citemap.exports import read_map_file, read_network_file
from citemap.network import count_cooccurrences, relevance_scores, select_top_terms, top_count
from citemap.pipeline import (
    OUTPUT_NAMES,
    PipelineConfig,
    Run,
    analyze,
    builtin_corpus_path,
    compare_networks,
    run_pipeline,
)

from conftest import ctx, doc, sim


def demo_config(demo_corpus, out_dir, **overrides) -> PipelineConfig:
    return PipelineConfig(corpus=str(demo_corpus), out_dir=str(out_dir), **overrides)


class TestRunPipeline:
    def test_writes_all_artifacts(self, demo_corpus, tmp_path):
        paths = run_pipeline(demo_config(demo_corpus, tmp_path / "out"))
        expected = {"map.tsv", "network.tsv", "network_terms.tsv", "graph.json",
                    "map.svg", "corpus_stats.json", "manifest.json"}
        assert set(paths) == expected
        for path in paths.values():
            assert path.exists() and path.stat().st_size > 0

    def test_manifest_records_protocol_defaults(self, demo_corpus, tmp_path):
        paths = run_pipeline(demo_config(demo_corpus, tmp_path / "out"))
        manifest = json.loads(paths["manifest.json"].read_text(encoding="utf-8"))
        parameters = manifest["parameters"]
        assert parameters["min_occurrences"] == 4
        assert parameters["counting"] == "binary"
        assert parameters["relevance_fraction"] == 0.6
        assert parameters["resolution"] == 1.0
        assert parameters["seed"] == 42
        assert parameters["restarts"] == 10
        assert set(manifest["inputs"]) == {"corpus_sha256", "stoplist_sha256",
                                           "exclusions_sha256", "thesaurus_sha256"}
        assert manifest["inputs"]["corpus_sha256"]
        # every tunable parameter appears in the manifest
        assert set(parameters) == set(PipelineConfig.__dataclass_fields__)

    def test_manifest_has_no_timestamps(self, demo_corpus, tmp_path):
        paths = run_pipeline(demo_config(demo_corpus, tmp_path / "out"))
        manifest = json.loads(paths["manifest.json"].read_text(encoding="utf-8"))

        def keys_of(obj):
            if isinstance(obj, dict):
                for key, value in obj.items():
                    yield key
                    yield from keys_of(value)
        banned = ("time", "date", "clock")
        assert not [k for k in keys_of(manifest) if any(b in k.lower() for b in banned)]

    def test_reruns_are_byte_identical(self, demo_corpus, tmp_path):
        config = demo_config(demo_corpus, tmp_path / "out")
        first = {name: path.read_bytes() for name, path in run_pipeline(config).items()}
        second = {name: path.read_bytes() for name, path in run_pipeline(config).items()}
        assert first == second

    def test_manifest_reproduces_run(self, demo_corpus, tmp_path):
        config = demo_config(demo_corpus, tmp_path / "out1")
        paths = run_pipeline(config)
        manifest = json.loads(paths["manifest.json"].read_text(encoding="utf-8"))
        replay = PipelineConfig.from_mapping(manifest)
        replay.out_dir = str(tmp_path / "out2")
        replayed = run_pipeline(replay)
        for name in ("map.tsv", "network.tsv", "graph.json", "map.svg"):
            assert replayed[name].read_bytes() == paths[name].read_bytes()

    def test_empty_lexicon_is_stage_error(self, demo_corpus, tmp_path):
        config = demo_config(demo_corpus, tmp_path / "out", min_occurrences=10_000)
        with pytest.raises(StageError, match="empty lexicon") as excinfo:
            run_pipeline(config)
        assert excinfo.value.stage == "lexicon"

    def test_stage_error_removes_partial_outputs(self, demo_corpus, tmp_path, monkeypatch):
        out = tmp_path / "out"
        config = demo_config(demo_corpus, out)

        def broken_svg(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline_module, "render_svg", broken_svg)
        with pytest.raises(StageError):
            run_pipeline(config)
        leftovers = [p.name for p in out.iterdir()] if out.exists() else []
        assert leftovers == []

    def test_failed_rerun_keeps_previous_run(self, demo_corpus, tmp_path, monkeypatch):
        out = tmp_path / "out"
        config = demo_config(demo_corpus, out)
        first = {name: path.read_bytes() for name, path in run_pipeline(config).items()}
        assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUT_NAMES)  # nothing staged is left

        def broken_svg(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(pipeline_module, "render_svg", broken_svg)
        with pytest.raises(StageError) as excinfo:
            run_pipeline(config)
        assert excinfo.value.stage == "export"
        assert {p.name: p.read_bytes() for p in out.iterdir()} == first

    def test_directory_at_an_output_name(self, demo_corpus, tmp_path):
        out = tmp_path / "out"
        config = demo_config(demo_corpus, out)
        first = {name: path.read_bytes() for name, path in run_pipeline(config).items()}
        (out / "graph.json").unlink()
        (out / "graph.json").mkdir()
        with pytest.raises(StageError) as excinfo:
            run_pipeline(config)
        assert excinfo.value.stage == "export"
        files = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        # files renamed before the failing one are removed again; the rest are the first run's
        assert "manifest.json" in files
        assert files == {name: first[name] for name in files}
        assert sorted(p.name for p in out.iterdir() if not p.is_file()) == ["graph.json"]

    def test_manifest_digests_match_word_list_bytes(self, demo_corpus, tmp_path):
        def sha256(path: Path) -> str:
            return hashlib.sha256(path.read_bytes()).hexdigest()

        def inputs(config: PipelineConfig) -> dict:
            return json.loads(run_pipeline(config)["manifest.json"].read_text(encoding="utf-8"))["inputs"]

        data = Path(citemap.__file__).parent / "data"
        bundled = inputs(demo_config(demo_corpus, tmp_path / "bundled"))
        assert bundled["stoplist_sha256"] == sha256(data / "stoplist.txt")
        assert bundled["exclusions_sha256"] == sha256(data / "exclusions.txt")
        assert bundled["thesaurus_sha256"] is None

        stoplist, exclusions = tmp_path / "stop.txt", tmp_path / "excl.txt"
        stoplist.write_bytes((data / "stoplist.txt").read_bytes() + b"research\r\n")
        exclusions.write_bytes(b"# user list\r\nbibliometrics\n")
        user = inputs(demo_config(demo_corpus, tmp_path / "user", stoplist=str(stoplist),
                                  exclusions=str(exclusions)))
        assert user["stoplist_sha256"] == sha256(stoplist)
        assert user["exclusions_sha256"] == sha256(exclusions)

    def test_exported_term_count_matches_selection(self, demo_corpus, tmp_path):
        config = demo_config(demo_corpus, tmp_path / "out")
        result = analyze(config)
        paths = run_pipeline(config)
        records = read_map_file(paths["map.tsv"])
        assert len(records) == len(result.network.terms)
        counted = count_cooccurrences(result.units, result.lexicon, config.counting)
        selected = select_top_terms(counted, relevance_scores(counted), config.relevance_fraction,
                                    result.word_lists.exclusions)
        assert len(records) == len(selected.terms)
        manifest = json.loads(paths["manifest.json"].read_text(encoding="utf-8"))
        assert manifest["summary"]["retained_before_exclusions"] == top_count(0.6, len(result.lexicon))

    def test_exports_reimport_to_equal_structures(self, demo_corpus, tmp_path):
        config = demo_config(demo_corpus, tmp_path / "out")
        result = analyze(config)
        paths = run_pipeline(config)
        net = read_network_file(paths["network.tsv"], paths["network_terms.tsv"])
        assert net.terms == result.network.terms
        assert net.edges == result.network.edges

    def test_missing_corpus_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError):
            analyze(PipelineConfig(corpus=None, out_dir=str(tmp_path)))

    def test_run_reads_its_corpus_once(self, demo_corpus, tmp_path):
        # the manifest's corpus_sha256 names the bytes parsed only if both come from one read
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_bytes(demo_corpus.read_bytes())
        opens = []
        listening = True

        def count_opens(event, args):  # an audit hook cannot be removed; this one goes quiet after the run
            if listening and event == "open" and isinstance(args[0], (str, os.PathLike)):
                if os.fspath(args[0]) == str(corpus):
                    opens.append(args[1])

        sys.addaudithook(count_opens)
        try:
            run = Run(PipelineConfig(corpus=str(corpus)))
        finally:
            listening = False
        assert len(opens) == 1
        assert run.corpus_digest == hashlib.sha256(corpus.read_bytes()).hexdigest()

    @pytest.mark.parametrize("doc_set, ids", [("cited", "ac"), ("citing", "bd"), ("both", "abcd")])
    def test_units_and_stats_per_set(self, tmp_path, doc_set, ids):
        docs = [doc(i, tag, f"title {i}") for i, tag in zip("abcd", ("cited", "citing", "cited", "citing"))]
        corpus = write_corpus(tmp_path / "tags.jsonl", docs, [ctx("b", "a")])
        run = Run(PipelineConfig(corpus=str(corpus), doc_set=doc_set))
        assert run.units == [f"title {i}" for i in ids]  # the set's documents, in corpus order
        stats = run.corpus_stats  # the same whatever the set
        assert (stats.n_cited, stats.n_citing, stats.n_contexts) == (2, 2, 1)
        assert stats.contexts_per_cited == {"a": 1, "c": 0}

    def test_mode_and_set_validation(self, demo_corpus, tmp_path):
        with pytest.raises(ConfigError):
            demo_config(demo_corpus, tmp_path, mode="full-text").validate()
        with pytest.raises(ConfigError):
            demo_config(demo_corpus, tmp_path, doc_set="nobody").validate()

    def test_citation_context_mode(self, demo_corpus, tmp_path):
        config = demo_config(demo_corpus, tmp_path / "out", mode="citation-context",
                             min_occurrences=3)
        result = analyze(config)
        assert result.units == [c.text for c in result.contexts]
        assert len(result.network.terms) > 0

    def test_full_counting_mode(self, demo_corpus, tmp_path):
        full = analyze(demo_config(demo_corpus, tmp_path / "out", counting="full", relevance_fraction=1.0)).network
        binary = analyze(demo_config(demo_corpus, tmp_path / "out", relevance_fraction=1.0)).network
        assert full.terms == binary.terms
        assert full.edges.keys() == binary.edges.keys()
        assert all(full.edges[pair] >= count for pair, count in binary.edges.items())
        assert full.edges != binary.edges


class TestCompareNetworks:
    def test_planted_ordering_holds(self, planted_corpus, tmp_path):
        config = PipelineConfig(corpus=str(planted_corpus), out_dir=str(tmp_path))
        report = compare_networks(config)
        assert report.ordering_holds == {"jaccard": True, "cosine": True}
        assert report.jaccard["cited"]["context"] > report.jaccard["citing"]["context"]
        assert report.cosine["cited"]["context"] > report.cosine["citing"]["context"]


class TestCli:
    def test_pipeline_subcommand(self, demo_corpus, tmp_path, capsys):
        code = main(["pipeline", "--corpus", str(demo_corpus), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        assert "manifest.json" in capsys.readouterr().out

    def test_ingest_subcommand(self, demo_corpus, tmp_path, capsys):
        code = main(["ingest", "--corpus", str(demo_corpus), "--out", str(tmp_path / "out")])
        assert code == 0
        stats = json.loads((tmp_path / "out" / "corpus_stats.json").read_text())
        assert stats["n_cited"] == 18 and stats["n_citing"] == 22

    def test_extract_subcommand(self, demo_corpus, tmp_path):
        code = main(["extract", "--corpus", str(demo_corpus), "--out", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "lexicon.tsv").read_text().splitlines()
        assert all(int(line.split("\t")[1]) >= 4 for line in lines)

    def test_build_cluster_layout_export(self, demo_corpus, tmp_path):
        out = str(tmp_path / "out")
        for command in ("build", "cluster", "layout", "export"):
            assert main([command, "--corpus", str(demo_corpus), "--out", out]) == 0
        for name in ("network.tsv", "network_terms.tsv", "clusters.tsv", "map.tsv", "map.svg", "graph.json"):
            assert (tmp_path / "out" / name).exists()

    def test_extract_and_build_stop_before_clustering(self, demo_corpus, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("stage ran past the files it writes")

        count_cooccurrences = pipeline_module.count_cooccurrences
        for name in ("cluster", "layout", "association_strength", "count_cooccurrences"):
            monkeypatch.setattr(pipeline_module, name, must_not_run)
        out = tmp_path / "out"
        assert main(["extract", "--corpus", str(demo_corpus), "--out", str(out)]) == 0
        monkeypatch.setattr(pipeline_module, "count_cooccurrences", count_cooccurrences)
        assert main(["build", "--corpus", str(demo_corpus), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["lexicon.tsv", "network.tsv", "network_terms.tsv"]

    def test_extract_stops_at_the_lexicon(self, demo_corpus, tmp_path):
        # a relevance cut of 1% keeps no term, which only the stages after the lexicon read
        out = tmp_path / "out"
        assert main(["extract", "--corpus", str(demo_corpus), "--relevance-fraction", "0.01", "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["lexicon.tsv"]

    @pytest.mark.parametrize("command, corpus_name, settings, stage", [
        ("cluster", "demo", ["--min-occurrences", "10000"], "lexicon"),
        ("build", "no_edge", ["--min-occurrences", "1"], "relevance"),
    ])
    def test_failing_stage_keeps_its_name(self, command, corpus_name, settings, stage, tmp_path, capsys):
        if corpus_name == "no_edge":
            # the relevance cut keeps copyright, alpha and beta, and excludes copyright: no edge is left
            corpus = tmp_path / "no_edge.jsonl"
            corpus.write_text("".join(
                json.dumps({"kind": "document", "id": f"C{i}", "title": f"Copyright and {word}",
                            "set_tag": "cited", "doi": None, "abstract": None, "year": None}) + "\n"
                for i, word in enumerate(("alpha", "beta", "gamma", "delta"))), encoding="utf-8")
        else:
            corpus = builtin_corpus_path(corpus_name)
        out = tmp_path / "out"
        assert main([command, "--corpus", str(corpus), *settings, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: stage '{stage}' failed: ")
        assert not out.exists()

    def test_cluster_stops_before_layout(self, demo_corpus, tmp_path, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("cluster ran the layout")

        monkeypatch.setattr(pipeline_module, "layout", must_not_run)
        out = tmp_path / "out"
        assert main(["cluster", "--corpus", str(demo_corpus), "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["clusters.tsv"]

    def test_compare_subcommand(self, planted_corpus, tmp_path, capsys):
        code = main(["compare", "--corpus", str(planted_corpus), "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "comparison.json").read_text())
        assert report["ordering_holds"] == {"jaccard": True, "cosine": True}
        assert "ordering holds" in capsys.readouterr().out

    def test_flags_override_config_file(self, demo_corpus, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"corpus": str(demo_corpus), "min_occurrences": 2,
                                           "out_dir": str(tmp_path / "from_file")}))
        code = main(["pipeline", "--config", str(config_path),
                     "--min-occurrences", "5", "--out", str(tmp_path / "out")])
        assert code == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["parameters"]["min_occurrences"] == 5
        assert not (tmp_path / "from_file").exists()

    def test_config_error_exit_code(self, demo_corpus, tmp_path, capsys):
        code = main(["pipeline", "--corpus", str(demo_corpus),
                     "--relevance-fraction", "1.5", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_oversized_map_is_config_error(self, demo_corpus, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(layout_module, "MAX_LAYOUT_TERMS", 5)
        with pytest.raises(ConfigError, match="cannot lay out 6 terms.*--min-occurrences"):
            layout_module.layout(sim(6, {(k, k + 1): 1.0 for k in range(5)}))
        out = tmp_path / "out"
        assert main(["pipeline", "--corpus", str(demo_corpus), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "stage 'layout' failed" in err and "--min-occurrences" in err
        assert not (out / "map.tsv").exists()

    def test_input_error_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        for command in ("ingest", "pipeline"):
            assert main([command, "--corpus", str(missing), "--out", str(tmp_path / "out")]) == 3
            assert capsys.readouterr().err == (f"error: stage 'ingest' failed: [Errno 2] "
                                               f"No such file or directory: '{missing}'\n")
        assert not (tmp_path / "out").exists()

    def test_parse_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        assert main(["ingest", "--corpus", str(bad), "--out", str(tmp_path / "out")]) == 3

    def test_ingest_fails_through_its_stage(self, demo_corpus, tmp_path, capsys):
        # ingest is a staged run: a bad corpus or word list fails stage 'ingest' and writes nothing
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main(["ingest", "--corpus", str(bad), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith(f"error: stage 'ingest' failed: {bad}:1: invalid JSON")
        missing = tmp_path / "no_stoplist.txt"
        assert main(["ingest", "--corpus", str(demo_corpus), "--stoplist", str(missing), "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: stage 'ingest' failed: ")
        assert not out.exists()

    def test_ingest_requires_some_source(self, tmp_path, capsys):
        for command in ("ingest", "pipeline"):
            assert main([command, "--out", str(tmp_path / "out")]) == 2
            assert capsys.readouterr().err == ("error: no corpus path configured; "
                                               "give one with --corpus or the config's 'corpus' key\n")
        assert not (tmp_path / "out").exists()

    def test_corpus_warnings_are_one_line_each(self, tmp_path, capsys):
        corpus = tmp_path / "dup.jsonl"
        corpus.write_text(
            '{"kind": "document", "id": "a", "set_tag": "cited", "title": "first"}\n'
            '{"kind": "document", "id": "a", "set_tag": "cited", "title": "again"}\n'
            '{"kind": "context", "citing_id": "zz", "cited_id": "a", "ordinal": 1, "text": "a snippet"}\n',
            encoding="utf-8")
        hook = warnings.showwarning
        assert main(["ingest", "--corpus", str(corpus), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == (f"warning: {corpus}:2: duplicate document id 'a' ignored\n"
                                           f"warning: {corpus}:3: context ('zz' -> 'a' #1) "
                                           "references unknown document(s) ['zz']\n")
        assert warnings.showwarning is hook

    def test_duplicate_context_ignored_with_one_warning(self, planted_corpus, tmp_path, capsys):
        lines = planted_corpus.read_text(encoding="utf-8").splitlines()
        first = json.loads(next(line for line in lines if '"context"' in line))
        corpus = tmp_path / "planted.jsonl"
        corpus.write_text("\n".join([*lines, json.dumps({**first, "text": "a second snippet"})]) + "\n",
                          encoding="utf-8")
        assert main(["ingest", "--corpus", str(corpus), "--out", str(tmp_path / "ingest")]) == 0
        assert capsys.readouterr().err == (f"warning: {corpus}:{len(lines) + 1}: duplicate context "
                                           f"({first['citing_id']!r} -> {first['cited_id']!r} #1) ignored\n")
        stats = json.loads((tmp_path / "ingest" / "corpus_stats.json").read_text())
        assert stats["n_contexts"] == sum('"context"' in line for line in lines)
        assert main(["compare", "--corpus", str(corpus), "--out", str(tmp_path / "compare")]) == 0
        report = json.loads((tmp_path / "compare" / "comparison.json").read_text())
        assert report["ordering_holds"] == {"jaccard": True, "cosine": True}

    def test_ids_with_double_colons_make_two_contexts(self, tmp_path, capsys):
        # joining ids with "::" once made both contexts 'a::b::c::1', and the run exited 3
        corpus = tmp_path / "colons.jsonl"
        corpus.write_text(
            '{"kind": "document", "id": "a::b", "set_tag": "citing", "title": "Impact factor study"}\n'
            '{"kind": "document", "id": "a", "set_tag": "citing", "title": "Another study"}\n'
            '{"kind": "document", "id": "c", "set_tag": "cited", "title": "Cited one"}\n'
            '{"kind": "document", "id": "b::c", "set_tag": "cited", "title": "Cited two"}\n'
            '{"kind": "context", "citing_id": "a::b", "cited_id": "c", "ordinal": 1, '
            '"text": "The impact factor is used."}\n'
            '{"kind": "context", "citing_id": "a", "cited_id": "b::c", "ordinal": 1, '
            '"text": "The impact factor is criticised."}\n',
            encoding="utf-8")
        out = tmp_path / "out"
        assert main(["extract", "--mode", "citation-context", "--min-occurrences", "1",
                     "--corpus", str(corpus), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert "impact factor\t2" in (out / "lexicon.tsv").read_text(encoding="utf-8").splitlines()

    @pytest.mark.parametrize("command, corpus_name, name", [
        ("ingest", "demo", "corpus_stats.json"),
        ("extract", "demo", "lexicon.tsv"),
        ("cluster", "demo", "clusters.tsv"),
        ("compare", "planted", "comparison.json"),
    ])
    def test_failed_rerun_keeps_previous_file(self, command, corpus_name, name, tmp_path, monkeypatch, capsys):
        corpus = str(builtin_corpus_path(corpus_name))
        out = tmp_path / "out"
        assert main([command, "--corpus", corpus, "--out", str(out)]) == 0
        previous = (out / name).read_bytes()

        def disk_full(path, data, *args, **kwargs):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(data[: len(data) // 2])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", disk_full)
        assert main([command, "--corpus", corpus, "--out", str(out)]) == 3
        assert "No space left on device" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == [name]
        assert (out / name).read_bytes() == previous

    @pytest.mark.parametrize("setting", [
        {"min_occurrences": "4"},
        {"restarts": True},
        {"seed": 4.5},
        {"resolution": "1.0"},
        {"layout_tol": False},
        {"mode": None},
        {"out_dir": None},
        {"stoplist": 7},
    ], ids=lambda setting: next(iter(setting)))
    def test_config_value_of_wrong_type_exit_code(self, setting, demo_corpus, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(setting))
        code = main(["pipeline", "--config", str(config_path), "--corpus", str(demo_corpus),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"error: {next(iter(setting))} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, flags, setting", [
        ("resolution", ["--resolution", "nan"], {}),
        ("resolution", ["--resolution", "inf"], {}),
        ("resolution", [], {"resolution": 10 ** 400}),
        ("seed", ["--seed", "-1"], {}),
        ("svg_node_scale", [], {"svg_node_scale": -5}),
        ("svg_node_scale", [], {"svg_node_scale": math.inf}),
        ("layout_tol", [], {"layout_tol": math.nan}),
        ("layout_tol", [], {"layout_tol": -1e-8}),
        ("layout_max_iter", [], {"layout_max_iter": 0}),
        ("relevance_fraction", [], {"relevance_fraction": math.nan}),
    ], ids=["resolution-nan", "resolution-inf", "resolution-int-too-large", "seed-negative", "svg_node_scale-negative", "svg_node_scale-inf",
            "layout_tol-nan", "layout_tol-negative", "layout_max_iter-zero", "relevance_fraction-nan"])
    def test_config_value_out_of_range_exit_code(self, name, flags, setting, demo_corpus, tmp_path, capsys):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(setting))  # json writes NaN and Infinity, and reads them back
        code = main(["pipeline", "--config", str(config_path), "--corpus", str(demo_corpus),
                     "--out", str(tmp_path / "out"), *flags])
        assert code == 2
        assert f"error: {name} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_range_boundaries_accepted(self):
        PipelineConfig(seed=0, svg_node_scale=0.0, layout_tol=0.0, layout_max_iter=1).validate()

    def test_config_takes_int_for_float_and_null_for_optional_paths(self):
        config = PipelineConfig.from_mapping({"resolution": 2, "stoplist": None, "corpus": None})
        assert config.resolution == 2 and config.stoplist is None

    def test_unknown_config_key_rejected(self, tmp_path):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps({"corpus": "x.jsonl", "volume": 11}))
        assert main(["pipeline", "--config", str(config_path), "--out", str(tmp_path / "o")]) == 2


class TestImportHygiene:
    def test_layout_submodule_is_not_hidden_by_a_function(self):
        import citemap.layout as imported

        assert isinstance(imported, ModuleType)
        assert imported.MAX_LAYOUT_TERMS == 5000
        assert citemap.layout is imported

    @staticmethod
    def run_fresh(probe: str) -> subprocess.CompletedProcess:
        # a fresh interpreter per import, so that nothing this test process has loaded counts
        src = str(Path(citemap.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)

    def test_cli_import_loads_no_http_stack(self):
        for module in ("citemap.cli", "citemap"):
            probe = (f"import json, sys, {module}; "
                     "print(json.dumps([m for m in ('requests', 'urllib.request', 'http.client', 'xml.sax') "
                     "if m in sys.modules]))")
            result = self.run_fresh(probe)
            assert result.returncode == 0, (module, result.stderr)
            assert json.loads(result.stdout) == [], module

    def test_cli_import_loads_only_the_standard_library_and_citemap(self):
        # site's start-up (.pth files) may load third-party modules of its own; only what the import adds counts
        probe = ("import json, sys; before = set(sys.modules); import citemap.cli; "
                 "print(json.dumps(sorted({m.partition('.')[0] for m in set(sys.modules) - before} "
                 "- set(sys.stdlib_module_names) - {'citemap'})))")
        result = self.run_fresh(probe)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout) == []

    @pytest.mark.parametrize("command, lays_out", [
        ("ingest", False), ("extract", False), ("build", False), ("cluster", False),
        ("layout", True), ("pipeline", True),
    ])
    def test_only_commands_that_lay_out_load_numpy(self, command, lays_out, demo_corpus, tmp_path):
        probe = ("import json, sys; from citemap.cli import main; "
                 f"code = main([{command!r}, '--corpus', {str(demo_corpus)!r}, '--out', {str(tmp_path)!r}]); "
                 "print(json.dumps([code, 'numpy' in sys.modules]))")
        result = self.run_fresh(probe)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [0, lays_out]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_compare_imports_numpy_before_it_forks(self, cpus, planted_corpus, tmp_path):
        # forked workers share the parent's import; on one CPU the first layout imports numpy
        probe = ("import json, sys; import citemap.fork as fork; from citemap.cli import main; "
                 f"fork.cpus = lambda: {cpus}; loaded = []; forked = fork.forked; "
                 "fork.forked = lambda *args: loaded.append('numpy' in sys.modules) or forked(*args); "
                 f"code = main(['compare', '--corpus', {str(planted_corpus)!r}, '--out', {str(tmp_path)!r}]); "
                 "print(json.dumps([code, loaded[0]]))")
        result = self.run_fresh(probe)
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout.splitlines()[-1]) == [0, cpus > 1]
        golden = Path(__file__).parent / "golden" / "planted" / "comparison.json"
        assert (tmp_path / "comparison.json").read_bytes() == golden.read_bytes()

    def test_every_module_imports_with_the_http_client_blocked(self):
        # a module that imports the blocked HTTP client fails to import
        modules = [f"citemap.{info.name}" for info in pkgutil.iter_modules(citemap.__path__)]
        assert {"citemap.cli", "citemap.corpus", "citemap.pipeline"} <= set(modules)
        for module in modules:
            result = self.run_fresh(f"import sys; sys.modules['requests'] = None; import {module}")
            assert result.returncode == 0, (module, result.stderr)

    def test_every_exported_name_resolves(self):
        for name in citemap.__all__:
            assert hasattr(citemap, name), name
        assert {"Run", "load_corpus", "StageError", "layout"} <= set(citemap.__all__)
        with pytest.raises(AttributeError):
            citemap.no_such_name
