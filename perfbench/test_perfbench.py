"""Self-tests of the benchmark: generator, output checks and call-site tracer."""

from __future__ import annotations

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import calltrace
import checks
import corpora
import run

SRC = Path(__file__).resolve().parents[1] / "src"
MAP_ARGS = ["pipeline", "--set", "both", "--min-occurrences", "8"]
COMPARE_ARGS = ["compare", "--min-occurrences", "4"]


def small_inputs(tmp: Path) -> dict[str, Path]:
    paths = {
        "pareto": corpora.write_jsonl(tmp / "pareto.jsonl", corpora.pareto_topic(5, 300)),
        "planted": corpora.write_jsonl(tmp / "planted.jsonl", corpora.planted(5, n_cited=80, n_citing=120)),
        "config": tmp / "config.json",
    }
    paths["config"].write_text(json.dumps({"layout_max_iter": 100}), encoding="utf-8")
    return paths


def cli_args(args: list[str], inputs: dict[str, Path], corpus: str, out: Path) -> list[str]:
    return [*args, "--config", str(inputs["config"]), "--corpus", str(inputs[corpus]), "--out", str(out)]


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, Path]:
    from citemap.cli import main

    tmp = tmp_path_factory.mktemp("perfbench")
    inputs = small_inputs(tmp)
    assert main(cli_args(MAP_ARGS, inputs, "pareto", tmp / "map")) == 0
    assert main(cli_args(COMPARE_ARGS, inputs, "planted", tmp / "compare")) == 0
    return {"map": tmp / "map", "compare": tmp / "compare", **inputs}


@pytest.mark.parametrize("family", ["pareto", "planted"])
def test_generator_is_deterministic(tmp_path, family):
    make = {"pareto": lambda seed: corpora.pareto_topic(seed, 60),
            "planted": lambda seed: corpora.planted(seed, n_cited=20, n_citing=30)}[family]
    first = corpora.write_jsonl(tmp_path / "a.jsonl", make(3)).read_bytes()
    second = corpora.write_jsonl(tmp_path / "b.jsonl", make(3)).read_bytes()
    other = corpora.write_jsonl(tmp_path / "c.jsonl", make(4)).read_bytes()
    assert first == second
    assert first != other


def test_checks_accept_real_outputs(outputs):
    figures = checks.check_map(outputs["map"])
    assert figures["layout_objective"] > 0 and 0 < figures["cluster_quality"] <= 1
    checks.check_compare(outputs["compare"])


def corrupted(outputs: dict[str, Path], kind: str, tmp_path: Path) -> Path:
    copy = tmp_path / kind
    shutil.copytree(outputs[kind], copy)
    return copy


def test_moved_node_fails_the_residual_check(outputs, tmp_path):
    out = corrupted(outputs, "map", tmp_path)
    graph = json.loads((out / "graph.json").read_text(encoding="utf-8"))
    graph["nodes"][0]["x"] += 0.01
    (out / "graph.json").write_text(json.dumps(graph), encoding="utf-8")
    with pytest.raises(checks.CheckError, match="centred|mean pairwise distance"):
        checks.check_map(out)


def test_moved_node_in_map_tsv_fails(outputs, tmp_path):
    out = corrupted(outputs, "map", tmp_path)
    lines = (out / "map.tsv").read_text(encoding="utf-8").splitlines()
    fields = lines[1].split("\t")
    fields[2] = f"{float(fields[2]) + 0.01:.4f}"
    lines[1] = "\t".join(fields)
    (out / "map.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(checks.CheckError, match="rounded"):
        checks.check_map(out)


def test_wrong_manifest_quality_fails(outputs, tmp_path):
    out = corrupted(outputs, "map", tmp_path)
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    manifest["summary"]["clustering_quality"] *= 1.001
    (out / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(checks.CheckError, match="clustering quality"):
        checks.check_map(out)


def test_flipped_ordering_fails(outputs, tmp_path):
    out = corrupted(outputs, "compare", tmp_path)
    report = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    matrix = report["cosine"]
    matrix["cited"]["context"], matrix["citing"]["context"] = matrix["citing"]["context"], matrix["cited"]["context"]
    (out / "comparison.json").write_text(json.dumps(report), encoding="utf-8")
    with pytest.raises(checks.CheckError, match="cosine"):
        checks.check_compare(out)


def test_changed_artifact_fails_reproducibility(outputs, tmp_path):
    out = corrupted(outputs, "map", tmp_path)
    reference = checks.digests(outputs["map"], checks.MAP_ARTIFACTS)
    checks.same_outputs(reference, checks.digests(out, checks.MAP_ARTIFACTS))
    with (out / "map.svg").open("a", encoding="utf-8") as svg:
        svg.write("<!-- -->\n")
    with pytest.raises(checks.CheckError, match="map.svg"):
        checks.same_outputs(reference, checks.digests(out, checks.MAP_ARTIFACTS))


def namespaces() -> dict[str, dict[str, int]]:
    return {module.__name__: {name: id(value) for name, value in vars(module).items()}
            for module in calltrace.citemap_modules()}


def test_tracer_restores_every_wrapped_function(outputs, tmp_path):
    from citemap.cli import main

    importlib.import_module("citemap.cli")
    before = namespaces()
    pipeline = sys.modules["citemap.pipeline"]
    original = pipeline.analyze
    tracer = calltrace.Tracer("restore-test")
    tracer.install()
    try:
        assert pipeline.analyze is not original
        assert sys.modules["citemap"].analyze is pipeline.analyze  # re-exports are wrapped too
        assert main(cli_args(MAP_ARGS, outputs, "pareto", tmp_path / "out")) == 0
    finally:
        tracer.restore()
    after = namespaces()
    assert {module: {name: after[module][name] for name in names} for module, names in before.items()} == before
    assert {span["name"] for span in tracer.spans} >= {"pipeline.run_pipeline", "pipeline.analyze", "layout.layout"}


def test_missing_function_is_reported_as_zero_calls():
    importlib.import_module("citemap.cli")
    tracer = calltrace.Tracer()
    with pytest.warns(UserWarning) as warned:
        tracer.install({"layout": ("no_such_function",), "nosuchmodule": ("anything",)})
    tracer.restore()
    assert tracer.missing == ["layout.no_such_function", "nosuchmodule.anything"]
    assert [str(w.message) for w in warned] == [f"citemap.{name} not found; reported as 0 calls" for name in tracer.missing]
    values = run.layer_values(tracer.report(), wall=1.0)
    assert values["layout.calls"] == 0 and values["trace.coverage"] == 0


def traced_counts(args: list[str], corpus: str, inputs: dict[str, Path], tmp: Path) -> dict[str, float]:
    tmp.mkdir()
    spans = tmp / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(Path(calltrace.__file__)), "--spans", str(spans), "--",
            *cli_args(args, inputs, corpus, tmp / "out")]
    subprocess.run(argv, env=env, check=True, capture_output=True, timeout=120)
    values = run.layer_values(json.loads(spans.read_text(encoding="utf-8")), wall=1.0)
    return {name: values[name] for name in run.COUNT_METRICS if name in values}


@pytest.mark.parametrize("args, corpus", [(MAP_ARGS, "pareto"), (COMPARE_ARGS, "planted")])
def test_counts_repeat_across_traced_runs(outputs, tmp_path, args, corpus):
    first = traced_counts(args, corpus, outputs, tmp_path / "first")
    second = traced_counts(args, corpus, outputs, tmp_path / "second")
    assert first == second
    assert first["corpus.parses"] == (1 if args is MAP_ARGS else 3)
    assert first["layout.iterations"] > 0 and first["network.edges"] > 0
    assert first["pipeline.maps_used_ratio"] == (1.0 if args is MAP_ARGS else 0.0)
