"""Golden-file check: defaults runs on the bundled corpora reproduce the
frozen artifacts byte for byte.

tests/golden/demo/ holds a pipeline run on the demo corpus, and
tests/golden/planted/comparison.json a compare run on the planted corpus.
Both were produced once by finished runs and committed. They pin the whole
numeric pipeline (extraction, counting, relevance cut, clustering, layout,
formatting) and the three-network comparison; regenerate them only for an
intentional behavior change, via scripts/freeze_golden.py. The manifest is
frozen without its corpus and out_dir parameters, which name where a run read
and wrote rather than what it computed. Byte equality is expected on the
pinned dependency set; a different numpy build may round the layout
differently.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from citemap.exports import write_json
from citemap.pipeline import PipelineConfig, compare_networks, run_pipeline

GOLDEN_DIR = Path(__file__).parent / "golden" / "demo"
COMPARISON_GOLDEN = Path(__file__).parent / "golden" / "planted" / "comparison.json"
GOLDEN_NAMES = sorted(p.name for p in GOLDEN_DIR.iterdir())


@pytest.fixture(scope="module")
def fresh_run(demo_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("golden_run")
    paths = run_pipeline(PipelineConfig(corpus=str(demo_corpus), out_dir=str(out)))
    manifest = json.loads(paths["manifest.json"].read_text(encoding="utf-8"))
    for field in ("corpus", "out_dir"):
        del manifest["parameters"][field]
    write_json(paths["manifest.json"], manifest)
    return paths


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_artifact_matches_golden(fresh_run, name):
    assert fresh_run[name].read_bytes() == (GOLDEN_DIR / name).read_bytes()


def test_every_pipeline_artifact_is_covered(fresh_run):
    assert set(GOLDEN_NAMES) == set(fresh_run)


def test_comparison_matches_golden(planted_corpus, tmp_path):
    report = compare_networks(PipelineConfig(corpus=str(planted_corpus)))
    path = write_json(tmp_path / "comparison.json", asdict(report))
    assert path.read_bytes() == COMPARISON_GOLDEN.read_bytes()
