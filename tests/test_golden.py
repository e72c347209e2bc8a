"""Golden-file check: a defaults run on the bundled demo corpus reproduces
the frozen artifacts byte for byte.

The goldens under tests/golden/demo/ were produced once by a finished run
and committed. They pin the whole numeric pipeline (extraction, counting,
relevance cut, clustering, layout, formatting); regenerate them only for an
intentional behavior change, via scripts/freeze_golden.py. The manifest is
frozen without its corpus and out_dir parameters, which name where a run read
and wrote rather than what it computed. Byte equality is
expected on the pinned dependency set; a different numpy build may round
the layout differently.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from citemap.exports import write_json
from citemap.pipeline import PipelineConfig, run_pipeline

GOLDEN_DIR = Path(__file__).parent / "golden" / "demo"
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
