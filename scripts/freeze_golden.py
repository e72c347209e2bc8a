#!/usr/bin/env python3
"""Regenerate the goldens: tests/golden/demo/ from a defaults pipeline run on
the bundled demo corpus, and tests/golden/planted/comparison.json from a
defaults compare run on the bundled planted corpus.

Run this only after an intentional behavior change, then review the diff.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from citemap.exports import write_json
from citemap.pipeline import PipelineConfig, builtin_corpus_path, compare_networks, run_pipeline

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "tests" / "golden" / "demo"
COMPARISON_GOLDEN = GOLDEN_DIR.parent / "planted" / "comparison.json"
# manifest parameters that name where this run read and wrote, not what it computed
MANIFEST_PATH_FIELDS = ("corpus", "out_dir")

if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        paths = run_pipeline(PipelineConfig(corpus=str(builtin_corpus_path("demo")), out_dir=scratch))
        for name, path in sorted(paths.items()):
            if name == "manifest.json":
                manifest = json.loads(path.read_text(encoding="utf-8"))
                for field in MANIFEST_PATH_FIELDS:
                    del manifest["parameters"][field]
                write_json(GOLDEN_DIR / name, manifest)
            else:
                shutil.copyfile(path, GOLDEN_DIR / name)
            print(f"froze {GOLDEN_DIR / name}")
    COMPARISON_GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    write_json(COMPARISON_GOLDEN, asdict(compare_networks(PipelineConfig(corpus=str(builtin_corpus_path("planted"))))))
    print(f"froze {COMPARISON_GOLDEN}")
