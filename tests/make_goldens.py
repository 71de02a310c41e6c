"""Regenerate the committed golden files.

Run from the repository root after an intentional behavior change:

    python tests/make_goldens.py

golden_transcripts.txt is written from ``pickletools.genops`` (the reference
disassembler), so it stays an independent oracle for the transcript test.
golden_report.json pins the full corpus scan as a regression baseline.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

sys.path.insert(0, os.path.dirname(__file__))
# The checkout's own package first, so that no install is needed.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from conftest import reference_transcript, transcript_stream_set  # noqa: E402

from modelsentry.forge import emit_corpus  # noqa: E402
from modelsentry.policy import default_policy  # noqa: E402
from modelsentry.report import render  # noqa: E402
from modelsentry.scanner import scan_paths  # noqa: E402

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def write_transcripts() -> None:
    lines = []
    for name, stream in transcript_stream_set():
        lines.append(f"== {name}")
        lines.extend(reference_transcript(stream))
    path = os.path.join(DATA_DIR, "golden_transcripts.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {path} ({len(lines)} lines)")


def write_report() -> None:
    policy = default_policy()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            emit_corpus("corpus", seed=0)
            report = scan_paths(["corpus"], policy)
            payload = json.loads(render(report, "json"))
        finally:
            os.chdir(cwd)
    path = os.path.join(DATA_DIR, "golden_report.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {path} ({len(payload['files'])} files)")


if __name__ == "__main__":
    os.makedirs(DATA_DIR, exist_ok=True)
    write_transcripts()
    write_report()
