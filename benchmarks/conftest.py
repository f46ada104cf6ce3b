"""Shared helpers for the benchmark harness.

Each bench regenerates one paper table/figure: it runs the experiment
driver once (via ``benchmark.pedantic``), prints the paper-style rows /
series, and writes them to ``benchmarks/results/<name>.txt`` so the
reproduction artefacts survive the run.
"""

from __future__ import annotations

import json
import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
#: The simulator's own values of the paper's headline claims.
PAPER_CLAIMS = pathlib.Path(__file__).parent.parent / "BENCH_paper.json"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def save_result(results_dir):
    """Write (and echo) a named result artefact."""

    def _save(name: str, text: str) -> None:
        path = results_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[saved to {path}]")

    return _save


def once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                              rounds=1, iterations=1)


@pytest.fixture(scope="session")
def paper_claims() -> dict:
    """The values pinned in ``BENCH_paper.json``."""
    return json.loads(PAPER_CLAIMS.read_text())
