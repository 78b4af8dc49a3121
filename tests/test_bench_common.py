"""The claim benches' shared harness (``benchmarks/_common.py``).

A bench run checks the paper's claims and nothing else: it must leave
the checkout exactly as it found it, so that running one bench cannot
change what the campaign report or the docs tests see.
"""

from __future__ import annotations

import importlib.util
import shutil
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


class _Benchmark:
    """Stand-in for pytest-benchmark's fixture: ``pedantic`` just calls."""

    @staticmethod
    def pedantic(target, rounds=1, iterations=1):
        return target()


def _files(root: Path) -> set[Path]:
    return {path for path in root.rglob("*") if path.is_file()}


def test_run_experiment_creates_no_files(tmp_path, monkeypatch):
    # A private copy of the harness, so any file it writes beside
    # itself lands in tmp_path rather than in the checkout.
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(REPO_ROOT / "benchmarks" / "_common.py", tmp_path / "benchmarks")
    monkeypatch.setenv("REPRO_BENCH_SCALE", "tiny")
    monkeypatch.chdir(tmp_path)
    spec = importlib.util.spec_from_file_location(
        "_bench_common", tmp_path / "benchmarks" / "_common.py"
    )
    common = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(common)
    before = _files(tmp_path)

    result = common.run_experiment(_Benchmark(), "E2a")

    common.assert_success(result)
    assert _files(tmp_path) == before
