"""The results.md generator and its staleness comparator."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.campaign import (
    GENERATED_MARKER,
    CampaignRunner,
    ResultStore,
    is_stale,
    load_campaign,
    normalize,
    render_results_markdown,
    write_report,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def smoke_store(tmp_path_factory):
    """The committed smoke campaign, run fresh into a temp store."""
    spec = load_campaign(REPO_ROOT / "campaigns" / "smoke.json")
    store = ResultStore(tmp_path_factory.mktemp("smoke"))
    CampaignRunner(spec, store).run()
    return store


def test_report_renders_one_row_per_cell(smoke_store):
    text = render_results_markdown(smoke_store)
    assert text.splitlines()[2] == GENERATED_MARKER
    # 3 experiments × 2 engines = 6 cells.
    assert text.count("| tiny | reference |") + text.count("| tiny | bitset |") == 6
    for token in ("reference", "bitset", "## Verdicts by cell", "## Not yet measured"):
        assert token in text
    # Unmeasured registered experiments are named.
    assert "`E8`" in text and "`A2`" in text


def test_report_does_not_depend_on_the_working_directory(
    smoke_store, tmp_path, monkeypatch
):
    """A stray timing artifact in the cwd cannot leak into the report."""
    plain = tmp_path / "plain"
    plain.mkdir()
    checkout = tmp_path / "checkout"
    (checkout / "benchmarks" / "results").mkdir(parents=True)
    (checkout / "benchmarks" / "results" / "BENCH_x.json").write_text(
        '{"experiment": "E1a", "scale": "small", "engine": "bank", '
        '"seconds": {"median": 1.0}}',
        encoding="utf-8",
    )
    rendered = []
    for cwd in (plain, checkout):
        monkeypatch.chdir(cwd)
        rendered.append(render_results_markdown(ResultStore(smoke_store.root)))
    assert rendered[0] == rendered[1]


def test_empty_store_still_renders(tmp_path):
    store = ResultStore(tmp_path)
    text = render_results_markdown(store)
    assert "*No campaign shards recorded yet.*" in text


def test_normalize_masks_only_runtime_tokens():
    text = "| E1b | tiny | 0.03s |\nΘ(D log(n/D) + log² n) at 12s\n"
    masked = normalize(text)
    assert "0.03s" not in masked and "12s" not in masked
    assert "_s" in masked
    assert "Θ(D log(n/D) + log² n)" in masked


def test_is_stale_ignores_timings_but_not_verdicts(smoke_store):
    fresh = render_results_markdown(smoke_store)
    assert is_stale(None, fresh)
    assert not is_stale(fresh, fresh)
    import re

    retimed = re.sub(r"\b\d+\.\d+s\b", "9.99s", fresh)
    assert retimed != fresh
    assert not is_stale(retimed, fresh)  # only wall-clock moved
    assert is_stale(fresh.replace("✓", "✗", 1), fresh)  # a verdict moved


def test_write_report_round_trips(tmp_path, smoke_store):
    out = tmp_path / "results.md"
    text = write_report(smoke_store, out)
    assert out.read_text(encoding="utf-8") == text


def test_committed_results_md_is_fresh(smoke_store):
    """What CI's campaign-smoke job enforces, as a local test.

    Re-running the committed smoke spec from scratch and re-rendering
    must reproduce the committed docs/results.md (runtimes aside) —
    i.e. the document really is a pure function of the store.
    """
    committed = (REPO_ROOT / "docs" / "results.md").read_text(encoding="utf-8")
    fresh = render_results_markdown(smoke_store)
    assert not is_stale(committed, fresh), (
        "docs/results.md is stale; regenerate with "
        "`repro campaign run --spec campaigns/smoke.json --store <dir> && "
        "repro campaign report --store <dir> --out docs/results.md`"
    )
