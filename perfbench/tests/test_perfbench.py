"""Tests of the benchmark's own code: generator, output check and tracing.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

# A small panel with every CA metro, so the default contagion menu resolves.
TINY = gen.Shape(n_msas=40, n_quarters=60, entry_span=1, menu=None, menu_plants=0, jump_msas=6)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(gen.SHAPES, "tiny", TINY)
    monkeypatch.setitem(gen.WORKLOAD_IDS, "tiny", 99)
    monkeypatch.setitem(gen.START_YEAR, 60, 1990)
    return "tiny"


@pytest.fixture(scope="module")
def traced_all(tmp_path_factory):
    """One traced `housingrisk all` on the tiny panel: (input dir, spans record)."""
    mp = pytest.MonkeyPatch()
    mp.setitem(gen.SHAPES, "tiny", TINY)
    mp.setitem(gen.WORKLOAD_IDS, "tiny", 99)
    mp.setitem(gen.START_YEAR, 60, 1990)
    try:
        d = tmp_path_factory.mktemp("tiny")
        gen.write_inputs("tiny", 5, d)
    finally:
        mp.undo()
    spans = d / "spans.json"
    argv = [sys.executable, str(HERE / "tracing.py"), str(spans), "all", "--config", "config.json", "--out", "out"]
    proc = subprocess.run(argv, cwd=d, env=run.child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return d, json.loads(spans.read_text(encoding="utf-8"))


def test_generator_is_deterministic(tmp_path):
    a = gen.write_inputs("contagion_menu", 7, tmp_path / "a")
    b = gen.write_inputs("contagion_menu", 7, tmp_path / "b")
    c = gen.write_inputs("contagion_menu", 8, tmp_path / "c")
    assert a == b
    for name in ("hpi.csv", "factors.csv", "config.json", "truth.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert a["hpi.csv"] != c["hpi.csv"]


def test_generator_shapes():
    g = gen.generate("ragged_panel", 3)
    levels = g["levels"]
    assert levels.shape == (180, 96)
    entries = (~(levels == levels)).sum(axis=0)  # leading NaN rows per MSA
    assert entries.max() < 100 and len(set(entries.tolist())) > 40
    names = [name for name, _ in gen.metro_names(384)]
    assert len(set(names)) == 384
    for fragment in gen.CA_FRAGMENTS:
        assert sum(fragment.lower() in n.lower() for n in names) == 1, fragment
    menu = gen.generate("contagion_menu", 3)["menu"]
    assert len(menu) == 32 and all(len(t) == 40 for t in menu.values())


def test_check_passes_real_output_and_rejects_damage(traced_all):
    d, _ = traced_all
    out = d / "out"
    truth = json.loads((d / "truth.json").read_text(encoding="utf-8"))
    digest = check.check_output(out, truth, run.PANEL_ARTIFACTS)
    assert len(digest) == 64

    damaged = out / "integration_series.csv"
    original = damaged.read_bytes()
    damaged.write_bytes(original[:-20] + b"9" * 20)
    with pytest.raises(check.CheckError, match="digest"):
        check.check_output(out, truth, run.PANEL_ARTIFACTS)
    damaged.unlink()
    with pytest.raises(check.CheckError, match="missing"):
        check.check_output(out, truth, run.PANEL_ARTIFACTS)
    damaged.write_bytes(original)
    assert check.check_output(out, truth, run.PANEL_ARTIFACTS) == digest

    with pytest.raises(check.CheckError, match="lists no"):
        check.check_output(out, truth, run.PANEL_ARTIFACTS + ("absent.csv",))
    with pytest.raises(check.CheckError, match="pair counts"):
        check.check_pairs(out, dict(truth, n_msas=truth["n_msas"] + 1))
    moved = dict(truth, jumps=[{"msa_id": truth["jumps"][0]["msa_id"], "quarter": "1991:Q1"}])
    with pytest.raises(check.CheckError, match="not big-flagged"):
        check.check_jumps(out, moved)
    off = dict(truth, contagion=[dict(p, weights=[5.0, 5.0, 5.0, 5.0]) for p in truth["contagion"]])
    with pytest.raises(check.CheckError, match="contagion lags"):
        check.check_contagion(out, off)
    (out / "run_manifest.json").unlink()
    with pytest.raises(check.CheckError, match="run_manifest.json"):
        check.check_output(out, truth, run.PANEL_ARTIFACTS)


def test_spans_nest_and_self_times_add_up(traced_all):
    _, record = traced_all
    spans = record["spans"]
    assert spans
    for index, (name, start, end, parent) in enumerate(spans):
        assert name.split(".")[0] in tracing.LAYERS
        assert start <= end
        if parent >= 0:
            assert parent < index
            _, p_start, p_end, _ = spans[parent]
            assert p_start <= start and end <= p_end
    own = tracing.self_times(spans)
    assert min(own) >= 0.0
    top_level = sum(end - start for _, start, end, parent in spans if parent < 0)
    assert sum(own) == pytest.approx(top_level, abs=1e-9)

    m = tracing.layer_metrics(record)
    layer_self = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert m["cli.self_s"] >= 0.0
    assert layer_self + m["cli.self_s"] + m["cli.import_s"] == pytest.approx(record["wall_s"], abs=1e-9)


def test_layer_counts(traced_all):
    d, record = traced_all
    m = tracing.layer_metrics(record)
    n = TINY.n_msas
    # report recomputes the pair sets that correlate built.
    assert m["correlations.return_pairs_calls"] == 4
    assert m["correlations.jump_pairs_calls"] == 4
    assert m["integration.summary_calls"] == 2
    assert m["integration.msas_fitted"] == n
    assert m["core.align_calls"] == n
    assert m["jumps.lm_series_calls"] == n
    assert m["io.rows_read"] == n * TINY.n_quarters + TINY.n_quarters
    assert m["contagion.boombust_residual_calls"] == 20  # default menu pairs
    assert m["contagion.distinct_sources"] == 3
    assert 0.0 < m["correlations.kept_share"] <= 1.0
    assert set(m) == {entry["name"] for entry in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]} - {
        "trace.wall_s", "trace.overhead_s"}


def test_missing_sources_fail_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "paper_panel", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
