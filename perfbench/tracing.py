"""Traced run: ``housingrisk.cli.main`` in this process, with spans per layer.

Usage: python3 perfbench/tracing.py SPANS_JSON <housingrisk arguments...>

Run with ``src`` on the import path. Before calling ``main`` it replaces
the public names each caller module looks up (``housingrisk.cli.integrate_panel``,
``housingrisk.integration.align``, ``housingrisk.contagion.cochrane_orcutt`` ...)
with wrappers that record a span (name, start, end, parent) and the counts
derived from the result. Spans stay in memory and are written once, to
SPANS_JSON, when ``main`` returns. ``layer_metrics`` turns that file into
the per-layer metrics.

Which end-to-end metric each layer should move, and on which workload:

=============  ===========================================================
layer          moves
=============  ===========================================================
cli            setup_s everywhere; wall_s on paper_panel and ragged_panel
io             loads: setup_s everywhere; writes: wall_s on paper_panel and
               ragged_panel, about nothing on contagion_menu
core           setup_s; wall_s on paper_panel and ragged_panel
regress        prewhiten: wall_s on the panels; Cochrane-Orcutt: wall_s on
               contagion_menu
integration    wall_s on paper_panel and ragged_panel; nothing on
               contagion_menu
jumps          wall_s on the panels (small)
correlations   wall_s and peak_rss_mb on paper_panel and ragged_panel
contagion      wall_s on contagion_menu; nothing on the panels
portfolio      wall_s on the panels (small)
=============  ===========================================================
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter

LAYERS = ("io", "core", "regress", "integration", "jumps", "correlations", "contagion", "portfolio")


class Tracer:
    """Span recorder; spans are [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.sources: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str, on_result=None) -> None:
        fn = getattr(module, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            spans[index][1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][2] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        setattr(module, attr, traced)

    def count_calls(self, module, attr: str, key: str) -> None:
        fn = getattr(module, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, counted)


# Hooks run after their span has ended: (tracer, args, kwargs, result).


def _on_write(tracer, args, kwargs, result):
    path, header, rows = args
    tracer.counts["io.cells_written"] += len(header) + sum(len(row) for row in rows)
    tracer.counts["io.bytes_written"] += os.path.getsize(path)


def _on_pairs(tracer, args, kwargs, result):
    pairs, omitted = result
    tracer.counts["correlations.pairs_kept"] += len(pairs)
    tracer.counts["correlations.pairs_omitted"] += len(omitted)


def _on_fit(tracer, args, kwargs, result):
    tracer.counts["contagion.fits"] += 1
    tracer.counts["contagion.co_fits"] += result.method == "cochrane_orcutt"
    tracer.sources.add(kwargs["source_id"])


def _on_integrate(tracer, args, kwargs, result):
    tracer.counts["integration.msas_fitted"] += len(result.series)
    tracer.counts["integration.msas_skipped"] += len(result.skipped)


def _on_lm(tracer, args, kwargs, result):
    tracer.counts["jumps.testable_quarters"] += int(result.testable.sum())
    tracer.counts["jumps.big_flags"] += int(result.big_flag.sum())


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point where its caller looks it up."""
    import housingrisk.cli as cli
    import housingrisk.contagion as contagion
    import housingrisk.integration as integration
    import housingrisk.regress as regress

    def add(key, amount):
        return lambda tracer, args, kwargs, result: tracer.counts.update({key: amount(result)})

    for attr, name, hook in (
        ("load_hpi_panel", "io.load_hpi", add("io.rows_read", lambda p: int((p.values == p.values).sum()))),
        ("load_factor_table", "io.load_factors", add("io.rows_read", lambda t: t.n_quarters)),
        ("write_csv_atomic", "io.write_csv", _on_write),
        ("write_json_atomic", "io.write_json", None),
        ("compute_returns", "core.compute_returns", None),
        ("integrate_panel", "integration.integrate_panel", _on_integrate),
        ("integration_summary", "integration.summary", None),
        ("cohort_average", "integration.cohort_average", None),
        ("beta_average", "integration.beta_average", None),
        ("lm_series", "jumps.lm_series", _on_lm),
        ("jump_incidence", "jumps.incidence", None),
        ("return_pair_correlations", "correlations.return_pairs", _on_pairs),
        ("jump_pair_correlations", "correlations.jump_pairs", _on_pairs),
        ("correlation_summary", "correlations.summary", None),
        ("cohort_correlation_report", "correlations.division_report", None),
        ("contagion_fit", "contagion.fit", _on_fit),
        ("contagion_fit_interacted", "contagion.fit_interacted", _on_fit),
        ("boombust_residual", "contagion.boombust_residual", None),
        ("diversification_series", "portfolio.diversification", None),
        ("series_correlation", "portfolio.series_correlation", None),
    ):
        tracer.wrap(cli, attr, name, hook)
    for attr, name, hook in (
        ("align", "core.align", None),
        ("ar1_prewhiten", "regress.ar1_prewhiten", None),
        ("trend_fit", "regress.trend_fit", None),
        ("rolling_factor_model", "integration.rolling_factor_model",
         add("integration.windows", lambda s: s.n_windows)),
    ):
        tracer.wrap(integration, attr, name, hook)
    tracer.wrap(contagion, "cochrane_orcutt", "regress.cochrane_orcutt")
    tracer.wrap(contagion, "trend_fit", "regress.trend_fit")
    # ols_fit runs thousands of times inside other spans: count it only.
    tracer.count_calls(contagion, "ols_fit", "regress.ols_fit_calls")
    tracer.count_calls(regress, "ols_fit", "regress.ols_fit_calls")


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_share") else "count"


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(record: dict) -> dict[str, float]:
    """Per-layer metrics from one spans file written by this script."""
    spans = record["spans"]
    total, calls = Counter(), Counter()
    for name, start, end, _ in spans:
        total[name] += end - start
        calls[name] += 1
    layer_self = Counter()
    for (name, *_), own in zip(spans, self_times(spans)):
        layer_self[name.split(".")[0]] += own
    counts = Counter(record["counts"])
    fits = counts["contagion.fits"]
    pairs = counts["correlations.pairs_kept"] + counts["correlations.pairs_omitted"]
    m = {
        "cli.import_s": record["import_s"],
        "cli.self_s": record["wall_s"] - record["import_s"] - sum(layer_self.values()),
        "io.load_hpi_s": total["io.load_hpi"],
        "io.load_factors_s": total["io.load_factors"],
        "io.rows_read": counts["io.rows_read"],
        "io.write_csv_s": total["io.write_csv"],
        "io.write_csv_calls": calls["io.write_csv"],
        "io.cells_written": counts["io.cells_written"],
        "io.bytes_written": counts["io.bytes_written"],
        "core.compute_returns_s": total["core.compute_returns"],
        "core.align_s": total["core.align"],
        "core.align_calls": calls["core.align"],
        "regress.ar1_prewhiten_s": total["regress.ar1_prewhiten"],
        "regress.trend_fit_s": total["regress.trend_fit"],
        "regress.trend_fit_calls": calls["regress.trend_fit"],
        "regress.cochrane_orcutt_s": total["regress.cochrane_orcutt"],
        "regress.cochrane_orcutt_calls": calls["regress.cochrane_orcutt"],
        "regress.ols_fit_calls": counts["regress.ols_fit_calls"],
        "integration.integrate_panel_s": total["integration.integrate_panel"],
        "integration.rolling_factor_model_s": total["integration.rolling_factor_model"],
        "integration.windows": counts["integration.windows"],
        "integration.msas_fitted": counts["integration.msas_fitted"],
        "integration.msas_skipped": counts["integration.msas_skipped"],
        "integration.summary_s": total["integration.summary"],
        "integration.summary_calls": calls["integration.summary"],
        "integration.cohort_average_s": total["integration.cohort_average"],
        "jumps.lm_series_s": total["jumps.lm_series"],
        "jumps.lm_series_calls": calls["jumps.lm_series"],
        "jumps.testable_quarters": counts["jumps.testable_quarters"],
        "jumps.big_flags": counts["jumps.big_flags"],
        "jumps.incidence_s": total["jumps.incidence"],
        "correlations.return_pairs_s": total["correlations.return_pairs"],
        "correlations.return_pairs_calls": calls["correlations.return_pairs"],
        "correlations.jump_pairs_s": total["correlations.jump_pairs"],
        "correlations.jump_pairs_calls": calls["correlations.jump_pairs"],
        "correlations.pairs_kept": counts["correlations.pairs_kept"],
        "correlations.pairs_omitted": counts["correlations.pairs_omitted"],
        "correlations.kept_share": counts["correlations.pairs_kept"] / pairs if pairs else 0.0,
        "correlations.summary_s": total["correlations.summary"],
        "correlations.division_report_s": total["correlations.division_report"],
        "contagion.fit_s": total["contagion.fit"],
        "contagion.fit_interacted_s": total["contagion.fit_interacted"],
        "contagion.fits": fits,
        "contagion.co_share": counts["contagion.co_fits"] / fits if fits else 0.0,
        "contagion.boombust_residual_s": total["contagion.boombust_residual"],
        "contagion.boombust_residual_calls": calls["contagion.boombust_residual"],
        "contagion.distinct_sources": record["distinct_sources"],
        "portfolio.diversification_s": total["portfolio.diversification"],
        "portfolio.diversification_calls": calls["portfolio.diversification"],
        "portfolio.series_correlation_s": total["portfolio.series_correlation"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    spans_path, cli_args = argv[0], argv[1:]
    import housingrisk.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    status = housingrisk.cli.main(cli_args)
    wall_s = time.perf_counter() - t0
    record = {
        "import_s": import_s,
        "wall_s": wall_s,
        "spans": tracer.spans,
        "counts": dict(tracer.counts),
        "distinct_sources": len(tracer.sources),
    }
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
