"""Command-line driver: ingestion -> analysis -> CSV/JSON artifacts.

Commands: ingest, integrate, jumps, correlate, contagion, portfolio, synth,
report, all. Settings merge in precedence order defaults < config file <
environment (HOUSINGRISK_*) < flags. Every command validates its inputs
before writing anything, writes each artifact atomically, and finishes
with a run_manifest.json recording the resolved-config hash and the
SHA-256 of every input and output — no timestamps, so identical runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import numbers
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .contagion import (
    PRIMARY_CITY_MENU,
    SERIAL_POLICIES,
    boombust_residual,
    contagion_fit,
    contagion_fit_interacted,
)
from .core import (
    QuarterIndex,
    ReturnPanel,
    compute_returns,
    default_factor_transforms,
    parse_quarter,
)
from .correlations import (
    cohort_correlation_report,
    correlation_summary,
    jump_pair_correlations,
    return_pair_correlations,
)
from .errors import ConfigError, HousingRiskError, InsufficientHistoryError
from .integration import (
    CHARACTERISTICS,
    beta_average,
    cohort_average,
    integrate_panel,
    integration_summary,
)
from .io import (
    load_factor_table,
    load_hpi_panel,
    load_transform_config,
    write_csv_atomic,
    write_factor_csv,
    write_hpi_csv,
    write_json_atomic,
)
from .jumps import MIN_BIPOWER_WINDOW, jump_incidence, lm_series
from .portfolio import diversification_series, portfolio_returns, series_correlation
from .synth import generate_panel, ground_truth_report, scenario_from_json

__all__ = ["RunConfig", "run", "main", "COMMANDS", "ENV_PREFIX"]

COMMANDS = (
    "ingest",
    "integrate",
    "jumps",
    "correlate",
    "contagion",
    "portfolio",
    "synth",
    "report",
    "all",
)

ENV_PREFIX = "HOUSINGRISK_"

INTERACTION_SOURCES = ("coastal", "ca-equal-weighted")

DEFAULT_TIME_COHORTS = {
    "cohort1": "1983:Q4",
    "cohort2": "1989:Q2",
    "cohort3": "1992:Q1",
}

DEFAULT_CA_COASTAL = (
    "Los Angeles",
    "Oakland",
    "Oxnard",
    "San Diego",
    "San Francisco",
    "San Jose",
    "San Luis Obispo",
    "Santa Ana",
    "Santa Barbara",
    "Santa Cruz",
)

DEFAULT_PORTFOLIOS = {
    "us": {"available_from": "1983:Q4"},
    "ca": {"state": "CA", "available_from": "1994:Q4"},
}

DEFAULT_SUB_RANGES = {"2000s": ("2000:Q1", "2009:Q4")}


@dataclass
class RunConfig:
    """Resolved settings for one run; see the README for the file format."""

    hpi: str | None = None
    factors: str | None = None
    transforms: object = None  # path, inline mapping, or None for defaults
    out: str = "out"
    window: int = 20
    bipower_window: int = 20
    prewhiten: bool = True
    serial: str = "auto"
    interaction_residual: str = "coastal"
    seed: int | None = None
    income_as_level: bool = False
    jump_threshold: float = 1.65
    big_threshold: float = 2.0
    pair_sig_t: float = 5.0
    min_overlap: int = 8
    jump_pair_floor: int = 4
    time_cohorts: dict = field(default_factory=lambda: dict(DEFAULT_TIME_COHORTS))
    ca_coastal: tuple = DEFAULT_CA_COASTAL
    contagion_menu: dict | None = None
    portfolios: dict = field(default_factory=lambda: json.loads(json.dumps(DEFAULT_PORTFOLIOS)))
    sub_ranges: dict = field(default_factory=lambda: {k: tuple(v) for k, v in DEFAULT_SUB_RANGES.items()})
    synth_scenario: str | None = None

    def validate(self) -> None:
        problems = []
        for label, path in (
            ("inputs.hpi", self.hpi),
            ("inputs.factors", self.factors),
            ("synth_scenario", self.synth_scenario),
        ):
            if path is not None and not Path(path).is_file():
                problems.append(f"{label}: no such file: {path}")
        if isinstance(self.transforms, str) and not Path(self.transforms).is_file():
            problems.append(f"inputs.transforms: no such file: {self.transforms}")
        for label, value in (
            ("thresholds.jump", self.jump_threshold),
            ("thresholds.big", self.big_threshold),
            ("thresholds.pair_sig_t", self.pair_sig_t),
        ):
            if not _is_number(value, numbers.Real) or not value > 0:
                problems.append(f"{label} must be a positive number, got {value!r}")
        for label, value, least in (
            ("window", self.window, 3),
            ("bipower_window", self.bipower_window, MIN_BIPOWER_WINDOW),
            ("pairs.min_overlap", self.min_overlap, None),
            ("pairs.jump_floor", self.jump_pair_floor, None),
            ("seed", 0 if self.seed is None else self.seed, None),
        ):
            if not _is_number(value, numbers.Integral):
                problems.append(f"{label} must be an integer, got {value!r}")
            elif least is not None and value < least:
                problems.append(f"{label} must be at least {least}, got {value}")
        if self.serial not in SERIAL_POLICIES:
            problems.append(f"serial must be one of {SERIAL_POLICIES}, got {self.serial!r}")
        if self.interaction_residual not in INTERACTION_SOURCES:
            problems.append(
                f"interaction_residual must be one of {INTERACTION_SOURCES}, "
                f"got {self.interaction_residual!r}"
            )
        if problems:
            raise ConfigError("; ".join(problems))

    def resolved_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["version"] = __version__
        return d


def _is_number(value, kind) -> bool:
    """True for a number of ``kind``; a bool is not a number here."""
    return isinstance(value, kind) and not isinstance(value, bool)


# (section or None for the top level, key, RunConfig field, conversion):
# every key a config file may hold, used both to read it and to reject
# keys it does not know.
_CONFIG_KEYS = (
    ("inputs", "hpi", "hpi", None),
    ("inputs", "factors", "factors", None),
    ("inputs", "transforms", "transforms", None),
    *(
        (None, key, key, None)
        for key in (
            "out",
            "window",
            "bipower_window",
            "prewhiten",
            "serial",
            "interaction_residual",
            "seed",
            "income_as_level",
            "synth_scenario",
        )
    ),
    ("thresholds", "jump", "jump_threshold", None),
    ("thresholds", "big", "big_threshold", None),
    ("thresholds", "pair_sig_t", "pair_sig_t", None),
    ("pairs", "min_overlap", "min_overlap", None),
    ("pairs", "jump_floor", "jump_pair_floor", None),
    ("cohorts", "time", "time_cohorts", dict),
    ("cohorts", "ca_coastal", "ca_coastal", tuple),
    (None, "contagion", "contagion_menu", lambda m: {k: list(v) for k, v in m.items()}),
    (None, "portfolios", "portfolios", lambda m: {k: dict(v) for k, v in m.items()}),
    (None, "sub_ranges", "sub_ranges", lambda m: {k: tuple(v) for k, v in m.items()}),
)


def _apply_config_file(cfg: RunConfig, path: str) -> None:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    known = {(section, key) for section, key, _, _ in _CONFIG_KEYS}
    sections = {section for section, _ in known if section}
    unknown = []
    for key, value in obj.items():
        if key not in sections:
            if (None, key) not in known:
                unknown.append(key)
        elif isinstance(value, dict):
            unknown += [f"{key}.{sub}" for sub in value if (key, sub) not in known]
        else:
            raise ConfigError(f"config file {path}: {key} must be a JSON object")
    if unknown:
        raise ConfigError(f"config file {path}: unknown key {', '.join(map(repr, unknown))}")
    for section, key, attr, convert in _CONFIG_KEYS:
        values = obj.get(section, {}) if section else obj
        if key in values:
            setattr(cfg, attr, convert(values[key]) if convert else values[key])


def _apply_env(cfg: RunConfig, env) -> None:
    def get(name):
        return env.get(ENV_PREFIX + name)

    def get_int(name):
        try:
            return int(get(name))
        except ValueError:
            raise ConfigError(
                f"{ENV_PREFIX}{name} must be an integer, got {get(name)!r}"
            ) from None

    if get("OUT"):
        cfg.out = get("OUT")
    if get("WINDOW"):
        cfg.window = get_int("WINDOW")
    if get("BIPOWER_WINDOW"):
        cfg.bipower_window = get_int("BIPOWER_WINDOW")
    if get("NO_PREWHITEN"):
        cfg.prewhiten = get("NO_PREWHITEN") in ("0", "false", "no")
    if get("SERIAL"):
        cfg.serial = get("SERIAL")
    if get("INTERACTION_RESIDUAL"):
        cfg.interaction_residual = get("INTERACTION_RESIDUAL")
    if get("SEED"):
        cfg.seed = get_int("SEED")


def build_config(args, env=None) -> RunConfig:
    """Merge defaults < config file < environment < flags."""
    env = os.environ if env is None else env
    cfg = RunConfig()
    config_path = args.config or env.get(ENV_PREFIX + "CONFIG")
    if config_path:
        _apply_config_file(cfg, config_path)
    _apply_env(cfg, env)
    if args.out is not None:
        cfg.out = args.out
    if args.window is not None:
        cfg.window = args.window
    if args.bipower_window is not None:
        cfg.bipower_window = args.bipower_window
    if args.no_prewhiten:
        cfg.prewhiten = False
    if args.serial is not None:
        cfg.serial = args.serial
    if args.interaction_residual is not None:
        cfg.interaction_residual = args.interaction_residual
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _memoised(fn):
    """Compute ``fn(runner, *args)`` once per argument tuple and keep it on the runner."""

    @functools.wraps(fn)
    def once(r, *args):
        key = (fn.__qualname__, *args)
        if key not in r.results:
            r.results[key] = fn(r, *args)
        return r.results[key]

    return once


class _Runner:
    """Holds loaded inputs, the results computed from them and the output bookkeeping.

    Every analysis result is ``_memoised``: the first artifact that needs it
    computes it, and every other artifact is a view of the same result.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self.out = Path(cfg.out)
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.results: dict[tuple, object] = {}
        self.panel = None
        self.factors = None
        self.returns: ReturnPanel | None = None
        self.ground_truth: dict | None = None  # set only by this run's synth step

    # -- input plumbing ---------------------------------------------------

    def _materialize_synth(self) -> None:
        """Emit synthetic artifacts and point the inputs at them."""
        cfg = self.cfg
        scenario = json.loads(Path(cfg.synth_scenario).read_text(encoding="utf-8"))
        self.inputs[cfg.synth_scenario] = _sha256(Path(cfg.synth_scenario))
        sc = scenario_from_json(scenario)
        if cfg.seed is not None:
            sc = dataclasses.replace(sc, seed=cfg.seed)
        panel, table, truth = generate_panel(sc)
        self.out.mkdir(parents=True, exist_ok=True)
        write_hpi_csv(self.out / "hpi_synth.csv", panel)
        # Raw factor levels exp(f) under an all-log_level transform map load
        # back to exactly the generated factors.
        write_factor_csv(
            self.out / "factors_synth.csv",
            table.factor_ids,
            table.start,
            np.exp(table.values),
        )
        write_json_atomic(
            self.out / "transforms_synth.json",
            {f: "log_level" for f in table.factor_ids},
        )
        self.ground_truth = ground_truth_report(truth)
        write_json_atomic(self.out / "ground_truth.json", self.ground_truth)
        self.outputs += [
            "hpi_synth.csv",
            "factors_synth.csv",
            "transforms_synth.json",
            "ground_truth.json",
        ]
        cfg.hpi = str(self.out / "hpi_synth.csv")
        cfg.factors = str(self.out / "factors_synth.csv")
        cfg.transforms = str(self.out / "transforms_synth.json")

    def load(self) -> None:
        cfg = self.cfg
        if cfg.hpi is None:
            if cfg.synth_scenario is None:
                raise ConfigError(
                    "no inputs: set inputs.hpi/inputs.factors or synth_scenario"
                )
            self._materialize_synth()
        if cfg.factors is None:
            raise ConfigError("inputs.factors is required alongside inputs.hpi")
        hpi_path, fac_path = Path(cfg.hpi), Path(cfg.factors)
        self.panel = load_hpi_panel(hpi_path)
        self.inputs[str(hpi_path)] = _sha256(hpi_path)
        if isinstance(cfg.transforms, dict):
            transforms = dict(cfg.transforms)
        elif isinstance(cfg.transforms, str):
            transforms = load_transform_config(Path(cfg.transforms))
            self.inputs[cfg.transforms] = _sha256(Path(cfg.transforms))
        else:
            transforms = default_factor_transforms(cfg.income_as_level)
        self.factors = load_factor_table(fac_path, transforms)
        self.inputs[str(fac_path)] = _sha256(fac_path)
        self.returns = compute_returns(self.panel)

    # -- results ----------------------------------------------------------

    @_memoised
    def integration(self):
        result = integrate_panel(
            self.returns, self.factors, self.cfg.window, self.cfg.prewhiten
        )
        if not result.series:
            msa_id, reason = result.skipped[0]
            raise HousingRiskError(f"no MSA could be integrated; first skip: {msa_id}: {reason}")
        return result

    @_memoised
    def summary(self):
        return integration_summary(self.integration().series, self.returns)

    @_memoised
    def jump_series_all(self):
        """(series, skipped) over every MSA with enough history."""
        series = []
        skipped = []
        for msa_id in self.returns.msa_ids():
            start, values = self.returns.series(msa_id)
            try:
                series.append(
                    lm_series(
                        values,
                        self.cfg.bipower_window,
                        msa_id=msa_id,
                        start_code=start.code,
                        jump_threshold=self.cfg.jump_threshold,
                        big_threshold=self.cfg.big_threshold,
                    )
                )
            except InsufficientHistoryError as exc:
                skipped.append((msa_id, str(exc)))
        return series, skipped

    @_memoised
    def pair_sets(self):
        """Return pairs then jump pairs, each contemporaneous then lead."""
        sets = []
        for timing in ("contemporaneous", "lead"):
            pairs, _ = return_pair_correlations(self.returns, timing, self.cfg.min_overlap)
            sets.append(pairs)
        series, _ = self.jump_series_all()
        for timing in ("contemporaneous", "lead"):
            pairs, _ = jump_pair_correlations(series, timing, self.cfg.jump_pair_floor)
            sets.append(pairs)
        return sets

    # -- cohort helpers ---------------------------------------------------

    def match_names(self, fragments) -> list[str]:
        """MSA ids whose display name contains any fragment (case folded)."""
        hits = []
        for info in self.panel.msas:
            name = info.name.lower()
            if any(f.lower() in name for f in fragments):
                hits.append(info.msa_id)
        return hits

    def state_members(self, state: str) -> list[str]:
        return [m.msa_id for m in self.panel.msas if m.state.upper() == state.upper()]

    def ca_cohorts(self) -> dict[str, list[str]]:
        """us / ca / ca_coastal / ca_inland memberships (empty ones omitted)."""
        out = {"us": self.panel.msa_ids()}
        ca = self.state_members("CA")
        if ca:
            out["ca"] = ca
            coastal = [m for m in self.match_names(self.cfg.ca_coastal) if m in ca]
            if coastal:
                out["ca_coastal"] = coastal
                inland = [m for m in ca if m not in coastal]
                if inland:
                    out["ca_inland"] = inland
        return out

    def write_csv(self, name: str, header, rows) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        write_csv_atomic(self.out / name, header, rows)
        self.outputs.append(name)

    def write_manifest(self, command: str) -> None:
        self.out.mkdir(parents=True, exist_ok=True)
        resolved = json.dumps(self.cfg.resolved_dict(), sort_keys=True)
        manifest = {
            "tool": "housingrisk",
            "version": __version__,
            "command": command,
            "config_sha256": hashlib.sha256(resolved.encode()).hexdigest(),
            "inputs": dict(sorted(self.inputs.items())),
            "outputs": {
                name: _sha256(self.out / name) for name in sorted(set(self.outputs))
            },
        }
        write_json_atomic(self.out / "run_manifest.json", manifest)


# -- derived tables ------------------------------------------------------
#
# Row builders shared by a command's artifact and its report view.

SUMMARY_HEADER = ["kind", "timing", "threshold", "n", "mean", "sigma", "t_stat", "max", "min"]
DIVISION_HEADER = ["division", "kind", "timing", "n", "n_significant", "pct_significant", "mean_r"]
FIG_HEADER = ["series", "quarter", "value"]
MSA_HEADER = ["msa_id"] + list(CHARACTERISTICS) + [f"rank_{c}" for c in CHARACTERISTICS]


def _long(named_series) -> list[list]:
    """[name, quarter, value] rows from (name, quarter codes, values) triples."""
    return [
        [name, QuarterIndex.from_code(int(c)), v]
        for name, codes, values in named_series
        for c, v in zip(codes, values)
    ]


def _msa_rows(summary) -> list[list]:
    """MSA_HEADER rows: table1 and the msa rows of integration_summary."""
    return [
        [m.msa_id]
        + [m.value(c) for c in CHARACTERISTICS]
        + [summary.ranks[c][m.msa_id] for c in CHARACTERISTICS]
        for m in summary.rows
    ]


@_memoised
def _cohort_rows(r: _Runner) -> list[list]:
    """(cohort, quarter, average R²): cohort_averages.csv and fig2.csv."""
    series = r.integration().series
    return _long(
        (name, *cohort_average(series, members, start))
        for name, members, start in _cohort_plan(r, series)
    )


@_memoised
def _incidence_rows(r: _Runner) -> list[list]:
    """(cohort, quarter, pct, n_flagged, n_testable): jump_incidence.csv; fig4 is its pct."""
    series, _ = r.jump_series_all()
    by_id = {s.msa_id: s for s in series}
    rows = []
    for cohort, members in r.ca_cohorts().items():
        chosen = [by_id[m] for m in members if m in by_id]
        if not chosen:
            continue
        codes, pct, flagged, testable = jump_incidence(chosen, flag="big")
        rows += [
            [cohort, QuarterIndex.from_code(int(c)), v, int(f), int(t)]
            for c, v, f, t in zip(codes, pct, flagged, testable)
        ]
    return rows


@_memoised
def _correlation_tables(r: _Runner) -> tuple[list[list], list[list]]:
    """(summary rows, division rows) over the four pair sets."""
    sets = r.pair_sets()
    summary_rows = [
        ["none" if v is None else v for v in dataclasses.astuple(s)]
        for pairs in sets
        if pairs
        for s in correlation_summary(pairs)
    ]
    states = {m.msa_id: m.state for m in r.panel.msas if m.state}
    division_rows = [
        list(dataclasses.astuple(row))
        for row in cohort_correlation_report(sets, states, r.cfg.pair_sig_t)
    ]
    return summary_rows, division_rows


# -- command implementations ---------------------------------------------


def _cmd_ingest(r: _Runner) -> None:
    rows = []
    for info in r.panel.msas:
        first = r.panel.first_quarter(info.msa_id)
        _, values = r.panel.series(info.msa_id)
        rows.append(
            [info.msa_id, info.name, info.state, first, r.panel.end, values.size]
        )
    r.write_csv(
        "panel_summary.csv",
        ["msa_id", "msa_name", "state", "first_quarter", "last_quarter", "n_obs"],
        rows,
    )


def _cmd_integrate(r: _Runner) -> None:
    result = r.integration()
    header = ["msa_id", "quarter", "r_square"] + [f"beta_{n}" for n in result.series[0].names]
    rows = []
    for s in result.series:
        for w in range(s.n_windows):
            rows.append(
                [s.msa_id, QuarterIndex.from_code(int(s.window_ends[w])), s.r_squares[w]]
                + list(s.betas[w])
            )
    r.write_csv("integration_series.csv", header, rows)

    summary = r.summary()
    sum_header = ["row_type", "key"] + MSA_HEADER[1:] + ["note"]
    sum_rows = [["msa"] + row + [""] for row in _msa_rows(summary)]
    for stat in ("mean", "sd", "min", "max"):
        sum_rows.append(
            ["cross", stat]
            + [summary.cross[c][stat] for c in CHARACTERISTICS]
            + [""] * len(CHARACTERISTICS)
            + [""]
        )
    for q in range(5):
        sum_rows.append(
            ["quintile_min", f"q{q + 1}"]
            + [summary.quintile_minima[c][q] for c in CHARACTERISTICS]
            + [""] * len(CHARACTERISTICS)
            + [""]
        )
    for msa_id, reason in summary.excluded:
        sum_rows.append(
            ["excluded", msa_id] + [""] * (2 * len(CHARACTERISTICS)) + [reason]
        )
    for msa_id, reason in result.skipped:
        sum_rows.append(
            ["skipped", msa_id] + [""] * (2 * len(CHARACTERISTICS)) + [reason]
        )
    r.write_csv("integration_summary.csv", sum_header, sum_rows)

    # Cohort averages: entry-time cohorts plus the CA coastal/inland split.
    r.write_csv("cohort_averages.csv", ["cohort", "quarter", "avg_r_square"], _cohort_rows(r))


def _cohort_plan(r: _Runner, series):
    """(name, members, start) triples for every non-empty cohort."""
    have = {s.msa_id: int(s.window_ends[0]) for s in series}
    plan = [("us", sorted(have), None)]
    starts = sorted(
        ((name, parse_quarter(q)) for name, q in r.cfg.time_cohorts.items()),
        key=lambda kv: kv[1].code,
    )
    prev_code = None
    for name, start in starts:
        members = [
            m
            for m, first in sorted(have.items())
            if first <= start.code and (prev_code is None or first > prev_code)
        ]
        if members:
            plan.append((name, members, start))
        prev_code = start.code
    cohorts = r.ca_cohorts()
    for name in ("ca_coastal", "ca_inland"):
        members = [m for m in cohorts.get(name, []) if m in have]
        if members:
            plan.append((name, members, None))
    return plan


def _cmd_jumps(r: _Runner) -> None:
    series, _ = r.jump_series_all()
    rows = []
    for s in series:
        for i in range(s.n_quarters):
            rows.append(
                [
                    s.msa_id,
                    QuarterIndex.from_code(int(s.quarter_codes[i])),
                    s.L[i],
                    s.L_scaled[i],
                    bool(s.jump_flag[i]),
                    bool(s.big_flag[i]),
                    bool(s.testable[i]),
                ]
            )
    r.write_csv(
        "jump_series.csv",
        ["msa_id", "quarter", "L", "L_scaled", "jump_flag", "big_flag", "testable"],
        rows,
    )
    r.write_csv(
        "jump_incidence.csv",
        ["cohort", "quarter", "pct", "n_flagged", "n_testable"],
        _incidence_rows(r),
    )


def _cmd_correlate(r: _Runner) -> None:
    rows = []
    for p in r.pair_sets():
        rows += [
            [p.ids[a], p.ids[b], p.kind, p.timing, rv, nv, tv]
            for a, b, rv, nv, tv in zip(*(c.tolist() for c in (p.i, p.j, p.r, p.n, p.t)))
        ]
    r.write_csv(
        "pair_correlations.csv",
        ["msa_i", "msa_j", "kind", "timing", "r", "n", "t"],
        rows,
    )
    summary_rows, division_rows = _correlation_tables(r)
    r.write_csv("correlation_summary.csv", SUMMARY_HEADER, summary_rows)
    r.write_csv("division_report.csv", DIVISION_HEADER, division_rows)


def _resolve_contagion_menu(r: _Runner) -> list[tuple[str, str]]:
    """(source id, target id) pairs for the contagion command.

    Priority: explicit config (ids or name fragments) > default city menu
    matched against MSA names > pairs planted by this run's synthetic
    scenario > a first-vs-next fallback so the artifact always exists.
    """
    ids = set(r.panel.msa_ids())

    def resolve_one(ref):
        if ref in ids:
            return [ref]
        return r.match_names([ref])

    def expand(menu, strict):
        pairs = []
        for src_ref, targets in menu.items():
            srcs = resolve_one(src_ref)
            if strict and not srcs:
                raise ConfigError(f"contagion source {src_ref!r} matches no MSA")
            for tgt_ref in targets:
                tgts = resolve_one(tgt_ref)
                if strict and not tgts:
                    raise ConfigError(f"contagion target {tgt_ref!r} matches no MSA")
                pairs += [(s, t) for s in srcs for t in tgts if s != t]
        return pairs

    if r.cfg.contagion_menu is not None:
        return expand(r.cfg.contagion_menu, strict=True)
    pairs = expand(PRIMARY_CITY_MENU, strict=False)
    if pairs:
        return pairs

    if r.ground_truth is not None:
        for entry in r.ground_truth.get("contagion", []):
            pairs.append((entry["source"], entry["target"]))
    if pairs:
        return pairs

    ordered = sorted(ids)
    return [(ordered[0], t) for t in ordered[1 : min(4, len(ordered))]]


@_memoised
def _interaction_residual(r: _Runner, source_id: str | None):
    """(quarter codes, residual values) per the configured residual source.

    ``source_id`` is None for the ca-equal-weighted residual, which is the
    same for every source. Too short a history gives empty arrays.
    """
    try:
        if source_id is not None:
            first, levels = r.panel.series(source_id)
            return np.arange(first.code, first.code + levels.size), boombust_residual(levels)
        members = r.state_members("CA")
        if not members:
            raise ConfigError(
                "interaction_residual=ca-equal-weighted needs MSAs with state CA"
            )
        codes, rets, _ = portfolio_returns(r.returns, members)
        levels = np.empty(rets.size + 1)
        levels[0] = 100.0
        levels[1:] = 100.0 * np.exp(np.cumsum(rets) / 100.0)
        resid = boombust_residual(levels)
        return np.concatenate([[codes[0] - 1], codes]), resid
    except InsufficientHistoryError:
        return np.empty(0, dtype=int), np.empty(0)


@_memoised
def _contagion_rows(r: _Runner) -> tuple[list[str], list[list]]:
    """Fit every configured source→target pair once: contagion_fits.csv; table5/6 are its views."""
    n_lags = 3
    header = ["target", "source", "variant", "n", "method", "rho", "r_square", "dw", "const", "const_t"]
    for l in range(n_lags + 1):
        header += [f"lag{l}", f"lag{l}_t"]
    for l in range(n_lags + 1):
        header += [f"ix_lag{l}", f"ix_lag{l}_t"]
    per_source = r.cfg.interaction_residual == "coastal"
    rows = []
    for source_id, target_id in sorted(_resolve_contagion_menu(r)):
        t_start, t_vals = r.returns.series(target_id)
        s_start, s_vals = r.returns.series(source_id)
        t_codes = np.arange(t_start.code, t_start.code + t_vals.size)
        s_codes = np.arange(s_start.code, s_start.code + s_vals.size)
        common = np.intersect1d(t_codes, s_codes)
        if common.size < n_lags + 8:
            rows.append(
                [target_id, source_id, "skipped", common.size, "insufficient overlap"]
                + [""] * (len(header) - 5)
            )
            continue
        tv = t_vals[np.searchsorted(t_codes, common)]
        sv = s_vals[np.searchsorted(s_codes, common)]
        base = contagion_fit(
            tv, sv, n_lags, r.cfg.serial, target_id=target_id, source_id=source_id
        )
        fits = [base]
        res_codes, res_vals = _interaction_residual(r, source_id if per_source else None)
        if np.isin(common, res_codes).all():
            fits.append(
                contagion_fit_interacted(
                    tv,
                    sv,
                    res_vals[np.searchsorted(res_codes, common)],
                    n_lags,
                    r.cfg.serial,
                    target_id=target_id,
                    source_id=source_id,
                )
            )
        for fit in fits:
            row = [
                fit.target,
                fit.source,
                "interacted" if fit.interacted else "base",
                fit.n_obs,
                fit.method,
                fit.rho if fit.rho is not None else "",
                fit.r_square,
                fit.durbin_watson,
                fit.coefficient("const"),
                fit.t_stat("const"),
            ]
            for l in range(n_lags + 1):
                row += [fit.coefficient(f"lag{l}"), fit.t_stat(f"lag{l}")]
            for l in range(n_lags + 1):
                if fit.interacted:
                    row += [fit.coefficient(f"ix_lag{l}"), fit.t_stat(f"ix_lag{l}")]
                else:
                    row += ["", ""]
            rows.append(row)
    return header, rows


def _cmd_contagion(r: _Runner) -> None:
    header, rows = _contagion_rows(r)
    r.write_csv("contagion_fits.csv", header, rows)


def _portfolio_members(r: _Runner, spec: dict) -> list[str]:
    if "members" in spec:
        return sorted(spec["members"])
    members = r.returns.msa_ids()
    if "state" in spec:
        members = [m for m in members if r.panel.info(m).state.upper() == spec["state"].upper()]
    if "available_from" in spec:
        from_q = parse_quarter(spec["available_from"])
        members = [
            m for m in members if r.returns.first_quarter(m).code <= from_q.code
        ]
    return sorted(members)


@_memoised
def _portfolios(r: _Runner) -> list[tuple]:
    """(name, diversification series, member-average R² path or None) per portfolio."""
    series = r.integration().series
    have = {s.msa_id for s in series}
    out = []
    for name, spec in sorted(r.cfg.portfolios.items()):
        members = _portfolio_members(r, spec)
        if not members:
            continue
        try:
            ps = diversification_series(r.returns, members, r.cfg.window)
        except (InsufficientHistoryError, ValueError):
            continue
        int_members = [m for m in members if m in have]
        out.append((name, ps, cohort_average(series, int_members) if int_members else None))
    return out


def _cmd_portfolio(r: _Runner) -> None:
    rows = []
    corr_rows = []
    ranges = [("full", None, None)] + [
        (rng_name, parse_quarter(lo), parse_quarter(hi))
        for rng_name, (lo, hi) in sorted(r.cfg.sub_ranges.items())
    ]
    for name, ps, avg_r2 in _portfolios(r):
        sigma_at = {int(c): i for i, c in enumerate(ps.sigma_codes)}
        for i, code in enumerate(ps.return_codes):
            code = int(code)
            j = sigma_at.get(code)
            rows.append(
                [
                    name,
                    QuarterIndex.from_code(code),
                    ps.returns[i],
                    ps.portfolio_sigma[j] if j is not None else "",
                    ps.avg_member_sigma[j] if j is not None else "",
                    ps.diversification[j] if j is not None else "",
                ]
            )
        if avg_r2 is None:
            continue
        for rng_name, lo, hi in ranges:
            for series_b, vals_b in (
                ("port_sigma", ps.portfolio_sigma),
                ("diversification", ps.diversification),
            ):
                try:
                    rho, n = series_correlation(
                        *avg_r2, ps.sigma_codes, vals_b, lo, hi
                    )
                except InsufficientHistoryError:
                    continue
                corr_rows.append([name, "integration", series_b, rng_name, rho, n])
    r.write_csv(
        "portfolio_series.csv",
        ["portfolio", "quarter", "port_return", "port_sigma", "avg_member_sigma", "diversification"],
        rows,
    )
    r.write_csv(
        "series_correlations.csv",
        ["portfolio", "series_a", "series_b", "range", "r", "n"],
        corr_rows,
    )


def _cmd_synth(r: _Runner) -> None:
    if r.cfg.synth_scenario is None:
        raise ConfigError("synth needs a synth_scenario in the config")
    r._materialize_synth()


def _cmd_report(r: _Runner) -> None:
    """The paper's tables and figure data, each a view of a computed result."""
    r.write_csv("table1.csv", MSA_HEADER, _msa_rows(r.summary()))
    ranks = r.summary().ranks["trend_t_stat"]
    rows = [
        [m.msa_id, m.trend_t_stat, ranks[m.msa_id]]
        for m in sorted(r.summary().rows, key=lambda m: ranks[m.msa_id])
    ]
    r.write_csv("table2.csv", ["msa_id", "trend_t_stat", "rank"], rows)

    summary_rows, division_rows = _correlation_tables(r)
    r.write_csv("table3.csv", SUMMARY_HEADER, summary_rows)
    r.write_csv("table4.csv", DIVISION_HEADER, division_rows)

    r.write_csv("fig2.csv", FIG_HEADER, _cohort_rows(r))
    series = r.integration().series
    r.write_csv(
        "fig3.csv",
        FIG_HEADER,
        _long((f, *beta_average(series, f)) for f in series[0].names if f != "const"),
    )
    r.write_csv("fig4.csv", FIG_HEADER, [row[:3] for row in _incidence_rows(r)])
    triples = []
    for name, ps, avg_r2 in _portfolios(r):
        triples.append((f"{name}_sigma", ps.sigma_codes, ps.portfolio_sigma))
        triples.append((f"{name}_diversification", ps.sigma_codes, ps.diversification))
        if avg_r2 is not None:
            triples.append((f"{name}_integration", *avg_r2))
    r.write_csv("fig5.csv", FIG_HEADER, _long(triples))

    header, all_rows = _contagion_rows(r)
    keep = [i for i, name in enumerate(header) if name != "variant" and not name.startswith("ix_")]
    r.write_csv(
        "table5.csv",
        [header[i] for i in keep],
        [[row[i] for i in keep] for row in all_rows if row[2] == "base"],
    )
    keep = [i for i, name in enumerate(header) if name != "variant"]
    r.write_csv(
        "table6.csv",
        [header[i] for i in keep],
        [[row[i] for i in keep] for row in all_rows if row[2] == "interacted"],
    )


def run(command: str, cfg: RunConfig) -> int:
    """Execute one command; returns the exit status (artifacts in cfg.out)."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    cfg.validate()
    runner = _Runner(cfg)
    if command == "synth":
        _cmd_synth(runner)
        runner.write_manifest(command)
        return 0
    runner.load()
    if command == "all":
        runner.integration()  # a panel with no usable MSA fails before ingest writes
    steps = {
        "ingest": (_cmd_ingest,),
        "integrate": (_cmd_integrate,),
        "jumps": (_cmd_jumps,),
        "correlate": (_cmd_correlate,),
        "contagion": (_cmd_contagion,),
        "portfolio": (_cmd_portfolio,),
        "report": (_cmd_report,),
        "all": (
            _cmd_ingest,
            _cmd_integrate,
            _cmd_jumps,
            _cmd_correlate,
            _cmd_contagion,
            _cmd_portfolio,
            _cmd_report,
        ),
    }[command]
    for step in steps:
        step(runner)
    runner.write_manifest(command)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="housingrisk",
        description="Housing-market integration, jump, contagion, and "
        "diversification analytics over quarterly HPI panels.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run-config path")
    common.add_argument("--out", help="output directory")
    common.add_argument("--window", type=int, help="rolling regression window (quarters)")
    common.add_argument(
        "--bipower-window", type=int, help="trailing window for bipower variation"
    )
    common.add_argument(
        "--no-prewhiten",
        action="store_true",
        help="feed raw returns to the factor model instead of AR(1) residuals",
    )
    common.add_argument("--serial", choices=SERIAL_POLICIES, help="serial-correlation policy")
    common.add_argument(
        "--interaction-residual",
        choices=INTERACTION_SOURCES,
        help="boom/bust residual source for interacted contagion fits",
    )
    common.add_argument("--seed", type=int, help="override the scenario seed")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return run(args.command, cfg)
    except HousingRiskError as exc:
        print(f"housingrisk: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"housingrisk: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
