"""Command-line driver: ingestion -> analysis -> CSV/JSON artifacts.

Commands: ingest, integrate, jumps, correlate, contagion, portfolio, synth,
report, all. Settings merge in precedence order defaults < config file <
environment (HOUSINGRISK_*) < flags. One table, ``_SETTINGS``, names every
setting with its RunConfig field and its valid values; the config-file
reader, the environment reader, the flags and ``RunConfig.validate`` all
read it.

A run validates its config before it reads any input. It writes every
artifact into a private stage directory beside the output directory and
moves them into the output directory only after every step has returned,
run_manifest.json last, so a run that fails leaves the output directory as
it was. The manifest records the resolved-config hash and the SHA-256 of
every input and output, with no timestamps, so identical runs are
byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import functools
import hashlib
import json
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .contagion import (
    PRIMARY_CITY_MENU,
    SERIAL_POLICIES,
    boombust_residual,
    contagion_fits,
)
# Not called here since the fits are grouped; perfbench/tracing.py still
# wraps these names in this module, so they stay importable from it.
from .contagion import contagion_fit, contagion_fit_interacted  # noqa: F401
from .core import (
    ReturnPanel,
    compute_returns,
    default_factor_transforms,
    is_quarter,
    parse_quarter,
)
from .correlations import (
    CorrelationSummary,
    DivisionRow,
    cohort_correlation_report,
    correlation_summary,
    jump_pair_correlations,
    return_pair_correlations,
)
from .errors import ConfigError, HousingRiskError, InsufficientHistoryError
from .forkmap import fork_map
from .integration import (
    CHARACTERISTICS,
    CROSS_STATS,
    beta_average,
    cohort_average,
    integrate_panel,
    integration_summary,
)
from .io import (
    Labels,
    load_factor_table,
    load_hpi_panel,
    load_transform_config,
    quarter_labels,
    write_csv_atomic,
    write_factor_csv,
    write_hpi_csv,
    write_json_atomic,
)
from .jumps import MIN_BIPOWER_WINDOW, jump_incidence, lm_series
from .portfolio import diversification_series, portfolio_returns, series_correlation
from .synth import _is_int, _is_number, generate_panel, ground_truth_report, scenario_from_json

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
    """Resolved settings for one run; ``_SETTINGS`` says what each field may hold."""

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
        problems = [
            f"{s.key} must be {s.what}, got {getattr(self, s.field)!r}"
            for s in _SETTINGS
            if not s.ok(getattr(self, s.field))
        ]
        if problems:
            raise ConfigError("; ".join(problems))

    def resolved_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["version"] = __version__
        return d


# -- the settings table ----------------------------------------------------
#
# Each test takes a value as JSON gives it and says whether it is valid.


def _is(kind):
    return lambda v: isinstance(v, kind)


def _optional(ok):
    return lambda v: v is None or ok(v)


def _list_of(ok):
    return lambda v: isinstance(v, (list, tuple)) and all(ok(x) for x in v)


def _object_of(ok):
    return lambda v: isinstance(v, dict) and all(ok(x) for x in v.values())


def _integer(least=None):
    return lambda v: _is_int(v) and (least is None or v >= least)


def _positive(v) -> bool:
    return _is_number(v) and v > 0


def _path(v) -> bool:
    return isinstance(v, str) and v != "" and "\0" not in v


def _file(v) -> bool:
    return isinstance(v, str) and Path(v).is_file()


_PORTFOLIO_KEYS = {"members": _list_of(_is(str)), "state": _is(str), "available_from": is_quarter}


def _portfolio(v) -> bool:
    return isinstance(v, dict) and all(k in _PORTFOLIO_KEYS and _PORTFOLIO_KEYS[k](x) for k, x in v.items())


class _Setting(NamedTuple):
    """One run setting: its config-file key, its RunConfig field and its valid values.

    ``flag`` holds the argparse keywords of a setting that ``--<name>`` and
    ``HOUSINGRISK_<NAME>`` can also set; ``option_name`` gives the name.
    """

    key: str  # "section.key" for a key inside a section of the config file
    field: str
    what: str  # the error message says "<key> must be <what>"
    ok: Callable[[object], bool]
    flag: dict | None = None

    @property
    def option_name(self) -> str:
        """The field, or ``no_<field>`` for a flag that turns a default off."""
        return ("no_" if self.flag.get("action") == "store_false" else "") + self.field

    def from_env(self, text: str):
        """The value that ``HOUSINGRISK_<NAME>=text`` sets."""
        name = ENV_PREFIX + self.option_name.upper()
        if self.flag.get("action") == "store_false":
            if text.lower() in ("1", "true", "yes"):
                return False
            if text.lower() in ("0", "false", "no"):
                return True
            raise ConfigError(f"{name} must be one of 1/0, true/false, yes/no, got {text!r}")
        if self.flag.get("type") is int:
            try:
                return int(text)
            except ValueError:
                raise ConfigError(f"{name} must be an integer, got {text!r}") from None
        return text


_SETTINGS = (
    _Setting("inputs.hpi", "hpi", "null or an existing file", _optional(_file)),
    _Setting("inputs.factors", "factors", "null or an existing file", _optional(_file)),
    _Setting("inputs.transforms", "transforms", "null, an existing file or an object of strings",
             _optional(lambda v: _file(v) or _object_of(_is(str))(v))),
    _Setting("out", "out", "a non-empty path", _path, {"help": "output directory"}),
    _Setting("window", "window", "an integer at least 3", _integer(3),
             {"type": int, "help": "rolling regression window (quarters)"}),
    _Setting("bipower_window", "bipower_window", f"an integer at least {MIN_BIPOWER_WINDOW}",
             _integer(MIN_BIPOWER_WINDOW), {"type": int, "help": "trailing window for bipower variation"}),
    _Setting("prewhiten", "prewhiten", "true or false", _is(bool),
             {"action": "store_false",
              "help": "feed raw returns to the factor model instead of AR(1) residuals"}),
    _Setting("serial", "serial", f"one of {SERIAL_POLICIES}", lambda v: v in SERIAL_POLICIES,
             {"choices": SERIAL_POLICIES, "help": "serial-correlation policy"}),
    _Setting("interaction_residual", "interaction_residual", f"one of {INTERACTION_SOURCES}",
             lambda v: v in INTERACTION_SOURCES,
             {"choices": INTERACTION_SOURCES,
              "help": "boom/bust residual source for interacted contagion fits"}),
    _Setting("seed", "seed", "null or an integer at least 0", _optional(_integer(0)),
             {"type": int, "help": "override the scenario seed"}),
    _Setting("income_as_level", "income_as_level", "true or false", _is(bool)),
    _Setting("synth_scenario", "synth_scenario", "null or an existing file", _optional(_file)),
    _Setting("thresholds.jump", "jump_threshold", "a positive number", _positive),
    _Setting("thresholds.big", "big_threshold", "a positive number", _positive),
    _Setting("thresholds.pair_sig_t", "pair_sig_t", "a positive number", _positive),
    _Setting("pairs.min_overlap", "min_overlap", "an integer", _integer()),
    _Setting("pairs.jump_floor", "jump_pair_floor", "an integer", _integer()),
    _Setting("cohorts.time", "time_cohorts", "an object of quarters", _object_of(is_quarter)),
    _Setting("cohorts.ca_coastal", "ca_coastal", "a list of strings", _list_of(_is(str))),
    _Setting("contagion", "contagion_menu", "null or an object of string lists",
             _optional(_object_of(_list_of(_is(str))))),
    _Setting("portfolios", "portfolios", "an object of objects with only members (strings), "
             "state and available_from", _object_of(_portfolio)),
    _Setting("sub_ranges", "sub_ranges", "an object of [first quarter, last quarter] pairs",
             _object_of(lambda v: _list_of(is_quarter)(v) and len(v) == 2)),
)

_OPTIONS = tuple(s for s in _SETTINGS if s.flag is not None)


def _apply_config_file(cfg: RunConfig, path: str) -> None:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"config file {path} is not UTF-8 JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    known = {s.key for s in _SETTINGS}
    sections = {key.partition(".")[0] for key in known if "." in key}
    unknown = []
    for key, value in obj.items():
        if key not in sections:
            if key not in known:
                unknown.append(key)
        elif isinstance(value, dict):
            unknown += [f"{key}.{sub}" for sub in value if f"{key}.{sub}" not in known]
        else:
            raise ConfigError(f"config file {path}: {key} must be a JSON object")
    if unknown:
        raise ConfigError(f"config file {path}: unknown key {', '.join(map(repr, unknown))}")
    for s in _SETTINGS:
        section, _, key = s.key.rpartition(".")
        values = obj.get(section, {}) if section else obj
        if key in values:
            setattr(cfg, s.field, values[key])


def build_config(args, env=None) -> RunConfig:
    """Merge defaults < config file < environment < flags."""
    env = os.environ if env is None else env
    cfg = RunConfig()
    config_path = args.config or env.get(ENV_PREFIX + "CONFIG")
    if config_path:
        _apply_config_file(cfg, config_path)
    for s in _OPTIONS:
        text = env.get(ENV_PREFIX + s.option_name.upper())
        if text:
            setattr(cfg, s.field, s.from_env(text))
        if getattr(args, s.field) is not None:
            setattr(cfg, s.field, getattr(args, s.field))
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

    def __init__(self, cfg: RunConfig, stage: Path):
        self.cfg = cfg
        self.out = Path(cfg.out)
        self.stage = stage  # every artifact is written here; run() moves them to out
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.results: dict[tuple, object] = {}
        self.panel = None
        self.factors = None
        self.returns: ReturnPanel | None = None
        self.ground_truth: dict | None = None  # set only by this run's synth step

    # -- input plumbing ---------------------------------------------------

    def source(self, path: str) -> Path:
        """The file to read for input ``path``: a file this run generated is still staged."""
        name = Path(path).name
        if path == str(self.out / name) and name in self.outputs:
            return self.stage / name
        return Path(path)

    def load(self) -> None:
        cfg = self.cfg
        if cfg.hpi is None:
            if cfg.synth_scenario is None:
                raise ConfigError(
                    "no inputs: set inputs.hpi/inputs.factors or synth_scenario"
                )
            _cmd_synth(self)
        if cfg.factors is None:
            raise ConfigError("inputs.factors is required alongside inputs.hpi")
        hpi_path, fac_path = self.source(cfg.hpi), self.source(cfg.factors)
        self.panel = load_hpi_panel(hpi_path)
        self.inputs[cfg.hpi] = _sha256(hpi_path)
        if isinstance(cfg.transforms, dict):
            transforms = dict(cfg.transforms)
        elif isinstance(cfg.transforms, str):
            transforms_path = self.source(cfg.transforms)
            transforms = load_transform_config(transforms_path)
            self.inputs[cfg.transforms] = _sha256(transforms_path)
        else:
            transforms = default_factor_transforms(cfg.income_as_level)
        self.factors = load_factor_table(fac_path, transforms)
        self.inputs[cfg.factors] = _sha256(fac_path)
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
    def jumps(self):
        return lm_series(self.returns, self.cfg.bipower_window, self.cfg.jump_threshold, self.cfg.big_threshold)

    @_memoised
    def pair_sets(self):
        """Return pairs then jump pairs, each contemporaneous then lead."""
        sets = []
        for timing in ("contemporaneous", "lead"):
            pairs, _ = return_pair_correlations(self.returns, timing, self.cfg.min_overlap)
            sets.append(pairs)
        for timing in ("contemporaneous", "lead"):
            pairs, _ = jump_pair_correlations(self.jumps(), timing, self.cfg.jump_pair_floor)
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

    def write_csv(self, name: str, header, columns: list) -> None:
        write_csv_atomic(self.stage / name, header, columns)
        self.outputs.append(name)

    def write_json(self, name: str, obj) -> None:
        write_json_atomic(self.stage / name, obj)
        self.outputs.append(name)

    def write_manifest(self, command: str) -> None:
        resolved = json.dumps(self.cfg.resolved_dict(), sort_keys=True)
        manifest = {
            "tool": "housingrisk",
            "version": __version__,
            "command": command,
            "config_sha256": hashlib.sha256(resolved.encode()).hexdigest(),
            "inputs": dict(sorted(self.inputs.items())),
            "outputs": {
                name: _sha256(self.stage / name) for name in sorted(set(self.outputs))
            },
        }
        write_json_atomic(self.stage / "run_manifest.json", manifest)


# -- derived tables ------------------------------------------------------
#
# Column builders shared by a command's artifact and its report view. A
# table is a list of columns (see io.write_csv_atomic).

SUMMARY_HEADER = ["kind", "timing", "threshold", "n", "mean", "sigma", "t_stat", "max", "min"]
DIVISION_HEADER = ["division", "kind", "timing", "n", "n_significant", "pct_significant", "mean_r"]
FIG_HEADER = ["series", "quarter", "value"]
MSA_HEADER = ["msa_id"] + list(CHARACTERISTICS) + [f"rank_{c}" for c in CHARACTERISTICS]


def _concat(arrays, dtype) -> np.ndarray:
    return np.concatenate([np.asarray(a, dtype=dtype) for a in arrays] or [np.empty(0, dtype)])


def _long(named_series) -> list:
    """[name, quarter, value] columns from (name, quarter codes, values) triples."""
    triples = list(named_series)
    names, codes, values = zip(*triples) if triples else ((), (), ())
    return [
        Labels.repeat(names, [len(c) for c in codes]),
        quarter_labels(_concat(codes, int)),
        _concat(values, float),
    ]


def _fields(records, cls) -> list[list]:
    """One column per field of dataclass ``cls`` over ``records``."""
    return [[getattr(rec, f.name) for rec in records] for f in dataclasses.fields(cls)]


@_memoised
def _cohort_columns(r: _Runner) -> list:
    """(cohort, quarter, average R²): cohort_averages.csv and fig2.csv."""
    series = r.integration().series
    return _long([
        (name, *cohort_average(series, members, start))
        for name, members, start in _cohort_plan(r, series)
    ])


@_memoised
def _incidence_columns(r: _Runner) -> list:
    """(cohort, quarter, pct, n_flagged, n_testable): jump_incidence.csv; fig4 is the first three."""
    jumps = r.jumps()
    parts = []
    for cohort, members in r.ca_cohorts().items():
        columns = np.flatnonzero(np.isin(jumps.ids, members))
        if columns.size:
            parts.append((cohort, *jump_incidence(jumps, columns, flag="big")))
    names, codes, pct, flagged, testable = zip(*parts)  # every run has the us cohort
    return _long(zip(names, codes, pct)) + [_concat(flagged, int), _concat(testable, int)]


@_memoised
def _correlation_tables(r: _Runner) -> tuple[list, list]:
    """(summary columns, division columns) over the four pair sets."""
    sets = r.pair_sets()
    summaries = [s for pairs in sets if pairs for s in correlation_summary(pairs)]
    summary_columns = [["none" if v is None else v for v in column]
                       for column in _fields(summaries, CorrelationSummary)]
    states = {m.msa_id: m.state for m in r.panel.msas if m.state}
    divisions = cohort_correlation_report(sets, states, r.cfg.pair_sig_t)
    return summary_columns, _fields(divisions, DivisionRow)


# -- command implementations ---------------------------------------------


def _cmd_ingest(r: _Runner) -> None:
    p = r.panel
    r.write_csv(
        "panel_summary.csv",
        ["msa_id", "msa_name", "state", "first_quarter", "last_quarter", "n_obs"],
        [
            p.msa_ids(),
            [m.name for m in p.msas],
            [m.state for m in p.msas],
            quarter_labels(p.start.code + p.first_offsets),
            quarter_labels(np.full(p.n_msas, p.end.code)),
            p.n_quarters - p.first_offsets,
        ],
    )


def _cmd_integrate(r: _Runner) -> None:
    result = r.integration()
    series = result.series
    r.write_csv(
        "integration_series.csv",
        ["msa_id", "quarter", "r_square"] + [f"beta_{n}" for n in series[0].names],
        [
            Labels.repeat([s.msa_id for s in series], [s.n_windows for s in series]),
            quarter_labels(_concat([s.window_ends for s in series], int)),
            _concat([s.r_squares for s in series], float),
            *np.concatenate([s.betas for s in series]).T,
        ],
    )

    summary = r.summary()
    notes = summary.excluded + result.skipped

    def blank(n_rows):
        return np.full((n_rows, len(CHARACTERISTICS)), np.nan)

    # A row per MSA, cross moment, quintile and excluded or skipped MSA; NaN is written blank.
    numbers = np.block([
        [summary.values, summary.ranks],
        [summary.cross, blank(len(CROSS_STATS))],
        [summary.quintile_minima, blank(5)],
        [blank(len(notes)), blank(len(notes))],
    ])
    r.write_csv("integration_summary.csv", ["row_type", "key"] + MSA_HEADER[1:] + ["note"], [
        Labels.repeat(["msa", "cross", "quintile_min", "excluded", "skipped"],
                      [summary.n, len(CROSS_STATS), 5, len(summary.excluded), len(result.skipped)]),
        [*summary.ids, *CROSS_STATS, "q1", "q2", "q3", "q4", "q5", *(msa_id for msa_id, _ in notes)],
        *numbers.T,
        [""] * (len(numbers) - len(notes)) + [reason for _, reason in notes],
    ])

    # Cohort averages: entry-time cohorts plus the CA coastal/inland split.
    r.write_csv("cohort_averages.csv", ["cohort", "quarter", "avg_r_square"], _cohort_columns(r))


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
    jumps = r.jumps()
    # Each MSA's quarters from its first return on, MSA by MSA.
    present = np.arange(len(jumps.L)) >= jumps.first_offsets[:, None]
    msa, t = np.nonzero(present)
    r.write_csv(
        "jump_series.csv",
        ["msa_id", "quarter", "L", "L_scaled", "jump_flag", "big_flag", "testable"],
        [
            Labels(msa, jumps.ids),
            quarter_labels(jumps.start.code + t),
            *(a.T[present] for a in (jumps.L, jumps.L_scaled, jumps.jump_flag,
                                     jumps.big_flag, jumps.testable)),
        ],
    )
    r.write_csv(
        "jump_incidence.csv",
        ["cohort", "quarter", "pct", "n_flagged", "n_testable"],
        _incidence_columns(r),
    )


def _cmd_correlate(r: _Runner) -> None:
    sets = r.pair_sets()
    ids = [msa_id for p in sets for msa_id in p.ids]  # each set's ids, one after another
    offsets = np.cumsum([0] + [len(p.ids) for p in sets[:-1]])
    counts = [len(p) for p in sets]
    r.write_csv(
        "pair_correlations.csv",
        ["msa_i", "msa_j", "kind", "timing", "r", "n", "t"],
        [
            Labels(_concat([p.i + off for p, off in zip(sets, offsets)], int), ids),
            Labels(_concat([p.j + off for p, off in zip(sets, offsets)], int), ids),
            Labels.repeat([p.kind for p in sets], counts),
            Labels.repeat([p.timing for p in sets], counts),
            _concat([p.r for p in sets], float),
            _concat([p.n for p in sets], int),
            _concat([p.t for p in sets], float),
        ],
    )
    summary_columns, division_columns = _correlation_tables(r)
    r.write_csv("correlation_summary.csv", SUMMARY_HEADER, summary_columns)
    r.write_csv("division_report.csv", DIVISION_HEADER, division_columns)


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


# The fewest contagion targets one fit worker is given (see forkmap). On a
# 2-vCPU host with BLAS on one thread a fork costs about 6 ms, and two
# workers first beat one at about 80 targets each (160 targets: 74 ms
# serial, 71 ms split; 320 targets: 143 ms, 108 ms).
CONTAGION_TARGETS_PER_WORKER = 128


@_memoised
def _contagion_columns(r: _Runner) -> tuple[list[str], list]:
    """Fit every configured source→target pair once: contagion_fits.csv; table5/6 are its views.

    The pairs that share a source and an overlap share one design, so each
    such group is fitted by one ``contagion_fits`` call per variant. This
    process builds every group's inputs; ``fork_map`` fits the groups, on
    several CPUs when the menu is large enough. Rows stay in sorted pair
    order, then base before interacted; a variant whose fit fails is a
    ``skipped`` row naming the variant and the error.
    """
    n_lags = 3
    header = ["target", "source", "variant", "n", "method", "rho", "r_square", "dw", "const", "const_t"]
    for l in range(n_lags + 1):
        header += [f"lag{l}", f"lag{l}_t"]
    for l in range(n_lags + 1):
        header += [f"ix_lag{l}", f"ix_lag{l}_t"]
    per_source = r.cfg.interaction_residual == "coastal"
    serial = r.cfg.serial

    pairs = sorted(_resolve_contagion_menu(r))
    overlap = np.zeros(len(pairs), dtype=int)
    groups: dict[tuple[str, int, int], list[int]] = {}
    for at, (source_id, target_id) in enumerate(pairs):
        t_first, t_vals = r.returns.series(target_id)
        s_first, s_vals = r.returns.series(source_id)
        first = max(t_first.code, s_first.code)
        last = min(t_first.code + t_vals.size, s_first.code + s_vals.size) - 1
        overlap[at] = max(0, last + 1 - first)
        groups.setdefault((source_id, first, last), []).append(at)

    members, inputs = [], []  # per fitted group: pair positions, (targets, source, residual or None)
    for (source_id, first, last), at in groups.items():
        common = np.arange(first, last + 1)
        if common.size < n_lags + 8:
            continue
        s_first, s_vals = r.returns.series(source_id)
        block = np.empty((len(at), common.size))
        for row, k in enumerate(at):
            t_first, t_vals = r.returns.series(pairs[k][1])
            block[row] = t_vals[first - t_first.code : last + 1 - t_first.code]
        res_codes, res_vals = _interaction_residual(r, source_id if per_source else None)
        rv = res_vals[np.searchsorted(res_codes, common)] if np.isin(common, res_codes).all() else None
        members.append(np.array(at))
        inputs.append((block, s_vals[first - s_first.code : last + 1 - s_first.code], rv))

    def fit(group):
        block, sv, rv = group
        variants = [("base", contagion_fits(block, sv, None, n_lags, serial))]
        if rv is not None:
            variants.append(("interacted", contagion_fits(block, sv, rv, n_lags, serial)))
        return variants

    fitted = fork_map(fit, inputs, [len(at) for at in members], CONTAGION_TARGETS_PER_WORKER)

    # One row per pair and variant; a pair with no fitted group has one row.
    # Every row starts as a skip for insufficient overlap.
    n_rows = np.ones(len(pairs), dtype=int)
    for at, variants in zip(members, fitted):
        n_rows[at] = len(variants)
    first_row = np.cumsum(n_rows) - n_rows
    pair_at = np.repeat(np.arange(len(pairs)), n_rows)
    variant = np.full(pair_at.size, "skipped", dtype=object)
    n = overlap[pair_at]
    method = np.full(pair_at.size, "insufficient overlap", dtype=object)
    numbers = np.full((pair_at.size, len(header) - 5), np.nan)  # rho, R², DW, (coefficient, t) pairs
    for at, variants in zip(members, fitted):
        for v, (name, fits) in enumerate(variants):
            rows = first_row[at] + v
            ok = np.array([exc is None for exc in fits.errors])
            for row, exc in zip(rows, fits.errors):
                if exc is not None:
                    method[row] = f"{name}: {exc}"
            variant[rows[ok]] = name
            n[rows[ok]] = fits.n_obs[ok]
            method[rows[ok]] = np.array(fits.methods, dtype=object)[ok]
            cells = np.stack([fits.coefficients, fits.t_stats], axis=2).reshape(len(rows), -1)
            values = np.column_stack([fits.rho, fits.r_square, fits.durbin_watson, cells])
            numbers[rows[ok], : values.shape[1]] = values[ok]
    return header, [
        Labels(pair_at, [target_id for _, target_id in pairs]),
        Labels(pair_at, [source_id for source_id, _ in pairs]),
        variant,
        n,
        method,
        *numbers.T,
    ]


def _cmd_contagion(r: _Runner) -> None:
    r.write_csv("contagion_fits.csv", *_contagion_columns(r))


def _portfolio_members(r: _Runner, name: str, spec: dict) -> list[str]:
    if "members" in spec:
        unknown = sorted(set(spec["members"]) - set(r.returns.msa_ids()))
        if unknown:
            raise ConfigError(f"portfolio {name!r} member {unknown[0]!r} matches no MSA")
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
        members = _portfolio_members(r, name, spec)
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
    ranges = [("full", None, None)] + [
        (rng_name, parse_quarter(lo), parse_quarter(hi))
        for rng_name, (lo, hi) in sorted(r.cfg.sub_ranges.items())
    ]
    portfolios = _portfolios(r)

    def on_return_quarters(column):
        """The per-window values of every portfolio, blank before each one's first window."""
        return _concat([np.concatenate([np.full(ps.returns.size - ps.sigma_codes.size, np.nan),
                                        getattr(ps, column)]) for _, ps, _ in portfolios], float)

    r.write_csv(
        "portfolio_series.csv",
        ["portfolio", "quarter", "port_return", "port_sigma", "avg_member_sigma", "diversification"],
        [
            Labels.repeat([name for name, _, _ in portfolios], [ps.returns.size for _, ps, _ in portfolios]),
            quarter_labels(_concat([ps.return_codes for _, ps, _ in portfolios], int)),
            _concat([ps.returns for _, ps, _ in portfolios], float),
            on_return_quarters("portfolio_sigma"),
            on_return_quarters("avg_member_sigma"),
            on_return_quarters("diversification"),
        ],
    )

    correlations = [[] for _ in range(6)]
    for name, ps, avg_r2 in portfolios:
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
                for column, value in zip(correlations, (name, "integration", series_b, rng_name, rho, n)):
                    column.append(value)
    r.write_csv(
        "series_correlations.csv",
        ["portfolio", "series_a", "series_b", "range", "r", "n"],
        correlations,
    )


def _cmd_synth(r: _Runner) -> None:
    """Generate the scenario's inputs and point the run's inputs at them."""
    cfg = r.cfg
    if cfg.synth_scenario is None:
        raise ConfigError("synth needs a synth_scenario in the config")
    path = cfg.synth_scenario
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"scenario file {path} is not UTF-8 JSON: {exc}") from None
    try:
        sc = scenario_from_json(obj)
        if cfg.seed is not None:
            sc = dataclasses.replace(sc, seed=cfg.seed)
        panel, table, truth = generate_panel(sc)
    except ConfigError as exc:
        raise ConfigError(f"scenario file {path}: {exc}") from None
    r.inputs[path] = _sha256(Path(path))
    write_hpi_csv(r.stage / "hpi_synth.csv", panel)
    # Raw factor levels exp(f) under an all-log_level transform map load
    # back to exactly the generated factors.
    write_factor_csv(r.stage / "factors_synth.csv", table.factor_ids, table.start, np.exp(table.values))
    r.outputs += ["hpi_synth.csv", "factors_synth.csv"]
    r.write_json("transforms_synth.json", {f: "log_level" for f in table.factor_ids})
    r.ground_truth = ground_truth_report(truth)
    r.write_json("ground_truth.json", r.ground_truth)
    # The inputs are named by their final paths, so the config hash and the
    # manifest never name the stage; load() reads them through source().
    cfg.hpi = str(r.out / "hpi_synth.csv")
    cfg.factors = str(r.out / "factors_synth.csv")
    cfg.transforms = str(r.out / "transforms_synth.json")


def _cmd_report(r: _Runner) -> None:
    """The paper's tables and figure data, each a view of a computed result."""
    summary = r.summary()
    r.write_csv("table1.csv", MSA_HEADER, [summary.ids, *summary.values.T, *summary.ranks.T])
    trend = CHARACTERISTICS.index("trend_t_stat")
    by_rank = np.argsort(summary.ranks[:, trend])
    r.write_csv("table2.csv", ["msa_id", "trend_t_stat", "rank"], [
        Labels(by_rank, summary.ids),
        summary.values[by_rank, trend],
        summary.ranks[by_rank, trend],
    ])

    summary_columns, division_columns = _correlation_tables(r)
    r.write_csv("table3.csv", SUMMARY_HEADER, summary_columns)
    r.write_csv("table4.csv", DIVISION_HEADER, division_columns)

    r.write_csv("fig2.csv", FIG_HEADER, _cohort_columns(r))
    series = r.integration().series
    r.write_csv(
        "fig3.csv",
        FIG_HEADER,
        _long((f, *beta_average(series, f)) for f in series[0].names if f != "const"),
    )
    r.write_csv("fig4.csv", FIG_HEADER, _incidence_columns(r)[:3])
    triples = []
    for name, ps, avg_r2 in _portfolios(r):
        triples.append((f"{name}_sigma", ps.sigma_codes, ps.portfolio_sigma))
        triples.append((f"{name}_diversification", ps.sigma_codes, ps.diversification))
        if avg_r2 is not None:
            triples.append((f"{name}_integration", *avg_r2))
    r.write_csv("fig5.csv", FIG_HEADER, _long(triples))

    header, columns = _contagion_columns(r)
    for name, variant, shown in (
        ("table5.csv", "base", lambda h: h != "variant" and not h.startswith("ix_")),
        ("table6.csv", "interacted", lambda h: h != "variant"),
    ):
        rows = np.flatnonzero(columns[2] == variant)
        keep = [k for k, h in enumerate(header) if shown(h)]
        r.write_csv(name, [header[k] for k in keep], [columns[k][rows] for k in keep])


def run(command: str, cfg: RunConfig) -> int:
    """Execute one command; returns the exit status (artifacts in cfg.out).

    Every step writes into a private stage beside cfg.out. Only after every
    step has returned are the artifacts moved into cfg.out, run_manifest.json
    last; if anything fails, the stage is removed and cfg.out is left as it was.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    cfg.validate()
    load = _Runner.load
    steps = {
        "synth": (_cmd_synth,),
        "ingest": (load, _cmd_ingest),
        "integrate": (load, _cmd_integrate),
        "jumps": (load, _cmd_jumps),
        "correlate": (load, _cmd_correlate),
        "contagion": (load, _cmd_contagion),
        "portfolio": (load, _cmd_portfolio),
        "report": (load, _cmd_report),
        "all": (load, _cmd_ingest, _cmd_integrate, _cmd_jumps, _cmd_correlate,
                _cmd_contagion, _cmd_portfolio, _cmd_report),
    }[command]
    out = Path(cfg.out)
    made = [p for p in out.parents if not p.exists()]  # deepest first
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name}."))
    try:
        runner = _Runner(cfg, stage)
        for step in steps:
            step(runner)
        runner.write_manifest(command)
        out.mkdir(exist_ok=True)
        names = [*sorted(set(runner.outputs)), "run_manifest.json"]
        # os.replace cannot put a file over a directory: check them all
        # before the first move, so the commit moves every file or none.
        for name in names:
            if (out / name).is_dir():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(out / name))
        for name in names:
            os.replace(stage / name, out / name)
    except BaseException:
        shutil.rmtree(made[-1] if made else stage, ignore_errors=True)
        raise
    stage.rmdir()
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
    for s in _OPTIONS:
        flag = "--" + s.option_name.replace("_", "-")
        common.add_argument(flag, dest=s.field, default=None, **s.flag)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        return run(args.command, cfg)
    except (HousingRiskError, OSError) as exc:
        # A message can quote input text; escaping its line ends keeps it one line.
        message = str(exc).replace("\r", "\\r").replace("\n", "\\n")
        print(f"housingrisk: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
