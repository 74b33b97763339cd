"""Command-line driver: ingestion -> analysis -> CSV/JSON artifacts.

Commands: ingest, integrate, jumps, correlate, contagion, portfolio, synth,
report, all. Settings merge in precedence order defaults < config file <
environment (HOUSINGRISK_*) < flags. Each ``RunConfig`` field declares its
setting's config-file key, its valid values and any flag; the config key
table ``_CONFIG_KEYS``, the config-file reader, the environment reader and
the flags are derived from the fields. The config-file reader checks the
file's layout and unknown keys against ``_CONFIG_KEYS``, and
``RunConfig.validate`` checks the merged values. A relative path in a config
file is read from the config file's directory; one from a flag or the
environment, from the working directory. ``schema.py`` is the one
place that knows how a JSON value is checked and read, for the config,
scenario and transforms files alike; a scenario file, like the config,
rejects unknown keys.

``ARTIFACTS`` is the one place a CSV artifact is declared: its file name,
the command that writes it and the builder of its header and columns. A
command writes its entries, ``all`` every entry, in table order; ``synth``
writes the generated inputs instead. A report table or figure that shows
an analysis artifact again calls that artifact's builder, so both show one
result. ``INTEGRATION_FAMILY`` beside it names the entries built on the
integration estimates; ``all`` and ``report`` hand them to one forked
child when two CPUs are usable (see ``_write_artifacts``).

A run validates its config before it reads any input. It writes every
artifact into a private stage directory beside the output directory and
moves them into the output directory only after the last one is written,
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
import signal
import sys
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path

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
    TRANSFORMS,
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
from .schema import (ANY_KEY, Key, distinct_strings, faults, instance_of, int_at_least, is_positive,
                     list_of, object_of, optional, read_json)
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


# -- the settings ----------------------------------------------------------


def _path(v) -> bool:
    return isinstance(v, str) and v != "" and "\0" not in v


def _file(v) -> bool:
    return isinstance(v, str) and Path(v).is_file()


def _setting(key, what, ok, default=None, *, factory=None, flag=None, keys=None, path=False):
    """A RunConfig field that declares one run setting.

    ``key`` is its config-file key ("section.key" for a key inside a section
    of the file); ``what``, ``ok`` and ``keys`` give its valid values as a
    ``schema.Key``; ``flag`` holds the argparse keywords of a setting that
    ``--<name>`` and ``HOUSINGRISK_<NAME>`` can also set (see ``_option_name``).
    A ``path`` setting's relative path in a config file is read from the
    config file's directory.
    """
    metadata = {"key": key, "valid": Key(what, ok, keys=keys), "flag": flag, "path": path}
    if factory is not None:
        return field(default_factory=factory, metadata=metadata)
    return field(default=default, metadata=metadata)


@dataclass
class RunConfig:
    """Resolved settings for one run; each field declares its config-file key, valid values and flag."""

    hpi: str | None = _setting("inputs.hpi", "null or an existing file", optional(_file), path=True)
    factors: str | None = _setting("inputs.factors", "null or an existing file", optional(_file), path=True)
    transforms: object = _setting(  # path, inline mapping, or None for defaults
        "inputs.transforms", "null, an existing file or an object",
        optional(lambda v: _file(v) or isinstance(v, dict)),
        keys={ANY_KEY: Key(f"one of {TRANSFORMS}", TRANSFORMS.__contains__)}, path=True)
    out: str = _setting("out", "a non-empty path", _path, "out", flag={"help": "output directory"}, path=True)
    window: int = _setting("window", "an integer at least 3", int_at_least(3), 20,
                           flag={"type": int, "help": "rolling regression window (quarters)"})
    bipower_window: int = _setting(
        "bipower_window", f"an integer at least {MIN_BIPOWER_WINDOW}", int_at_least(MIN_BIPOWER_WINDOW), 20,
        flag={"type": int, "help": "trailing window for bipower variation"})
    prewhiten: bool = _setting(
        "prewhiten", "true or false", instance_of(bool), True,
        flag={"action": "store_false", "help": "feed raw returns to the factor model instead of AR(1) residuals"})
    serial: str = _setting("serial", f"one of {SERIAL_POLICIES}", lambda v: v in SERIAL_POLICIES, "auto",
                           flag={"choices": SERIAL_POLICIES, "help": "serial-correlation policy"})
    interaction_residual: str = _setting(
        "interaction_residual", f"one of {INTERACTION_SOURCES}", lambda v: v in INTERACTION_SOURCES, "coastal",
        flag={"choices": INTERACTION_SOURCES, "help": "boom/bust residual source for interacted contagion fits"})
    seed: int | None = _setting("seed", "null or an integer at least 0", optional(int_at_least(0)),
                                flag={"type": int, "help": "override the scenario seed"})
    income_as_level: bool = _setting("income_as_level", "true or false", instance_of(bool), False)
    synth_scenario: str | None = _setting("synth_scenario", "null or an existing file", optional(_file), path=True)
    jump_threshold: float = _setting("thresholds.jump", "a positive number", is_positive, 1.65)
    big_threshold: float = _setting("thresholds.big", "a positive number", is_positive, 2.0)
    pair_sig_t: float = _setting("thresholds.pair_sig_t", "a positive number", is_positive, 5.0)
    min_overlap: int = _setting("pairs.min_overlap", "an integer at least 3", int_at_least(3), 8)
    jump_pair_floor: int = _setting("pairs.jump_floor", "an integer at least 3", int_at_least(3), 4)
    time_cohorts: dict = _setting("cohorts.time", "an object of quarters", object_of(is_quarter),
                                  factory=lambda: dict(DEFAULT_TIME_COHORTS))
    ca_coastal: tuple = _setting("cohorts.ca_coastal", "a list of strings", list_of(instance_of(str)),
                                 DEFAULT_CA_COASTAL)
    contagion_menu: dict | None = _setting("contagion", "null or an object of string lists",
                                           optional(object_of(list_of(instance_of(str)))))
    portfolios: dict = _setting(
        "portfolios", "an object", instance_of(dict), factory=lambda: json.loads(json.dumps(DEFAULT_PORTFOLIOS)),
        keys={ANY_KEY: Key("an object", instance_of(dict), keys={
            "members": Key("a list of distinct strings", distinct_strings),
            "state": Key("a string", instance_of(str)),
            "available_from": Key("a quarter", is_quarter),
        })})
    sub_ranges: dict = _setting(
        "sub_ranges", "an object of [first quarter, last quarter] pairs",
        object_of(lambda v: list_of(is_quarter)(v) and len(v) == 2),
        factory=lambda: {k: tuple(v) for k, v in DEFAULT_SUB_RANGES.items()})

    def validate(self) -> None:
        obj: dict = {}  # the settings laid out as a config file holds them
        for f in _FIELDS:
            section, _, key = f.metadata["key"].rpartition(".")
            (obj.setdefault(section, {}) if section else obj)[key] = getattr(self, f.name)
        problems = faults(_CONFIG_KEYS, obj)
        if problems:
            raise ConfigError("; ".join(problems))

    def resolved_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["version"] = __version__
        return d


_FIELDS = dataclasses.fields(RunConfig)
_OPTIONS = tuple(f for f in _FIELDS if f.metadata["flag"] is not None)


def _config_keys() -> dict:
    """The valid values of every config-file key; a section, and each portfolio, is an object with its own table."""
    table: dict = {}
    for f in _FIELDS:
        section, _, key = f.metadata["key"].rpartition(".")
        within = table.setdefault(section, Key("a JSON object", instance_of(dict), keys={})).keys if section else table
        within[key] = f.metadata["valid"]
    return table


_CONFIG_KEYS = _config_keys()


def _option_name(f) -> str:
    """The field, or ``no_<field>`` for a flag that turns a default off."""
    return ("no_" if f.metadata["flag"].get("action") == "store_false" else "") + f.name


def _from_env(f, text: str):
    """The value that ``HOUSINGRISK_<NAME>=text`` sets."""
    name = ENV_PREFIX + _option_name(f).upper()
    if f.metadata["flag"].get("action") == "store_false":
        if text.lower() in ("1", "true", "yes"):
            return False
        if text.lower() in ("0", "false", "no"):
            return True
        raise ConfigError(f"{name} must be one of 1/0, true/false, yes/no, got {text!r}")
    if f.metadata["flag"].get("type") is int:
        try:
            return int(text)
        except ValueError:
            raise ConfigError(f"{name} must be an integer, got {text!r}") from None
    return text


def _apply_config_file(cfg: RunConfig, path: str) -> None:
    try:
        obj = read_json(path)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    base = os.path.dirname(path)  # empty for a bare file name, whose paths stay as written
    for f in _FIELDS:
        section, _, key = f.metadata["key"].rpartition(".")
        values = obj.get(section) if section else obj
        value = values.get(key) if isinstance(values, dict) else None
        if f.metadata["path"] and base and isinstance(value, str) and value:
            values[key] = os.path.join(base, value)
    # The values are checked once the environment and flags have had their say.
    problems = faults(_CONFIG_KEYS, obj, values=False)
    if problems:
        raise ConfigError(f"config file {path}: " + "; ".join(problems))
    for f in _FIELDS:
        section, _, key = f.metadata["key"].rpartition(".")
        values = obj.get(section, {}) if section else obj
        if key in values:
            setattr(cfg, f.name, values[key])


def build_config(args) -> RunConfig:
    """Merge defaults < config file < environment < flags."""
    cfg = RunConfig()
    config_path = args.config or os.environ.get(ENV_PREFIX + "CONFIG")
    if config_path:
        _apply_config_file(cfg, config_path)
    for f in _OPTIONS:
        text = os.environ.get(ENV_PREFIX + _option_name(f).upper())
        if text:
            setattr(cfg, f.name, _from_env(f, text))
        if getattr(args, f.name) is not None:
            setattr(cfg, f.name, getattr(args, f.name))
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
    computes it, and every other artifact that needs it reads the same result.
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
        return integrate_panel(self.returns, self.factors, self.cfg.window, self.cfg.prewhiten)

    @_memoised
    def summary(self):
        return integration_summary(self.integration(), self.returns)

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


# -- the artifacts -------------------------------------------------------
#
# A builder returns one CSV artifact as (header, columns), as
# io.write_csv_atomic takes them; a table is a list of columns. ``_x``
# builds ``x.csv``. A builder that a view reads is ``_memoised``, so the
# view and its source share one result.

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


def _fields(records, cls) -> tuple[list[str], list[list]]:
    """The field names of dataclass ``cls`` and one column per field over ``records``."""
    names = [f.name for f in dataclasses.fields(cls)]
    return names, [[getattr(rec, name) for rec in records] for name in names]


def _panel_summary(r: _Runner):
    p = r.panel
    return ["msa_id", "msa_name", "state", "first_quarter", "last_quarter", "n_obs"], [
        p.msa_ids(),
        [m.name for m in p.msas],
        [m.state for m in p.msas],
        quarter_labels(p.start.code + p.first_offsets),
        quarter_labels(np.full(p.n_msas, p.end.code)),
        p.n_quarters - p.first_offsets,
    ]


def _integration_series(r: _Runner):
    result = r.integration()
    # Each MSA's windows from its first on, MSA by MSA.
    present = np.arange(len(result.ends)) >= result.first[:, None]
    msa, s = np.nonzero(present)
    return ["msa_id", "quarter", "r_square"] + [f"beta_{n}" for n in result.names], [
        Labels(msa, result.ids),
        quarter_labels(result.ends[s]),
        result.r_square[present],
        *result.beta[present].T,
    ]


def _integration_summary(r: _Runner):
    summary = r.summary()
    skipped = r.integration().skipped
    notes = summary.excluded + skipped

    def blank(n_rows):
        return np.full((n_rows, len(CHARACTERISTICS)), np.nan)

    # A row per MSA, cross moment, quintile and excluded or skipped MSA; NaN is written blank.
    numbers = np.block([
        [summary.values, summary.ranks],
        [summary.cross, blank(len(CROSS_STATS))],
        [summary.quintile_minima, blank(5)],
        [blank(len(notes)), blank(len(notes))],
    ])
    return ["row_type", "key"] + MSA_HEADER[1:] + ["note"], [
        Labels.repeat(["msa", "cross", "quintile_min", "excluded", "skipped"],
                      [summary.n, len(CROSS_STATS), 5, len(summary.excluded), len(skipped)]),
        [*summary.ids, *CROSS_STATS, "q1", "q2", "q3", "q4", "q5", *(msa_id for msa_id, _ in notes)],
        *numbers.T,
        [""] * (len(numbers) - len(notes)) + [reason for _, reason in notes],
    ]


@_memoised
def _cohort_averages(r: _Runner):
    """Entry-time cohorts plus the CA coastal/inland split: (cohort, quarter, average R²)."""
    integ = r.integration()
    return ["cohort", "quarter", "avg_r_square"], _long([
        (name, *cohort_average(integ, members, start))
        for name, members, start in _cohort_plan(r, integ)
    ])


def _cohort_plan(r: _Runner, integ):
    """(name, members, start) triples for every non-empty cohort."""
    have = dict(zip(integ.ids, integ.ends[integ.first].tolist()))  # MSA -> its first window end
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


def _jump_series(r: _Runner):
    jumps = r.jumps()
    # Each MSA's quarters from its first return on, MSA by MSA.
    present = np.arange(len(jumps.L)) >= jumps.first_offsets[:, None]
    msa, t = np.nonzero(present)
    return ["msa_id", "quarter", "L", "L_scaled", "jump_flag", "big_flag", "testable"], [
        Labels(msa, jumps.ids),
        quarter_labels(jumps.start.code + t),
        *(a.T[present] for a in (jumps.L, jumps.L_scaled, jumps.jump_flag, jumps.big_flag, jumps.testable)),
    ]


@_memoised
def _jump_incidence(r: _Runner):
    """(cohort, quarter, pct, n_flagged, n_testable) of big flags per CA cohort."""
    jumps = r.jumps()
    parts = []
    for cohort, members in r.ca_cohorts().items():
        wanted = set(members)
        columns = np.flatnonzero([msa_id in wanted for msa_id in jumps.ids])
        if columns.size:
            parts.append((cohort, *jump_incidence(jumps, columns, flag="big")))
    names, codes, pct, flagged, testable = zip(*parts)  # every run has the us cohort
    return ["cohort", "quarter", "pct", "n_flagged", "n_testable"], (
        _long(zip(names, codes, pct)) + [_concat(flagged, int), _concat(testable, int)])


def _pair_correlations(r: _Runner):
    sets = r.pair_sets()
    ids = [msa_id for p in sets for msa_id in p.ids]  # each set's ids, one after another
    offsets = np.cumsum([0] + [len(p.ids) for p in sets[:-1]])
    counts = [len(p) for p in sets]
    return ["msa_i", "msa_j", "kind", "timing", "r", "n", "t"], [
        Labels(_concat([p.i + off for p, off in zip(sets, offsets)], int), ids),
        Labels(_concat([p.j + off for p, off in zip(sets, offsets)], int), ids),
        Labels.repeat([p.kind for p in sets], counts),
        Labels.repeat([p.timing for p in sets], counts),
        _concat([p.r for p in sets], float),
        _concat([p.n for p in sets], int),
        _concat([p.t for p in sets], float),
    ]


@_memoised
def _correlation_summary(r: _Runner):
    summaries = [s for pairs in r.pair_sets() if pairs for s in correlation_summary(pairs)]
    header, columns = _fields(summaries, CorrelationSummary)
    return header, [["none" if v is None else v for v in column] for column in columns]


@_memoised
def _division_report(r: _Runner):
    states = {m.msa_id: m.state for m in r.panel.msas if m.state}
    return _fields(cohort_correlation_report(r.pair_sets(), states, r.cfg.pair_sig_t), DivisionRow)


def _resolve_contagion_menu(r: _Runner) -> list[tuple[str, str]]:
    """(source id, target id) pairs for the contagion command, each once.

    Priority: explicit config (ids or name fragments) > default city menu
    matched against MSA names > pairs planted by this run's synthetic
    scenario > a first-vs-next fallback so the artifact always exists. A
    pair that two references resolve to (an id and a name fragment, say)
    is listed the first time.
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
        return list(dict.fromkeys(pairs))

    if r.cfg.contagion_menu is not None:
        pairs = expand(r.cfg.contagion_menu, strict=True)
        if not pairs:
            raise ConfigError("contagion menu resolves to no pair of distinct source and target MSAs")
        return pairs
    pairs = expand(PRIMARY_CITY_MENU, strict=False)
    if pairs:
        return pairs

    if r.ground_truth is not None:
        planted = r.ground_truth.get("contagion", [])
        pairs = list(dict.fromkeys((entry["source"], entry["target"]) for entry in planted))
    if pairs:
        return pairs

    ordered = sorted(ids)
    return [(ordered[0], t) for t in ordered[1 : min(4, len(ordered))]]


@_memoised
def _interaction_residual(r: _Runner, source: str | None):
    """(first quarter code, residual values) per the configured residual source.

    ``source`` is None for the ca-equal-weighted residual, which is the
    same for every source. The values run to the end of the panel; too
    short a history gives None.
    """
    try:
        if source is not None:
            first, levels = r.panel.series(source)
            return first.code, boombust_residual(levels)
        members = r.state_members("CA")
        if not members:
            raise ConfigError(
                "interaction_residual=ca-equal-weighted needs MSAs with state CA"
            )
        codes, rets, _ = portfolio_returns(r.returns, members)
        levels = np.empty(rets.size + 1)
        levels[0] = 100.0
        levels[1:] = 100.0 * np.exp(np.cumsum(rets) / 100.0)
        return int(codes[0]) - 1, boombust_residual(levels)
    except InsufficientHistoryError:
        return None


@_memoised
def _contagion_fits(r: _Runner):
    """Fit every configured source→target pair once.

    A pair's overlap is the rows of the return grid from the later of its
    two first quarters to the end. The pairs that share a source and an
    overlap share one design; one ``contagion_fits`` call per variant fits
    every such group, with the Cochrane-Orcutt rounds of all of them in
    lockstep. Rows stay in sorted pair order,
    then base before interacted; a pair whose overlap is too short is one
    ``skipped`` row, and a variant whose fit fails is a ``skipped`` row
    naming the variant and the error.
    """
    n_lags = 3
    header = ["target", "source", "variant", "n", "method", "rho", "r_square", "dw", "const", "const_t"]
    for l in range(n_lags + 1):
        header += [f"lag{l}", f"lag{l}_t"]
    for l in range(n_lags + 1):
        header += [f"ix_lag{l}", f"ix_lag{l}_t"]
    per_source = r.cfg.interaction_residual == "coastal"
    grid = r.returns
    pairs = sorted(_resolve_contagion_menu(r))
    source, target = np.array([[grid.column(m) for m in pair] for pair in pairs], dtype=int).reshape(-1, 2).T
    lo = np.maximum(grid.first_offsets[source], grid.first_offsets[target])
    groups: dict[tuple[int, int], list[int]] = {}
    for at, key in enumerate(zip(source.tolist(), lo.tolist())):
        groups.setdefault(key, []).append(at)

    # Row v of pair p is its base (v = 0) or interacted (v = 1) row; each pair
    # starts as one row skipped for insufficient overlap.
    shown = np.tile([True, False], (len(pairs), 1))
    variant = np.full((len(pairs), 2), "skipped", dtype=object)
    n = np.repeat(grid.n_quarters - lo, 2).reshape(-1, 2)
    method = np.full((len(pairs), 2), "insufficient overlap", dtype=object)
    numbers = np.full((len(pairs), 2, len(header) - 5), np.nan)  # rho, R², DW, (coefficient, t) pairs
    variants = ([], [])  # per variant, (pair indices, (targets, source, residual)) of each group
    for (s, first), at in groups.items():
        if grid.n_quarters - first < n_lags + 8:
            continue
        sv = grid.values[first:, s]
        block = grid.values[first:, target[at]].T
        res = _interaction_residual(r, grid.msas[s].msa_id if per_source else None)
        code = grid.start.code + first
        variants[0].append((at, (block, sv, None)))
        if res is not None and res[0] <= code:
            variants[1].append((at, (block, sv, res[1][code - res[0]:])))
    for v, (name, entries) in enumerate(zip(("base", "interacted"), variants)):
        for (at, _), fits in zip(entries, contagion_fits([group for _, group in entries], n_lags, r.cfg.serial)):
            ok = np.array([exc is None for exc in fits.errors])
            shown[at, v] = True
            variant[at, v] = np.where(ok, name, "skipped")
            n[at, v] = np.where(ok, fits.n_obs, n[at, v])
            method[at, v] = [m if exc is None else f"{name}: {exc}" for m, exc in zip(fits.methods, fits.errors)]
            cells = np.stack([fits.coefficients, fits.t_stats], axis=2).reshape(len(at), -1)
            values = np.column_stack([fits.rho, fits.r_square, fits.durbin_watson, cells])
            numbers[at, v, : values.shape[1]] = values  # NaN where the fit failed
    pair_at = np.repeat(np.arange(len(pairs)), 2)[shown.ravel()]
    return header, [
        Labels(pair_at, [msa for _, msa in pairs]),
        Labels(pair_at, [msa for msa, _ in pairs]),
        variant[shown],
        n[shown],
        method[shown],
        *numbers[shown].T,
    ]


def _contagion_variant(r: _Runner, variant: str):
    """contagion_fits.csv's ``variant`` rows without the variant column; a base fit has no ix_ columns."""
    header, columns = _contagion_fits(r)
    rows = np.flatnonzero(columns[2] == variant)
    keep = [k for k, h in enumerate(header) if h != "variant" and not (variant == "base" and h.startswith("ix_"))]
    return [header[k] for k in keep], [columns[k][rows] for k in keep]


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
    integ = r.integration()
    have = set(integ.ids)
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
        out.append((name, ps, cohort_average(integ, int_members) if int_members else None))
    return out


def _portfolio_series(r: _Runner):
    portfolios = _portfolios(r)

    def on_return_quarters(column):
        """The per-window values of every portfolio, blank before each one's first window."""
        return _concat([np.concatenate([np.full(ps.returns.size - ps.sigma_codes.size, np.nan),
                                        getattr(ps, column)]) for _, ps, _ in portfolios], float)

    return ["portfolio", "quarter", "port_return", "port_sigma", "avg_member_sigma", "diversification"], [
        Labels.repeat([name for name, _, _ in portfolios], [ps.returns.size for _, ps, _ in portfolios]),
        quarter_labels(_concat([ps.return_codes for _, ps, _ in portfolios], int)),
        _concat([ps.returns for _, ps, _ in portfolios], float),
        on_return_quarters("portfolio_sigma"),
        on_return_quarters("avg_member_sigma"),
        on_return_quarters("diversification"),
    ]


def _series_correlations(r: _Runner):
    ranges = [("full", None, None)] + [
        (rng_name, parse_quarter(lo), parse_quarter(hi))
        for rng_name, (lo, hi) in sorted(r.cfg.sub_ranges.items())
    ]
    correlations = [[] for _ in range(6)]
    for name, ps, avg_r2 in _portfolios(r):
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
    return ["portfolio", "series_a", "series_b", "range", "r", "n"], correlations


def _cmd_synth(r: _Runner) -> None:
    """Generate the scenario's inputs and point the run's inputs at them."""
    cfg = r.cfg
    if cfg.synth_scenario is None:
        raise ConfigError("synth needs a synth_scenario in the config")
    path = cfg.synth_scenario
    try:
        obj = read_json(path)
    except ValueError as exc:
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


def _table1(r: _Runner):
    summary = r.summary()
    return MSA_HEADER, [summary.ids, *summary.values.T, *summary.ranks.T]


def _table2(r: _Runner):
    summary = r.summary()
    trend = CHARACTERISTICS.index("trend_t_stat")
    by_rank = np.argsort(summary.ranks[:, trend])
    return ["msa_id", "trend_t_stat", "rank"], [
        Labels(by_rank, summary.ids),
        summary.values[by_rank, trend],
        summary.ranks[by_rank, trend],
    ]


def _fig3(r: _Runner):
    integ = r.integration()
    return FIG_HEADER, _long((f, *beta_average(integ, f)) for f in integ.names if f != "const")


def _fig5(r: _Runner):
    triples = []
    for name, ps, avg_r2 in _portfolios(r):
        triples.append((f"{name}_sigma", ps.sigma_codes, ps.portfolio_sigma))
        triples.append((f"{name}_diversification", ps.sigma_codes, ps.diversification))
        if avg_r2 is not None:
            triples.append((f"{name}_integration", *avg_r2))
    return FIG_HEADER, _long(triples)


# Every CSV artifact: (file name, the command that writes it, builder), in
# the order ``all`` writes them. The report's tables and figures are views
# of the analysis artifacts.
ARTIFACTS = (
    ("panel_summary.csv", "ingest", _panel_summary),
    ("integration_series.csv", "integrate", _integration_series),
    ("integration_summary.csv", "integrate", _integration_summary),
    ("cohort_averages.csv", "integrate", _cohort_averages),
    ("jump_series.csv", "jumps", _jump_series),
    ("jump_incidence.csv", "jumps", _jump_incidence),
    ("pair_correlations.csv", "correlate", _pair_correlations),
    ("correlation_summary.csv", "correlate", _correlation_summary),
    ("division_report.csv", "correlate", _division_report),
    ("contagion_fits.csv", "contagion", _contagion_fits),
    ("portfolio_series.csv", "portfolio", _portfolio_series),
    ("series_correlations.csv", "portfolio", _series_correlations),
    ("table1.csv", "report", _table1),
    ("table2.csv", "report", _table2),
    ("table3.csv", "report", _correlation_summary),
    ("table4.csv", "report", _division_report),
    ("fig2.csv", "report", lambda r: (FIG_HEADER, _cohort_averages(r)[1])),
    ("fig3.csv", "report", _fig3),
    ("fig4.csv", "report", lambda r: (FIG_HEADER, _jump_incidence(r)[1][:3])),
    ("fig5.csv", "report", _fig5),
    ("table5.csv", "report", lambda r: _contagion_variant(r, "base")),
    ("table6.csv", "report", lambda r: _contagion_variant(r, "interacted")),
)

# The entries whose builders read ``r.integration()``: the integration
# estimates, the portfolio simulation built on them and their views. No
# memoised result is read both by one of these and by another entry, so a
# forked child can write them while the parent writes the rest.
INTEGRATION_FAMILY = frozenset({
    "integration_series.csv", "integration_summary.csv", "cohort_averages.csv",
    "portfolio_series.csv", "series_correlations.csv",
    "table1.csv", "table2.csv", "fig2.csv", "fig3.csv", "fig5.csv",
})


def _write_entries(r: _Runner, entries) -> tuple | None:
    """Write (ARTIFACTS index, name, builder) entries in order; (index, exception) of the first that fails."""
    for at, name, build in entries:
        try:
            r.write_csv(name, *build(r))
        except Exception as exc:
            return at, exc
    return None


def _write_artifacts(r: _Runner, entries: list) -> None:
    """Write (ARTIFACTS index, name, builder) entries into the stage.

    When they hold ``INTEGRATION_FAMILY`` entries and others, ``os.fork``
    exists and two CPUs are usable, one forked child writes the family while
    this process writes the rest; otherwise this process writes them all.
    The child is only a speed-up: if it does not exit 0 (an entry failed, or
    it was killed), this process writes the family itself, so a run's bytes
    and its error are those of a one-process run: the error of the first
    failing entry in table order. On an interrupt, or an error while it
    waits, it kills and reaps the child: no child outlives the call.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else ()
    forked = [e for e in entries if e[1] in INTEGRATION_FAMILY]
    if len(forked) == len(entries) or len(cpus) < 2:
        forked = []
    child = None
    try:
        child = _fork_writer(r, forked) if forked else None
        failures = [_write_entries(r, [e for e in entries if e not in forked])]
        if child is not None:
            _, status = os.waitpid(child, 0)
            child = None
            if status:
                failures.append(_write_entries(r, forked))
            else:
                r.outputs += [name for _, name, _ in forked]
    finally:
        if child is not None:
            os.kill(child, signal.SIGKILL)
            os.waitpid(child, 0)
    failures = [f for f in failures if f]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]


def _fork_writer(r: _Runner, entries) -> int:
    """Fork a child that writes ``entries`` and leaves by ``os._exit``, with
    status 0 only if it wrote every one; its pid."""
    with warnings.catch_warnings():
        # Python 3.12+ warns when a process with threads (BLAS's, say) forks.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        try:
            os._exit(1 if _write_entries(r, entries) else 0)
        finally:
            os._exit(1)
    return pid


def run(command: str, cfg: RunConfig) -> int:
    """Execute one command; returns the exit status (artifacts in cfg.out).

    ``synth`` writes the generated inputs; every other command loads the
    inputs and writes its ``ARTIFACTS``, ``all`` every one. Every file goes
    into a private stage beside cfg.out. Only after the last one is written
    are they moved into cfg.out, run_manifest.json last; if anything fails,
    the stage is removed and cfg.out is left as it was.
    """
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    cfg.validate()
    out = Path(cfg.out)
    made = [p for p in out.parents if not p.exists()]  # deepest first
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(dir=out.parent, prefix=f".{out.name}."))
    try:
        runner = _Runner(cfg, stage)
        if command == "synth":
            _cmd_synth(runner)
        else:
            runner.load()
        _write_artifacts(runner, [(at, name, build) for at, (name, writer, build) in enumerate(ARTIFACTS)
                                  if command in (writer, "all")])
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
    shutil.rmtree(stage)  # a killed child can leave a temp file behind
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
    for f in _OPTIONS:
        flag = "--" + _option_name(f).replace("_", "-")
        common.add_argument(flag, dest=f.name, default=None, **f.metadata["flag"])
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
