"""Synthetic panel generator with known ground truth.

Scenarios plant a factor structure, AR(1) idiosyncratic noise, jumps, and
lagged contagion into a return panel, then cumulate index levels from a
base of 100. The generator draws from numpy's default_rng (PCG64) in a
fixed, documented order — factors, then pre-sample AR states, then one
innovation block — so a seed pins every byte of output. The closed-form
signal share per MSA (explained over total stationary variance) is the
oracle for the integration estimator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import FactorTable, IndexPanel, MsaInfo, QuarterIndex, is_quarter, parse_quarter
from .errors import ConfigError
from .schema import Key, faults, instance_of, int_at_least, is_int, is_number, is_numbers, is_ref, list_of

__all__ = [
    "JumpPlan",
    "ContagionPlan",
    "ScenarioConfig",
    "GroundTruth",
    "generate_panel",
    "ground_truth_report",
    "loading_for_signal_share",
    "scenario_from_json",
]

# Cycled through for synthetic MSA states so division reports have
# something to chew on without extra configuration.
_DEFAULT_STATES = ("CA", "TX", "NY", "FL", "IL", "WA", "MA", "CO", "GA", "MN")


@dataclass(frozen=True)
class JumpPlan:
    """One planted jump: ``quarter`` is a 0-based return-quarter offset or a
    QuarterIndex; ``magnitude`` is in stationary idiosyncratic-sigma units."""

    quarter: int | QuarterIndex
    msas: tuple
    magnitude: float


@dataclass(frozen=True)
class ContagionPlan:
    """Adds sum_l weights[l] * base_return[t - l, source] to the target."""

    source: int | str
    target: int | str
    weights: tuple[float, ...]


@dataclass(frozen=True)
class ScenarioConfig:
    n_msas: int
    n_quarters: int
    n_factors: int
    loadings: object = 0.0  # scalar, (n_factors,), (n_msas, n_factors), or a full (n_quarters, n_msas, n_factors) path
    idio_sigma: object = 1.0  # scalar or per-MSA
    phi: object = 0.0  # scalar or per-MSA
    mu: object = 0.0  # scalar or per-MSA drift
    jumps: tuple[JumpPlan, ...] = ()
    contagion: tuple[ContagionPlan, ...] = ()
    seed: int = 0
    start: QuarterIndex = field(default_factory=lambda: QuarterIndex(1980, 1))
    states: tuple[str, ...] | None = None

    def msa_ids(self) -> tuple[str, ...]:
        return tuple(f"S{i + 1:03d}" for i in range(self.n_msas))


@dataclass(frozen=True)
class GroundTruth:
    """What the generator planted, in closed form, for test harnesses."""

    msa_ids: tuple[str, ...]
    signal_share: np.ndarray
    jumps: tuple[tuple[str, int, float], ...]  # (msa_id, quarter code, magnitude)
    contagion: tuple[tuple[str, str, tuple[float, ...]], ...]


def loading_for_signal_share(share: float, n_factors: int, idio_sigma: float) -> float:
    """Uniform per-factor loading giving the requested signal share of
    white (phi = 0) idiosyncratic noise."""
    if not 0.0 <= share < 1.0:
        raise ValueError("share must be in [0, 1)")
    return float(np.sqrt(share / (1.0 - share) * idio_sigma**2 / n_factors))


def _as_array(value, name: str, problems: list[str]) -> np.ndarray | None:
    """``value`` as a float array, or None (and a problem) for a ragged list."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        problems.append(f"{name} must be a number or a regular nested list of numbers")
        return None


def _per_msa(value, n: int, name: str, problems: list[str]) -> np.ndarray:
    arr = _as_array(value, name, problems)
    if arr is None:
        return np.zeros(n)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.shape != (n,):
        problems.append(f"{name} must be a scalar or length-{n}, got shape {arr.shape}")
        return np.zeros(n)
    return arr.copy()


def _resolve_msa(ref, ids: tuple[str, ...], problems: list[str], context: str) -> int:
    if isinstance(ref, (int, np.integer)):
        if 0 <= int(ref) < len(ids):
            return int(ref)
        problems.append(f"{context}: MSA index {ref} out of range")
        return 0
    try:
        return ids.index(ref)
    except ValueError:
        problems.append(f"{context}: unknown MSA {ref!r}")
        return 0


# The most cells, n_msas * n_quarters * max(n_factors, 1), a scenario may
# hold: about 15 times the 384 * 140 * 12 = 645,120 of the paper-scale
# scenario. A larger one is refused before anything of its size is built.
MAX_SCENARIO_CELLS = 10**7


def _check_size(n_m: int, n_q: int, n_f: int) -> None:
    if n_m * n_q * max(n_f, 1) > MAX_SCENARIO_CELLS:
        raise ConfigError(
            f"invalid scenario: n_msas * n_quarters * max(n_factors, 1) must be at most {MAX_SCENARIO_CELLS:,}")


def _normalize(config: ScenarioConfig):
    """Validate the config, collecting every problem before raising."""
    problems: list[str] = []
    if config.n_msas < 1:
        problems.append("n_msas must be >= 1")
    if config.n_quarters < 2:
        problems.append("n_quarters must be >= 2")
    if config.n_factors < 0:
        problems.append("n_factors must be >= 0")
    if config.seed < 0:
        problems.append("seed must be >= 0")
    if problems:
        raise ConfigError("invalid scenario: " + "; ".join(problems))

    n_m, n_q, n_f = config.n_msas, config.n_quarters, config.n_factors
    _check_size(n_m, n_q, n_f)
    ids = config.msa_ids()

    L = _as_array(config.loadings, "loadings", problems)
    if L is None:
        L = np.zeros((n_m, n_f))
    elif L.ndim == 0:
        L = np.full((n_m, n_f), float(L))
    elif L.ndim == 1 and L.shape == (n_f,):
        L = np.tile(L, (n_m, 1))
    elif L.ndim == 2 and L.shape == (n_m, n_f):
        pass
    elif L.ndim == 3 and L.shape == (n_q, n_m, n_f):
        pass
    else:
        problems.append(
            f"loadings shape {L.shape} fits neither ({n_m}, {n_f}) nor "
            f"({n_q}, {n_m}, {n_f})"
        )
        L = np.zeros((n_m, n_f))

    sigma = _per_msa(config.idio_sigma, n_m, "idio_sigma", problems)
    if np.any(sigma < 0):
        problems.append("idio_sigma must be non-negative")
    phi = _per_msa(config.phi, n_m, "phi", problems)
    if np.any(np.abs(phi) >= 1.0):
        problems.append("phi must satisfy |phi| < 1")
    mu = _per_msa(config.mu, n_m, "mu", problems)

    states = config.states
    if states is None:
        states = tuple(_DEFAULT_STATES[i % len(_DEFAULT_STATES)] for i in range(n_m))
    if len(states) != n_m:
        problems.append(f"states must have {n_m} entries, got {len(states)}")

    jumps = []
    for p in config.jumps:
        if isinstance(p.quarter, QuarterIndex):
            q = p.quarter.code - (config.start.code + 1)
        else:
            q = int(p.quarter)
        if not 0 <= q < n_q:
            problems.append(f"jump quarter {p.quarter} outside the return range")
            continue
        idx = [_resolve_msa(m, ids, problems, "jump plan") for m in p.msas]
        jumps.append((q, tuple(idx), float(p.magnitude)))

    contagion = []
    for p in config.contagion:
        src = _resolve_msa(p.source, ids, problems, "contagion plan")
        tgt = _resolve_msa(p.target, ids, problems, "contagion plan")
        if src == tgt:
            problems.append(f"contagion plan maps {ids[src]} onto itself")
        if not 1 <= len(p.weights) <= n_q:
            problems.append("contagion weights must have between 1 and n_quarters entries")
        contagion.append((src, tgt, tuple(float(w) for w in p.weights)))

    if problems:
        raise ConfigError("invalid scenario: " + "; ".join(problems))
    return L, sigma, phi, mu, tuple(states), jumps, contagion


def _signal_share(L: np.ndarray, sigma: np.ndarray, phi: np.ndarray) -> np.ndarray:
    if L.ndim == 3:
        sig_var = (L**2).sum(axis=2).mean(axis=0)
    else:
        sig_var = (L**2).sum(axis=1)
    idio_var = sigma**2 / (1.0 - phi**2)
    total = sig_var + idio_var
    with np.errstate(invalid="ignore"):
        share = np.where(total > 0, sig_var / np.where(total > 0, total, 1.0), 0.0)
    return share


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported below
def generate_panel(config: ScenarioConfig) -> tuple[IndexPanel, FactorTable, GroundTruth]:
    """Build (IndexPanel, FactorTable, GroundTruth) from a scenario.

    Returns start one quarter after ``config.start`` (the level base
    quarter); the factor table is aligned to return quarters. Contagion
    weights are applied to the source's base returns (factors + noise +
    jumps), so chained plans never feed back.
    """
    L, sigma, phi, mu, states, jumps, contagion = _normalize(config)
    n_m, n_q, n_f = config.n_msas, config.n_quarters, config.n_factors
    ids = config.msa_ids()

    rng = np.random.default_rng(config.seed)
    F = rng.standard_normal((n_q, n_f))
    pre = rng.standard_normal(n_m)
    eta = rng.standard_normal((n_q, n_m))

    stat_sd = sigma / np.sqrt(1.0 - phi**2)
    innov = sigma * eta
    idio = np.empty((n_q, n_m))
    prev = stat_sd * pre  # each MSA's AR(1) starts from its stationary distribution
    for t in range(n_q):
        prev = idio[t] = innov[t] + phi * prev

    if L.ndim == 3:
        common = np.einsum("tif,tf->ti", L, F, optimize=False)
    else:
        common = np.einsum("if,tf->ti", L, F, optimize=False)
    base = common + idio + mu[None, :]

    for q, idx, mag in jumps:
        for i in idx:
            base[q, i] += mag * stat_sd[i]

    returns = base.copy()
    for src, tgt, weights in contagion:
        for lag, w in enumerate(weights):
            returns[lag:, tgt] += w * base[: n_q - lag, src]

    levels = np.empty((n_q + 1, n_m))
    levels[0] = 100.0
    levels[1:] = 100.0 * np.exp(np.cumsum(returns, axis=0) / 100.0)
    if not (np.isfinite(levels) & (levels > 0)).all():
        raise ConfigError(
            "invalid scenario: index levels leave the floating-point range; "
            "lower mu, loadings, idio_sigma, jump magnitudes or contagion weights"
        )

    infos = tuple(MsaInfo(ids[i], ids[i], states[i]) for i in range(n_m))
    panel = IndexPanel(infos, config.start, levels)
    factor_ids = tuple(f"F{k + 1:02d}" for k in range(n_f))
    table = FactorTable(factor_ids, config.start + 1, F.copy())
    truth = GroundTruth(
        msa_ids=ids,
        signal_share=_signal_share(L, sigma, phi),
        jumps=tuple(
            (ids[i], config.start.code + 1 + q, mag)
            for q, idx, mag in jumps
            for i in idx
        ),
        contagion=tuple((ids[s], ids[t], w) for s, t, w in contagion),
    )
    return panel, table, truth


def ground_truth_report(truth: GroundTruth) -> dict:
    """JSON-ready table of planted quantities."""
    return {
        "signal_share": {
            m: float(s) for m, s in zip(truth.msa_ids, truth.signal_share)
        },
        "jumps": [
            {
                "msa_id": m,
                "quarter": str(QuarterIndex.from_code(code)),
                "magnitude": mag,
            }
            for m, code, mag in truth.jumps
        ],
        "contagion": [
            {"source": s, "target": t, "weights": list(w)}
            for s, t, w in truth.contagion
        ],
    }


# Every key of a ramp "loadings", a jump and a contagion plan is required.
_RAMP_KEYS = {
    "kind": Key('"ramp"', lambda v: v == "ramp", True),
    "start": Key("a number", is_number, True),
    "end": Key("a number", is_number, True),
}
_JUMP_KEYS = {
    "quarter": Key("an integer or a quarter", lambda v: is_int(v) or is_quarter(v), True),
    "msas": Key("a list of MSA indices or ids", list_of(is_ref), True),
    "magnitude": Key("a number", is_number, True),
}
_CONTAGION_KEYS = {
    "source": Key("an MSA index or id", is_ref, True),
    "target": Key("an MSA index or id", is_ref, True),
    "weights": Key("a list of numbers", list_of(is_number), True),
}
_SCENARIO_KEYS = {
    "n_msas": Key("an integer at least 1", int_at_least(1), True),
    "n_quarters": Key("an integer at least 2", int_at_least(2), True),
    "n_factors": Key("an integer at least 0", int_at_least(0), True),
    "seed": Key("an integer at least 0", int_at_least(0)),
    "start": Key("a quarter", is_quarter),
    "loadings": Key("a number, a list of numbers or a ramp object",
                    lambda v: is_numbers(v) or isinstance(v, dict), keys=_RAMP_KEYS),
    "idio_sigma": Key("a number or a list of numbers", is_numbers),
    "phi": Key("a number or a list of numbers", is_numbers),
    "mu": Key("a number or a list of numbers", is_numbers),
    "states": Key("a list of printable strings", list_of(lambda v: isinstance(v, str) and v.isprintable())),
    "jumps": Key("a list of objects", list_of(instance_of(dict)), keys=_JUMP_KEYS),
    "contagion": Key("a list of objects", list_of(instance_of(dict)), keys=_CONTAGION_KEYS),
}


def scenario_from_json(obj: dict) -> ScenarioConfig:
    """Build a ScenarioConfig from a parsed JSON scenario file.

    ``loadings`` may be a number, a nested list, or {"kind": "ramp",
    "start": a, "end": b} for a loading that rises linearly over the sample
    (the rising-integration emulation). A missing key, a value of the
    wrong type or an unknown key, at the top level or in a ramp, a jump or
    a contagion plan, raises one ConfigError naming every such key.
    """
    if not isinstance(obj, dict):
        raise ConfigError("scenario file must hold a JSON object")
    problems = faults(_SCENARIO_KEYS, obj)
    if problems:
        raise ConfigError("invalid scenario: " + "; ".join(problems))
    fields = dict(obj)  # the table admits only ScenarioConfig's fields
    n_m, n_q, n_f = obj["n_msas"], obj["n_quarters"], obj["n_factors"]
    _check_size(n_m, n_q, n_f)  # before a ramp builds its (n_quarters, n_msas, n_factors) path

    loadings = obj.get("loadings")
    if isinstance(loadings, dict):
        a, b = loadings["start"], loadings["end"]
        ramp = a + (b - a) * np.arange(n_q) / (n_q - 1)
        fields["loadings"] = np.broadcast_to(ramp[:, None, None], (n_q, n_m, n_f)).copy()
    if "start" in obj:
        fields["start"] = parse_quarter(obj["start"])
    if "states" in obj:
        fields["states"] = tuple(obj["states"])
    fields["jumps"] = tuple(
        JumpPlan(
            quarter=parse_quarter(j["quarter"]) if isinstance(j["quarter"], str) else j["quarter"],
            msas=tuple(j["msas"]),
            magnitude=float(j["magnitude"]),
        )
        for j in obj.get("jumps", ())
    )
    fields["contagion"] = tuple(
        ContagionPlan(
            source=c["source"], target=c["target"],
            weights=tuple(float(w) for w in c["weights"]),
        )
        for c in obj.get("contagion", ())
    )
    return ScenarioConfig(**fields)
