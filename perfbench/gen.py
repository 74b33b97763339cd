"""Seeded input generator for the benchmark workloads.

Writes an HPI panel, a factor table and a run config in the schemas that
``housingrisk ingest`` reads, plus a ``truth.json`` with the planted jumps
and contagion weights that the output check compares against. It uses
numpy only and never imports ``housingrisk``, so a change to the package's
own synthetic generator cannot move a workload.

The same (workload, seed) pair always gives the same bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Factor ids and transforms of the package's default transform map; the
# config leaves transforms unset, so the defaults apply.
PCT_FACTORS = ("CNP16OV", "CPILFESL", "INDPRO", "PAYEMS", "PPIITM", "SP500", "INCOME")
LEVEL_FACTORS = ("FEDFUNDS", "GS10", "PERMIT1", "UMCSENT", "UNRATE")
FACTORS = PCT_FACTORS + LEVEL_FACTORS

# California metros. The name fragments of the default CA coastal cohort
# and of the default primary-city contagion menu each match exactly one.
CA_METROS = (
    "Bakersfield, CA",
    "Chico, CA",
    "El Centro, CA",
    "Fresno, CA",
    "Hanford-Corcoran, CA",
    "Los Angeles-Long Beach-Glendale, CA",
    "Madera, CA",
    "Merced, CA",
    "Modesto, CA",
    "Napa, CA",
    "Oakland-Hayward-Berkeley, CA",
    "Oxnard-Thousand Oaks-Ventura, CA",
    "Redding, CA",
    "Riverside-San Bernardino-Ontario, CA",
    "Sacramento-Roseville-Folsom, CA",
    "Salinas, CA",
    "San Diego-Chula Vista-Carlsbad, CA",
    "San Francisco-Redwood City-South San Francisco, CA",
    "San Jose-Sunnyvale-Santa Clara, CA",
    "San Luis Obispo-Paso Robles, CA",
    "Santa Ana-Anaheim-Irvine, CA",
    "Santa Barbara-Santa Maria-Goleta, CA",
    "Santa Cruz-Watsonville, CA",
    "Santa Rosa-Petaluma, CA",
    "Stockton-Lodi, CA",
    "Vallejo-Fairfield, CA",
    "Visalia-Porterville, CA",
    "Yuba City, CA",
)

# Name fragments that must resolve to one CA metro each.
CA_FRAGMENTS = (
    "Bakersfield", "Fresno", "Los Angeles", "Merced", "Modesto", "Napa",
    "Oakland", "Oxnard", "Riverside", "Sacramento", "Salinas", "San Diego",
    "San Francisco", "San Jose", "San Luis Obispo", "Santa Ana",
    "Santa Barbara", "Santa Cruz", "Santa Rosa", "Stockton", "Vallejo",
)

# Contagion pairs planted on the panel workloads: a subset of the default
# primary-city menu in which each target has a single source.
MENU_PLANTS = (
    ("Los Angeles", "Bakersfield"),
    ("Los Angeles", "Fresno"),
    ("Los Angeles", "Riverside"),
    ("Los Angeles", "San Diego"),
    ("San Francisco", "Merced"),
    ("San Francisco", "Modesto"),
    ("San Francisco", "Napa"),
    ("San Francisco", "Sacramento"),
    ("San Francisco", "Santa Rosa"),
    ("San Francisco", "Stockton"),
    ("San Francisco", "Vallejo"),
    ("Santa Barbara", "San Luis Obispo"),
)

# Every state outside CA with a census division, weighted roughly by its
# number of metros.
OTHER_STATES = (
    ("TX", 25), ("FL", 22), ("PA", 16), ("OH", 14), ("NY", 13), ("NC", 14),
    ("MI", 14), ("GA", 13), ("IN", 12), ("WA", 11), ("WI", 12), ("IL", 10),
    ("TN", 10), ("VA", 10), ("AL", 11), ("MO", 8), ("LA", 9), ("OR", 8),
    ("SC", 9), ("CO", 7), ("MN", 7), ("KY", 7), ("AZ", 7), ("OK", 5),
    ("IA", 8), ("AR", 6), ("NJ", 6), ("MS", 4), ("KS", 4), ("MA", 5),
    ("MD", 4), ("UT", 5), ("ID", 5), ("NM", 4), ("NE", 3), ("WV", 6),
    ("ME", 3), ("NV", 3), ("MT", 3), ("CT", 4), ("ND", 3), ("SD", 2),
    ("NH", 1), ("DE", 1), ("RI", 1), ("VT", 1), ("WY", 2), ("AK", 2),
    ("HI", 2), ("DC", 1),
)

# Town names for the metros outside CA; combined in pairs so that every
# name is distinct and none contains a CA fragment.
TOWNS = (
    "Abbot", "Ashford", "Bayview", "Belmont", "Brookfield", "Carlton",
    "Cedar Falls", "Clayton", "Dover", "Easton", "Elmwood", "Fairview",
    "Franklin", "Glenwood", "Granville", "Hampton", "Harlow", "Hillsdale",
    "Kingsport", "Lakewood", "Lancaster", "Linden", "Madison", "Marion",
    "Milford", "Newport", "Northfield", "Oakdale", "Oxford", "Pinehurst",
    "Plainview", "Riverton", "Rockport", "Salem", "Shelby", "Springfield",
    "Sterling", "Troy", "Union City", "Waverly", "Westfield", "Winchester",
)

START_YEAR = {140: 1975, 180: 1965}


@dataclass(frozen=True)
class Shape:
    n_msas: int
    n_quarters: int
    entry_span: int  # MSA entry quarters drawn from [0, entry_span); 1 = complete
    menu: tuple[int, int] | None  # (sources, targets) of an explicit menu
    menu_plants: int  # targets with one planted source, explicit menu only
    jump_msas: int  # MSAs that carry planted jumps


# The panels keep the paper's 140 quarters and 12 factors but a quarter of
# its 384 MSAs, so that one operation takes seconds and a run can take the
# median of several; contagion_menu keeps the full 384-MSA panel to load
# and the 40 targets of the paper-scale menu, with half its 64 sources.
SHAPES = {
    "paper_panel": Shape(96, 140, 1, None, 0, 16),
    "ragged_panel": Shape(96, 180, 100, None, 0, 12),
    "contagion_menu": Shape(384, 140, 1, (32, 40), 8, 0),
}
WORKLOAD_IDS = {name: i for i, name in enumerate(SHAPES)}

JUMP_SIZE = 10.0  # planted jump, in units of the MSA's return RMS
BIPOWER_WINDOW = 20


def metro_names(n: int) -> list[tuple[str, str]]:
    """(name, state) for ``n`` metros: every CA metro first, then the rest."""
    out = [(name, "CA") for name in CA_METROS]
    states = [s for s, w in OTHER_STATES for _ in range(w)]
    pairs = [(a, b) for a in TOWNS for b in TOWNS if a != b]
    k = 0
    while len(out) < n:
        a, b = pairs[(k * 37) % len(pairs)]
        out.append((f"{a}-{b}, {states[k % len(states)]}", states[k % len(states)]))
        k += 1
    return out[:n]


def _factor_paths(rng, n_q: int) -> tuple[np.ndarray, np.ndarray]:
    """(transformed factors (n_q, 12), raw levels (n_q, 12))."""
    F = np.empty((n_q, len(FACTORS)))
    raw = np.empty_like(F)
    for j, _ in enumerate(PCT_FACTORS):
        mean, sd = rng.uniform(0.2, 1.5), rng.uniform(0.3, 3.0)
        F[:, j] = mean + sd * rng.standard_normal(n_q)
        F[0, j] = np.nan  # a log change needs the previous level
        raw[:, j] = rng.uniform(50.0, 500.0) * np.exp(np.nancumsum(F[:, j]) / 100.0)
    for j in range(len(PCT_FACTORS), len(FACTORS)):
        phi, level = rng.uniform(0.3, 0.8), np.log(rng.uniform(2.0, 90.0))
        x = np.empty(n_q)
        x[0] = level
        for t in range(1, n_q):
            x[t] = level + phi * (x[t - 1] - level) + 0.08 * rng.standard_normal()
        F[:, j] = x
        raw[:, j] = np.exp(x)
    return F, raw


def _noise(rng, n_q: int, n: int, ar: np.ndarray) -> np.ndarray:
    """Idiosyncratic noise: AR(1) with phi 0.5 where ``ar``, else white."""
    e = rng.standard_normal((n_q, n))
    for t in range(1, n_q):
        e[t] += np.where(ar, 0.5 * e[t - 1], 0.0)
    return e


def generate(workload: str, seed: int) -> dict:
    """Inputs of one workload as arrays plus the planted truth."""
    shape = SHAPES[workload]
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(WORKLOAD_IDS[workload],)))
    n, n_q = shape.n_msas, shape.n_quarters
    names = metro_names(n)
    ids = [f"M{10000 + 37 * i:05d}" for i in range(n)]
    order = rng.permutation(n)  # ids do not follow the name order
    ids = [ids[i] for i in order]

    F, raw = _factor_paths(rng, n_q)
    Fc = np.nan_to_num(F - np.nanmean(F, axis=0))
    Fc[:, len(PCT_FACTORS):] *= 20.0  # log levels move little; scale their loadings
    ar = rng.random(n) < 0.5
    mu = rng.uniform(0.2, 1.6, n)
    sigma = rng.uniform(0.5, 1.5, n)
    loadings = rng.normal(0.0, 0.25, (len(FACTORS), n))
    if shape.menu is not None:
        # An explicit-menu panel carries no factor loadings: each return is
        # its MSA's own noise plus planted contagion, so the Durbin-Watson
        # gate splits the fits by the target's kind of noise.
        loadings[:] = 0.0
    R = mu + Fc @ loadings + sigma * _noise(rng, n_q, n, ar)

    entry = rng.integers(0, shape.entry_span, n) if shape.entry_span > 1 else np.zeros(n, int)

    # Contagion: target = mu + sum_l w_l * source_{t-l} + own noise, with no
    # factor loading, so a lag regression on the source is well specified.
    plants = []
    menu = None
    by_name = {}
    for i, (name, _) in enumerate(names):
        by_name.update({frag: i for frag in CA_FRAGMENTS if frag.lower() in name.lower()})
    if shape.menu is None:
        pairs = [(by_name[s], by_name[t]) for s, t in MENU_PLANTS]
    else:
        n_src, n_tgt = shape.menu
        pick = rng.permutation(n)
        sources, rest = pick[:n_src], pick[n_src:]
        # Targets alternate AR(1) and white noise, planted ones included.
        half = n_tgt // 2
        targets = np.column_stack([rest[ar[rest]][:half], rest[~ar[rest]][:half]]).ravel()
        menu = {ids[s]: sorted(ids[t] for t in targets) for s in sources}
        pairs = list(zip(sources[: shape.menu_plants], targets[: shape.menu_plants]))
    for s, t in pairs:
        w = np.round([rng.uniform(0.3, 0.7), rng.uniform(0.1, 0.4),
                      rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1)], 3)
        R[:, t] = mu[t] + sigma[t] * _noise(rng, n_q, 1, ar[t : t + 1])[:, 0]
        for lag, wl in enumerate(w):
            R[lag:, t] += wl * R[: n_q - lag, s]
        plants.append({"source": ids[s], "target": ids[t], "weights": w.tolist()})

    # Jumps: a few per chosen MSA, testable and far enough apart that one
    # does not inflate the bipower variation of the next.
    # Contagion pairs carry none: a jump in a source with no response in its
    # target would pull the fitted lags toward zero.
    in_pairs = {int(i) for pair in pairs for i in pair}
    candidates = np.array([i for i in range(n) if i not in in_pairs])
    jumps = []
    for i in rng.choice(candidates, shape.jump_msas, replace=False):
        rms = float(np.sqrt(np.mean(R[entry[i] + 1 :, i] ** 2)))
        t = int(entry[i]) + BIPOWER_WINDOW + 2 + int(rng.integers(0, 10))
        while t < n_q - 1:
            R[t, i] += (1 if rng.random() < 0.5 else -1) * JUMP_SIZE * rms
            jumps.append({"msa_id": ids[i], "return_index": t})
            t += BIPOWER_WINDOW + 2 + int(rng.integers(0, 30))

    # Index levels; row 0 is each MSA's base quarter, so returns start at
    # row entry + 1.
    levels = np.full((n_q, n), np.nan)
    for i in range(n):
        e = int(entry[i])
        levels[e:, i] = 100.0 * np.exp(np.cumsum(np.r_[0.0, R[e + 1 :, i]]) / 100.0)
    return {
        "ids": ids,
        "names": names,
        "levels": levels,
        "factors_raw": raw,
        "start_year": START_YEAR[n_q],
        "menu": menu,
        "truth": {"jumps": jumps, "contagion": plants},
    }


def _quarter(start_year: int, t: int) -> str:
    return f"{start_year + t // 4:04d}:Q{t % 4 + 1}"


def write_inputs(workload: str, seed: int, dest: Path) -> dict:
    """Write hpi.csv, factors.csv, config.json and truth.json under ``dest``.

    Returns {file name: sha256} for the files the program reads.
    """
    g = generate(workload, seed)
    dest.mkdir(parents=True, exist_ok=True)
    y0 = g["start_year"]
    lines = ["msa_id,msa_name,state,quarter,index"]
    for i, msa_id in enumerate(g["ids"]):
        name, state = g["names"][i]
        col = g["levels"][:, i]
        for t in np.flatnonzero(np.isfinite(col)):
            lines.append(f'{msa_id},"{name}",{state},{_quarter(y0, t)},{col[t]:.10g}')
    (dest / "hpi.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    raw = g["factors_raw"]
    lines = ["quarter," + ",".join(FACTORS)]
    for t in range(raw.shape[0]):
        lines.append(_quarter(y0, t) + "," + ",".join(f"{v:.10g}" for v in raw[t]))
    (dest / "factors.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")

    # Relative paths: the program runs from ``dest``, so the config bytes do
    # not depend on where the checkout lives.
    config = {"inputs": {"hpi": "hpi.csv", "factors": "factors.csv"}}
    if g["menu"] is not None:
        config["contagion"] = g["menu"]
    (dest / "config.json").write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    truth = dict(g["truth"], n_msas=len(g["ids"]), start_year=y0)
    truth["jumps"] = [
        {"msa_id": j["msa_id"], "quarter": _quarter(y0, j["return_index"])} for j in truth["jumps"]
    ]
    (dest / "truth.json").write_text(json.dumps(truth, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return {
        name: hashlib.sha256((dest / name).read_bytes()).hexdigest()
        for name in ("hpi.csv", "factors.csv", "config.json")
    }
