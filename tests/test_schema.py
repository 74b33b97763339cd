"""Every declared key of every key table, through the reader that uses the table.

For each key: a value its test rejects is named as ``<where><key> must be
<what>, got <value>``; a required key left out is named as missing; and an
unknown key beside it is rejected by name.
"""

from __future__ import annotations

import json
import os
from unittest import mock

import pytest

from housingrisk import ConfigError, IngestionError
from housingrisk.cli import _CONFIG_KEYS, _build_parser, build_config
from housingrisk.io import _TRANSFORM_KEYS, load_transform_config
from housingrisk.schema import ANY_KEY
from housingrisk.synth import _CONTAGION_KEYS, _JUMP_KEYS, _RAMP_KEYS, _SCENARIO_KEYS, scenario_from_json

SCENARIO = {"n_msas": 3, "n_quarters": 12, "n_factors": 1,
            "loadings": {"kind": "ramp", "start": 0.0, "end": 1.0},
            "jumps": [{"quarter": 3, "msas": [0], "magnitude": 2.0}],
            "contagion": [{"source": 0, "target": 1, "weights": [0.5]}]}
# JSON values of many types; each key is given the first one its test rejects.
WRONG = (True, None, -1, 2.5, "1990:Q9", [], {}, ["a", "a"], {"x": 1}, [{"x": 1}])


def config_fault(tmp_path, obj) -> str:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(ConfigError) as exc:
        with mock.patch.dict(os.environ, clear=True):
            build_config(_build_parser().parse_args(["ingest", "--config", str(path)])).validate()
    return str(exc.value)


def scenario_fault(tmp_path, obj) -> str:
    with pytest.raises(ConfigError) as exc:
        scenario_from_json(obj)
    return str(exc.value)


def transforms_fault(tmp_path, obj) -> str:
    path = tmp_path / "transforms.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(IngestionError) as exc:
        load_transform_config(path)
    return str(exc.value)


# (table name, reader, a valid object, path of the table's object in it, where, table)
TABLES = [
    ("config", config_fault, {}, (), "", _CONFIG_KEYS),
    *[(f"config.{name}", config_fault, {name: {}}, (name,), f"{name}.", _CONFIG_KEYS[name].keys)
      for name in ("inputs", "thresholds", "pairs", "cohorts")],
    ("portfolios", config_fault, {"portfolios": {}}, ("portfolios",), "portfolios.",
     _CONFIG_KEYS["portfolios"].keys),
    ("portfolio", config_fault, {"portfolios": {"p": {}}}, ("portfolios", "p"), "portfolios.p.",
     _CONFIG_KEYS["portfolios"].keys[ANY_KEY].keys),
    ("config.inputs.transforms", config_fault, {"inputs": {"transforms": {}}}, ("inputs", "transforms"),
     "inputs.transforms.", _CONFIG_KEYS["inputs"].keys["transforms"].keys),
    ("scenario", scenario_fault, SCENARIO, (), "", _SCENARIO_KEYS),
    ("ramp", scenario_fault, SCENARIO, ("loadings",), "loadings.", _RAMP_KEYS),
    ("jump", scenario_fault, SCENARIO, ("jumps", 0), "jumps[0].", _JUMP_KEYS),
    ("contagion", scenario_fault, SCENARIO, ("contagion", 0), "contagion[0].", _CONTAGION_KEYS),
    ("transforms", transforms_fault, {"GS10": "log_level"}, (), "", _TRANSFORM_KEYS),
]
CASES = [pytest.param(reader, base, at, where, name, key, id=f"{table}:{name}")
         for table, reader, base, at, where, keys in TABLES for name, key in keys.items()]


def holder(obj, at):
    for step in at:
        obj = obj[step]
    return obj


@pytest.mark.parametrize("reader,base,at,where,name,key", CASES)
def test_every_declared_key_names_its_fault(tmp_path, reader, base, at, where, name, key):
    shown = "x1" if name == ANY_KEY else name  # a table of any key: fault one key of it
    wrong = next(v for v in WRONG if not key.ok(v))
    obj = json.loads(json.dumps(base))
    holder(obj, at)[shown] = wrong
    assert f"{where}{shown} must be {key.what}, got {wrong!r}" in reader(tmp_path, obj)

    if key.required:
        obj = json.loads(json.dumps(base))
        del holder(obj, at)[shown]
        assert f"{where}{shown} is missing" in reader(tmp_path, obj)

    if name != ANY_KEY:
        obj = json.loads(json.dumps(base))
        holder(obj, at)[name + "_x"] = 1
        assert reader(tmp_path, obj).endswith(f"unknown key '{where}{name}_x'")
