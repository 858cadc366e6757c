"""Run configuration: INI or JSON files, a strict schema, and overrides.

A config is a two-level mapping ``section -> key -> value``.  INI files use
one section per component; values are parsed as JSON where possible (so
lists, dicts, numbers, and booleans all work) and kept as strings otherwise.
A ``.json`` file with the same two-level shape is accepted interchangeably.
Unknown sections or keys are rejected, malformed files report the offending
line and column, and ``--set section.key=value`` overrides are applied after
the file is read.
"""

from __future__ import annotations

import configparser
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple


class ConfigError(ValueError):
    """Invalid configuration file or override."""


def _as_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    if isinstance(v, str):
        low = v.strip().lower()
        if low in ("true", "yes", "on"):
            return True
        if low in ("false", "no", "off"):
            return False
    raise ConfigError(f"expected a boolean, got {v!r}")


def _as_int(v) -> int:
    if isinstance(v, bool):
        raise ConfigError(f"expected an integer, got {v!r}")
    if isinstance(v, int):
        return v
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if isinstance(v, str):
        try:
            return int(v.strip())
        except ValueError:
            pass
    raise ConfigError(f"expected an integer, got {v!r}")


def _as_float(v) -> float:
    if isinstance(v, bool):
        raise ConfigError(f"expected a number, got {v!r}")
    if isinstance(v, (int, float)):
        return float(v)
    if isinstance(v, str):
        try:
            return float(v.strip())
        except ValueError:
            pass
    raise ConfigError(f"expected a number, got {v!r}")


def _as_opt_float(v) -> Optional[float]:
    if v is None or (isinstance(v, str) and v.strip().lower() in ("", "none", "null")):
        return None
    return _as_float(v)


def _as_str(v) -> str:
    if isinstance(v, str):
        return v
    raise ConfigError(f"expected a string, got {v!r}")


def _as_float_list(v) -> List[float]:
    if isinstance(v, str):
        parts = [p for p in v.replace(",", " ").split() if p]
        return [_as_float(p) for p in parts]
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return [float(v)]
    if isinstance(v, (list, tuple)):
        return [_as_float(x) for x in v]
    raise ConfigError(f"expected a list of numbers, got {v!r}")


def _as_int_list(v) -> List[int]:
    return [_as_int(x) for x in _as_float_list(v)]


def _as_point(v) -> Tuple[int, ...]:
    if isinstance(v, str):
        return tuple(_as_int_list(v))
    if isinstance(v, (list, tuple)):
        return tuple(_as_int(x) for x in v)
    if isinstance(v, int):
        return (v,)
    raise ConfigError(f"expected a lattice point, got {v!r}")


def _as_point_list(v) -> List[Tuple[int, ...]]:
    if isinstance(v, str):
        v = _parse_json_value(v)
    if not isinstance(v, (list, tuple)):
        raise ConfigError(f"expected a list of lattice points, got {v!r}")
    return [_as_point(x) for x in v]


def _as_matrix(v) -> Optional[Tuple[Tuple[float, ...], ...]]:
    if v is None or (isinstance(v, str) and v.strip().lower() in ("", "none", "null")):
        return None
    if isinstance(v, str):
        rows = [r for r in v.split(";") if r.strip()]
        return tuple(tuple(_as_float_list(r)) for r in rows)
    if isinstance(v, (list, tuple)):
        return tuple(tuple(_as_float(x) for x in row) for row in v)
    raise ConfigError(f"expected a matrix, got {v!r}")


def _as_mode_map(v) -> Dict[Tuple[int, ...], float]:
    """Mapping from modes to numbers; keys are JSON lists or comma strings."""
    if isinstance(v, str):
        v = _parse_json_value(v)
    if v is None:
        return {}
    if not isinstance(v, dict):
        raise ConfigError(f"expected a mode -> value mapping, got {v!r}")
    out = {}
    for k, val in v.items():
        out[_as_point(k)] = _as_float(val)
    return out


def _as_power_map(v) -> Dict[int, float]:
    if isinstance(v, str):
        v = _parse_json_value(v)
    if v is None:
        return {}
    if not isinstance(v, dict):
        raise ConfigError(f"expected a power -> coefficient mapping, got {v!r}")
    return {_as_int(k): _as_float(val) for k, val in v.items()}


_SCHEMA = {
    "run": {
        "seed": (_as_int, 0),
        "out_dir": (_as_str, "out"),
    },
    "lattice": {
        "dim": (_as_int, 1),
        "radius": (_as_float, 8.0),
        "offset": (_as_float_list, []),
    },
    "model": {
        "kind": (_as_str, "torus"),
        "gram": (_as_matrix, None),
        "potential": (_as_mode_map, {}),
        "mass": (_as_float, 1.0),
        "f_value": (_as_float, 0.25),
    },
    "clusters": {
        "delta": (_as_float, 0.5),
        "c_delta": (_as_float, 1.0),
    },
    "resonance": {
        "order": (_as_int, 3),
        "tau": (_as_opt_float, None),
        "gamma": (_as_opt_float, None),
    },
    "measure": {
        "decay": (_as_int, 2),
        "k": (_as_int_list, [1, -1]),
        "support": (_as_point_list, [(1,), (2,)]),
        "gamma": (_as_float_list, [0.1]),
        "n_samples": (_as_int, 10_000),
    },
    "normalform": {
        "r": (_as_int, 1),
        "radius": (_as_float, 0.01),
        "s": (_as_float, 4.0),
        "cutoff": (_as_opt_float, None),
        "tau": (_as_opt_float, None),
        "nu": (_as_float, 2.0),
        "smoothing": (_as_float, 2.0),
        "mu_max": (_as_float, 1.0),
        "coupling": (_as_float, 1.0),
        "remainder_samples": (_as_int, 3),
    },
    "simulate": {
        "epsilon": (_as_float, 0.01),
        "s": (_as_float, 4.0),
        "dt": (_as_opt_float, None),
        "horizon": (_as_float, 10.0),
        "stride": (_as_int, 100),
        "nonlinearity": (_as_power_map, {1: 1.0}),
        "force": (_as_power_map, {}),
        "dt_bound": (_as_float, 1.0),
        "track_orbital": (_as_opt_float, None),
    },
    "output": {
        "manifest": (_as_bool, True),
    },
}


def _parse_json_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def default_config() -> Dict[str, Dict[str, object]]:
    return {
        section: {key: default for key, (_, default) in keys.items()}
        for section, keys in _SCHEMA.items()
    }


def _validate_shape(raw: Dict) -> None:
    for section, keys in raw.items():
        if section not in _SCHEMA:
            known = ", ".join(sorted(_SCHEMA))
            raise ConfigError(f"unknown section [{section}]; known sections: {known}")
        if not isinstance(keys, dict):
            raise ConfigError(f"section [{section}] must be a mapping")
        for key in keys:
            if key not in _SCHEMA[section]:
                known = ", ".join(sorted(_SCHEMA[section]))
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]; known keys: {known}"
                )


def load_config(path: Optional[str]) -> Dict[str, Dict[str, object]]:
    """Read and validate a config file; None yields pure defaults."""
    merged = default_config()
    if path is None:
        return merged
    text = Path(path).read_text()
    if str(path).endswith(".json"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}:{exc.lineno}:{exc.colno}: malformed JSON: {exc.msg}"
            ) from exc
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be an object of sections")
    else:
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(text, source=str(path))
        except configparser.MissingSectionHeaderError as exc:
            raise ConfigError(
                f"{path}:{exc.lineno}:1: malformed INI: no [section] header before {exc.line!r}"
            ) from exc
        except configparser.ParsingError as exc:
            lineno, line = exc.errors[0]
            raise ConfigError(f"{path}:{lineno}:1: malformed INI: cannot parse {line}") from exc
        except configparser.DuplicateOptionError as exc:
            raise ConfigError(
                f"{path}:{exc.lineno}:1: malformed INI: option {exc.option!r} "
                f"in section [{exc.section}] already exists"
            ) from exc
        except configparser.DuplicateSectionError as exc:
            raise ConfigError(
                f"{path}:{exc.lineno}:1: malformed INI: section [{exc.section}] already exists"
            ) from exc
        except configparser.Error as exc:
            raise ConfigError(f"{path}:1:1: malformed INI: {exc}") from exc
        raw = {
            section: {k: _parse_json_value(v) for k, v in parser.items(section)}
            for section in parser.sections()
        }
    _validate_shape(raw)
    for section, keys in raw.items():
        for key, value in keys.items():
            coerce, _ = _SCHEMA[section][key]
            try:
                merged[section][key] = coerce(value)
            except ConfigError as exc:
                raise ConfigError(f"{path}: [{section}] {key}: {exc}") from exc
    return merged


def apply_overrides(
    config: Dict[str, Dict[str, object]], overrides: Sequence[str]
) -> Dict[str, Dict[str, object]]:
    """Apply ``section.key=value`` strings on top of a resolved config."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        target, value = item.split("=", 1)
        if "." not in target:
            raise ConfigError(f"override target {target!r} must look like section.key")
        section, key = target.split(".", 1)
        if section not in _SCHEMA or key not in _SCHEMA[section]:
            raise ConfigError(f"override targets unknown setting {target!r}")
        coerce, _ = _SCHEMA[section][key]
        try:
            config[section][key] = coerce(_parse_json_value(value))
        except ConfigError as exc:
            raise ConfigError(f"override {item!r}: {exc}") from exc
    return config


def config_to_jsonable(config: Dict[str, Dict[str, object]]) -> Dict[str, Dict[str, object]]:
    """Echoable copy with tuple keys flattened to strings."""
    out: Dict[str, Dict[str, object]] = {}
    for section, keys in config.items():
        row = {}
        for key, value in keys.items():
            if isinstance(value, dict):
                row[key] = {
                    ",".join(map(str, k)) if isinstance(k, tuple) else str(k): v
                    for k, v in value.items()
                }
            elif isinstance(value, tuple):
                row[key] = [list(x) if isinstance(x, tuple) else x for x in value]
            elif isinstance(value, list):
                row[key] = [list(x) if isinstance(x, tuple) else x for x in value]
            else:
                row[key] = value
        out[section] = row
    return out
