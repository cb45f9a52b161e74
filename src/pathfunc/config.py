"""Flat experiment configuration files: ``section.key = value`` lines.

The format is deliberately minimal so runs can be archived and diffed:
one assignment per line, ``#`` comments, no nesting.  Unknown keys are
rejected rather than ignored -- a typo must fail loudly, not silently
change the experiment.  Numeric values accept plain literals plus the
fraction (``1/12288``) and power (``2^-9``) forms that step grids are
naturally written in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError

__all__ = ["RunConfig", "parse_config", "parse_config_text"]

# section -> key -> type tag ("str" | "num" | "int" | "bool" | "numlist" | "cap" | "one");
# "one" is run.workers: read by nothing, accepted as 1 for the benchmark harness
_SCHEMA = {
    "model": {
        "kind": "str", "r": "num", "sigma": "num", "x0": "num",
        "y0": "num", "rho": "num", "z0": "num",
    },
    "scheme": {"kind": "str", "h": "num", "cap": "cap"},
    "functional": {
        "payoff": "str", "strike": "num", "barrier_level": "num",
        "m": "int", "coordinate": "int",
    },
    "run": {
        "n_paths": "int", "seed": "int", "workers": "one",
        "h_grid": "numlist", "oracle": "str", "allow_linear": "bool",
        "timing": "bool",
    },
    "check": {
        "probes_y": "numlist", "probes_t": "numlist", "n_draws": "int",
        "c_const": "num", "kinds": "str",
    },
    "ui": {"n_paths": "int", "tail_tol": "num"},
    "output": {"format": "str", "path": "str"},
}

_DEFAULTS = {
    "model": {"kind": "gbm", "r": 0.0, "sigma": 0.2, "x0": 1.0,
              "y0": 1.0, "rho": 0.0, "z0": 1.0},
    "scheme": {"kind": "euler", "h": None, "cap": None},
    "functional": {"payoff": "terminal_identity", "strike": 0.0,
                   "barrier_level": 1.0, "m": 1, "coordinate": 0},
    "run": {"n_paths": 10000, "seed": 0, "workers": 1, "h_grid": None,
            "oracle": "none", "allow_linear": False, "timing": True},
    "check": {"probes_y": [0.5, 1.0, 2.0], "probes_t": [0.0, 0.5],
              "n_draws": 1000000, "c_const": 1.0, "kinds": "config"},
    "ui": {"n_paths": 20000, "tail_tol": 0.05},
    "output": {"format": "table", "path": "-"},
}


def _parse_number(text: str, key: str) -> float:
    text = text.strip()
    try:
        if "^" in text:
            base, exp = text.split("^", 1)
            return float(base) ** float(exp)
        if "/" in text:
            num, den = text.split("/", 1)
            return float(num) / float(den)
        return float(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"config key {key!r}: cannot parse number {text!r}", key=key) from e


def _parse_value(tag: str, text: str, key: str):
    text = text.strip()
    if tag == "str":
        return text
    if tag == "num":
        return _parse_number(text, key)
    if tag == "int":
        v = _parse_number(text, key)
        if v != int(v):
            raise ConfigError(f"config key {key!r}: expected an integer, got {text!r}", key=key)
        return int(v)
    if tag == "one":
        if _parse_value("int", text, key) != 1:
            raise ConfigError(f"config key {key!r}: only 1 is accepted, got {text!r}; "
                              "every run uses one process", key=key)
        return 1
    if tag == "bool":
        low = text.lower()
        if low in ("true", "on", "yes", "1"):
            return True
        if low in ("false", "off", "no", "0"):
            return False
        raise ConfigError(f"config key {key!r}: expected a boolean, got {text!r}", key=key)
    if tag == "numlist":
        return [_parse_number(p, key) for p in text.split(",") if p.strip()]
    if tag == "cap":
        low = text.lower()
        if low in ("none", "inf", "+inf"):
            return None
        if low == "1/h":
            return "1/h"
        return _parse_number(text, key)
    raise AssertionError(f"unknown schema tag {tag}")


@dataclass
class RunConfig:
    """Typed view of one configuration file; unknown keys never survive
    parsing, so every field here is schema-checked."""

    values: dict = field(default_factory=dict)

    def get(self, section: str, key: str):
        if key in self.values.get(section, {}):
            return self.values[section][key]
        return _DEFAULTS[section][key]

    def has(self, section: str, key: str) -> bool:
        """Whether the file sets the key; the benchmark harness reads it."""
        return key in self.values.get(section, {})

    def require(self, section: str, key: str):
        v = self.get(section, key)
        if v is None:
            raise ConfigError(f"missing required config key {section}.{key}",
                              key=f"{section}.{key}")
        return v


def parse_config_text(text: str) -> RunConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        lhs, rhs = line.split("=", 1)
        lhs = lhs.strip()
        if "." not in lhs:
            raise ConfigError(f"line {lineno}: key {lhs!r} must be section.key", key=lhs)
        section, key = lhs.split(".", 1)
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section {section!r}", key=lhs)
        if key not in _SCHEMA[section]:
            raise ConfigError(f"unknown config key {lhs!r}", key=lhs)
        values.setdefault(section, {})[key] = _parse_value(_SCHEMA[section][key], rhs, lhs)
    return RunConfig(values=values)


def parse_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read())
