"""Flat experiment configuration files: ``section.key = value`` lines.

The format is deliberately minimal so runs can be archived and diffed:
one assignment per line, ``#`` comments, no nesting.  Unknown keys are
rejected rather than ignored -- a typo must fail loudly, not silently
change the experiment.  So far that holds in ``model`` and ``functional``
for a known key no ``get`` returned, too.  Numbers may be plain or
fractions (``1/12288``) and powers (``2^-9``), as step grids are written,
and must be finite.  Each value has one spelling: a list holds at least
one number, and a word key takes only its listed words.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError

__all__ = ["RunConfig", "parse_config", "parse_config_text"]

# section -> key -> (type tag, default); a tag is "str", "num", "int",
# "size" (a sample size, at least 2), "bool", "numlist" (at least one
# number), "one" (run.workers: read by nothing, accepted as 1 for the
# benchmark harness) or a tuple of the accepted words.
# ui.n_paths sizes the sample ``check`` draws; price and converge judge the
# gate on the priced paths
_KEYS = {
    "model": {
        "kind": ("str", "gbm"), "r": ("num", 0.0), "sigma": ("num", 0.2),
        "x0": ("num", 1.0), "y0": ("num", 1.0), "rho": ("num", 0.0), "z0": ("num", 1.0),
    },
    "scheme": {"kind": ("str", "euler"), "h": ("num", None)},
    "functional": {
        "payoff": ("str", "terminal_identity"), "strike": ("num", 0.0),
        "barrier_level": ("num", 1.0), "m": ("int", 1),
    },
    "run": {
        "n_paths": ("size", 10000), "seed": ("int", 0), "workers": ("one", 1),
        "h_grid": ("numlist", None), "allow_linear": ("bool", False), "timing": ("bool", True),
    },
    "check": {
        "probes_y": ("numlist", [0.5, 1.0, 2.0]), "probes_t": ("numlist", [0.0, 0.5]),
        "n_draws": ("size", 1000000), "kinds": (("config", "all"), "config"),
    },
    "ui": {"n_paths": ("size", 20000)},
    "output": {"format": (("csv",), "csv"), "path": ("str", "-")},
}


def _parse_number(text: str, key: str) -> float:
    text = text.strip()
    try:
        if "^" in text:
            base, exp = text.split("^", 1)
            v = math.pow(float(base), float(exp))  # a complex power is a ValueError
        elif "/" in text:
            num, den = text.split("/", 1)
            v = float(num) / float(den)
        else:
            v = float(text)
    except (ValueError, ZeroDivisionError, OverflowError) as e:
        raise ConfigError(f"config key {key!r}: cannot parse number {text!r}") from e
    if not math.isfinite(v):
        raise ConfigError(f"config key {key!r}: expected a finite number, got {text!r}")
    return v


def _parse_value(tag: str | tuple, text: str, key: str):
    text = text.strip()
    if isinstance(tag, tuple):
        if text not in tag:
            raise ConfigError(f"config key {key!r}: expected one of {', '.join(tag)}, "
                              f"got {text!r}")
        return text
    if tag == "str":
        return text
    if tag == "num":
        return _parse_number(text, key)
    if tag in ("int", "size"):
        try:
            v = int(text)  # exact, where a float rounds past 2^53
        except ValueError:  # a fraction, power or exponent
            v = _parse_number(text, key)
            if v != int(v) or abs(v) > 2**53:
                raise ConfigError(f"config key {key!r}: expected an integer of magnitude "
                                  f"at most 2^53 or plain digits, got {text!r}")
        if tag == "size" and v < 2:
            raise ConfigError(f"config key {key!r}: need at least 2, got {text!r}")
        return int(v)
    if tag == "one":
        if _parse_value("int", text, key) != 1:
            raise ConfigError(f"config key {key!r}: only 1 is accepted, got {text!r}; "
                              "a run sets its process count from the CPUs")
        return 1
    if tag == "bool":
        low = text.lower()
        if low in ("true", "on", "yes", "1"):
            return True
        if low in ("false", "off", "no", "0"):
            return False
        raise ConfigError(f"config key {key!r}: expected a boolean, got {text!r}")
    if tag == "numlist":
        values = [_parse_number(p, key) for p in text.split(",") if p.strip()]
        if not values:
            raise ConfigError(f"config key {key!r}: expected at least one number, got {text!r}")
        return values
    raise AssertionError(f"unknown schema tag {tag}")


@dataclass
class RunConfig:
    """Typed view of one configuration file; unknown keys never survive
    parsing, so every field here is schema-checked."""

    values: dict = field(default_factory=dict)
    read: set = field(default_factory=set)  # (section, key) of each get

    def get(self, section: str, key: str):
        self.read.add((section, key))
        return self.values.get(section, {}).get(key, _KEYS[section][key][1])

    def has(self, section: str, key: str) -> bool:
        """Whether the file sets the key; only the benchmark asks."""
        return key in self.values.get(section, {})

    def unread(self, section: str) -> list:
        """The keys of ``section`` the file sets and no ``get`` has returned."""
        return [k for k in self.values.get(section, {}) if (section, k) not in self.read]

    def require(self, section: str, key: str):
        v = self.get(section, key)
        if v is None:
            raise ConfigError(f"missing required config key {section}.{key}")
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
            raise ConfigError(f"line {lineno}: key {lhs!r} must be section.key")
        section, key = lhs.split(".", 1)
        if section not in _KEYS:
            raise ConfigError(f"unknown config section {section!r}")
        if key not in _KEYS[section]:
            raise ConfigError(f"unknown config key {lhs!r}")
        values.setdefault(section, {})[key] = _parse_value(_KEYS[section][key][0], rhs, lhs)
    return RunConfig(values=values)


def parse_config(path: str) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read())
