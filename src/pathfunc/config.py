"""Flat experiment configuration files: ``section.key = value`` lines.

The format is deliberately minimal so runs can be archived and diffed:
one assignment per line, ``#`` comments, no nesting.  Unknown keys are
rejected rather than ignored -- a typo must fail loudly, not silently
change the experiment.  So far that holds in ``model`` and ``functional``
for a known key no ``get`` returned, too.  Numbers may be plain or
fractions (``1/12288``) and powers (``2^-9``), as step grids are written,
and must be finite.  Each value has one spelling: a bool is ``true`` or
``false``, a list has a number between each pair of commas, a number is
ASCII without ``_`` or blanks, a string is not empty, and a word is one listed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import ConfigError

__all__ = ["RunConfig", "parse_config", "parse_config_text"]

# section -> key -> (type tag, default); a tag is "str" (not empty), "num",
# "int" (plain digits, or at most 2^53 as a fraction, power or exponent),
# "size" (an int, at least 2), "bool" (true or false), "numlist" (numbers
# joined by commas) or a tuple of the accepted words.  model.x0 starts every
# model's first coordinate; run.workers and check.n_draws are read by
# nothing (the benchmark sets them); ui.n_paths sizes ``check``'s sample
# (price and converge judge the gate on the priced paths)
_KEYS = {
    "model": {
        "kind": ("str", "gbm"), "r": ("num", 0.0), "sigma": ("num", 0.2),
        "x0": ("num", 1.0), "y0": ("num", 1.0), "rho": ("num", 0.0),
    },
    "scheme": {"kind": ("str", "euler"), "h": ("num", None)},
    "functional": {
        "payoff": ("str", "terminal_identity"), "strike": ("num", 0.0),
        "barrier_level": ("num", 1.0), "m": ("int", 1),
    },
    "run": {
        "n_paths": ("size", 10000), "seed": ("int", 0), "workers": (("1",), "1"),
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
    try:
        if "_" in text or not text.isascii() or text.split() != [text]:
            raise ValueError(text)  # float() reads 1_000, Arabic-Indic digits, "2 ^ -5"
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
    if isinstance(tag, tuple):
        if text not in tag:
            raise ConfigError(f"config key {key!r}: expected one of {', '.join(tag)}, "
                              f"got {text!r}")
        return text
    if tag == "str":
        if not text:
            raise ConfigError(f"config key {key!r}: expected a value, got ''")
        return text
    if tag == "num":
        return _parse_number(text, key)
    if tag in ("int", "size"):
        v = _parse_number(text, key)
        try:
            v = int(text)  # plain digits: exact, where a float rounds past 2^53
        except ValueError:  # a fraction, power or exponent
            if v != int(v) or abs(v) > 2**53:
                raise ConfigError(f"config key {key!r}: expected an integer of magnitude "
                                  f"at most 2^53 or plain digits, got {text!r}")
        if tag == "size" and v < 2:
            raise ConfigError(f"config key {key!r}: need at least 2, got {text!r}")
        return int(v)
    if tag == "bool":
        if text not in ("true", "false"):
            raise ConfigError(f"config key {key!r}: expected true or false, got {text!r}")
        return text == "true"
    if tag == "numlist":
        if not text:
            raise ConfigError(f"config key {key!r}: expected at least one number, got {text!r}")
        items = [p.strip() for p in text.split(",")]
        if "" in items:
            raise ConfigError(f"config key {key!r}: list item {items.index('') + 1} is empty")
        return [_parse_number(p, key) for p in items]
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
        section, _, key = lhs.partition(".")
        if key not in _KEYS.get(section, {}):
            raise ConfigError(f"unknown config key {lhs!r}")
        values.setdefault(section, {})[key] = _parse_value(_KEYS[section][key][0], rhs.strip(), lhs)
    return RunConfig(values=values)


def read_input(path: str) -> str:
    """The text of an input file; one that cannot be read is a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"{path}: cannot read it: {getattr(e, 'strerror', e)}") from e


def parse_config(path: str) -> RunConfig:
    return parse_config_text(read_input(path))
