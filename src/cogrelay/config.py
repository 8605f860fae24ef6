"""Flat key=value configuration format, parsed once into typed, range-checked values.

One ``key = value`` pair per line, ``#`` starts a comment (full line or
trailing), blank lines ignored. :data:`KEYS` maps every key a config may set
to the parser that turns its text into a typed value and checks its range,
and to the value the key reads when nothing sets it; lists use commas
(``p_q_list = 0.3, 0.5``) and policies colon pairs (``policies = 0.3:1,
0.5:1``). Every value goes through it where it enters: a file line, a
preset, the seed environment variable or a flag. A :class:`Config` keeps
where each value came from (``path:line``, ``preset fig6``,
``COGRELAY_SEED``, ``--slots``), and every error leads with it. A check
between keys (f_pd < f_sd, start < stop, slots > warmup) is made where the
values meet, and names the origin of each key.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, NamedTuple

from .model import ChannelProfile, Policy, _unit_interval
from .oracle import ChainSpec
from .simulator import POLICY_KINDS, Scenario

__all__ = [
    "KEYS",
    "SWEEP_VARIABLES",
    "Config",
    "ConfigError",
    "parse_config_text",
    "parse_values",
    "load_config_file",
    "channel_from_config",
]

SWEEP_VARIABLES = ("lambda", "lambda_p", "lambda_s", "p_q", "p_a", "f_pd")


class ConfigError(ValueError):
    """Malformed configuration input; a message about a key's value leads with where it came from."""


def _number(text: str, kind=float):
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{text!r} is not {'an integer' if kind is int else 'a number'}") from None


def _checked(parse, accept, rule: str):
    """The parser that reads text with ``parse`` and refuses what ``accept`` rejects, as breaking ``rule``."""

    def checked(key: str, text: str):
        value = parse(text)
        if not accept(value):
            raise ValueError(f"must be {rule}, got {value!r}")
        return value

    return checked


def _count(floor: int):
    return _checked(lambda text: _number(text, int), lambda value: value >= floor, f">= {floor}")


def _choice(*choices: str):
    return _checked(str, choices.__contains__, f"one of {choices}")


def _list(parse_item):
    """A parser of comma-separated text into a tuple of its non-empty items, each read by ``parse_item``."""

    def parse(key: str, text: str) -> tuple:
        items = [item.strip() for item in text.split(",") if item.strip()]
        if not items:
            raise ValueError("empty list")
        return tuple(parse_item(key, item) for item in items)

    return parse


def _probability(key: str, text: str) -> float:
    return _unit_interval(key, _number(text))


def _policy(key: str, item: str) -> Policy:
    parts = item.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected 'p_q:p_a' pairs, got {item!r}")
    return Policy(_number(parts[0]), _number(parts[1]))


class Key(NamedTuple):
    """A config key's parser, which turns its text into a typed, range-checked value or raises
    ValueError, and its default: the value an unset key reads, None for a key a command needs."""

    parse: Callable[[str, str], object]
    default: object = None


#: Every key a config may set, with its parser and its default. The run settings a
#: simulation or an oracle solve reads take their defaults from its spec.
KEYS = {
    "f_pd": Key(_probability, 0.3),
    "f_sd": Key(_probability, 0.8),
    "f_ps": Key(_probability, 0.4),
    "p_q": Key(_probability, 0.5),
    "p_a": Key(_probability, 1.0),
    "lambda_p": Key(_probability, 0.1),
    "lambda_s": Key(_probability, 0.1),
    "variable": Key(_choice(*SWEEP_VARIABLES)),
    "start": Key(_probability),
    "stop": Key(_probability),
    "steps": Key(_count(2)),
    "p_q_list": Key(_list(_probability)),
    "f_pd_list": Key(_list(_probability)),
    "policies": Key(_list(_policy), (Policy(0.5, 1.0),)),
    "region_mode": Key(_choice("boundary", "rates"), "boundary"),
    "policy_kind": Key(_choice(*POLICY_KINDS), Scenario.policy_kind),
    "slots": Key(_count(1), Scenario.slots),
    "warmup": Key(_count(0), Scenario.warmup_slots),
    "replications": Key(_count(1), 1),
    "seed": Key(_count(0), 12345),
    "tolerance": Key(_checked(_number, lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0"), 0.03),
    "truncation": Key(_count(4), ChainSpec.truncation),
}


class Config(dict):
    """Typed values by key, and in ``origins`` where each came from (none for a command's default).

    ``in`` and iteration see only the keys that are set (by a preset, a file, the seed variable, a
    flag or a command's own grid). An unset key reads its default in :data:`KEYS`, whose origin is
    ``default``; one without a default raises ConfigError.
    """

    def __init__(self, values=(), origins=()) -> None:
        super().__init__(values)
        self.origins = dict(origins)

    def __missing__(self, key: str):
        default = KEYS[key].default
        if default is None:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def __or__(self, other: Config) -> Config:
        """``other`` laid over this config: its keys take their values and origins from it."""
        origins = {key: origin for key, origin in self.origins.items() if key not in other}
        return Config({**self, **other}, {**origins, **other.origins})

    __ior__ = __or__

    def derive(self, source: str, **values) -> Config:
        """This config with ``values`` overlaid, each derived from the key ``source``."""
        origin = f"{source} at {self.origins.get(source, 'default')}"
        return self | Config(values, dict.fromkeys(values, origin))

    def where(self, *keys: str) -> str:
        """Each key with its origin, to lead an error about the keys."""
        return ", ".join(f"{key} ({self.origins.get(key, 'default')})" for key in keys)


def _set(cfg: Config, key: str, text: str, origin: str) -> None:
    if key not in KEYS:
        raise ConfigError(f"{origin}: unknown key {key!r}")
    try:
        cfg[key] = KEYS[key].parse(key, text)
    except ValueError as exc:
        raise ConfigError(f"{origin}: key {key!r}: {exc}") from exc
    cfg.origins[key] = origin


def parse_values(values: dict[str, str], origin: str) -> Config:
    """Run each text value through its key's parser; every value has the one ``origin``."""
    cfg = Config()
    for key, text in values.items():
        _set(cfg, key, text, origin)
    return cfg


def parse_config_text(text: str, source: str = "<config>") -> Config:
    """Parse key=value lines into typed values whose origin is ``source:line``."""
    cfg = Config()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        _set(cfg, key, value.strip(), f"{source}:{lineno}")
    return cfg


def load_config_file(path: str | Path) -> Config:
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"{path}:{line}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def channel_from_config(cfg: Config) -> ChannelProfile:
    """The config's channel; f_pd < f_sd is checked here, where the two values meet."""
    try:
        return ChannelProfile(cfg["f_pd"], cfg["f_sd"], cfg["f_ps"])
    except ValueError as exc:
        raise ConfigError(f"{cfg.where('f_pd', 'f_sd')}: {exc}") from exc
