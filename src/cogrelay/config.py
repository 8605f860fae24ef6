"""Flat key=value configuration format, read by the CLI into the domain types.

One ``key = value`` pair per line, ``#`` starts a comment (full line or
trailing), blank lines ignored. Values are plain text; list-valued keys use
commas (``p_q_list = 0.3, 0.5, 0.8``) and policy lists use colon pairs
(``policies = 0.3:1, 0.5:1``). Parse errors, unknown keys included, carry the
offending line number.
"""

from __future__ import annotations

from pathlib import Path

from .model import ChannelProfile, OperatingPoint, Policy

__all__ = [
    "KEYS",
    "ConfigError",
    "parse_config_text",
    "load_config_file",
    "get_float",
    "get_int",
    "get_str",
    "get_float_list",
    "get_policy_list",
    "channel_from_config",
    "policy_from_config",
    "point_from_config",
]


#: Every key a config file may set.
KEYS = frozenset({
    "f_pd", "f_sd", "f_ps", "p_q", "p_a", "lambda_p", "lambda_s",
    "variable", "start", "stop", "steps", "p_q_list", "f_pd_list", "policies", "region_mode",
    "policy_kind", "slots", "warmup", "replications", "seed", "tolerance", "truncation",
})


class ConfigError(ValueError):
    """Malformed configuration input; message carries source and line number when known."""


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse key=value lines into a string-to-string mapping."""
    result: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"{source}:{lineno}: empty key")
        if key not in KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        result[key] = value
    return result


def load_config_file(path: str | Path) -> dict[str, str]:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def _default(key: str, default):
    """The value of an absent key: its default, which a required key lacks."""
    if default is None:
        raise ConfigError(f"missing required key {key!r}")
    return default


def get_float(cfg: dict[str, str], key: str, default: float | None = None) -> float:
    if key not in cfg:
        return _default(key, default)
    try:
        return float(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {cfg[key]!r} is not a number") from exc


def get_int(cfg: dict[str, str], key: str, default: int | None = None) -> int:
    if key not in cfg:
        return _default(key, default)
    try:
        return int(cfg[key])
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {cfg[key]!r} is not an integer") from exc


def get_str(cfg: dict[str, str], key: str, default: str | None = None) -> str:
    return cfg[key] if key in cfg else _default(key, default)


def get_float_list(cfg: dict[str, str], key: str, default: list[float] | None = None) -> list[float]:
    if key not in cfg:
        return list(_default(key, default))
    items = [item.strip() for item in cfg[key].split(",") if item.strip()]
    if not items:
        raise ConfigError(f"key {key!r}: empty list")
    try:
        return [float(item) for item in items]
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: {cfg[key]!r} is not a comma-separated number list") from exc


def get_policy_list(cfg: dict[str, str], key: str, default: list[Policy] | None = None) -> list[Policy]:
    """Parse ``p_q:p_a`` pairs, e.g. ``policies = 0.3:1, 0.5:1``."""
    if key not in cfg:
        return list(_default(key, default))
    policies = []
    for item in cfg[key].split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 2:
            raise ConfigError(f"key {key!r}: expected 'p_q:p_a' pairs, got {item!r}")
        try:
            policies.append(Policy(float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: bad policy {item!r}: {exc}") from exc
    if not policies:
        raise ConfigError(f"key {key!r}: empty policy list")
    return policies


def _build(factory, **values):
    """Construct a domain object, reporting an invalid value as a ConfigError."""
    try:
        return factory(**values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def channel_from_config(cfg: dict[str, str]) -> ChannelProfile:
    return _build(
        ChannelProfile,
        f_pd=get_float(cfg, "f_pd", 0.3),
        f_sd=get_float(cfg, "f_sd", 0.8),
        f_ps=get_float(cfg, "f_ps", 0.4),
    )


def policy_from_config(cfg: dict[str, str]) -> Policy:
    return _build(Policy, p_q=get_float(cfg, "p_q", 0.5), p_a=get_float(cfg, "p_a", 1.0))


def point_from_config(cfg: dict[str, str]) -> OperatingPoint:
    return _build(
        OperatingPoint,
        lambda_p=get_float(cfg, "lambda_p", 0.1),
        lambda_s=get_float(cfg, "lambda_s", 0.1),
    )
