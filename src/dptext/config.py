"""Application configuration: an INI-style file plus command-line overrides.

Every section and key is optional, flags override file values, and an
unknown section or key is an error. ``[mechanism]`` takes the fields of
``MechanismConfig``, ``[remote]`` and ``[restore]`` those of
``LlmEndpointConfig`` (``base_url`` is required once the section is
present), and ``[paths]``, ``[attack]`` and ``[run]`` the keys in
``_APP_KEYS``. For example:

    [paths]
    vocab = vocab.txt
    embeddings = embeddings.txt

    [mechanism]
    kind = rantext
    epsilon_em = 2.0
    laplace_sensitivity = auto

    [run]
    seed = 7
    n_docs = 3
"""

from __future__ import annotations

import configparser
import os
import secrets
from dataclasses import dataclass, fields, replace

from .errors import ConfigError, ContractError
from .mechanisms import MechanismConfig
from .pipeline import LlmEndpointConfig


@dataclass
class AppConfig:
    vocab_path: str | None = None
    embeddings_path: str | None = None
    merges_path: str | None = None
    runs_dir: str = "runs"
    mechanism: MechanismConfig = MechanismConfig()
    remote: LlmEndpointConfig | None = None
    restore: LlmEndpointConfig | None = None
    attack_k: int = 250
    attack_chunk_size: int = 64
    n_docs: int = 3
    seed: int | None = None

    def resolved_seed(self) -> int:
        """The configured seed, or a freshly drawn one recorded for replay."""
        if self.seed is None:
            self.seed = secrets.randbits(63)
        return self.seed

    def require_paths(self, *names: str) -> None:
        """Fail fast when a command needs files that are missing."""
        for name in names:
            path = getattr(self, f"{name}_path")
            if path is None:
                raise ConfigError(
                    f"no {name} file configured; set [paths] {name} or pass --{name}"
                )
            if not os.path.exists(path):
                raise ConfigError(f"{name} file not found: {path}")


def sensitivity(raw: str) -> float | str:
    """A Laplace sensitivity as written: ``auto`` or a number."""
    return raw if raw == "auto" else float(raw)


# casts of the keys that are not text, in any section
_CASTS = {
    "epsilon_em": float, "epsilon_lap": float, "laplace_sensitivity": sensitivity,
    "top_k": int, "temperature": float, "max_output_tokens": int, "timeout_s": float,
    "max_concurrent": int, "k": int, "chunk_size": int, "seed": int, "n_docs": int,
}

# key -> AppConfig field for the sections that set AppConfig directly
_APP_KEYS = {
    "paths": {"vocab": "vocab_path", "embeddings": "embeddings_path",
              "merges": "merges_path", "runs_dir": "runs_dir"},
    "attack": {"k": "attack_k", "chunk_size": "attack_chunk_size"},
    "run": {"seed": "seed", "n_docs": "n_docs"},
}


def _field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def _section(parser, name: str, keys) -> dict:
    """The section's values by key, cast; a key outside ``keys`` is an error."""
    if not parser.has_section(name):
        return {}
    values = {}
    for key, raw in parser[name].items():
        if key not in keys:
            raise ConfigError(f"unknown config key [{name}] {key}")
        try:
            values[key] = _CASTS.get(key, str)(raw)
        except ValueError:
            raise ConfigError(f"invalid value for {name}.{key}: {raw!r}") from None
    return values


def _build(cls, name: str, values: dict):
    try:
        return cls(**values)
    except ContractError as exc:
        raise ConfigError(f"[{name}] {exc}") from None


def _endpoint(parser, name: str, **defaults) -> LlmEndpointConfig | None:
    if not parser.has_section(name):
        return None
    values = _section(parser, name, _field_names(LlmEndpointConfig))
    if "base_url" not in values:
        raise ConfigError(f"[{name}] base_url is required")
    values = {"model_name": "default-model", **defaults, **values}
    return _build(LlmEndpointConfig, name, values)


def load_app_config(path: str | None = None) -> AppConfig:
    """Load configuration from an INI file; None gives the defaults.

    Unknown sections and keys are errors, so a misspelled setting cannot
    silently fall back to its default."""
    cfg = AppConfig()
    if path is None:
        return cfg
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None

    for name in parser.sections():
        if name not in {*_APP_KEYS, "mechanism", "remote", "restore"}:
            raise ConfigError(f"unknown config section [{name}]")
    for name, keys in _APP_KEYS.items():
        for key, value in _section(parser, name, keys).items():
            setattr(cfg, keys[key], value)
    values = _section(parser, "mechanism", _field_names(MechanismConfig))
    cfg.mechanism = _build(MechanismConfig, "mechanism", values)
    cfg.remote = _endpoint(parser, "remote")
    cfg.restore = _endpoint(parser, "restore", temperature=0.0)
    return cfg


def apply_mechanism_overrides(cfg: AppConfig, args) -> None:
    """Fold the mechanism flags, whose dests are the field names, into the config."""
    updates = {
        f.name: value
        for f in fields(MechanismConfig)
        if (value := getattr(args, f.name, None)) is not None
    }
    try:
        cfg.mechanism = replace(cfg.mechanism, **updates)
    except ContractError as exc:
        raise ConfigError(str(exc)) from None
