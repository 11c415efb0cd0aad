"""Experiment configuration: a flat key = value text format with dotted
section prefixes, parsed against a declared schema so errors name the exact
field path.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .data import DEFAULT_DEGREE_CAP, FEATURE_SCHEMES
from .degree_alloc import AllocConfig
from .downstream import GoGClassifierConfig
from .encoder import EncoderConfig
from .sampler import SamplerConfig, WITH_REPLACEMENT, WITHOUT_REPLACEMENT


class ConfigError(Exception):
    """Configuration file or value problem, reported with the field path."""


# config section -> (dataclass whose fields are its keys, fields left out)
_SECTIONS = {
    "alloc": (AllocConfig, ()),
    "encoder": (EncoderConfig, ()),
    "sampler": (SamplerConfig, ("seed",)),  # set per run
    "downstream": (GoGClassifierConfig, ()),
}
# the parsed types; a section field of any other type is a KeyError at import
_TYPES = {kind.__name__: kind for kind in (int, float, str)}


def _section_schema(section: str) -> dict[str, tuple[type, object]]:
    cls, skipped = _SECTIONS[section]
    return {
        f"{section}.{f.name}": (_TYPES[f.type], f.default)
        for f in fields(cls)
        if f.name not in skipped
    }


# key -> (python type, default); None default means "no default"
_SCHEMA: dict[str, tuple[type, object]] = {
    "dataset.kind": (str, "tudataset"),
    "dataset.path": (str, None),
    "dataset.name": (str, None),
    "dataset.feature_scheme": (str, "auto"),
    "dataset.degree_cap": (int, DEFAULT_DEGREE_CAP),
    "dataset.num_graphs": (int, 200),
    "dataset.noise": (float, 1.0),
    "dataset.signal": (float, 1.0),
    "dataset.feature_dim": (int, 4),
    "dataset.min_nodes": (int, 8),
    "dataset.max_nodes": (int, 16),
    "dataset.edge_prob": (float, 0.3),
    "split.file": (str, None),
    "split.rho_class": (float, 1.0),
    "split.train_fraction": (float, 0.5),
    "split.val_fraction": (float, 0.25),
    "split.seed": (int, 0),
    **_section_schema("alloc"),
    "alloc.d_bar": (float, None),  # required: the experiment-defining budget
    **_section_schema("encoder"),
    "encoder.lr": (float, 0.01),
    **_section_schema("sampler"),
    **_section_schema("downstream"),
    "downstream.lr": (float, 0.01),
    "eval_samples": (int, 0),  # 0 means "same as samples_per_epoch"
    "epochs": (int, 100),
    "runs": (int, 1),
    "seed": (int, 0),
}

_REQUIRED = ("alloc.d_bar",)


@dataclass(frozen=True)
class ExperimentConfig:
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    @property
    def seed(self) -> int:
        return int(self.values["seed"])

    @property
    def runs(self) -> int:
        return int(self.values["runs"])

    @property
    def epochs(self) -> int:
        return int(self.values["epochs"])

    def _section(self, section: str, **extra):
        cls, skipped = _SECTIONS[section]
        names = [f.name for f in fields(cls) if f.name not in skipped]
        return cls(**{n: self.values[f"{section}.{n}"] for n in names}, **extra)

    def alloc_config(self) -> AllocConfig:
        return self._section("alloc")

    def encoder_config(self) -> EncoderConfig:
        return self._section("encoder")

    def sampler_config(self, seed: int) -> SamplerConfig:
        return self._section("sampler", seed=seed)

    def downstream_config(self) -> GoGClassifierConfig:
        return self._section("downstream")


def _coerce(key: str, raw: str):
    kind, _ = _SCHEMA[key]
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        return raw
    except ValueError as e:
        raise ConfigError(f"{key}: expected {kind.__name__}, got {raw!r}") from e


def _validate(values: dict) -> None:
    for key in _REQUIRED:
        if values.get(key) is None:
            raise ConfigError(f"missing required config key {key}")
    kind = values["dataset.kind"]
    if kind not in ("tudataset", "planted"):
        raise ConfigError(f"dataset.kind: unknown kind {kind!r}")
    if kind == "tudataset":
        if values.get("dataset.path") is None:
            raise ConfigError("missing required config key dataset.path")
        if values.get("dataset.name") is None:
            raise ConfigError("missing required config key dataset.name")
    scheme = values["dataset.feature_scheme"]
    if scheme != "auto" and scheme not in FEATURE_SCHEMES:
        raise ConfigError(f"dataset.feature_scheme: unknown scheme {scheme!r}")
    if values["sampler.mode"] not in (WITH_REPLACEMENT, WITHOUT_REPLACEMENT):
        raise ConfigError(f"sampler.mode: unknown mode {values['sampler.mode']!r}")
    if values["runs"] < 1:
        raise ConfigError("runs: must be >= 1")
    if values["epochs"] < 0:
        raise ConfigError("epochs: must be >= 0")
    if not 0.0 <= values["split.val_fraction"] <= 1.0:
        raise ConfigError("split.val_fraction: must lie in [0, 1]")
    if values["eval_samples"] < 0:
        raise ConfigError("eval_samples: must be >= 0 (0 means samples_per_epoch)")


def parse_config_text(text: str, overrides: dict | None = None) -> ExperimentConfig:
    values = {key: default for key, (_, default) in _SCHEMA.items()}
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {ln}: expected 'key = value', got {stripped!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {ln}: unknown config key {key}")
        values[key] = _coerce(key, raw)
    for key, value in (overrides or {}).items():
        if key not in _SCHEMA:
            raise ConfigError(f"override: unknown config key {key}")
        values[key] = value
    _validate(values)
    return ExperimentConfig(values=values)


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    try:
        with open(path, "r") as f:
            text = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    return parse_config_text(text, overrides)
