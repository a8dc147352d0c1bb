"""Run configuration (flat INI, one section per module) and the run manifest.

The config dataclasses' fields are the only schema: the INI keys of a section
are the scalar fields of its dataclass, so the file round-trips losslessly
through save/load and an unknown section or key is a ConfigError; cli.py
generates its config flags from the same fields.  Every
experiment writes a manifest (the effective config, input checksums, toolkit
version, checkpoints, timestamps) sufficient to re-execute the run.
"""

from __future__ import annotations

import configparser
import datetime
import enum
import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from . import __version__
from .attnstats import MODEL_ONE_SIDED, MODEL_TWO_SIDED
from .corpus import ContextConfig, SynthSpec, open_output, read_text
from .decode import BeamConfig
from .errors import ConfigError
from .model import HyperParams
from .subword import BpeConfig


@dataclass(frozen=True)
class AnalysisConfig:
    min_freq: int = 5
    min_cases: int = 5
    majority_use_mass: bool = False
    model_kind: str = MODEL_ONE_SIDED

    def __post_init__(self):
        if self.model_kind not in (MODEL_ONE_SIDED, MODEL_TWO_SIDED):
            raise ConfigError("model_kind must be %r or %r" % (MODEL_ONE_SIDED, MODEL_TWO_SIDED))


@dataclass(frozen=True)
class RunConfig:
    source_path: str = ""
    target_path: str = ""
    docs_path: str = ""
    out_dir: str = "out"
    rng_seed: int = 0
    context: ContextConfig = field(default_factory=ContextConfig)
    bpe: BpeConfig = field(default_factory=BpeConfig)
    hyper: HyperParams = field(default_factory=HyperParams)
    beam: BeamConfig = field(default_factory=BeamConfig)
    analysis: AnalysisConfig = field(default_factory=AnalysisConfig)
    synth: SynthSpec = field(default_factory=SynthSpec)

    def __post_init__(self):
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be >= 0")

    def seeded(self) -> "RunConfig":
        """Propagate the master seed into the seeded sub-configs."""
        return replace(
            self,
            hyper=replace(self.hyper, rng_seed=self.rng_seed),
            synth=replace(self.synth, rng_seed=self.rng_seed),
        )


# INI section -> the RunConfig field holding that section's dataclass.  The
# keys of a section are the scalar fields of its dataclass; rng_seed is the
# exception and lives only in [run].
SECTIONS = {"context": "context", "bpe": "bpe", "model": "hyper", "beam": "beam", "analysis": "analysis",
            "synth": "synth"}
# [paths] key -> RunConfig field.
PATHS = {"source": "source_path", "target": "target_path", "docs": "docs_path", "out_dir": "out_dir"}
_SCALARS = (bool, int, float, str, enum.Enum)


def section_fields(section) -> list[str]:
    """The INI keys of one section's dataclass (class or instance)."""
    return [f.name for f in fields(section) if f.name != "rng_seed" and isinstance(f.default, _SCALARS)]


def _ini_values(config: RunConfig) -> dict[str, dict[str, object]]:
    """Every INI section of `config` as {key: value}."""
    sections = {
        "paths": {key: getattr(config, name) for key, name in PATHS.items()},
        "run": {"rng_seed": config.rng_seed},
    }
    for section, name in SECTIONS.items():
        sub = getattr(config, name)
        sections[section] = {key: getattr(sub, key) for key in section_fields(sub)}
    return sections


def _parse(text: str, default):
    """Parse `text` as the type of `default`: bools only True/False, enums by value."""
    if isinstance(default, bool):
        if text not in ("True", "False"):
            raise ValueError("expected True or False, got %r" % text)
        return text == "True"
    return type(default)(text)


def save_config(config: RunConfig, path):
    parser = configparser.ConfigParser(interpolation=None)
    for section, values in _ini_values(config).items():
        parser[section] = {key: v.value if isinstance(v, enum.Enum) else str(v) for key, v in values.items()}
    with open_output(path) as fh:
        parser.write(fh)


def load_config(path) -> RunConfig:
    """Read a config file; every key must be one that save_config writes."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(read_text(path, ConfigError), source=str(path))
    except configparser.Error as exc:
        raise ConfigError("invalid config %s: %s" % (path, exc)) from exc
    if parser.defaults():
        raise ConfigError("%s: unknown section [%s]" % (path, parser.default_section))
    default = RunConfig()
    schema = _ini_values(default)
    values: dict[str, dict] = {}
    for section in parser.sections():
        if section not in schema:
            raise ConfigError("%s: unknown section [%s]" % (path, section))
        values[section] = {}
        for key, text in parser.items(section):
            if key not in schema[section]:
                raise ConfigError("%s: unknown key %r in [%s]" % (path, key, section))
            try:
                values[section][key] = _parse(text, schema[section][key])
            except ValueError as exc:
                raise ConfigError("%s: bad value for [%s] %s: %s" % (path, section, key, exc)) from exc

    top = {PATHS[key]: value for key, value in values.pop("paths", {}).items()}
    top.update(values.pop("run", {}))
    for section, changes in values.items():
        name = SECTIONS[section]
        try:
            top[name] = replace(getattr(default, name), **changes)
        except ConfigError as exc:
            raise ConfigError("%s: [%s] %s" % (path, section, exc)) from exc
    return replace(default, **top).seeded()


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass
class RunManifest:
    command: str
    config: dict
    input_checksums: dict[str, str] = field(default_factory=dict)
    output_checksums: dict[str, str] = field(default_factory=dict)
    checkpoints: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    status: str = "ok"  # or "failed" / "interrupted", with the error text in `error`
    error: str = ""
    toolkit_version: str = __version__
    started: str = ""
    finished: str = ""

    def add_input(self, path):
        if path and Path(path).exists():
            if not Path(path).is_file():
                raise ConfigError("input %s is not a regular file" % path)
            self.input_checksums[str(path)] = sha256_file(path)

    def add_output(self, path):
        if path and Path(path).exists():
            self.output_checksums[str(path)] = sha256_file(path)

    def write(self, path):
        self.finished = _now()
        with open_output(path) as fh:
            fh.write(json.dumps(asdict(self), indent=1, sort_keys=True) + "\n")


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def start_manifest(command: str, config: RunConfig) -> RunManifest:
    return RunManifest(command=command, config=_config_dict(config), started=_now())


def _config_dict(config: RunConfig) -> dict:
    d = asdict(config)
    d["context"]["marking"] = config.context.marking.value
    return d
