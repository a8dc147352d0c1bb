"""Run configuration (flat INI, one section per module) and the run manifest.

The config file round-trips losslessly through save/load; every experiment
writes a manifest (config snapshot, input checksums, toolkit version,
checkpoints, timestamps) sufficient to re-execute the run.
"""

from __future__ import annotations

import configparser
import datetime
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

from . import __version__
from .corpus import ContextConfig, Marking, SynthSpec, read_text
from .decode import BeamConfig
from .errors import ConfigError
from .model import HyperParams
from .subword import BpeConfig


@dataclass(frozen=True)
class AnalysisConfig:
    min_freq: int = 5
    min_cases: int = 5
    majority_use_mass: bool = False
    model_kind: str = "2+1"

    def __post_init__(self):
        if self.model_kind not in ("2+1", "2+2"):
            raise ConfigError("model_kind must be '2+1' or '2+2'")


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

    def seeded(self) -> "RunConfig":
        """Propagate the master seed into the seeded sub-configs."""
        return replace(
            self,
            hyper=replace(self.hyper, rng_seed=self.rng_seed),
            synth=replace(self.synth, rng_seed=self.rng_seed),
        )


def _context_to_ini(c: ContextConfig) -> dict:
    return {
        "source_window": str(c.source_window),
        "target_window": str(c.target_window),
        "marking": c.marking.value,
        "context_prefix": c.context_prefix,
        "break_token": c.break_token,
    }


def save_config(config: RunConfig, path):
    parser = configparser.ConfigParser()
    parser["paths"] = {
        "source": config.source_path,
        "target": config.target_path,
        "docs": config.docs_path,
        "out_dir": config.out_dir,
    }
    parser["run"] = {"rng_seed": str(config.rng_seed)}
    parser["context"] = _context_to_ini(config.context)
    parser["bpe"] = {
        "num_merges": str(config.bpe.num_merges),
        "vocab_threshold": str(config.bpe.vocab_threshold),
    }
    parser["model"] = {k: repr(v) if isinstance(v, float) else str(v) for k, v in asdict(config.hyper).items()}
    parser["beam"] = {k: repr(v) if isinstance(v, float) else str(v) for k, v in asdict(config.beam).items()}
    parser["analysis"] = {
        "min_freq": str(config.analysis.min_freq),
        "min_cases": str(config.analysis.min_cases),
        "majority_use_mass": str(config.analysis.majority_use_mass),
        "model_kind": config.analysis.model_kind,
    }
    parser["synth"] = {
        "num_docs": str(config.synth.num_docs),
        "units_per_doc": str(config.synth.units_per_doc),
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        parser.write(fh)


def load_config(path, check_files: bool = False) -> RunConfig:
    parser = configparser.ConfigParser()
    text = read_text(path, ConfigError)
    try:
        parser.read_string(text, source=str(path))
        paths = parser["paths"] if "paths" in parser else {}
        run = parser["run"] if "run" in parser else {}
        ctx = parser["context"] if "context" in parser else {}
        bpe = parser["bpe"] if "bpe" in parser else {}
        model = parser["model"] if "model" in parser else {}
        beam = parser["beam"] if "beam" in parser else {}
        analysis = parser["analysis"] if "analysis" in parser else {}
        synth = parser["synth"] if "synth" in parser else {}

        config = RunConfig(
            source_path=paths.get("source", ""),
            target_path=paths.get("target", ""),
            docs_path=paths.get("docs", ""),
            out_dir=paths.get("out_dir", "out"),
            rng_seed=int(run.get("rng_seed", "0")),
            context=ContextConfig(
                source_window=int(ctx.get("source_window", "0")),
                target_window=int(ctx.get("target_window", "0")),
                marking=Marking(ctx.get("marking", "break")),
                context_prefix=ctx.get("context_prefix", "cc_"),
                break_token=ctx.get("break_token", "_BREAK_"),
            ),
            bpe=BpeConfig(
                num_merges=int(bpe.get("num_merges", "300")),
                vocab_threshold=int(bpe.get("vocab_threshold", "0")),
            ),
            hyper=HyperParams(
                embed_dim=int(model.get("embed_dim", "32")),
                hidden_dim=int(model.get("hidden_dim", "48")),
                attention_dim=int(model.get("attention_dim", "32")),
                max_source_len=int(model.get("max_source_len", "100")),
                max_target_len=int(model.get("max_target_len", "100")),
                learning_rate=float(model.get("learning_rate", "0.003")),
                batch_size=int(model.get("batch_size", "8")),
                epochs=int(model.get("epochs", "5")),
                rng_seed=int(model.get("rng_seed", "0")),
            ),
            beam=BeamConfig(
                beam_size=int(beam.get("beam_size", "8")),
                max_len_factor=float(beam.get("max_len_factor", "3.0")),
                max_len_constant=int(beam.get("max_len_constant", "5")),
                length_norm_alpha=float(beam.get("length_norm_alpha", "0.6")),
                coverage_beta=float(beam.get("coverage_beta", "0.0")),
            ),
            analysis=AnalysisConfig(
                min_freq=int(analysis.get("min_freq", "5")),
                min_cases=int(analysis.get("min_cases", "5")),
                majority_use_mass=analysis.get("majority_use_mass", "False") == "True",
                model_kind=analysis.get("model_kind", "2+1"),
            ),
            synth=SynthSpec(
                num_docs=int(synth.get("num_docs", "100")),
                units_per_doc=int(synth.get("units_per_doc", "8")),
                rng_seed=int(run.get("rng_seed", "0")),
            ),
        )
    except (ValueError, KeyError, configparser.Error) as exc:
        raise ConfigError("invalid config %s: %s" % (path, exc)) from exc

    if check_files:
        for p in (config.source_path, config.target_path, config.docs_path):
            if p and not Path(p).exists():
                raise ConfigError("configured file does not exist: %s" % p)
    return config


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
    toolkit_version: str = __version__
    started: str = ""
    finished: str = ""

    def add_input(self, path):
        if path and Path(path).exists():
            self.input_checksums[str(path)] = sha256_file(path)

    def add_output(self, path):
        if path and Path(path).exists():
            self.output_checksums[str(path)] = sha256_file(path)

    def write(self, path):
        """Atomic write: a manifest never appears half-finished."""
        self.finished = _now()
        payload = json.dumps(asdict(self), indent=1, sort_keys=True)
        tmp = str(path) + ".tmp"
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(payload)
            fh.write("\n")
        os.replace(tmp, path)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def start_manifest(command: str, config: RunConfig) -> RunManifest:
    return RunManifest(command=command, config=_config_dict(config), started=_now())


def _config_dict(config: RunConfig) -> dict:
    d = asdict(config)
    d["context"]["marking"] = config.context.marking.value
    d["synth"]["lexicon"] = [list(pair) for pair in config.synth.lexicon]
    return d
