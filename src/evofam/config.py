"""Config parsing for experiment runs: one typed schema, hard errors.

The sections each experiment kind reads (keys optional unless marked
required; see README for details):

    every kind    [experiment] kind (required) = oracle | boltzmann |
                               fragmentation | lifted_checks
                  [engine]     s, t_end, dt (required), n_max, rule;
                               series_tol (all but lifted_checks: the kinds
                               that compute residuals)
                  [honesty]    threshold, persistence
                  [output]     directory, emit_svg
                  [initial]    kind = uniform | point | maxwellian | csv;
                               node; temperature; path
    oracle, lifted_checks
                  [oracle]     rate
    lifted_checks [lifted]     t_max, h, lam_factorization, lam_series,
                               n_terms, lam_laplace, laplace_t_max,
                               n_laplace_max
    boltzmann     [grid]       kind = velocity; min, max, n (required)
                  [frequency]  kind = constant | affine | power | pwlinear |
                               matching + the kind's parameters
                  [kernel]     kind = uniform | gaussian | outflow +
                               parameters; time_kind + time-profile
                               parameters prefixed time_
                  [model]      strict_subcritical (the one switch of the
                               strict subcriticality check)
    fragmentation [grid]       kind = mass; xmin, xmax, n (required)
                  [rate]       kind = constant | linear | power |
                               product_t + parameters
                  [model]      force_normalize
                  [daughter]   kind = binary_uniform | powerlaw; nu
    oracle, boltzmann, fragmentation
                  [sweep]      kind = dt | x_min (fragmentation only);
                               values (comma list, >= 2 entries; a config
                               with this section runs with the sweep
                               subcommand, which applies every other
                               section to every entry)

Unknown sections and keys, sections the chosen kind never reads, and keys
of another kind abort parsing with an error listing them all: a silently
ignored typo could flip an honesty verdict.  Every present value is
type-checked at parse time, and no float may be nan or infinite.  Each
default is written once: on the section dataclasses below for [engine],
[honesty], [initial], [output] and [lifted], and on the library function
the CLI hands a key to otherwise.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import MISSING, dataclass, fields
from typing import NamedTuple

from .errors import ConfigError
from .evolution import _SERIES_TOL, TIME_RULES

EXPERIMENT_KINDS = ("oracle", "boltzmann", "fragmentation", "lifted_checks")
INITIAL_KINDS = ("uniform", "point", "maxwellian", "csv")


@dataclass(frozen=True)
class EngineSection:
    dt: float
    s: float = 0.0
    t_end: float = 1.0
    n_max: int = 20
    series_tol: float = _SERIES_TOL
    rule: str = "trapezoid"


@dataclass(frozen=True)
class HonestySection:
    threshold: float = 1e-8
    persistence: int = 3


@dataclass(frozen=True)
class InitialSection:
    kind: str = "uniform"
    node: int = 0
    temperature: float = 1.0
    path: str = ""


@dataclass(frozen=True)
class OutputSection:
    directory: str = "out"
    emit_svg: bool = False


@dataclass(frozen=True)
class LiftedSection:
    t_max: float = 1.0
    h: float = 1.0 / 64.0
    lam_factorization: float = 2.0
    lam_series: float = 0.0  # 0: four times the kick block norm
    n_terms: int = 8
    lam_laplace: float = 8.0
    laplace_t_max: float = 3.0
    n_laplace_max: int = 3


@dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment configuration plus the raw key/value echo.

    ``sections`` holds the typed values of every key present in the file,
    by section; the section dataclasses add the defaults of absent keys
    (``lifted`` holds the defaults in runs of the kinds that never read
    [lifted]).
    """

    kind: str
    engine: EngineSection
    honesty: HonestySection
    initial: InitialSection
    output: OutputSection
    lifted: LiftedSection
    sections: dict
    echo_rows: tuple


class _Need(NamedTuple):
    """A key its section must hold."""

    type: object


# A key table maps each key to its type (float, int, str, bool, or list
# for a comma list of floats), to _Need(type) for a required key, or to a
# dict for a kind key: its value must name an entry, whose key table joins
# the section's.  The _RECORDS sections, whose dataclasses become
# ExperimentConfig fields, are typed even when absent, so that a missing
# [engine] dt is reported.
_RECORDS = {"engine": EngineSection, "honesty": HonestySection,
            "initial": InitialSection, "output": OutputSection, "lifted": LiftedSection}


def _record_keys(cls) -> dict:
    types = {t.__name__: t for t in (float, int, str, bool)}
    return {f.name: types[f.type] if f.default is not MISSING else _Need(types[f.type])
            for f in fields(cls)}


_PROFILES = {
    "constant": {"value": float},
    "affine": {"c0": float, "c1": float},
    "power": {"scale": float, "exponent": float},
    "pwlinear": {"times": _Need(list), "values": _Need(list)},
}
_SERIES_RUNS = ("oracle", "boltzmann", "fragmentation")  # the kinds with residuals
_ENGINE_KEYS = _record_keys(EngineSection)

# section -> {the experiment kinds that read it: its key table}
_SCHEMA = {
    "experiment": {EXPERIMENT_KINDS: {"kind": str}},
    "engine": {_SERIES_RUNS: _ENGINE_KEYS, ("lifted_checks",):
               {k: v for k, v in _ENGINE_KEYS.items() if k != "series_tol"}},
    "honesty": {EXPERIMENT_KINDS: _record_keys(HonestySection)},
    "output": {EXPERIMENT_KINDS: _record_keys(OutputSection)},
    "initial": {EXPERIMENT_KINDS: _record_keys(InitialSection)},
    "lifted": {("lifted_checks",): _record_keys(LiftedSection)},
    "oracle": {("oracle", "lifted_checks"): {"rate": float}},
    "grid": {
        ("boltzmann",): {"kind": _Need({"velocity": {}}), "min": _Need(float),
                         "max": _Need(float), "n": _Need(int)},
        ("fragmentation",): {"kind": _Need({"mass": {}}), "xmin": _Need(float),
                             "xmax": _Need(float), "n": _Need(int)},
    },
    "model": {
        ("boltzmann",): {"strict_subcritical": bool},
        ("fragmentation",): {"force_normalize": bool},
    },
    "frequency": {("boltzmann",): {"kind": _Need(dict(_PROFILES, matching={}))}},
    "kernel": {("boltzmann",): {
        "kind": _Need({"uniform": {"value": float},
                       "gaussian": {"amplitude": float, "width": float},
                       "outflow": {"target": list}}),
        "time_kind": {kind: {f"time_{key}": spec for key, spec in keys.items()}
                      for kind, keys in _PROFILES.items()},
    }},
    "rate": {("fragmentation",): {"kind": _Need({
        "constant": {"value": float},
        "linear": {"scale": float},
        "power": {"scale": float, "exponent": float},
        "product_t": {"scale": float, "exponent": float},
    })}},
    "daughter": {("fragmentation",): {
        "kind": _Need({"binary_uniform": {}, "powerlaw": {"nu": float}})}},
    "sweep": {_SERIES_RUNS: {
        "kind": _Need({"dt": {}, "x_min": {}}), "values": _Need(list)}},
}
class _Table(NamedTuple):
    """A key table compiled for parsing."""

    types: dict  # key -> float, int, str, bool or list (kind keys: str)
    required: tuple
    kinds: tuple  # (kind key, {kind value: its _Table})


def _compile(keys: dict) -> _Table:
    types, required, kinds = {}, [], []
    for key, spec in keys.items():
        if isinstance(spec, _Need):
            spec = spec.type
            required.append(key)
        if isinstance(spec, dict):
            kinds.append((key, {value: _compile(table) for value, table in spec.items()}))
            spec = str
        types[key] = spec
    return _Table(types, tuple(required), tuple(kinds))


# experiment kind -> {section it reads: compiled key table}
_READS = {kind: {section: _compile(keys) for section, readers in _SCHEMA.items()
                 for kinds, keys in readers.items() if kind in kinds}
          for kind in EXPERIMENT_KINDS}
_BOOLS = {"true": True, "yes": True, "on": True, "1": True,
          "false": False, "no": False, "off": False, "0": False}


def _parse(section: str, key: str, raw: str, kind):
    # configparser strips every value, so only list pieces need it
    if kind is list:
        out = [_parse(section, key, piece, float)
               for piece in map(str.strip, raw.split(",")) if piece]
        if not out:
            raise ConfigError(f"[{section}] {key} holds no values")
        return out
    try:
        value = _BOOLS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(
            f"[{section}] {key} = {raw!r} is not a valid {kind.__name__}"
        ) from None
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} = {raw!r} is not finite")
    return value


def _key_table(section: str, table: _Table, pairs: dict, problems: list) -> _Table:
    """``table`` joined by the tables of the kinds ``pairs`` chooses."""
    for key, choices in table.kinds:
        if key not in pairs:
            continue
        value = pairs[key]
        if value in choices:
            chosen = choices[value]
            table = _Table({**table.types, **chosen.types},
                           table.required + chosen.required, table.kinds)
        else:
            problems.append(f"[{section}] {key} = {value!r} (expected one of "
                            f"{sorted(choices)})")
    if not pairs.keys() <= table.types.keys():
        problems.extend(f"[{section}] {key}" for key in pairs if key not in table.types)
    return table


def _typed(section: str, table: _Table, pairs: dict) -> dict:
    for key in table.required:
        if key not in pairs:
            raise ConfigError(f"missing required key [{section}] {key}")
    return {key: _parse(section, key, raw, table.types[key]) for key, raw in pairs.items()}


def parse_config(path) -> ExperimentConfig:
    """Parse, check and type an experiment configuration file."""
    if not os.path.isfile(path):
        what = "is not a regular file" if os.path.exists(path) else "not found"
        raise ConfigError(f"config file {what}: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} does not parse: {exc}") from exc

    raw = {name: dict(parser.items(name)) for name in parser.sections()}
    if parser.defaults():
        raise ConfigError("top-level keys outside a section are not allowed")

    kind = raw.get("experiment", {}).get("kind")
    if kind is None:
        raise ConfigError("missing required key [experiment] kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"[experiment] kind = {kind!r}; expected one of {EXPERIMENT_KINDS}"
        )
    reads = _READS[kind]
    problems, tables = [], {}
    for section, pairs in raw.items():
        if section in reads:
            tables[section] = _key_table(section, reads[section], pairs, problems)
        elif section in _SCHEMA:
            problems.append(f"[{section}] (not read by {kind} runs)")
            problems.extend(f"[{section}] {key}" for key in pairs)
        else:
            problems.append(f"[{section}] (unknown section)")
    if problems:
        raise ConfigError("unknown configuration keys: " + ", ".join(problems))

    typed = {section: _typed(section, tables.get(section, keys), raw.get(section, {}))
             for section, keys in reads.items() if section in raw or section in _RECORDS}
    records = {name: cls(**typed.get(name, {})) for name, cls in _RECORDS.items()}
    engine, honesty, initial, lifted = (records[name] for name in
                                        ("engine", "honesty", "initial", "lifted"))
    if engine.dt <= 0.0:
        raise ConfigError("[engine] dt must be positive")
    if engine.t_end <= engine.s:
        raise ConfigError("[engine] t_end must exceed s")
    if engine.n_max < 3:
        raise ConfigError("[engine] n_max must be >= 3")
    if engine.series_tol < 0.0:
        raise ConfigError("[engine] series_tol must be >= 0")
    if engine.rule not in TIME_RULES:
        raise ConfigError(f"[engine] rule = {engine.rule!r}")
    if honesty.threshold <= 0.0:
        raise ConfigError("[honesty] threshold must be positive")
    if honesty.persistence < 1:
        raise ConfigError("[honesty] persistence must be >= 1")
    if initial.kind not in INITIAL_KINDS:
        raise ConfigError(
            f"[initial] kind = {initial.kind!r}; expected one of {INITIAL_KINDS}"
        )
    if initial.kind == "csv" and not initial.path:
        raise ConfigError("[initial] kind = csv requires path")
    if initial.kind == "maxwellian" and initial.temperature <= 0.0:
        raise ConfigError("[initial] temperature must be positive")
    for key in ("h", "lam_factorization", "lam_laplace"):
        if getattr(lifted, key) <= 0.0:
            raise ConfigError(f"[lifted] {key} must be positive")
    if lifted.lam_series < 0.0:
        raise ConfigError("[lifted] lam_series must be >= 0 (0: four times the kick block norm)")
    for key in ("n_terms", "n_laplace_max"):
        if getattr(lifted, key) < 0:
            raise ConfigError(f"[lifted] {key} must be >= 0")

    echo_rows = tuple(
        (f"{section}.{key}", value)
        for section in sorted(raw)
        for key, value in sorted(raw[section].items())
    )
    return ExperimentConfig(kind=kind, sections={s: typed[s] for s in raw},
                            echo_rows=echo_rows, **records)
