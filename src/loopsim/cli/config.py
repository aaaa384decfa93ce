"""Scenario files: flat INI sections, one scenario per section.

A config file has a [meta] section carrying the schema version and any number
of [scenario:<name>] sections. Every option is a scalar string; matrices are
written row by row with ';' between rows, lists with ','. Any scalar option
can be swept by adding sweep_<option> = v1,v2,...; a run is executed per
sweep-grid point per seed.

A field a scenario leaves out takes the default of the spec class (or
measure factory) it belongs to, or, for the fields only the runner reads,
the default in the runner's table for the scenario's kind. Every field is
parsed, and every spec built, when the file is loaded.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass
from enum import Enum
from functools import cache
from itertools import product
from types import NoneType
from typing import Iterator, get_args, get_type_hints

import numpy as np

from ..channel import ChannelSpec, EpsilonSchedule
from ..cost import CostModel
from ..engine import BudgetGate, RunConfig, UpdateRuleSpec
from ..engine.core import MAX_STEPS
from ..measures import (
    MeasureKind,
    MeasureSpec,
    compression_gain_measure,
    fisher_measure,
    length_measure,
    power_measure,
)
from ..swarm import GainMode, SwarmSpec, check_horizon

SCHEMA_VERSION = 1

VALID_OUTPUTS = ("csv", "json", "svg")

# The scenario keys each spec reads. A key is the name of the spec's field,
# except where _RENAMED gives the field: there two specs share a field name.
_CHANNEL = ("psi_kind", "temperature", "noise_len", "seed", "const_meaning",
            "gamma_true", "gain_lo", "gain_hi", "decay_len", "decay_power")
_MASK = ("eps0", "kappa", "alpha_decay", "mask_kind")
_UPDATE = ("update_kind", "delta", "h_kind", "window", "drop_to")
_COST = ("alpha_attn", "alpha_ffn", "cost_variant", "rank", "alpha_attn_r",
         "log_coeff")
_BUDGET = ("max_flops", "max_norm")
_RUN = ("gamma", "horizon", "mode", "initial_norm", "initial_symbols")
_SWARM = ("k", "schedule", "base_gain", "delta", "gamma", "gain_mode")
_RENAMED = {"mask_kind": "kind", "update_kind": "kind", "cost_variant": "variant",
            "beta_pow": "exponent"}

# The measure kinds a scenario can name: factory and the keys it reads.
_MEASURES = {
    MeasureKind.LENGTH: (length_measure, ()),
    MeasureKind.COMPRESSION_GAIN: (compression_gain_measure, ()),
    MeasureKind.POWER_LAW: (power_measure, ("beta_pow",)),
    MeasureKind.FISHER: (fisher_measure, ("theta0",)),
}


class ScenarioParseError(ValueError):
    """Config text could not be read; message carries section/field/line."""


class ScenarioValidationError(ValueError):
    """A scenario violates an invariant; message names it."""


@dataclass(frozen=True)
class Scenario:
    """One named batch job: a config template plus sweep grid and seeds."""

    name: str
    kind: str                      # a key of runner.KINDS
    fields: tuple[tuple[str, str], ...]
    sweep: tuple[tuple[str, tuple[str, ...]], ...] = ()
    repeat: int = 1
    outputs: tuple[str, ...] = ("csv", "json")
    checks: tuple[str, ...] = ()

    def field_map(self, overrides: dict[str, str] | None = None) -> dict[str, str]:
        fields = dict(self.fields)
        if overrides:
            fields.update(overrides)
        return fields

    def sweep_points(self) -> Iterator[tuple[str, dict[str, str]]]:
        """Yields (label, overrides) for every grid point."""
        if not self.sweep:
            yield "", {}
            return
        keys = [k for k, _ in self.sweep]
        for point in product(*(values for _, values in self.sweep)):
            overrides = dict(zip(keys, point))
            label = ",".join(f"{k}={v}" for k, v in overrides.items())
            yield label, overrides


def _parse(raw: str, kind: type, scenario: str, key: str):
    """One field's text as `kind`: an Enum, str, int, float or tuple of floats."""
    try:
        if issubclass(kind, Enum):
            return kind(raw.strip().upper())
        if kind is tuple:
            return tuple(float(x) for x in raw.split(",") if x.strip())
        return kind(raw)
    except ValueError as exc:
        expected = (f"not one of {', '.join(e.value for e in kind)}"
                    if issubclass(kind, Enum) else "is not a number")
        raise ScenarioParseError(
            f"scenario {scenario!r}, field {key!r}: {raw!r} {expected}") from exc


@cache
def _params(target, keys: tuple[str, ...]) -> tuple[tuple[str, str, type], ...]:
    """(key, parameter, parser) of each key: the parser is the parameter's
    annotation in `target`, a spec class or factory, without `| None`."""
    hints = get_type_hints(target)
    params = []
    for key in keys:
        param = _RENAMED.get(key, key)
        hint = hints[param]
        params.append((key, param, next(
            (a for a in get_args(hint) if a is not NoneType), hint)))
    return tuple(params)


def _given(target, keys: tuple[str, ...], f: dict[str, str], scenario: str) -> dict:
    """The fields of `keys` that `f` sets, parsed, by `target`'s parameter names.

    An empty value leaves a field unset, except for a string field, where it is
    the empty string.
    """
    given = {}
    for key, param, kind in _params(target, keys):
        raw = f.get(key)
        if raw is not None and (raw or kind is str):
            given[param] = _parse(raw, kind, scenario, key)
    return given


def _make(target, scenario: str, given: dict):
    try:
        return target(**given)
    except ValueError as exc:
        raise ScenarioValidationError(f"scenario {scenario!r}: {exc}") from exc


def _nested(given: dict, param: str, target, keys, f, scenario) -> None:
    """Builds `given[param]` only when `f` sets one of its keys, so that a spec
    the scenario leaves alone keeps its owner's default."""
    fields = _given(target, keys, f, scenario)
    if fields:
        given[param] = _make(target, scenario, fields)


def _numbers(raw: str, scenario: str, key: str) -> np.ndarray:
    """A matrix literal: rows split by ';', numbers by ',' or spaces."""
    try:
        return np.array([[float(x) for x in row.replace(",", " ").split()]
                         for row in raw.split(";")], dtype=float)
    except ValueError as exc:
        raise ScenarioParseError(
            f"scenario {scenario!r}, field {key!r}: bad number list {raw!r}") from exc


def build_channel(scenario: Scenario, overrides=None, seed=None) -> ChannelSpec:
    f = scenario.field_map(overrides)
    given = _given(ChannelSpec, _CHANNEL, f, scenario.name)
    if seed is not None:
        given["seed"] = seed
    _nested(given, "mask_rate", EpsilonSchedule, _MASK, f, scenario.name)
    return _make(ChannelSpec, scenario.name, given)


def _measure(raw: str, f: dict[str, str], scenario: str) -> MeasureSpec:
    try:
        factory, keys = _MEASURES[MeasureKind(raw.strip().upper())]
    except (ValueError, KeyError) as exc:
        raise ScenarioParseError(
            f"scenario {scenario!r}, field 'measure_kind': {raw!r} not one of "
            + ", ".join(kind.value for kind in _MEASURES)) from exc
    return _make(factory, scenario, _given(factory, keys, f, scenario))


def build_run_config(scenario: Scenario, overrides=None, seed=None) -> RunConfig:
    f = scenario.field_map(overrides)
    name = scenario.name
    given = _given(RunConfig, _RUN, f, name)
    given["channel"] = build_channel(scenario, overrides, seed)
    given["update"] = _make(UpdateRuleSpec, name, _given(UpdateRuleSpec, _UPDATE, f, name))
    if f.get("measure_kind"):
        given["measure"] = _measure(f["measure_kind"], f, name)
    _nested(given, "budget", BudgetGate, _BUDGET, f, name)
    _nested(given, "cost_model", CostModel, _COST, f, name)
    return _make(RunConfig, name, given)


def build_swarm_spec(scenario: Scenario, overrides=None) -> SwarmSpec:
    f = scenario.field_map(overrides)
    name = scenario.name
    if "beta" not in f:
        raise ScenarioParseError(f"scenario {name!r}: missing required field 'beta'")
    given = _given(SwarmSpec, _SWARM, f, name)
    given["beta"] = _numbers(f["beta"], name, "beta")
    k = given.setdefault("k", len(given["beta"]))
    lam = f.get("lam", "")
    given["lam"] = _numbers(lam, name, "lam").ravel() if lam else np.ones(k)
    return _make(SwarmSpec, name, given)


# The scenario keys each kind's spec builder reads, beside its runner fields.
_SPEC_KEYS = {
    build_run_config: {*_CHANNEL, *_MASK, *_UPDATE, *_COST, *_BUDGET, *_RUN,
                       "measure_kind", *(k for _, keys in _MEASURES.values() for k in keys)},
    build_swarm_spec: {*_SWARM, "beta", "lam"},
}


def runner_fields(scenario: Scenario, table: dict, overrides=None) -> dict:
    """The fields of `table` (key -> (default, least allowed value)), parsed.

    These are the fields only the runner reads. The default's type parses the
    text, and a field the scenario leaves out or sets empty takes the default.
    A field with a least value is a count, at most `MAX_STEPS`; a float is finite.
    """
    f = scenario.field_map(overrides)
    values = {}
    for key, (default, least) in table.items():
        raw = f.get(key)
        value = _parse(raw, type(default), scenario.name, key) if raw else default
        bad = (f"must lie in [{least}, {MAX_STEPS}]"
               if least is not None and not least <= value <= MAX_STEPS else
               "must be finite" if isinstance(value, float) and not np.isfinite(value) else "")
        if bad:
            raise ScenarioValidationError(f"scenario {scenario.name!r}, field {key!r}: {bad}")
        values[key] = value
    return values


def _validate(scenario: Scenario) -> None:
    from .runner import KINDS, STATIC_ONLY

    for output in scenario.outputs:
        if output not in VALID_OUTPUTS:
            raise ScenarioValidationError(
                f"scenario {scenario.name!r}: unknown output {output!r}")
    if scenario.repeat < 1:
        raise ScenarioValidationError(
            f"scenario {scenario.name!r}: repeat must be at least 1")
    kind = KINDS.get(scenario.kind)
    if kind is None:
        raise ScenarioValidationError(
            f"scenario {scenario.name!r}: unknown kind {scenario.kind!r}")
    unknown = ((dict(scenario.fields).keys() | dict(scenario.sweep).keys())
               - kind.fields.keys() - _SPEC_KEYS.get(kind.build, set()))
    if unknown:
        raise ScenarioValidationError(
            f"scenario {scenario.name!r}, field {min(unknown)!r}: unknown field")
    for check in scenario.checks:
        if check not in kind.checks:
            raise ScenarioValidationError(
                f"scenario {scenario.name!r}: check {check!r} does not apply "
                f"to kind {scenario.kind!r}")
    # Build every sweep point so invariant violations surface at load.
    for _, overrides in scenario.sweep_points():
        spec = kind.build(scenario, overrides) if kind.build is not None else None
        relay = getattr(spec, "gain_mode", None) is GainMode.RELAY
        for check in scenario.checks:
            if relay and kind.checks[check] in STATIC_ONLY:
                raise ScenarioValidationError(
                    f"scenario {scenario.name!r}: check {check!r} holds for STATIC "
                    "gains only, not a RELAY swarm")
        fields = runner_fields(scenario, kind.fields, overrides)
        if isinstance(spec, SwarmSpec):
            try:
                check_horizon(spec, fields["horizon"])
            except ValueError as exc:
                raise ScenarioValidationError(
                    f"scenario {scenario.name!r}, field 'horizon': {exc}") from exc


def _scenario_from_section(name: str, options: dict[str, str]) -> Scenario:
    from .runner import KINDS

    kind = options.pop("kind", next(iter(KINDS))).strip()
    given = {}
    if "repeat" in options:
        given["repeat"] = _parse(options.pop("repeat"), int, name, "repeat")
    for key in ("outputs", "checks"):
        if key in options:
            given[key] = tuple(x.strip() for x in options.pop(key).split(",") if x.strip())
    sweep = []
    for key in [k for k in options if k.startswith("sweep_")]:
        values = tuple(v.strip() for v in options.pop(key).split(",") if v.strip())
        if not values:
            raise ScenarioParseError(
                f"scenario {name!r}: sweep field {key!r} is empty")
        sweep.append((key[len("sweep_"):], values))
    scenario = Scenario(name=name, kind=kind, fields=tuple(sorted(options.items())),
                        sweep=tuple(sorted(sweep)), **given)
    _validate(scenario)
    return scenario


def parse_scenarios(text: str) -> list[Scenario]:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ScenarioParseError(str(exc)) from exc
    if "meta" not in parser:
        raise ScenarioParseError("missing [meta] section")
    schema = parser["meta"].get("schema", "")
    if schema != str(SCHEMA_VERSION):
        raise ScenarioParseError(
            f"unsupported schema {schema!r}; this build reads schema "
            f"{SCHEMA_VERSION}")
    scenarios = []
    names = set()
    for section in parser.sections():
        if section == "meta":
            continue
        if not section.startswith("scenario:"):
            raise ScenarioParseError(f"unexpected section [{section}]")
        name = section.split(":", 1)[1]
        if name in names:
            raise ScenarioValidationError(f"duplicate scenario name {name!r}")
        names.add(name)
        scenarios.append(_scenario_from_section(name, dict(parser[section])))
    if not scenarios:
        raise ScenarioParseError("no [scenario:...] sections found")
    return scenarios


def load_scenarios(path) -> list[Scenario]:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenarios(handle.read())


def emit_scenarios(scenarios: list[Scenario]) -> str:
    """Inverse of parse_scenarios for scenarios built from explicit fields."""
    lines = ["[meta]", f"schema = {SCHEMA_VERSION}", ""]
    for s in scenarios:
        lines.append(f"[scenario:{s.name}]")
        lines.append(f"kind = {s.kind}")
        lines.append(f"repeat = {s.repeat}")
        lines.append(f"outputs = {','.join(s.outputs)}")
        if s.checks:
            lines.append(f"checks = {','.join(s.checks)}")
        for key, value in s.fields:
            lines.append(f"{key} = {value}")
        for key, values in s.sweep:
            lines.append(f"sweep_{key} = {','.join(values)}")
        lines.append("")
    return "\n".join(lines)


_GATED = ("psi_kind=GATED noise_len=8 measure_kind=LENGTH update_kind=DELTA_MONOTONE "
          "mode=ABSTRACT ")

# The packaged scenario set (`loopsim run builtin`): each scenario is the
# `key=value` options of its config-file section, parsed the same way.
_BUILTIN = dict(
    # 1-bit self-copy demo: the trace IS the point, no verdicts attach
    # (single-bit states repeat by chance, so fixed-point classification
    # is only meaningful at wider noise).
    onebit="psi_kind=IDENTITY noise_len=1 temperature=1.0 update_kind=OVERWRITE "
           "mode=CONCRETE initial_norm=1 initial_symbols=0 gamma=1 horizon=32 seed=1",
    tokens="psi_kind=IDENTITY noise_len=22 update_kind=OVERWRITE mode=CONCRETE "
           "gamma=1 horizon=100 seed=2 sweep_temperature=1.0,0.0 checks=fixed_point",
    prototype="kind=prototype steps=200 gamma=10 seed=3",
    drift=_GATED + "gamma=10 gamma_true=10 gain_lo=0 gain_hi=10 delta=0.5 "
                   "initial_norm=11 horizon=10000 seed=4 checks=drift",
    masked_drift=_GATED + "gamma=10 gamma_true=10 gain_lo=0 gain_hi=12 delta=1.0 "
                          "initial_norm=11 horizon=10000 seed=5 eps0=0.5 checks=drift",
    bounded=_GATED + "gamma=10 gamma_true=10 gain_lo=0 gain_hi=12 delta=1.0 "
                     "initial_norm=5 horizon=20000 seed=6 repeat=3 checks=bounded",
    collapse=_GATED + "gamma=4 gamma_true=4 gain_lo=0 gain_hi=10 delta=0.5 "
                      "initial_norm=2 horizon=20000 seed=7 eps0=0.95 repeat=3 "
                      "checks=bounded",
    bursts=_GATED + "update_kind=WINDOWED window=100 drop_to=11 delta=1.0 gamma=10 "
                    "gamma_true=10 gain_lo=0 gain_hi=10 initial_norm=11 horizon=20000 "
                    "seed=8 checks=bursts",
    finite_time=_GATED + "gamma=10 gamma_true=10 gain_lo=2 gain_hi=10 delta=1.0 "
                         "initial_norm=2 horizon=40 seed=9 bound_target=100 "
                         "checks=drift,time_bound",
    cost_slope=_GATED + "gamma=10 gamma_true=10 gain_lo=0 gain_hi=10 delta=1.0 "
                        "initial_norm=11 horizon=10000 seed=10 checks=cost_slope",
    tightness=_GATED + "gamma=50 gamma_true=50 gain_lo=0 gain_hi=5 horizon=1 seed=11 "
                       "bracket_lo=1 bracket_hi=100 iterations=20 mc_samples=32",
    swarm_sync="kind=swarm k=2 beta=0,0.5;0.5,0 lam=1,1 schedule=SYNCHRONOUS "
               "base_gain=4 delta=1 gamma=100 horizon=1000 seed=12 "
               "checks=collective_gain",
    swarm_async="kind=swarm k=2 beta=0,0.5;0.5,0 lam=0.5,0.5 schedule=BERNOULLI_ASYNC "
                "base_gain=4 delta=1 gamma=100 horizon=10000 seed=13 "
                "checks=collective_gain",
    swarm_relay="kind=swarm k=2 beta=0,0.5;0.5,0 lam=1,1 schedule=SYNCHRONOUS "
                "base_gain=1 delta=1 gamma=1000 gain_mode=RELAY horizon=60 seed=14 "
                "checks=divergence",
    # Exponential growth against a budget-sized crossing level: the
    # crossing time tracks log(budget).
    conjecture_log=_GATED + "psi_kind=MIRROR delta=0.25 initial_norm=4 gamma=50 "
                            "horizon=400 seed=15 eps0=0.1 budgets=50,100,200,400,800 "
                            "conjecture_seeds=8 budget_binding=gamma",
    # Budget-independent control: fixed gain and crossing level, so the
    # crossing time ignores the budget entirely.
    conjecture_flat=_GATED + "gamma_true=5 gain_lo=0 gain_hi=10 delta=1.0 "
                             "initial_norm=6 gamma=100 horizon=400 seed=16 eps0=0.1 "
                             "budgets=50,100,200,400,800 conjecture_seeds=8 "
                             "budget_binding=none",
)


def builtin_scenarios() -> list[Scenario]:
    """The packaged scenario set (`loopsim run builtin`)."""
    return [_scenario_from_section(name, dict(option.split("=", 1)
                                              for option in options.split()))
            for name, options in _BUILTIN.items()]
