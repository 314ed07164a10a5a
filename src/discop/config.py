"""Run configuration: parsing, validation, and family expansion.

A config is a single JSON object.  Complex numbers are written as
``{"re": x, "im": y}`` (plain numbers are accepted as reals).  Symbols use
the ``type`` field with variant-specific entries (see symbols module).
Function families are either an explicit list of coefficient lists, a
shorthand string such as ``"monomials:1..8"``, or an object naming one of
the shipped families:

* ``monomials``: z^n for n in start..stop,
* ``mobius-monomials``: powers of a disc automorphism (series extracted by
  circle sampling; exercises boundary contact),
* ``geometric``: partial geometric sums 1 + z + ... + z^k (slow coefficient
  decay).

Parameters are validated before any computation starts: the general window
when ``tau`` is given, the strict equal-weight window otherwise.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass, field, replace

from .errors import ConfigError, ParamError
from .kernels import SupSearchSettings
from .norms import WeightParams, validate_main_theorem_params, validate_params
from .quadrature import QuadratureSettings
from .series import TruncatedPowerSeries, coefficients_of
from .symbols import MobiusAuto, Symbol, _integer, symbol_from_spec

COMMANDS = ("norm", "kernel-sup", "rank-check", "equivalence", "bound-check", "selfmap-check")

_NEEDS_SYMBOL = {"kernel-sup", "rank-check", "bound-check", "selfmap-check"}
_NEEDS_FAMILY = {"norm", "equivalence", "bound-check"}
_NEEDS_PARAMS = {"norm", "equivalence", "bound-check"}


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one experiment run."""

    command: str
    symbol: Symbol | None = None
    family: tuple = ()  # ((label, TruncatedPowerSeries), ...)
    params: WeightParams | None = None
    quadrature: QuadratureSettings = field(default_factory=QuadratureSettings)
    sup_search: SupSearchSettings = field(default_factory=SupSearchSettings)
    selfmap_grid: int = 1024
    selfmap_tol: float = 1e-6
    stability_rel_tol: float = 0.02
    out_dir: str | None = None


_FAMILY_RANGE = re.compile(r"^(?P<name>[a-z-]+):(?P<start>\d+)\.\.(?P<stop>\d+)$")


def _expand_named_family(name, start, stop, a=0.5 + 0.0j, order=48):
    if stop < start:
        raise ConfigError("family range is empty", field="family")
    if name == "monomials":
        return tuple(
            (f"z^{n}", TruncatedPowerSeries.monomial(n)) for n in range(start, stop + 1)
        )
    if name == "geometric":
        return tuple(
            (f"geom:{k}", TruncatedPowerSeries.geometric_sum(k)) for k in range(start, stop + 1)
        )
    if name == "mobius-monomials":
        mob = MobiusAuto(a=a)
        out = []
        for n in range(start, stop + 1):
            series = coefficients_of(lambda z, n=n: mob.value(z) ** n, order)
            out.append((f"mobius({a:g})^{n}", series))
        return tuple(out)
    raise ConfigError(f"unknown family name {name!r}", field="family")


def _parse_family(obj):
    if isinstance(obj, str):
        m = _FAMILY_RANGE.match(obj)
        if not m:
            raise ConfigError(
                f"family string must look like 'monomials:1..8', got {obj!r}", field="family"
            )
        return _expand_named_family(m["name"], int(m["start"]), int(m["stop"]))
    if isinstance(obj, dict):
        name = obj.get("name")
        if name is None:
            raise ConfigError("family object needs a 'name'", field="family.name")
        kwargs = {}
        if "a" in obj:
            kwargs["a"] = _complex_value(obj["a"], "family.a")
        if "order" in obj:
            kwargs["order"] = _number(obj["order"], "family.order", _integer)
        return _expand_named_family(
            name,
            _number(obj.get("start", 1), "family.start", _integer),
            _number(obj.get("stop", 8), "family.stop", _integer),
            **kwargs,
        )
    if isinstance(obj, list):
        out = []
        for i, entry in enumerate(obj):
            if not isinstance(entry, dict) or "coeffs" not in entry:
                raise ConfigError(
                    "explicit family entries need a 'coeffs' list", field=f"family[{i}]"
                )
            coeffs = tuple(
                _complex_value(c, f"family[{i}].coeffs") for c in entry["coeffs"]
            )
            label = entry.get("label", f"f{i}")
            out.append((str(label), TruncatedPowerSeries(coeffs)))
        return tuple(out)
    raise ConfigError("family must be a string, object, or list", field="family")


def _number(obj, where, kind=float):
    """obj through float or _integer; an unreadable value names its field."""
    try:
        return kind(obj)
    except (TypeError, ValueError):
        noun = "an integer" if kind is _integer else "a number"
        raise ConfigError(f"{where} must be {noun}, got {obj!r}", field=where) from None


def _complex_value(obj, where):
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, dict) and set(obj) <= {"re", "im"}:
        try:
            return complex(float(obj.get("re", 0.0)), float(obj.get("im", 0.0)))
        except (TypeError, ValueError):
            pass
    raise ConfigError(
        f"complex values must be numbers or {{'re':..,'im':..}} objects", field=where
    )


def _parse_params(obj, command):
    if not isinstance(obj, dict):
        raise ConfigError("params must be an object", field="params")
    try:
        sigma = _number(obj["sigma"], "params.sigma")
        beta = _number(obj["beta"], "params.beta")
    except KeyError as exc:
        raise ConfigError(f"params missing {exc.args[0]!r}", field="params") from None
    tau = _number(obj["tau"], "params.tau") if "tau" in obj else None
    if command == "bound-check":
        if tau is not None and tau != sigma:
            raise ConfigError(
                "bound-check runs in the equal-weight window; omit tau or set it to sigma",
                field="params.tau",
            )
        return validate_main_theorem_params(sigma, beta)
    if tau is not None:
        return validate_params(sigma, tau, beta)
    return validate_main_theorem_params(sigma, beta)


def _settings_from(obj, cls, where):
    if obj is None:
        return cls()
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object", field=where)
    fields = cls.__dataclass_fields__
    unknown = set(obj) - set(fields)
    if unknown:
        raise ConfigError(
            f"unknown {where} fields: {sorted(unknown)}", field=where
        )
    # every settings field is an int or a float
    values = {
        key: _number(value, f"{where}.{key}", _integer if fields[key].type == "int" else float)
        for key, value in obj.items()
    }
    try:
        return cls(**values)
    except ParamError as exc:
        raise ParamError(f"{where}.{exc}") from None


def parse_config(obj, command: str | None = None) -> RunConfig:
    """Build a validated RunConfig from a dict (or JSON text).

    ``command`` (from the CLI) must agree with the config's own ``command``
    field when both are present.  All referenced parameters are validated
    here, before any computation starts.
    """
    if isinstance(obj, str):
        try:
            obj = json.loads(obj)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}", field="<root>") from None
    if not isinstance(obj, dict):
        raise ConfigError("config must be a single JSON object", field="<root>")

    cfg_command = obj.get("command", command)
    if cfg_command is None:
        raise ConfigError("no command given (config field or CLI)", field="command")
    if command is not None and cfg_command != command:
        raise ConfigError(
            f"config command {cfg_command!r} conflicts with CLI command {command!r}",
            field="command",
        )
    if cfg_command not in COMMANDS:
        raise ConfigError(
            f"unknown command {cfg_command!r}; expected one of {COMMANDS}", field="command"
        )

    known = {
        "command", "symbol", "family", "params", "quadrature", "sup_search",
        "selfmap_grid", "selfmap_tol", "stability_rel_tol", "seed", "out_dir",
    }
    unknown = set(obj) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}", field="<root>")

    if cfg_command in _NEEDS_SYMBOL and "symbol" not in obj:
        raise ConfigError(f"{cfg_command} needs a symbol", field="symbol")
    symbol = None
    if "symbol" in obj:
        try:
            symbol = symbol_from_spec(obj["symbol"])
        except ParamError as exc:
            raise ConfigError(str(exc), field="symbol") from None

    family = ()
    if cfg_command in _NEEDS_FAMILY:
        if "family" not in obj:
            raise ConfigError(f"{cfg_command} needs a family", field="family")
        family = _parse_family(obj["family"])
        if not family:
            raise ConfigError("family is empty", field="family")

    params = None
    if cfg_command in _NEEDS_PARAMS:
        if "params" not in obj:
            raise ConfigError(f"{cfg_command} needs params", field="params")
        params = _parse_params(obj["params"], cfg_command)

    sup_search = _settings_from(obj.get("sup_search"), SupSearchSettings, "sup_search")
    if "seed" not in (obj.get("sup_search") or {}):
        sup_search = replace(sup_search, seed=_number(obj.get("seed", 0), "seed", _integer))

    selfmap_grid = _number(obj.get("selfmap_grid", 1024), "selfmap_grid", _integer)
    if selfmap_grid < 256:
        raise ConfigError(f"selfmap_grid must be >= 256, got {selfmap_grid}", field="selfmap_grid")
    tolerances = {key: _number(obj.get(key, default), key)
                  for key, default in (("selfmap_tol", 1e-6), ("stability_rel_tol", 0.02))}
    for key, tol in tolerances.items():
        if not 0.0 < tol < math.inf:
            raise ConfigError(f"{key} must be finite and > 0, got {tol!r}", field=key)

    return RunConfig(
        command=cfg_command,
        symbol=symbol,
        family=family,
        params=params,
        quadrature=_settings_from(obj.get("quadrature"), QuadratureSettings, "quadrature"),
        sup_search=sup_search,
        selfmap_grid=selfmap_grid,
        **tolerances,
        out_dir=obj.get("out_dir"),
    )


def apply_overrides(config: RunConfig, out_dir=None, refine=None, seed=None) -> RunConfig:
    """CLI-level overrides: output directory, pre-refinement steps, RNG seed.

    ``refine`` multiplies the base quadrature counts by refinement_factor^k
    (the sup-search grid is left alone; it refines itself), unless the last
    level's kernel spectrum, 8 (m//2 + 1) n_rad^2 bytes, exceeds physical memory.
    """
    for flag, value in (("--refine", refine), ("--seed", seed)):
        if value is not None and value < 0:
            raise ConfigError(f"{flag} must be >= 0, got {value}", field=flag)
    if out_dir is not None:
        config = replace(config, out_dir=str(out_dir))
    if refine:
        q = config.quadrature
        scale = q.refinement_factor**int(refine)
        top = scale * q.refinement_factor**q.max_refinements
        need = 8 * (q.angular_count * top // 2 + 1) * (q.radial_count * top) ** 2
        if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
            raise ConfigError(f"--refine {refine} needs a kernel spectrum of at least "
                              f"2^{need.bit_length() - 1} bytes, above physical memory",
                              field="--refine")
        config = replace(
            config,
            quadrature=replace(
                q,
                radial_count=q.radial_count * scale,
                angular_count=q.angular_count * scale,
            ),
        )
    if seed is not None:
        config = replace(config, sup_search=replace(config.sup_search, seed=int(seed)))
    return config
