"""Run configuration: the one reader of the JSON config format.

A config is a single JSON object; every number in it must be finite.
Complex numbers are written as ``{"re": x, "im": y}`` (plain numbers are
accepted as reals).  Symbols use the ``type`` field with variant-specific
entries (:func:`symbol_from_spec`).  Each command reads some of the
top-level keys (``_INPUTS``) and refuses the others; of ``symbol``, ``family``
and ``params`` it needs the ones it reads.  An input that sizes more bytes
than the machine's physical memory is refused before anything is allocated.
Function families are either an explicit list of coefficient lists, a
shorthand string such as ``"monomials:1..8"``, or an object naming one of
the shipped families:

* ``monomials``: z^n for n in start..stop,
* ``mobius-monomials``: powers of a disc automorphism, truncated at ``order``
  (exact series products; exercises boundary contact),
* ``geometric``: partial geometric sums 1 + z + ... + z^k (slow coefficient
  decay).

Parameters are validated before any computation starts: the general window
when ``tau`` is given, the strict equal-weight window otherwise.  Every
refusal is a ConfigError or ParamError whose message names its field.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ParamError
from .kernels import SupSearchSettings
from .norms import WeightParams, validate_main_theorem_params
from .operators import _TILE
from .quadrature import QuadratureSettings
from .series import TruncatedPowerSeries
from .symbols import Blaschke, FiniteBlaschke, Identity, MobiusAuto, Monomial, Polynomial, Rotation

#: the top-level keys each command reads besides command and out_dir
_INPUTS = {
    "norm": {"family", "params", "quadrature"},
    "kernel-sup": {"symbol", "sup_search"},
    "rank-check": {"symbol"},
    "equivalence": {"family", "params", "quadrature", "stability_rel_tol"},
    "bound-check": {"symbol", "family", "params", "quadrature", "sup_search", "stability_rel_tol"},
    "selfmap-check": {"symbol", "selfmap_grid", "selfmap_tol"},
}
COMMANDS = tuple(_INPUTS)


@dataclass(frozen=True)
class RunConfig:
    """Validated inputs of one experiment run."""

    command: str
    symbol: Blaschke | Polynomial | None = None
    family: tuple = ()  # ((label, TruncatedPowerSeries), ...)
    params: WeightParams | None = None
    quadrature: QuadratureSettings = field(default_factory=QuadratureSettings)
    sup_search: SupSearchSettings = field(default_factory=SupSearchSettings)
    selfmap_grid: int = 1024
    selfmap_tol: float = 1e-6
    stability_rel_tol: float = 0.02
    out_dir: str | None = None


def _number(obj, where):
    """obj as a finite float; strings, booleans, NaN and infinities are refused."""
    try:
        if not isinstance(obj, bool) and math.isfinite(obj):
            return float(obj)
    except (TypeError, OverflowError):
        pass
    raise ConfigError(f"{where} must be a finite number, got {obj!r}", field=where)


def _integer(obj, where):
    """obj as an int: 2 and 2.0 are read; 2.5, "2", true and non-finite values are not."""
    if isinstance(obj, float) and obj.is_integer() or (
        isinstance(obj, numbers.Integral) and not isinstance(obj, bool)
    ):
        return int(obj)
    raise ConfigError(f"{where} must be an integer, got {obj!r}", field=where)


def _complex_value(obj, where):
    """A number, or an object {"re": x, "im": y} whose parts (default 0) are numbers."""
    if not isinstance(obj, dict):
        return complex(_number(obj, where))
    _known(obj, {"re", "im"}, where)
    return complex(_number(obj.get("re", 0.0), f"{where}.re"),
                   _number(obj.get("im", 0.0), f"{where}.im"))


def _complex_list(obj, where):
    if not isinstance(obj, (list, tuple)):
        raise ConfigError(f"{where} must be a list, got {obj!r}", field=where)
    return tuple(_complex_value(c, f"{where}[{i}]") for i, c in enumerate(obj))


def _known(obj, keys, where):
    unknown = set(obj) - set(keys)
    if unknown:
        raise ConfigError(f"unknown {where} fields: {sorted(unknown)}", field=where)


def _fits(need, where):
    """Refuse an input that sizes ``need`` bytes, more than physical memory."""
    if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
        raise ConfigError(f"{where} sizes at least 2^{need.bit_length() - 1} bytes, "
                          "above physical memory", field=where)


def _quadrature_bytes(command, q: QuadratureSettings):
    """Bytes of the largest arrays a command builds on its quadrature ladder.

    equivalence: the kernel spectrum 8 (m//2 + 1) n_rad^2 at the last level, twice: a
    dense series gathers a slab per mode, a copy as large as the spectrum;
    norm: the rule's nodes and weights, 24 n_rad m, at the last level;
    bound-check: those, or on its base rule of N nodes the pair engine's tile
    workspace, 8 x 3 x 16 x N, or the kernel spectrum, whichever is largest.
    """
    # 64 factor steps put any rule past any memory, so the power stops there
    top = q.refinement_factor ** min(q.max_refinements, 64)
    n_rad, m = q.radial_count * top, q.angular_count * top
    if command == "equivalence":
        return 2 * 8 * (m // 2 + 1) * n_rad**2
    need = 24 * n_rad * m
    if command == "bound-check":
        n_rad, m = q.radial_count, q.angular_count
        need = max(need, 8 * 3 * _TILE * n_rad * m, 8 * (m // 2 + 1) * n_rad**2)
    return need


#: per symbol type: the constructor, then each field with its reader and
#: default (None: required); the first field is the one the constructor checks
_SYMBOLS = {
    "identity": (Identity, {}),
    "rotation": (Rotation, {"angle": (_number, None)}),
    "mobius": (MobiusAuto, {"a": (_complex_value, None), "post_rotation": (_number, 0.0)}),
    "monomial": (Monomial, {"k": (_integer, None)}),
    "blaschke": (FiniteBlaschke, {"zeros": (_complex_list, None), "post_rotation": (_number, 0.0)}),
    "poly": (Polynomial, {"coeffs": (_complex_list, None)}),
}


def symbol_from_spec(spec) -> Blaschke | Polynomial:
    """Build a symbol from its config form (field ``type`` selects the variant).

    A missing, unreadable or out-of-range field is refused as ``symbol.<field>``.
    """
    kind = spec.get("type") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _SYMBOLS:
        raise ConfigError(f"symbol must be an object whose type is one of {list(_SYMBOLS)}, "
                          f"got type {kind!r}", field="symbol.type")
    cls, fields = _SYMBOLS[kind]
    _known(spec, {"type", *fields}, "symbol")
    kwargs = {}
    for key, (read, default) in fields.items():
        if key not in spec and default is None:
            raise ConfigError(f"symbol.{key}: a {kind!r} symbol needs it", field=f"symbol.{key}")
        kwargs[key] = read(spec[key], f"symbol.{key}") if key in spec else default
    if kind == "monomial":
        _fits(8 * kwargs["k"], "symbol.k")  # z^k holds its k zeros at the origin
    try:
        return cls(**kwargs)
    except ParamError as exc:
        where = f"symbol.{next(iter(fields))}"
        raise ConfigError(f"{where}: {exc}", field=where) from None


_FAMILY_RANGE = re.compile(r"^(?P<name>[a-z-]+):(?P<start>\d+)\.\.(?P<stop>\d+)$")


def _expand_named_family(name, start, stop, a=0.5 + 0.0j, order=48):
    if stop < start:
        raise ConfigError("family range is empty", field="family")
    if name not in ("monomials", "geometric", "mobius-monomials"):
        raise ConfigError(f"unknown family name {name!r}", field="family")
    for key, value in (("start", start), ("order", order)):
        if value < 0:
            raise ConfigError(f"family.{key} must be >= 0, got {value}", field=f"family.{key}")
    if name == "mobius-monomials":
        _fits(16 * (order + 1), "family.order")
        _fits(16 * (stop - start + 1) * (order + 1), "family")
    else:
        _fits(16 * (stop + start + 2) * (stop - start + 1) // 2, "family")  # n + 1 per member
    if name == "monomials":
        return tuple(
            (f"z^{n}", TruncatedPowerSeries.monomial(n)) for n in range(start, stop + 1)
        )
    if name == "geometric":
        return tuple(
            (f"geom:{k}", TruncatedPowerSeries.geometric_sum(k)) for k in range(start, stop + 1)
        )
    if name == "mobius-monomials":
        MobiusAuto(a=a)  # refuses |a| >= 1
        # (a - z) / (1 - conj(a) z) = a - (1 - |a|^2) sum_{k >= 1} conj(a)^(k-1) z^k
        phi = np.concatenate(([a], -(1 - abs(a)) * (1 + abs(a)) * np.conj(a) ** np.arange(order)))
        power, base, n = np.eye(1, order + 1, dtype=complex)[0], phi, start
        while n:  # phi^start by repeated squaring, all products cut to order + 1
            power = np.convolve(power, base)[: order + 1] if n & 1 else power
            base, n = np.convolve(base, base)[: order + 1], n >> 1
        out = []
        for n in range(start, stop + 1):
            out.append((f"mobius({a:g})^{n}", TruncatedPowerSeries(tuple(power))))
            power = np.convolve(power, phi)[: order + 1]
        return tuple(out)


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
        # only the automorphism powers read a and order
        extra = ("a", "order") if name == "mobius-monomials" else ()
        _known(obj, {"name", "start", "stop", *extra}, "family")
        kwargs = {}
        if "a" in obj:
            kwargs["a"] = _complex_value(obj["a"], "family.a")
        if "order" in obj:
            kwargs["order"] = _integer(obj["order"], "family.order")
        return _expand_named_family(
            name,
            _integer(obj.get("start", 1), "family.start"),
            _integer(obj.get("stop", 8), "family.stop"),
            **kwargs,
        )
    if isinstance(obj, list):
        out = []
        for i, entry in enumerate(obj):
            if not isinstance(entry, dict) or "coeffs" not in entry:
                raise ConfigError(
                    "explicit family entries need a 'coeffs' list", field=f"family[{i}]"
                )
            _known(entry, {"coeffs", "label"}, f"family[{i}]")
            coeffs = _complex_list(entry["coeffs"], f"family[{i}].coeffs")
            out.append((str(entry.get("label", f"f{i}")), TruncatedPowerSeries(coeffs)))
        return tuple(out)
    raise ConfigError("family must be a string, object, or list", field="family")


def _parse_params(obj, command):
    if not isinstance(obj, dict):
        raise ConfigError("params must be an object", field="params")
    _known(obj, {"sigma", "beta", "tau"}, "params")
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
        return WeightParams(sigma=sigma, tau=tau, beta=beta)
    return validate_main_theorem_params(sigma, beta)


def _settings_from(obj, cls, where):
    if obj is None:
        return cls()
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object", field=where)
    fields = cls.__dataclass_fields__
    _known(obj, fields, where)
    # every settings field is an int or a float
    values = {
        key: (_integer if fields[key].type == "int" else _number)(value, f"{where}.{key}")
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
        except (ValueError, RecursionError) as exc:
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
    if not isinstance(cfg_command, str) or cfg_command not in _INPUTS:
        raise ConfigError(
            f"unknown command {cfg_command!r}; expected one of {COMMANDS}", field="command"
        )

    _known(obj, {"command", "out_dir"}.union(*_INPUTS.values()), "config")
    reads = _INPUTS[cfg_command] | {"command", "out_dir"}
    for key in obj:
        if key not in reads:
            raise ConfigError(f"{key}: not read by {cfg_command}", field=key)
    for key in ("symbol", "family", "params"):
        if key in reads and key not in obj:
            raise ConfigError(f"{key}: required by {cfg_command}", field=key)

    # the sizes are checked before anything is built
    quadrature = _settings_from(obj.get("quadrature"), QuadratureSettings, "quadrature")
    _fits(_quadrature_bytes(cfg_command, quadrature), "quadrature")
    sup_search = _settings_from(obj.get("sup_search"), SupSearchSettings, "sup_search")
    _fits(16 * sup_search.initial_grid**2, "sup_search.initial_grid")
    selfmap_grid = _integer(obj.get("selfmap_grid", 1024), "selfmap_grid")
    if selfmap_grid < 256:
        raise ConfigError(f"selfmap_grid must be >= 256, got {selfmap_grid}", field="selfmap_grid")
    _fits(16 * selfmap_grid, "selfmap_grid")

    family = ()
    if "family" in reads:
        try:
            family = _parse_family(obj["family"])
        except ParamError as exc:
            raise ConfigError(f"family: {exc}", field="family") from None
        if not family:
            raise ConfigError("family is empty", field="family")

    tolerances = {key: _number(obj.get(key, default), key)
                  for key, default in (("selfmap_tol", 1e-6), ("stability_rel_tol", 0.02))}
    for key, tol in tolerances.items():
        if not tol > 0.0:
            raise ConfigError(f"{key} must be > 0, got {tol!r}", field=key)
    out_dir = obj.get("out_dir")
    if not isinstance(out_dir, (str, type(None))):
        raise ConfigError(f"out_dir must be a string, got {out_dir!r}", field="out_dir")

    return RunConfig(
        command=cfg_command,
        symbol=symbol_from_spec(obj["symbol"]) if "symbol" in reads else None,
        family=family,
        params=_parse_params(obj["params"], cfg_command) if "params" in reads else None,
        quadrature=quadrature,
        sup_search=sup_search,
        selfmap_grid=selfmap_grid,
        **tolerances,
        out_dir=out_dir,
    )

