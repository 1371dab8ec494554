"""Run configuration: TOML 1.0 files, read by the standard library's tomllib.

Each table is a block: [params], [quadrature], [field] or [output]; the keys
before any table form the "" block and are [params] keys. An unknown block
or key, a value of the wrong type, a TOML error (a duplicate key among them)
and a file that is not UTF-8 are each a ConfigError.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import FracgreenError
from .params import ProblemParams, sharp_hardy_constant, theta_of_gamma
from .quadrature import MAX_DIM, QuadratureSpec


class ConfigError(FracgreenError, ValueError):
    """Malformed configuration file or inconsistent settings."""


def load_config_file(path: str) -> dict:
    """The file's tables by name, and its keys before any table as ""."""
    import tomllib  # only a run with --config needs the parser
    try:
        with open(path, "rb") as fh:
            doc = tomllib.load(fh)
    except (tomllib.TOMLDecodeError, UnicodeDecodeError) as ex:
        raise ConfigError(f"{path}: {ex}")
    blocks = {"": {k: v for k, v in doc.items() if not isinstance(v, dict)}}
    blocks.update((k, v) for k, v in doc.items() if isinstance(v, dict))
    return blocks


#: every run setting once: (config block, key, RunConfig attribute, type).
#: The attribute is also the argparse dest of the setting's flag; [params]
#: keys may also stand before any block.
SETTINGS = (
    ("params", "N", "dim", int),
    ("params", "s", "order", float),
    ("params", "theta", "theta", float),
    ("params", "gamma", "gamma", float),
    ("output", "format", "fmt", str),
    ("output", "path", "out", str),
    ("output", "seed", "seed", int),
)

#: the blocks a config file may hold, [field] with the chosen field's keys
BLOCKS = ("params", "quadrature", "field", "output")


def _check_keys(where: str, given, allowed) -> None:
    """ConfigError naming where and each key of given that allowed lacks."""
    unknown = sorted(set(given) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}; "
                          f"choose from {list(allowed)}")


def _typed(block: str, key: str, value, typ: type):
    """A config value as typ: a float key also takes an integer; anything
    else (true/false, a list, a string for a number) is a ConfigError
    naming the key."""
    if not (type(value) is typ or (typ is float and type(value) is int)):
        raise ConfigError(f"[{block}] {key} = {value!r}: expected "
                          f"{typ.__name__}")
    return typ(value)


def _quadrature_spec(block: dict) -> QuadratureSpec:
    """QuadratureSpec from a [quadrature] block: each key names a field and
    takes the type of that field's default."""
    spec = {f.name: type(f.default) for f in fields(QuadratureSpec)}
    _check_keys("[quadrature]", block, spec)
    return QuadratureSpec(**{key: _typed("quadrature", key, val, spec[key])
                             for key, val in block.items()})


@dataclass
class RunConfig:
    """Validated settings for one CLI invocation."""

    dim: int = 3
    order: float = 0.5
    theta: float | None = None
    gamma: float | None = None
    quad: QuadratureSpec = field(default_factory=QuadratureSpec)
    seed: int = 20250811
    fmt: str = "csv"
    out: str | None = None
    blocks: dict = field(default_factory=dict)

    @classmethod
    def from_sources(cls, blocks: dict, flags) -> "RunConfig":
        """Settings from the config blocks, each overridden by its flag
        (the flags' attribute of the same name) when that is not None."""
        given = {"params": {**blocks.get("", {}), **blocks.get("params", {})},
                 "output": blocks.get("output", {})}
        _check_keys("top level", blocks.keys() - {""}, BLOCKS)
        for block, values in given.items():
            _check_keys(f"[{block}]", values,
                        [key for b, key, _, _ in SETTINGS if b == block])
        cfg = cls(blocks=blocks,
                  quad=_quadrature_spec(blocks.get("quadrature", {})))
        for block, key, attr, typ in SETTINGS:
            if key in given[block]:
                setattr(cfg, attr, _typed(block, key, given[block][key], typ))
            if getattr(flags, attr) is not None:
                setattr(cfg, attr, getattr(flags, attr))
        cfg.validate()
        return cfg

    def validate(self):
        if not 1 <= self.dim <= MAX_DIM:
            raise ConfigError(f"N={self.dim} must be an integer in "
                              f"[1, {MAX_DIM}]")
        if not 0.0 < self.order < 1.0:
            raise ConfigError(f"s={self.order} must lie in (0,1)")
        if self.dim <= 2 * self.order:
            raise ConfigError(f"need N > 2s, got N={self.dim}, s={self.order}")
        lam = sharp_hardy_constant(self.dim, self.order)
        if self.theta is not None and not 0.0 < self.theta < lam:
            raise ConfigError(
                f"theta={self.theta} must lie in (0, Lambda) with "
                f"Lambda(N={self.dim}, s={self.order}) = {lam:.12g}")
        half = (self.dim - 2.0 * self.order) / 2.0
        if self.gamma is not None and not 0.0 < self.gamma < half:
            raise ConfigError(
                f"gamma={self.gamma} must lie in (0, (N-2s)/2 = {half:.12g})")
        if self.theta is not None and self.gamma is not None:
            implied = theta_of_gamma(self.gamma, self.dim, self.order)
            if abs(implied - self.theta) > 1e-8 * lam:
                raise ConfigError(
                    f"theta={self.theta} and gamma={self.gamma} disagree "
                    f"(gamma implies theta={implied:.12g})")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be a non-negative "
                              f"integer")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"format={self.fmt!r} must be csv or json")

    def params(self, default_gamma: float | None = None) -> ProblemParams:
        """Problem parameters; theta wins over gamma when both given."""
        if self.theta is not None:
            return ProblemParams.from_theta(self.dim, self.order, self.theta)
        if self.gamma is not None:
            return ProblemParams.from_gamma(self.dim, self.order, self.gamma)
        if default_gamma is not None:
            half = (self.dim - 2.0 * self.order) / 2.0
            return ProblemParams.from_gamma(self.dim, self.order,
                                            default_gamma * half)
        raise ConfigError("needs --theta or --gamma")
