"""Run configuration: flat key-value files with [table] blocks.

Grammar (documented in the README):
  - `[name]` opens a block; keys before any block land in the "" block
  - `key = value` with value one of: integer, float, true/false,
    "quoted string", or a bracketed list of numbers `[1, 2.5, 3]`
  - `#` starts a comment; blank lines are ignored
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import FracgreenError
from .params import ProblemParams, sharp_hardy_constant, theta_of_gamma
from .quadrature import QuadratureSpec


class ConfigError(FracgreenError, ValueError):
    """Malformed configuration file or inconsistent settings."""


def _parse_scalar(tok: str):
    tok = tok.strip()
    if tok.lower() in ("true", "false"):
        return tok.lower() == "true"
    if len(tok) >= 2 and tok[0] == '"' and tok[-1] == '"':
        return tok[1:-1]
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        raise ConfigError(f"cannot parse value {tok!r}")


def parse_config_text(text: str) -> dict:
    blocks: dict[str, dict] = {"": {}}
    current = blocks[""]
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name:
                raise ConfigError(f"line {lineno}: empty block name")
            current = blocks.setdefault(name, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if val.startswith("[") and val.endswith("]"):
            inner = val[1:-1].strip()
            items = [t for t in inner.split(",") if t.strip()]
            current[key] = [_parse_scalar(t) for t in items]
        else:
            current[key] = _parse_scalar(val)
    return blocks


def load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


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
    unknown = sorted(set(block) - set(spec))
    if unknown:
        raise ConfigError(f"[quadrature]: unknown key(s) {unknown}; "
                          f"choose from {list(spec)}")
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
        cfg = cls(blocks=blocks,
                  quad=_quadrature_spec(blocks.get("quadrature", {})))
        params = {**blocks.get("", {}), **blocks.get("params", {})}
        for block, key, attr, typ in SETTINGS:
            given = params if block == "params" else blocks.get(block, {})
            if key in given:
                setattr(cfg, attr, _typed(block, key, given[key], typ))
            if getattr(flags, attr) is not None:
                setattr(cfg, attr, getattr(flags, attr))
        cfg.validate()
        return cfg

    def validate(self):
        if self.dim < 1:
            raise ConfigError(f"N={self.dim} must be a positive integer")
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
