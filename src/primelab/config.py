"""Run configuration: defaults, key=value config files, environment hook.

Every report echoes the effective configuration so identical inputs give
identical output. The config file is plain `key=value` lines; tolerance
overrides use dotted keys like `tolerance.gpy_agreement=1e-8`. The file
path comes from the CLI flag or the PRIMELAB_CONFIG environment variable.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

from .errors import ValidationError
from .sieve import DEFAULT_SEGMENT_SIZE

ENV_CONFIG_PATH = "PRIMELAB_CONFIG"

DEFAULT_TOLERANCES = {
    "gpy_agreement": 1e-9,
    "eigen_residual": 1e-9,
}
# config keys other than tolerance.*, with the parser of their values
_KEYS = {"seed": int, "segment_size": int, "basis_cap": int, "output_format": str}


@dataclass(frozen=True)
class RunConfig:
    """The one declaration of the run settings: reports echo them as
    dataclasses.asdict, and each global CLI flag but --config sets the
    field of its argparse dest."""

    seed: int = 0
    segment_size: int = DEFAULT_SEGMENT_SIZE
    basis_cap: int = 64
    output_format: str = "json"
    tolerances: dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_TOLERANCES)
    )

    def __post_init__(self):
        if self.output_format not in ("json", "csv"):
            raise ValidationError(
                f"output_format must be json or csv, got {self.output_format}"
            )
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        for name, tol in self.tolerances.items():
            if name not in DEFAULT_TOLERANCES:
                raise ValidationError(f"unknown tolerance name {name!r}")
            if not 0 <= tol < math.inf:  # NaN fails too
                raise ValidationError(f"tolerance {name} must be finite and >= 0, got {tol}")


def parse_config_text(text: str) -> RunConfig:
    """Apply key=value lines to the defaults; '#' starts a comment.

    Raises:
        ValidationError: a line is not key=value, names an unknown key, or
            holds a value RunConfig rejects; the message names the line.
    """
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno} is not key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key.startswith("tolerance.") and key not in _KEYS:
            raise ValidationError(f"unknown config key {key!r} on line {lineno}")
        try:
            if key.startswith("tolerance."):
                tolerances = {**cfg.tolerances, key.removeprefix("tolerance."): float(value)}
                cfg = replace(cfg, tolerances=tolerances)
            else:
                cfg = replace(cfg, **{key: _KEYS[key](value)})
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"config line {lineno}, {key}={value}: {exc}") from None
    return cfg


def load_config(path: str | None = None) -> RunConfig:
    """Config from an explicit path, else $PRIMELAB_CONFIG, else defaults."""
    effective = path or os.environ.get(ENV_CONFIG_PATH)
    if not effective:
        return RunConfig()
    try:
        with open(effective, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    except OSError as exc:
        raise ValidationError(f"cannot read config file {effective}: {exc}") from exc
