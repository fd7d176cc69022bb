"""Run configuration: defaults, key=value config files, environment hook.

Every report echoes the effective configuration so identical inputs give
identical output. The config file is plain `key=value` lines; tolerance
overrides use dotted keys like `tolerance.gpy_agreement=1e-8`. The file
path comes from the CLI flag or the PRIMELAB_CONFIG environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .errors import ValidationError

ENV_CONFIG_PATH = "PRIMELAB_CONFIG"

DEFAULT_TOLERANCES = {
    "gpy_agreement": 1e-9,
    "eigen_residual": 1e-9,
}


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    segment_size: int = 1 << 20
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

    def tolerance(self, name: str) -> float:
        try:
            return self.tolerances[name]
        except KeyError:
            raise ValidationError(f"unknown tolerance name {name!r}") from None

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "segment_size": self.segment_size,
            "basis_cap": self.basis_cap,
            "output_format": self.output_format,
            "tolerances": dict(sorted(self.tolerances.items())),
        }


def parse_config_text(text: str, base: RunConfig | None = None) -> RunConfig:
    """Apply key=value lines to a base config; '#' starts a comment."""
    cfg = base if base is not None else RunConfig()
    updates: dict = {}
    tolerances = dict(cfg.tolerances)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno} is not key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key.startswith("tolerance."):
            tolerances[key.removeprefix("tolerance.")] = float(value)
        elif key in ("seed", "segment_size", "basis_cap"):
            updates[key] = int(value)
        elif key == "output_format":
            updates[key] = value
        else:
            raise ValidationError(f"unknown config key {key!r} on line {lineno}")
    return replace(cfg, tolerances=tolerances, **updates)


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
