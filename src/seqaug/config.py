"""Flat key=value run configuration with flag overrides.

A config file holds one ``key = value`` pair per line; ``#`` starts a
comment. CLI flags override file values. The effective config is echoed
verbatim into every output manifest so a run can be reproduced from its
artifacts alone.
"""

import math
from dataclasses import asdict, dataclass, fields

from .schedule import FAMILIES, make_schedule
from .sunet import SUNetConfig

STRATEGIES = ("diffusion_cg", "diffusion_cf", "random", "random_seq", "reverse_gen", "none")


class ConfigError(ValueError):
    """Carries every offending field at once."""

    def __init__(self, problems):
        super().__init__("invalid configuration:\n  " + "\n  ".join(problems))
        self.problems = problems


@dataclass
class RunConfig:
    # dataset
    min_len: int = 3
    # synthetic benchmark
    synth_users: int = 500
    synth_items: int = 50
    # augmentation
    M: int = 6
    strategy: str = "diffusion_cf"
    gamma: float = 1.0
    schedule_family: str = "linear"
    T: int = 1000
    beta_start: float = 1e-4
    beta_end: float = 0.02
    exclude_test: bool = True
    short_only: bool = False
    # diffusion model + training
    embed_dim: int = 64
    base_width: int = 32
    levels: int = 2
    res_blocks: int = 2
    diff_epochs: int = 200
    diff_batch_size: int = 128
    diff_lr: float = 1e-3
    p_uncond: float = 0.1
    sample_batch: int = 128
    # recommender + training
    srs_embed_dim: int = 64
    srs_blocks: int = 2
    srs_max_len: int = 200
    srs_dropout: float = 0.6
    srs_epochs: int = 50
    srs_batch_size: int = 512
    srs_lr: float = 1e-3
    # evaluation
    eval_negatives: int = 100
    eval_k: int = 10
    # run control
    seed: int = 1
    precision: str = "float32"

    def validate(self):
        problems = []
        if self.min_len < 3:
            problems.append(f"min_len must be >= 3 (split needs 3 items), got {self.min_len}")
        if self.M < 1:
            problems.append(f"M must be >= 1, got {self.M}")
        if self.strategy not in STRATEGIES:
            problems.append(f"unknown strategy {self.strategy!r}; expected one of {STRATEGIES}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0):
            problems.append(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.schedule_family not in FAMILIES:
            problems.append(f"unknown schedule_family {self.schedule_family!r}; expected one of {FAMILIES}")
        if self.T < 1:
            problems.append(f"T must be >= 1, got {self.T}")
        if not (0.0 < self.beta_start <= self.beta_end < 1.0):
            problems.append(f"need 0 < beta_start <= beta_end < 1, got ({self.beta_start}, {self.beta_end})")
        if self.strategy == "diffusion_cg" and self.srs_embed_dim != self.embed_dim:
            problems.append("diffusion_cg feeds generated states into the classifier: "
                            f"srs_embed_dim ({self.srs_embed_dim}) must equal embed_dim ({self.embed_dim})")
        if self.strategy == "diffusion_cg" and self.M > self.srs_max_len:
            problems.append(f"diffusion_cg scores the M generated states: M ({self.M}) must be "
                            f"<= srs_max_len ({self.srs_max_len})")
        if not (0.0 <= self.p_uncond < 1.0):
            problems.append(f"p_uncond must be in [0, 1), got {self.p_uncond}")
        if not (0.0 <= self.srs_dropout < 1.0):
            problems.append(f"srs_dropout must be in [0, 1), got {self.srs_dropout}")
        for name in ("diff_lr", "srs_lr"):
            if not (math.isfinite(getattr(self, name)) and getattr(self, name) > 0):
                problems.append(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.eval_negatives < 1:
            problems.append(f"eval_negatives must be >= 1, got {self.eval_negatives}")
        if self.precision not in ("float32", "float64"):
            problems.append(f"precision must be float32 or float64, got {self.precision!r}")
        for name in ("synth_users", "synth_items", "diff_epochs", "diff_batch_size",
                     "srs_epochs", "srs_batch_size", "embed_dim", "srs_embed_dim",
                     "base_width", "levels", "res_blocks", "srs_blocks", "srs_max_len",
                     "sample_batch", "eval_k"):
            if getattr(self, name) < 1:
                problems.append(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.embed_dim >= 1 and self.levels >= 1:  # below 1, the loop above reports them
            try:
                self.sunet_config()
            except ValueError as exc:
                problems.append(str(exc))
        if problems:
            raise ConfigError(problems)
        return self

    def to_dict(self):
        return asdict(self)

    @property
    def channel_mult(self):
        """SU-Net width multiplier per level: the width doubles at each level."""
        return tuple(2**i for i in range(self.levels))

    def sunet_config(self):
        """The SU-Net shape this run trains; its own checks are the shape rule."""
        return SUNetConfig(channels=self.M, embed_dim=self.embed_dim, levels=self.levels,
                           channel_mult=self.channel_mult, base_width=self.base_width,
                           res_blocks=self.res_blocks)

    def schedule(self):
        return make_schedule(self.schedule_family, self.T, self.beta_start, self.beta_end)


def _coerce(name, raw, target_type):
    raw = raw.strip()
    if target_type is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError([f"{name}: expected a boolean, got {raw!r}"])
    try:
        return target_type(raw)
    except ValueError:
        raise ConfigError([f"{name}: expected {target_type.__name__}, got {raw!r}"]) from None


def field_types():
    """Each RunConfig field's name and the type its values are coerced to."""
    return {f.name: f.type if isinstance(f.type, type) else type(f.default) for f in fields(RunConfig)}


def load_config(path=None, overrides=None):
    """Config from an optional key=value file plus override pairs; overrides win."""
    values = {}
    types = field_types()
    if path is not None:
        with open(path, "r", encoding="utf-8") as f:
            for line_no, line in enumerate(f, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError([f"{path}:{line_no}: expected key = value, got {line!r}"])
                key, raw = (s.strip() for s in line.split("=", 1))
                if key not in types:
                    raise ConfigError([f"{path}:{line_no}: unknown key {key!r}"])
                values[key] = _coerce(key, raw, types[key])
    for key, raw in (overrides or {}).items():
        if key not in types:
            raise ConfigError([f"override: unknown key {key!r}"])
        values[key] = _coerce(key, str(raw), types[key])
    return RunConfig(**values).validate()

