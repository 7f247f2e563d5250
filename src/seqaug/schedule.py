"""Variance schedules and the derived diffusion constants.

Four families are supported. ``linear`` spaces beta evenly between the
given bounds; ``cosine`` and ``sqrt`` are defined through a target
signal-retention curve alpha_bar(t) and converted back to betas (clipped
to 0.999); ``sigmoid`` warps beta between the bounds along a logistic
curve over [-6, 6]. All derived arrays are float64 regardless of the
engine precision mode. They enter float32 math in one of two ways, so they
never widen it: as Python floats (``float(sched.beta[t - 1])``), which take
the operand's dtype, or as arrays cast to x's dtype first
(``diffusion.forward_sample``).
"""

from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("linear", "sqrt", "cosine", "sigmoid")

_COSINE_S = 0.008
_SQRT_S = 1e-4
_BETA_MAX = 0.999


@dataclass(frozen=True)
class NoiseSchedule:
    family: str
    T: int
    beta: np.ndarray
    alpha: np.ndarray = field(repr=False)
    alpha_bar: np.ndarray = field(repr=False)
    sigma2: np.ndarray = field(repr=False)


def _betas_from_alpha_bar(alpha_bar):
    prev = np.concatenate([[1.0], alpha_bar[:-1]])
    return 1.0 - alpha_bar / prev


def make_schedule(family, T, beta_start=1e-4, beta_end=0.02):
    """Build a NoiseSchedule; t is 1-based everywhere (arrays index t-1)."""
    if family not in FAMILIES:
        raise ValueError(f"unknown schedule family {family!r}; expected one of {FAMILIES}")
    if not isinstance(T, (int, np.integer)) or T < 1:
        raise ValueError(f"T must be a positive integer, got {T!r}")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise ValueError(f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})")

    if family == "linear":
        beta = np.linspace(beta_start, beta_end, T, dtype=np.float64)
    elif family == "sigmoid":
        curve = 1.0 / (1.0 + np.exp(-np.linspace(-6.0, 6.0, T, dtype=np.float64)))
        beta = beta_start + (beta_end - beta_start) * curve
    elif family == "cosine":
        t = np.arange(T + 1, dtype=np.float64)
        f = np.cos((t / T + _COSINE_S) / (1.0 + _COSINE_S) * np.pi / 2.0) ** 2
        beta = _betas_from_alpha_bar(f[1:] / f[0])
    else:  # sqrt
        t = np.arange(1, T + 1, dtype=np.float64)
        ab = 1.0 - np.sqrt(t / T + _SQRT_S)
        beta = _betas_from_alpha_bar(ab)

    beta = np.minimum(beta, _BETA_MAX)
    if not np.all((beta > 0.0) & (beta < 1.0)):
        raise ValueError(f"{family} schedule produced betas outside (0, 1) for T={T}")

    alpha = 1.0 - beta
    alpha_bar = np.cumprod(alpha)
    prev = np.concatenate([[1.0], alpha_bar[:-1]])
    sigma2 = (1.0 - prev) / (1.0 - alpha_bar) * beta
    return NoiseSchedule(family=family, T=int(T), beta=beta, alpha=alpha,
                         alpha_bar=alpha_bar, sigma2=sigma2)


def sigma2_at(sched, t):
    """Reverse-posterior variance at step t (1-based); sigma2_1 = 0 by the
    alpha_bar_0 = 1 convention."""
    if not 1 <= t <= sched.T:
        raise ValueError(f"t={t} out of range [1, {sched.T}]")
    return float(sched.sigma2[t - 1])
