"""Line-oriented ``key = value`` configuration files.

Inputs are in SI-flavored field units (meters, seconds) and are converted
to the internal km/hour convention on load.  Unknown keys raise, missing
keys fall back to the documented defaults.
"""

from __future__ import annotations

import math
from pathlib import Path

from lamopt.errors import DomainError
from lamopt.mobility import MobilityParams

# Default scenario: 20 m road sections, 8 s crossing time with 1 s^2
# variance, 2 calls/hr, update cost 20, paging cost 1 per unit-area cell.
DEFAULTS: dict[str, float] = {
    "k": 0.5,
    "mean_len_m": 20.0,
    "E_eta_s": 8.0,
    "Var_eta_s2": 1.0,
    "lambda_per_hr": 2.0,
    "U": 20.0,
    "V": 1.0,
    "m_paging": 1,
    "R_km": 1.0,
}

# Extra keys accepted in protocol scenario files.
SCENARIO_KEYS = {"strategy", "duration_hr", "seed", "provider"}

_STRING_KEYS = {"strategy", "provider"}

_S_PER_HR = 3600.0


def parse_config(source: str | Path) -> dict:
    """Parse a ``key = value`` file (or literal text containing newlines).

    Blank lines and ``#`` comments are ignored.  Returns a dict with
    defaults filled in for absent keys.

    Raises:
        DomainError: unknown key, bad syntax, an unparsable or non-finite
            value, ``R_km <= 0`` or a negative ``seed``.
    """
    text = str(source)
    if "\n" not in text and "=" not in text:
        path = Path(source)
        if not path.exists():
            raise DomainError(f"config file not found: {path}")
        text = path.read_text()

    cfg: dict = dict(DEFAULTS)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in DEFAULTS and key not in SCENARIO_KEYS:
            raise DomainError(f"config line {lineno}: unknown key {key!r}")
        if key in _STRING_KEYS:
            cfg[key] = value
            continue
        try:
            cfg[key] = float(value)
        except ValueError as exc:
            raise DomainError(f"config line {lineno}: bad value for {key!r}: {value!r}") from exc
        if not math.isfinite(cfg[key]):
            raise DomainError(f"config line {lineno}: {key!r} must be finite, got {value!r}")
    if not cfg["R_km"] > 0.0:
        raise DomainError(f"R_km must be > 0, got {cfg['R_km']}")
    cfg["m_paging"] = int(round(cfg["m_paging"]))
    if "seed" in cfg:
        cfg["seed"] = int(round(cfg["seed"]))
        if cfg["seed"] < 0:
            raise DomainError(f"seed must be >= 0, got {cfg['seed']}")
    return cfg


def mobility_from_config(cfg: dict) -> MobilityParams:
    """Build MobilityParams from a parsed config (SI -> km/hr conversion).

    The displacement length is exponential, so its variance is the squared
    mean; dwell times are gamma with the configured mean and variance.
    """
    mean_len_km = cfg["mean_len_m"] / 1000.0
    mean_time_hr = cfg["E_eta_s"] / _S_PER_HR
    var_time_hr2 = cfg["Var_eta_s2"] / _S_PER_HR**2
    return MobilityParams(
        k=cfg["k"],
        mean_len=mean_len_km,
        var_len=mean_len_km**2,
        mean_time=mean_time_hr,
        var_time=var_time_hr2,
    )


def default_mobility(k: float, var_eta_s2: float = 1.0) -> MobilityParams:
    """Default-scenario mobility at the given concentration factor."""
    cfg = dict(DEFAULTS)
    cfg["k"] = k
    cfg["Var_eta_s2"] = var_eta_s2
    return mobility_from_config(cfg)
