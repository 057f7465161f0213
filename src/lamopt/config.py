"""Line-oriented ``key = value`` configuration files.

Inputs are in SI-flavored field units (meters, seconds) and are converted
to the internal km/hour convention on load.  Unknown keys raise, missing
keys fall back to the documented defaults.
"""

from __future__ import annotations

import math
from pathlib import Path

from lamopt.costs import CostParams
from lamopt.errors import DomainError
from lamopt.mobility import MobilityParams
from lamopt.protocol import check_scenario_keys

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

_INT_KEYS = ("m_paging", "seed")

_S_PER_HR = 3600.0

# Working range of R_km, 1 mm to a million km: fig5, fig6 and the
# Monte-Carlo route read it.  Far outside it the one-term forms break: their
# call-rate moment grows as R^3 and overflows past about 1e102 km (NaN or
# zero intervals), and R^2 underflows to 0 below about 1e-154 km.
MIN_R_KM = 1e-6
MAX_R_KM = 1e6


def parse_config(path: str | Path) -> dict:
    """Parse a ``key = value`` config file.

    Blank lines and ``#`` comments are ignored.  Returns a dict with
    defaults filled in for absent keys; ``m_paging`` and ``seed`` are ints.

    Raises:
        DomainError: unreadable file, unknown key, bad syntax, an unparsable
            or non-finite value, ``R_km`` outside ``[MIN_R_KM, MAX_R_KM]``,
            a fractional ``m_paging`` or ``seed``, cost keys that
            ``CostParams`` refuses, or a ``strategy``, ``provider``,
            ``duration_hr`` or ``seed`` that ``Scenario`` refuses (all
            checked here, so every command refuses them alike).
    """
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise DomainError(f"cannot read config file {path}: {exc.strerror}") from exc

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
    if not MIN_R_KM <= cfg["R_km"] <= MAX_R_KM:
        raise DomainError(f"R_km must be between {MIN_R_KM:g} and {MAX_R_KM:g} km, "
                          f"got {cfg['R_km']}")
    for key in _INT_KEYS:
        if key in cfg:
            if cfg[key] != int(cfg[key]):
                raise DomainError(f"{key} must be a whole number, got {cfg[key]}")
            cfg[key] = int(cfg[key])
    costs_from_config(cfg)
    check_scenario_keys(cfg)
    return cfg


def costs_from_config(cfg: dict) -> CostParams:
    """Build CostParams from a parsed config."""
    return CostParams(lam=cfg["lambda_per_hr"], U=cfg["U"], V=cfg["V"],
                      m=cfg["m_paging"])


def mobility_from_config(cfg: dict) -> MobilityParams:
    """Build MobilityParams from a parsed config (SI -> km/hr conversion)."""
    return MobilityParams(
        k=cfg["k"],
        mean_len=cfg["mean_len_m"] / 1000.0,
        mean_time=cfg["E_eta_s"] / _S_PER_HR,
        var_time=cfg["Var_eta_s2"] / _S_PER_HR**2,
    )


def default_mobility(k: float) -> MobilityParams:
    """Default-scenario mobility at the given concentration factor."""
    return mobility_from_config(dict(DEFAULTS, k=k))
