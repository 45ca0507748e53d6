"""System configuration, physical-unit conversions, and validation.

Every other module consumes validated :class:`SystemConfig` instances.  All
internal computation is done in watts and linear ratios; dBm/dB appear only
at the I/O boundary (config files, CLI flags, reports).
"""

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, fields, replace

ALPHA_MIN = 1.0     # 0 dB amplifier floor
ALPHA_MAX = 1000.0  # 30 dB amplifier cap (power gain)
ALPHA_MODES = ("fixed", "from_power", "optimized")

FC_RANGE_GHZ = (2.0, 6.0)          # validity range of the UMi NLOS model
DISTANCE_RANGE_M = (10.0, 2000.0)  # same


class ConfigError(ValueError):
    """Aggregated configuration errors; one entry per violated invariant."""

    def __init__(self, problems):
        self.problems = list(problems)
        msg = "invalid configuration:\n" + "\n".join(f"  - {p}" for p in self.problems)
        super().__init__(msg)


class ConfigWarning(UserWarning):
    """Non-fatal configuration adjustments (e.g. amplifier gain clamping)."""


def dbm_to_watt(p_dbm: float) -> float:
    """Convert a power in dBm to watts."""
    if not math.isfinite(p_dbm):
        raise ValueError(f"power in dBm must be finite, got {p_dbm!r}")
    return 10.0 ** (p_dbm / 10.0) * 1e-3


def rate_to_threshold(rate_bps_hz: float) -> float:
    """SINR threshold v = 2^r - 1 for a target rate r."""
    return 2.0 ** rate_bps_hz - 1.0


def overflows_watt(p_dbm: float) -> bool:
    """Whether a finite power in dBm is too large for watts in a double
    (above about 3082.5 dBm); an underflow to 0 W is not an overflow."""
    try:
        dbm_to_watt(p_dbm)
    except OverflowError:
        return True
    return False


def clamp_alpha(alpha: float) -> float:
    """A power gain held to the amplifier's 0-30 dB range."""
    return min(max(alpha, ALPHA_MIN), ALPHA_MAX)


@dataclass(frozen=True)
class SystemConfig:
    """All scalar parameters of one run; immutable after validation.

    Defaults reproduce the baseline two-user setup: equal user powers,
    equal user-RIS distances, and an equally partitioned 512+512 RIS.
    """

    # transmit powers
    pt_user_dbm: float = 15.0    # per-user transmit power P_t [dBm]
    pt_ris_dbm: float = -47.0    # power budget of the active RIS part [dBm]

    # amplification of the active partition
    alpha_mode: str = "fixed"    # fixed | from_power | optimized
    alpha_linear: float = 8.5    # power gain per active element, used when fixed

    # RIS partition sizes and role assignment
    m_active: int = 512          # active elements M
    n_passive: int = 512         # passive elements N
    active_user: int = 1         # user served (aligned + amplified) by the active part

    # QoS and SIC
    rate_threshold_bps_hz: float = 2.0  # target rate per user [bps/Hz]
    epsilon_sic: float = 0.0            # residual fraction of imperfectly cancelled power
    joint_outage_u2: bool = False       # non-default: SIC user also fails when the first decode fails

    # noise
    w0_dbm: float = -130.0       # AWGN power W_0 [dBm]
    namp_dbm: float = -130.0     # per-element amplifier noise power sigma_z^2 [dBm]

    # propagation geometry
    fc_ghz: float = 5.0
    d_u1_ris_m: float = 35.51
    d_u2_ris_m: float = 35.51
    d_ris_bs_m: float = 20.22

    # per-link variance overrides (test hook); None means "use the path loss model"
    sigma2_u1: float | None = None   # user1 -> RIS element variance (linear)
    sigma2_u2: float | None = None   # user2 -> RIS element variance (linear)
    sigma2_bs: float | None = None   # RIS element -> BS variance (linear)

    # Monte-Carlo settings
    mc_trials: int = 100_000
    seed: int = 20260810

    # Gil-Pelaez quadrature settings
    quad_tol: float = 1e-6       # target absolute error of the CDF integral

    def _memo(self, name: str, compute):
        """compute(self), kept on the instance outside the fields; replace()
        builds a fresh instance, so a kept value never goes stale."""
        if name not in self.__dict__:
            object.__setattr__(self, name, compute(self))
        return self.__dict__[name]

    def digest(self) -> str:
        """Short stable hash of the full configuration, memoized."""
        return self._memo("_digest", lambda c: hashlib.sha256(json.dumps(
            {f.name: getattr(c, f.name) for f in fields(c)}, sort_keys=True
        ).encode()).hexdigest()[:12])


def _type_problem(name: str, kind, value) -> str:
    """Why a field's value has the wrong type, or "" when it has the right one."""
    if kind is int and type(value) is not int:
        return f"{name} must be an integer, got {value!r}"
    if kind is bool and type(value) is not bool:
        return f"{name} must be true or false, got {value!r}"
    if kind in (float, float | None) and not (value is None and kind is not float):
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value)):
            return f"{name} must be a finite number, got {value!r}"
    return ""


def validate(config: SystemConfig) -> SystemConfig:
    """Validate a configuration, clamping the amplifier gain if needed.

    Returns a (possibly adjusted) config.  Raises :class:`ConfigError` with
    every violated invariant.  Clamping emits a :class:`ConfigWarning`.
    Idempotent: validating a validated config is a no-op.
    """
    problems = [problem for name, kind in FIELD_TYPES.items()
                if (problem := _type_problem(name, kind, getattr(config, name)))]
    if problems:  # the range checks below assume finite numbers of the right type
        raise ConfigError(problems)

    if config.m_active < 1:
        problems.append(f"m_active must be >= 1, got {config.m_active}")
    if config.n_passive < 1:
        problems.append(f"n_passive must be >= 1, got {config.n_passive}")
    if config.mc_trials < 1:
        problems.append(f"mc_trials must be >= 1, got {config.mc_trials}")
    if config.active_user not in (1, 2):
        problems.append(f"active_user must be 1 or 2, got {config.active_user}")
    if config.alpha_mode not in ALPHA_MODES:
        problems.append(f"alpha_mode must be one of {ALPHA_MODES}, got {config.alpha_mode!r}")
    if not (0.0 <= config.epsilon_sic <= 1.0):
        problems.append(f"epsilon_sic must be in [0, 1], got {config.epsilon_sic}")
    if not (0.0 <= config.rate_threshold_bps_hz < 1024.0):   # 2^r overflows from 1024 on
        problems.append(f"rate_threshold_bps_hz must be in [0, 1024), got "
                        f"{config.rate_threshold_bps_hz}")
    if not config.alpha_linear > 0.0:
        problems.append(f"alpha_linear must be positive, got {config.alpha_linear}")

    lo, hi = FC_RANGE_GHZ
    if not (lo <= config.fc_ghz <= hi):
        problems.append(f"fc_ghz must be in [{lo}, {hi}], got {config.fc_ghz}")
    dlo, dhi = DISTANCE_RANGE_M
    for name in ("d_u1_ris_m", "d_u2_ris_m", "d_ris_bs_m"):
        d = getattr(config, name)
        if not (dlo <= d <= dhi):
            problems.append(f"{name} must be in [{dlo}, {dhi}] m, got {d}")

    for name in ("sigma2_u1", "sigma2_u2", "sigma2_bs"):
        v = getattr(config, name)
        if v is not None and not v > 0.0:
            problems.append(f"{name} must be None or a positive variance, got {v}")

    for name in ("pt_user_dbm", "pt_ris_dbm", "w0_dbm", "namp_dbm"):
        p = getattr(config, name)
        if overflows_watt(p):
            problems.append(f"{name} must be at most about 3082.5 dBm to convert to watts, "
                            f"got {p}")

    if not (0 <= config.seed < 2**64):
        problems.append(f"seed must be a 64-bit unsigned integer, got {config.seed}")
    if not config.quad_tol > 0.0:
        problems.append(f"quad_tol must be positive, got {config.quad_tol}")

    if problems:
        raise ConfigError(problems)

    clamped = clamp_alpha(config.alpha_linear)
    if clamped != config.alpha_linear:
        warnings.warn(
            f"alpha_linear={config.alpha_linear} outside [{ALPHA_MIN}, {ALPHA_MAX}], "
            f"clamped to {clamped}",
            ConfigWarning,
            stacklevel=2,
        )
        return replace(config, alpha_linear=clamped)
    return config


# ---------------------------------------------------------------------------
# config file / override parsing

FIELD_TYPES = {f.name: f.type for f in fields(SystemConfig)}


def read_int(value) -> int:
    """An integer key's value, from text or a number.

    Integer text is read exactly with int(), so a 64-bit seed keeps every
    digit; an integral float such as 1e3 is accepted; a fractional or
    non-finite value is refused.
    """
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            value = float(value)
    if isinstance(value, int) or float(value).is_integer():
        return int(value)
    raise ValueError(f"expected an integer, got {value!r}")


def read_bool(text: str) -> bool:
    """A bool key's value from text: true, 1 or yes, or false, 0 or no."""
    if text.lower() in ("true", "1", "yes"):
        return True
    if text.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_value(key: str, raw: str):
    kind = FIELD_TYPES[key]
    raw = raw.strip()
    if kind == float | None and raw.lower() in ("none", ""):
        return None
    if kind is str:
        return raw
    if kind is bool:
        return read_bool(raw)
    if kind is int:
        return read_int(raw)
    return float(raw)


def _apply_pairs(config: SystemConfig, items) -> SystemConfig:
    """Apply (label, 'key = value') items; every bad item is reported under its label."""
    values = {}
    problems = []
    for label, text in items:
        if "=" not in text:
            problems.append(f"{label}: expected 'key = value'")
            continue
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in FIELD_TYPES:
            problems.append(f"{label}: unknown key {key!r}")
            continue
        try:
            values[key] = _parse_value(key, raw)
        except ValueError as exc:
            problems.append(f"{label}: {key}: {exc}")
    if problems:
        raise ConfigError(problems)
    return replace(config, **values)


def parse_config_text(text: str, base: SystemConfig | None = None) -> SystemConfig:
    """Parse `key = value` lines into a config.  Unknown keys are errors."""
    items = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            items.append((f"line {lineno}", stripped))
    return _apply_pairs(base if base is not None else SystemConfig(), items)


def load_config(path, base: SystemConfig | None = None) -> SystemConfig:
    """Load a flat key/value config file (UTF-8, `#` comments)."""
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read(), base=base)


def apply_overrides(config: SystemConfig, pairs) -> SystemConfig:
    """Apply `key=value` override strings (CLI `--set`) on top of a config."""
    return _apply_pairs(config, [(f"override {pair!r}", pair) for pair in pairs])
