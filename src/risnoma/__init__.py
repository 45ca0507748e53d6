"""Link-level simulator and analytic outage toolkit for a two-user uplink
NOMA system enabled over-the-air by a hybrid active/passive RIS."""

__version__ = "0.1.0"

from .analytic import (AccuracyError, QuadForm, analytic_outage, analytic_outages, log_cf,
                       gil_pelaez_cdf)
from .channel import (LinkVariances, RandomStream, alpha_from_power, at_budget,
                      channel_variance, link_variances, path_loss_db, resolve_alpha)
from .config import (ConfigError, ConfigWarning, SystemConfig,
                     apply_overrides, dbm_to_watt, load_config,
                     parse_config_text, rate_to_threshold, validate)
from .montecarlo import (GammaFit, estimate_outage_pair, estimate_outage_pairs, fit_gamma,
                         sample_link_terms, sample_sinr)
from .optimizer import OptimizationOutcome, optimize, optimize_batch, outage_pairs
from .sinr import LinkTerms, OutageResult, SinrPair, sinr
from .sweep import (PresetVariant, ResultRow, SweepSpec, determinism_signature,
                    parse_values, preset, run_point, run_preset, run_sweep)
