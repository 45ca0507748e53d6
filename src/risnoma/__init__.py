"""Link-level simulator and analytic outage toolkit for a two-user uplink
NOMA system enabled over-the-air by a hybrid active/passive RIS."""

__version__ = "0.1.0"

from .analytic import (AccuracyError, QfComponent, QuadForm, TermStats,
                       analytic_outage, analytic_outages, build_quadform, log_cf,
                       gil_pelaez_cdf, term_statistics)
from .channel import (LinkVariances, RandomStream, channel_variance, link_variances,
                      path_loss_db)
from .config import (ConfigError, ConfigWarning, SystemConfig,
                     apply_overrides, dbm_to_watt, load_config,
                     parse_config_text, validate)
from .montecarlo import (GammaFit, OutageResult, estimate_outage_pair,
                         estimate_outage_pairs, fit_gamma, rate_to_threshold,
                         sample_link_terms, sample_sinr)
from .optimizer import OptimizationOutcome, at_budget, optimize, optimize_batch, outage_pairs
from .ris import alpha_from_power, resolve_alpha
from .sinr import LinkTerms, SinrPair, sinr
from .sweep import (PresetVariant, ResultRow, SweepSpec, determinism_signature,
                    parse_values, preset, run_point, run_preset, run_sweep)
