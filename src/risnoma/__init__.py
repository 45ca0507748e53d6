"""Link-level simulator and analytic outage toolkit for a two-user uplink
NOMA system enabled over-the-air by a hybrid active/passive RIS."""

__version__ = "0.1.0"

from .analytic import (AccuracyError, QfComponent, QuadForm, TermStats,
                       analytic_outage, analytic_outages, build_quadform, log_cf,
                       gil_pelaez_cdf, term_statistics)
from .channel import (ChannelRealization, LinkVariances, RandomStream,
                      channel_variance, draw_realization, link_variances,
                      path_loss_db)
from .config import (ConfigError, ConfigWarning, SystemConfig,
                     apply_overrides, dbm_to_watt, load_config,
                     parse_config_text, validate)
from .montecarlo import (GammaFit, OutageResult, estimate_outage_pair,
                         estimate_outage_pairs, fit_gamma, rate_to_threshold,
                         sample_link_terms, sample_sinr)
from .optimizer import (OptimizationOutcome, at_budget, optimize, optimize_batch, outage_pair,
                        outage_pairs)
from .ris import (HybridRisState, align_phases, alpha_from_power, resolve_alpha,
                  ris_state)
from .sinr import LinkTerms, SinrPair, compute_link_terms, sinr, synthesize_received
from .sweep import (PresetVariant, ResultRow, SweepSpec, determinism_signature,
                    parse_values, preset, run_point, run_preset, run_sweep)
