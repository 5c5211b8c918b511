"""liqlab: growth-optimal market impact, constant-product pool cycles, and
catastrophe-bond Kelly sizing, with seeded simulation experiments."""

__version__ = "0.1.0"

from .catbond import (AllocationResult, BondSpec, IsoFractionShift, Method,
                      implied_return, iso_fraction_shift, single_bond_fraction,
                      single_bond_fraction_numeric, single_bond_growth,
                      two_bond_fraction_numeric, two_bond_fraction_series,
                      two_bond_growth)
from .cpmm import (PoolState, add_liquidity, exact_relative_impact,
                   linearized_relative_impact, remove_liquidity, spot_price,
                   swap_x_for_y, swap_y_for_x)
from .cycle import (CycleConfig, CycleLedger, CycleReport, Stage, Stage3Formula,
                    closure_parameters, new_cycle, run_cycle, stage1_switch,
                    stage2_add, stage3_switch, stage4_remove)
from .errors import (BracketError, ConfigError, DomainError, RatioMismatchError,
                     StageOrderError)
from .impact import (GrowthModel, ImpactPoint, growth_at_fraction, growth_rate,
                     growth_rate_constrained, growth_per_time_fou,
                     impact_exponent, kelly_fraction_ou, optimal_impact_fou,
                     optimal_impact_leverage_form, optimal_impact_sqrt,
                     optimal_size_numeric, simulate_self_financing,
                     wealth_closed_form)
from .paths import (FouParams, SamplePath, fbm_covariance, generate_fbm,
                    generate_fbm_batch, iter_fbm, refine_linear, simulate_fou)

__all__ = [name for name in dir() if not name.startswith("_")]
