"""liqlab: growth-optimal market impact, constant-product pool cycles, and
catastrophe-bond Kelly sizing, with seeded simulation experiments."""

__version__ = "0.1.0"

from .catbond import (BondSpec, IsoFractionShift, iso_fraction_shift,
                      single_bond_fraction, single_bond_fraction_numeric,
                      single_bond_growth, two_bond_fraction_numeric,
                      two_bond_fraction_series, two_bond_growth)
from .cpmm import (PoolState, add_liquidity, exact_relative_impact,
                   linearized_relative_impact, remove_liquidity, spot_price,
                   swap_x_for_y, swap_y_for_x)
from .cycle import CycleConfig, CycleLedger, CycleReport, run_cycle
from .errors import (BracketError, ConfigError, ConvergenceError, DomainError,
                     RatioMismatchError)
from .impact import (GrowthModel, growth_per_time_fou, impact_exponent,
                     optimal_impact_fou, optimal_impact_leverage_form,
                     optimal_impact_sqrt, optimal_size_numeric,
                     simulate_self_financing, wealth_closed_form)
from .paths import (FouParams, SamplePath, generate_fbm, generate_fbm_batch,
                    iter_fbm, refine_linear, simulate_fou)

__all__ = [name for name in dir() if not name.startswith("_")]
