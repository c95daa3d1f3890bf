"""Call-center performance with abandonment, redials, and reconnects.

Fluid ODE solver, discrete-event simulator, truncated-CTMC oracle, and
an Erlang-A pipeline driven by the fluid total arrival rate.
"""

from .model import (
    EMPTY_STATE,
    FluidState,
    ModelParams,
    ParameterError,
    Schedule,
    Trajectory,
    load_config,
    rho_hat,
    single_interval,
    validate,
)
from .fluid import (
    Regime,
    StationaryState,
    RateDecomposition,
    drift,
    integrate_schedule,
    interval_arrival_rates,
    stationary_state,
    total_arrival_rate,
)
from .ctmc import TruncatedChain, StationarySolution, build_chain, solve_stationary
from .simulation import (
    ReplicationSummary,
    SimOutput,
    SimulationError,
    measure_sl_ap,
    run_replications,
    simulate_path,
    verify_conservation,
)
from .erlang import (
    ErlangAInput,
    IntervalPerformance,
    PerformanceSummary,
    abandonment_prob,
    psa_performance,
    service_level,
    steady_state,
)
from .validation import (
    ErrorMetrics,
    ErrorRow,
    SlApRow,
    error_metrics,
    refine_schedule,
    run_multi_interval_table,
    run_single_interval_table,
    run_sl_ap_table,
    staffing_for,
    two_peak_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "EMPTY_STATE",
    "FluidState",
    "ModelParams",
    "ParameterError",
    "Schedule",
    "Trajectory",
    "load_config",
    "rho_hat",
    "single_interval",
    "validate",
    "Regime",
    "StationaryState",
    "RateDecomposition",
    "drift",
    "integrate_schedule",
    "interval_arrival_rates",
    "stationary_state",
    "total_arrival_rate",
    "TruncatedChain",
    "StationarySolution",
    "build_chain",
    "solve_stationary",
    "ReplicationSummary",
    "SimOutput",
    "SimulationError",
    "measure_sl_ap",
    "run_replications",
    "simulate_path",
    "verify_conservation",
    "ErlangAInput",
    "IntervalPerformance",
    "PerformanceSummary",
    "abandonment_prob",
    "psa_performance",
    "service_level",
    "steady_state",
    "ErrorMetrics",
    "ErrorRow",
    "SlApRow",
    "error_metrics",
    "refine_schedule",
    "run_multi_interval_table",
    "run_single_interval_table",
    "run_sl_ap_table",
    "staffing_for",
    "two_peak_schedule",
    "__version__",
]
