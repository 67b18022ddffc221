"""Analysis layer: the oracle plus every campaign shape built on it.

Submodules
----------
``census`` / ``invariants`` / ``metrics``
    The oracle: token census, safety/domain invariants, run metrics and
    the paper's Theorem 2 waiting-time bound.
``harness``
    One-call experiment runners (convergence T1, waiting time T2) and
    picklable sweep-cell adapters around them.
``sweeps`` / ``stats``
    Parameter-grid sweeps with numpy aggregation; power-law fits,
    bootstrap CIs and per-cell CI tables.
``explore``
    Bounded-exhaustive schedule exploration (BFS/DFS) over the
    delta snapshot codec — proof-grade for small instances —
    with optional sleep-set partial-order reduction.
``liveness``
    Livelock detection: lasso DFS for fair starving cycles, with
    registry-backed fairness constraints and replayable witnesses.
``fuzz``
    Seeded random-walk schedule fuzzing (swarm verification) with
    replayable pid-schedule counterexamples.
``parallel``
    Multi-core campaign runner sharding sweeps and fuzz campaigns across
    worker processes with serial-identical merges.
``distributed``
    Owner-computes exploration, the explorer behind ``workers > 1``:
    digest-partitioned seen-set shards with disk spill and campaign
    checkpoint/resume.
``trajectories``
    Token tracking and circulation lap times.
"""

from .census import CensusObserver, TokenCensus, population_correct, take_census
from .distributed import (
    CheckpointError,
    ShardStore,
    explore_owner,
    read_manifest,
)
from .explore import ExplorationResult, canonical_digest, explore, packed_digest
from .fuzz import FuzzResult, campaign_result, fuzz, replay_schedule, run_walk_range
from .harness import (
    ConvergenceResult,
    WaitingTimeResult,
    WarmupError,
    convergence_spec_runner,
    convergence_sweep_runner,
    run_convergence,
    run_waiting_time,
    stabilize,
    waiting_spec_runner,
    waiting_sweep_runner,
)
from .liveness import LivelockWitness, find_livelock, format_moves
from .invariants import (
    SafetyObserver,
    SafetyReport,
    check_safety,
    domains_ok,
    safety_ok,
    units_in_use,
)
from .metrics import (
    RunMetrics,
    collect_metrics,
    priority_holder_bound,
    waiting_time_bound,
)
from .parallel import (
    CampaignError,
    ShardProgress,
    WorkerFailure,
    fork_available,
    fuzz_parallel,
    parallel_map,
    run_sweep_parallel,
)
from .stats import PowerLawFit, bootstrap_ci, cell_cis, fit_power_law, r_squared
from .sweeps import SweepCell, SweepResult, aggregate_grid, run_sweep, spec_grid
from .trajectories import TokenTrajectory, TokenVisit, lap_times, track_tokens

__all__ = [
    "ExplorationResult",
    "canonical_digest",
    "packed_digest",
    "explore",
    "LivelockWitness",
    "find_livelock",
    "format_moves",
    "FuzzResult",
    "fuzz",
    "replay_schedule",
    "run_walk_range",
    "campaign_result",
    "SweepCell",
    "SweepResult",
    "run_sweep",
    "aggregate_grid",
    "spec_grid",
    "ShardProgress",
    "WorkerFailure",
    "CampaignError",
    "fork_available",
    "parallel_map",
    "run_sweep_parallel",
    "fuzz_parallel",
    "CheckpointError",
    "ShardStore",
    "explore_owner",
    "read_manifest",
    "PowerLawFit",
    "bootstrap_ci",
    "cell_cis",
    "fit_power_law",
    "r_squared",
    "TokenTrajectory",
    "TokenVisit",
    "lap_times",
    "track_tokens",
    "TokenCensus",
    "CensusObserver",
    "population_correct",
    "take_census",
    "ConvergenceResult",
    "WaitingTimeResult",
    "run_convergence",
    "run_waiting_time",
    "WarmupError",
    "stabilize",
    "convergence_sweep_runner",
    "waiting_sweep_runner",
    "convergence_spec_runner",
    "waiting_spec_runner",
    "SafetyReport",
    "SafetyObserver",
    "check_safety",
    "domains_ok",
    "safety_ok",
    "units_in_use",
    "RunMetrics",
    "collect_metrics",
    "priority_holder_bound",
    "waiting_time_bound",
]
