"""Analysis layer: the oracle plus every campaign shape built on it.

Submodules
----------
``census`` / ``invariants`` / ``metrics``
    The oracle: token census, safety/domain invariants, run metrics and
    the paper's Theorem 2 waiting-time bound.
``harness``
    The paper's two experiments (convergence T1, waiting time T2), each
    run from a ``ScenarioSpec``, plus their picklable sweep-cell runners
    and the one measurement window.
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
    The one worker pool and ``parallel_map``: every sweep and fuzz
    campaign runs on it at every worker count (one worker runs
    in-process), with results identical at any worker count.
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
from .fuzz import FuzzResult, fuzz, replay_schedule
from .harness import (
    ConvergenceResult,
    WaitingTimeResult,
    WarmupError,
    convergence_spec_runner,
    measure,
    run_convergence,
    run_waiting_time,
    stabilize,
    waiting_spec_runner,
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
    parallel_map,
)
from .stats import PowerLawFit, bootstrap_ci, cell_cis, fit_power_law, r_squared
from .sweeps import SweepCell, SweepResult, run_sweep, spec_grid
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
    "SweepCell",
    "SweepResult",
    "run_sweep",
    "spec_grid",
    "ShardProgress",
    "WorkerFailure",
    "CampaignError",
    "fork_available",
    "parallel_map",
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
    "measure",
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
