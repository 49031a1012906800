"""The paper's contribution: trial reordering and prefix-state reuse."""

from .atomicio import atomic_write_json
from .cache import CacheBudget, CacheStats, CorruptionError, StateCache
from .events import PAULI_LABELS, ErrorEvent, Trial, make_trial
from .executor import (
    ExecutionOutcome,
    RunInterrupted,
    baseline_operation_count,
    run_baseline,
    run_optimized,
)
from .hybrid import (
    HybridOutcome,
    HybridSchedule,
    classify_plan,
    run_hybrid,
)
from .metrics import RunMetrics, compute_metrics
from .persistence import load_trials, save_trials
from .resilience import (
    JournalError,
    JournalSummary,
    RunJournal,
    WorkerCrash,
    journal_fingerprint,
    load_journal,
    payload_checksum,
    run_journaled,
)
from .packed import (
    PackedAnalysis,
    analyze_packed_trials,
    pack_trial,
    pack_trials,
    sample_packed_trials,
    unpack_trial_events,
)
from .reorder import (
    adjacent_prefix_lengths,
    longest_common_prefix,
    reorder_trials,
    reorder_trials_recursive,
)
from .runner import NoisySimulator, SimulationResult
from .shared import SharedPrefixStore, SharedStoreStats, circuit_fingerprint
from .schedule import (
    Advance,
    ExecutionPlan,
    Finish,
    Inject,
    Restore,
    ScheduleError,
    Snapshot,
    build_plan,
    build_plan_from_trie,
)
from .trie import TrialTrie, TrieNode, build_trie

__all__ = [
    "Advance",
    "CacheBudget",
    "CacheStats",
    "CorruptionError",
    "ErrorEvent",
    "ExecutionOutcome",
    "ExecutionPlan",
    "Finish",
    "HybridOutcome",
    "HybridSchedule",
    "Inject",
    "JournalError",
    "JournalSummary",
    "NoisySimulator",
    "PackedAnalysis",
    "PAULI_LABELS",
    "Restore",
    "RunInterrupted",
    "RunJournal",
    "RunMetrics",
    "ScheduleError",
    "SharedPrefixStore",
    "SharedStoreStats",
    "SimulationResult",
    "Snapshot",
    "StateCache",
    "Trial",
    "TrialTrie",
    "TrieNode",
    "WorkerCrash",
    "adjacent_prefix_lengths",
    "atomic_write_json",
    "baseline_operation_count",
    "build_plan",
    "build_plan_from_trie",
    "build_trie",
    "circuit_fingerprint",
    "classify_plan",
    "compute_metrics",
    "journal_fingerprint",
    "load_journal",
    "longest_common_prefix",
    "make_trial",
    "load_trials",
    "payload_checksum",
    "run_journaled",
    "save_trials",
    "pack_trial",
    "pack_trials",
    "analyze_packed_trials",
    "sample_packed_trials",
    "unpack_trial_events",
    "reorder_trials",
    "reorder_trials_recursive",
    "run_baseline",
    "run_hybrid",
    "run_optimized",
]
