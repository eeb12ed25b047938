"""Configuration for the end-to-end pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import ConfigError
from repro.speed.degradation import DegradationParams
from repro.speed.hlm import HlmParams

#: Seed-selection algorithms the pipeline can run, by name.
SELECTION_METHODS = ("greedy", "lazy", "partition", "random", "top-degree", "k-center")

#: Trend-inference algorithms the pipeline can run, by name.
INFERENCE_METHODS = ("propagation", "bp", "gibbs")


@dataclass(frozen=True)
class PipelineConfig:
    """All knobs of :class:`~repro.core.pipeline.SpeedEstimationSystem`.

    Defaults reproduce the paper's configuration: 15-minute intervals,
    2-hop correlation candidates with a 0.6 agreement threshold, the
    fast propagation inference, and lazy-greedy seed selection.
    """

    interval_minutes: int = 15
    correlation_max_hops: int = 2
    correlation_min_agreement: float = 0.6
    #: Support guard for mining over histories with zero (flat/missing)
    #: trends: candidate pairs whose valid intervals cover less than
    #: this fraction of the window are rejected regardless of their
    #: agreement (see mine_correlation_graph).
    correlation_min_valid_fraction: float = 0.1
    selection_method: str = "lazy"
    inference_method: str = "propagation"
    num_partitions: int = 8
    #: Accepted and ignored: num_partition_workers alone decides whether
    #: district tasks use a pool. Kept so older callers that pass it
    #: still construct; nothing reads it.
    use_parallel_partitions: bool = False
    #: Worker processes for partitioned selection's district tasks
    #: (repro.seeds.parallel), capped at num_partitions; 1 opens no pool
    #: and runs the tasks in the parent. This picks where tasks run, not
    #: a code path: the seeds are identical.
    num_partition_workers: int = 1
    #: Accepted and ignored: Step 2 compiles one structure per seed set
    #: and refreshes only the rows a graph delta changes. Kept so older
    #: callers that pass it still construct; nothing reads it.
    use_sharded_plan: bool = False
    hlm: HlmParams = field(default_factory=HlmParams)
    degradation: DegradationParams = field(default_factory=DegradationParams)

    def __post_init__(self) -> None:
        if self.selection_method not in SELECTION_METHODS:
            raise ConfigError(
                f"unknown selection method {self.selection_method!r}; "
                f"choose from {SELECTION_METHODS}"
            )
        if self.inference_method not in INFERENCE_METHODS:
            raise ConfigError(
                f"unknown inference method {self.inference_method!r}; "
                f"choose from {INFERENCE_METHODS}"
            )
        if self.correlation_max_hops < 1:
            raise ConfigError("correlation_max_hops must be >= 1")
        if not 0.5 <= self.correlation_min_agreement <= 1.0:
            raise ConfigError("correlation_min_agreement must be in [0.5, 1]")
        if not 0.0 <= self.correlation_min_valid_fraction <= 1.0:
            raise ConfigError("correlation_min_valid_fraction must be in [0, 1]")
        if self.num_partitions < 1:
            raise ConfigError("num_partitions must be >= 1")
        if self.num_partition_workers < 1:
            raise ConfigError("num_partition_workers must be >= 1")
