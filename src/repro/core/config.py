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
    #: Capacity of the interval-plan LRU (one entry per seed set x time
    #: bucket; 128 covers a full day of 15-minute buckets with room for
    #: a second seed set).
    plan_cache_size: int = 128
    #: Let partitioned selection's district tasks use a worker pool
    #: (repro.seeds.parallel); False keeps them in the parent. This
    #: picks where tasks run, not a code path: the seeds are identical.
    use_parallel_partitions: bool = False
    #: Worker processes for pooled partitioned selection, capped at
    #: num_partitions; 1 opens no pool and runs the tasks in the parent.
    num_partition_workers: int = 1
    #: Partition the Step-2 interval plan into partition_graph districts
    #: instead of planning the city as one district. Districts are
    #: compiled independently in the parent, evaluated per district and
    #: stitched in district order — bitwise identical to the
    #: one-district plan — and graph deltas recompile only the affected
    #: districts' shards. This picks a district count, not a code path.
    use_sharded_plan: bool = False
    #: Districts requested from partition_graph for the sharded plan; 0
    #: means "follow num_partitions". The partition may return more
    #: districts than requested (a connected component smaller than a
    #: chunk closes its chunk early) or fewer (on a small graph).
    plan_shards: int = 0
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
        if self.plan_cache_size < 1:
            raise ConfigError("plan_cache_size must be >= 1")
        if self.plan_shards < 0:
            raise ConfigError("plan_shards must be >= 0 (0 = num_partitions)")
