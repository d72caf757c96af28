"""Configuration for the Sonic index.

The C++ Sonic takes its parameters (key type, hash function, bucket size,
capacity) as compile-time template arguments (§4.2).  Here they live in a
:class:`SonicConfig` value object validated up front, so a misconfigured
index fails at construction, not mid-build.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

DEFAULT_BUCKET_SIZE = 8
DEFAULT_OVERALLOCATION = 2.0


@dataclass(frozen=True)
class SonicConfig:
    """Tuning parameters of one Sonic index.

    Parameters
    ----------
    capacity:
        Slots per level.  Must be at least ``expected_tuples`` (every tuple
        occupies exactly one slot per level) — use :meth:`for_tuples` to
        derive it from a tuple count and overallocation factor.  Rounded up
        to a whole number of buckets.
    bucket_size:
        Slots per bucket (the paper's Fig 17 sweep; default 8).
    seed:
        Hash seed, so adversarial tests can vary placement.
    """

    capacity: int = 1024
    bucket_size: int = DEFAULT_BUCKET_SIZE
    seed: int = 0

    def __post_init__(self):
        if self.bucket_size < 1:
            raise ConfigurationError(f"bucket_size must be >= 1, got {self.bucket_size}")
        if self.capacity < self.bucket_size:
            raise ConfigurationError(
                f"capacity {self.capacity} smaller than one bucket ({self.bucket_size})"
            )
        if self.capacity % self.bucket_size:
            # round up to whole buckets; frozen dataclass needs object.__setattr__
            buckets = -(-self.capacity // self.bucket_size)
            object.__setattr__(self, "capacity", buckets * self.bucket_size)

    @property
    def num_buckets(self) -> int:
        return self.capacity // self.bucket_size

    @classmethod
    def for_tuples(cls, expected_tuples: int, bucket_size: int = DEFAULT_BUCKET_SIZE,
                   overallocation: float = DEFAULT_OVERALLOCATION,
                   seed: int = 0) -> "SonicConfig":
        """Derive a config from an expected tuple count (the usual entry point).

        ``overallocation`` is the paper's *OF* factor (§3.5): levels are
        sized ``OF × expected_tuples`` slots to keep probe chains (and thus
        patching) rare.  Values below ~1.2 work but patch heavily.
        """
        if expected_tuples < 1:
            raise ConfigurationError(f"expected_tuples must be >= 1, got {expected_tuples}")
        if overallocation < 1.0:
            raise ConfigurationError(
                f"overallocation must be >= 1.0 (every tuple needs a slot per "
                f"level), got {overallocation}"
            )
        capacity = max(int(expected_tuples * overallocation), bucket_size)
        return cls(capacity=capacity, bucket_size=bucket_size, seed=seed)
