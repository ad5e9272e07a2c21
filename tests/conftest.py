"""Tier-1 draws one fixed set of Hypothesis examples: the default profile is
derandomized and keeps no example database, so two runs of the same tree and
Hypothesis version test the same inputs, and a run never replays examples
that an earlier run saved. Each ``@settings`` keeps its own ``max_examples``."""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
