"""Hypothesis settings for the whole suite.

Tier-1 runs are deterministic: every property test draws the same examples on
every run and machine (``derandomize``), and no example database carries
failures from one run into the next.  Example counts and deadlines stay as each
test's ``@settings`` sets them.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.load_profile("tier1")
