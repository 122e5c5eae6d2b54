"""Shared test settings.

Property tests run under a derandomized hypothesis profile with no example
database, so every tier-1 run draws the same examples and stays fast.
"""

from hypothesis import settings

settings.register_profile("torusmodes", derandomize=True, database=None, deadline=None,
                          max_examples=50)
settings.load_profile("torusmodes")
