"""Shared test settings.

Property tests on exact arithmetic run derandomized, so a run is
reproducible, and without a per-example deadline, since one example can
reduce large polynomials and shared runners vary in speed.
"""

from hypothesis import settings

settings.register_profile("exact", derandomize=True, deadline=None, database=None)
settings.load_profile("exact")
