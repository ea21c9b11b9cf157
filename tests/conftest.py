"""Shared test configuration.

One hypothesis profile for every property test: derandomized, so a run
draws the same examples every time; no example database, so nothing is
written next to the tests; no deadline, since the numpy-heavy examples
vary in time with the host.
"""

from hypothesis import settings

settings.register_profile("vrjplab", max_examples=25, derandomize=True,
                          database=None, deadline=None)
settings.load_profile("vrjplab")
