"""One hypothesis profile for the suite: the same examples on every run,
no per-example deadline, and a bounded number of examples per property."""

from hypothesis import settings

settings.register_profile("nlkpp", derandomize=True, deadline=None, max_examples=50,
                          database=None)
settings.load_profile("nlkpp")
