"""Suite-wide settings: property tests run a fixed, derandomized example set.

A derandomized run seeds each property test from the test's own source, so
editing a test re-draws its examples. A failure that appears this way is a
real case the old draw missed: pin it with `@example` and fix the code,
never edit the test until the draw stops finding it.
"""

from hypothesis import settings

settings.register_profile(
    "ffusion",
    derandomize=True,  # the same examples on every run
    max_examples=30,
    deadline=None,  # timing on a shared host is not a failure
    database=None,  # nothing replayed from earlier runs
)
settings.load_profile("ffusion")
