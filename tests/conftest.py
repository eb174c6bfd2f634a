"""Suite-wide settings: property tests run a fixed, derandomized example set."""

from hypothesis import settings

settings.register_profile(
    "ffusion",
    derandomize=True,  # the same examples on every run
    max_examples=30,
    deadline=None,  # timing on a shared host is not a failure
    database=None,  # nothing replayed from earlier runs
)
settings.load_profile("ffusion")
