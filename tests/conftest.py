"""Shared test settings: one hypothesis profile for every property test."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("wvlab", max_examples=20, deadline=None, derandomize=True)
    settings.load_profile("wvlab")
