"""Shared test setup: hypothesis runs derandomized and without deadlines, so
property tests draw the same examples on every run and jet timings on a
loaded machine cannot fail them."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("holonomylab", derandomize=True, deadline=None)
    settings.load_profile("holonomylab")
