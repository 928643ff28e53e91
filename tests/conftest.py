"""Shared test settings: every `hypothesis` property runs the same examples on
each run (derandomized, no example database) and has no per-example deadline;
each test sets its own `max_examples`."""
from hypothesis import settings

settings.register_profile("cfeas", derandomize=True, database=None, deadline=None)
settings.load_profile("cfeas")
