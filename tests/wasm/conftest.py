"""Hypothesis profiles for the VM tests.

``loop-soak`` runs the superblock loop-nest differential tests (which take
their example count from the active profile) at a larger example count:
``pytest tests/wasm/test_tier_differential.py -k loop_nests
--hypothesis-profile=loop-soak``.
"""

from hypothesis import settings

settings.register_profile("loop-soak", max_examples=2000, deadline=None)
