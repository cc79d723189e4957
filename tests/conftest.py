"""Hypothesis profiles.

``ci`` runs ten times the default examples, derandomized, for properties
that leave ``max_examples`` to the profile; select it with
``pytest --hypothesis-profile=ci``.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=1000, derandomize=True, deadline=None)
