"""Hypothesis profiles, chosen by the HYPOTHESIS_PROFILE environment variable.

``ci`` draws the same examples on every run (``derandomize``) and sets no
per-example deadline, so that a property or fuzz test can neither fail on a
new draw nor on a slow runner; CI sets it for the tier-1 step.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)

if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
