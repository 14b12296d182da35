"""Hypothesis settings shared by the property tests.

derandomize seeds each test's examples from the test itself, so a run
reproduces exactly; no deadline, since one example is a whole eigensolve
whose wall time follows the machine's load; few examples, since each one
builds a Workspace.
"""

from hypothesis import settings

settings.register_profile("kornlab", derandomize=True, deadline=None, max_examples=3,
                          database=None)
settings.load_profile("kornlab")
