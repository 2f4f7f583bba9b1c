"""Test-wide Hypothesis settings.

The default profile leaves out the explain phase: on a failing property it
re-runs the shrunk example many times to point at lines, which made a
failure take close to a minute to report.  Per-test `max_examples` and
`deadline` settings still apply on top of this profile.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "aproots", phases=[p for p in Phase if p is not Phase.explain])
settings.load_profile("aproots")
