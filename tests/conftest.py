"""Suite-wide hypothesis profile.

Property tests draw the same examples on every run (`derandomize`), so a
failure they find reproduces on every run rather than appearing at random.
Per-test `@settings` still choose their own `max_examples`.
"""

from hypothesis import settings

settings.register_profile("casembed", deadline=None, derandomize=True)
settings.load_profile("casembed")
