import os
import tempfile

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:
    pass
else:
    # Same examples on every run and no per-example deadline on a slow host.
    # Hypothesis caches source constants even without an example database, so
    # its home directory goes to the temp dir, not the checkout.
    settings.register_profile("k3lat", derandomize=True, database=None, deadline=None)
    settings.load_profile("k3lat")
    set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "k3lat-hypothesis"))
