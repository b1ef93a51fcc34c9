import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests draw the same examples on every run and keep no example
# database.  Hypothesis also caches the constants it reads from source files,
# already while pytest collects; that cache goes to the system's temporary
# directory, so a test run writes no .hypothesis/ directory into the checkout.
settings.register_profile("heisenfourier", derandomize=True, deadline=None, database=None)
settings.load_profile("heisenfourier")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "heisenfourier-hypothesis")
