"""Suite-wide settings: hypothesis draws the same examples on every run, keeps no
example database, and writes its source-constant cache under the system's
temporary directory, so a run repeats the last and leaves no `.hypothesis/`
directory in the checkout."""

import tempfile
from pathlib import Path

try:
    import hypothesis
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # the property tests skip without it
    pass
else:
    hypothesis.settings.register_profile("repeatable", derandomize=True, database=None)
    hypothesis.settings.load_profile("repeatable")
    set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "muxepi-hypothesis")
