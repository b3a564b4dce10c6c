"""Keep hypothesis's files (its example database and the constants it
collects from the source) out of the repo tree: they go to a temporary
directory, removed when the test session ends."""

import atexit
import shutil
import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

_HOME = tempfile.mkdtemp(prefix="braidwalk-hypothesis-")
set_hypothesis_home_dir(_HOME)
atexit.register(shutil.rmtree, _HOME, ignore_errors=True)
