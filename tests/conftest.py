"""The scripts and interpreters the tests start as subprocesses import
fwdiff from this checkout too, as the test process does through the
pytest `pythonpath` setting."""

import os

SRC = os.path.abspath(
    os.path.join(os.path.dirname(__file__), os.pardir, "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))
