"""The per-test time limit of ``conftest.py`` and the ``time_limit`` it arms."""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import conftest
from support import time_limit

TESTS = Path(__file__).resolve().parent

# Run in a child pytest beside a copy of the conftest: the handler installed
# at import must be back after the test that never ends, and the next test
# runs under a timer of its own.
HANGING_TESTS = '''
import signal

def mine(signum, frame):
    pass

signal.signal(signal.SIGALRM, mine)

def test_never_ends():
    while True:
        pass

def test_runs_under_a_fresh_timer():
    assert signal.getsignal(signal.SIGALRM) is not mine
    assert signal.getitimer(signal.ITIMER_REAL)[0] > 0

def teardown_module():
    assert signal.getsignal(signal.SIGALRM) is mine
    assert signal.getitimer(signal.ITIMER_REAL)[0] == 0
'''


def test_a_test_that_never_ends_fails_fast(tmp_path):
    text = (TESTS / "conftest.py").read_text()
    line = f"TEST_SECONDS = {conftest.TEST_SECONDS}\n"
    assert line in text
    (tmp_path / "conftest.py").write_text(text.replace(line, "TEST_SECONDS = 1\n"))
    (tmp_path / "test_hang.py").write_text(HANGING_TESTS)
    src = str(TESTS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(TESTS)]))
    start = time.monotonic()
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=30,
    )
    elapsed = time.monotonic() - start
    assert run.returncode == 1, run.stdout + run.stderr
    assert "TimeoutError" in run.stdout and "test_never_ends ran over its 1 s limit" in run.stdout
    assert "1 failed, 1 passed in" in run.stdout
    assert elapsed < 20


def test_a_shorter_limit_nests_inside_the_per_test_one():
    with pytest.raises(TimeoutError, match="inner ran over its 0.05 s limit"):
        with time_limit(0.05, "inner"):
            while True:
                pass
    # the per-test timer is armed again with what was left of it
    left, _ = signal.getitimer(signal.ITIMER_REAL)
    assert 0 < left <= conftest.TEST_SECONDS
