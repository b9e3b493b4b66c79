"""``scripts/bench_pairs.py``: a killed comparison leaves no harness and no tree behind.

The pairs protocol itself (exports, alternation, verdicts) runs in
``scripts/check.sh`` as a smoke pair; this test runs that smoke pair with
a private ``TMPDIR``, sends ``SIGTERM`` or ``SIGINT`` once a harness is
running in one of the exported trees, and checks that the harness (cwd
in the tree) and the trees are gone.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir))

#: Seconds within which the killed comparison must have cleaned up.
CLEANUP_SECONDS = 15.0


def processes_under(directory: str) -> list:
    """Pids of the processes whose working directory lies under ``directory``."""
    found = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            cwd = os.readlink(os.path.join("/proc", pid, "cwd"))
        except OSError:  # gone, or not ours to read
            continue
        if cwd == directory or cwd.startswith(directory + os.sep):
            found.append(int(pid))
    return found


def harnesses_under(directory: str) -> list:
    """Pids of the benchmark harnesses (``run.py``) running under ``directory``."""
    found = []
    for pid in processes_under(directory):
        try:
            with open(os.path.join("/proc", str(pid), "cmdline"), "rb") as fh:
                argv = fh.read().split(b"\0")
        except OSError:
            continue
        if any(arg.endswith(b"run.py") for arg in argv):
            found.append(pid)
    return found


def wait_for(condition, seconds: float, step: float = 0.01):
    """``condition()``'s first truthy value within ``seconds``, else its last value."""
    deadline = time.monotonic() + seconds
    while True:
        value = condition()
        if value or time.monotonic() >= deadline:
            return value
        time.sleep(step)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads working directories from /proc")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT], ids=["SIGTERM", "SIGINT"])
def test_signal_kills_the_harness_and_removes_the_trees(tmp_path, signum):
    inside_git = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", "-q", "HEAD"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    if inside_git.returncode:
        pytest.skip("needs a git checkout with a HEAD to export")
    private = os.path.realpath(str(tmp_path))
    env = dict(os.environ, TMPDIR=private)
    pairs = subprocess.Popen(
        [
            sys.executable, os.path.join(ROOT, "scripts", "bench_pairs.py"), "HEAD", "HEAD",
            "--workload", "closed_loop_paper", "--pairs", "1", "--smoke",
        ],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        # A shell starts background jobs with SIGINT ignored, and Python
        # keeps an ignored SIGINT; the comparison gets the default.
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
    )
    try:
        started = wait_for(lambda: harnesses_under(private), 120.0)
        assert started, "no harness ran in an exported tree"
        assert pairs.poll() is None
        pairs.send_signal(signum)
        pairs.wait(timeout=CLEANUP_SECONDS)
        assert wait_for(lambda: not os.listdir(private), CLEANUP_SECONDS), os.listdir(private)
        assert wait_for(lambda: not processes_under(private), CLEANUP_SECONDS)
    finally:
        if pairs.poll() is None:
            pairs.kill()
            pairs.wait()
        for pid in processes_under(private):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
