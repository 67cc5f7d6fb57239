"""Start-up pays only for what a command runs: the CLI's import path,
``wd-audit`` and ``sieve-run`` at one worker or several load neither
``dataclasses`` (which pulls in ``inspect``, ``ast`` and ``dis``) nor
``multiprocessing`` (which pulls in ``pickle``, ``socket`` and
``selectors``); the sieve's workers are forked children that send their
histograms back through pipes.  The test process has imported all three
already, so each check runs in a fresh interpreter."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG = str(ROOT / "configs" / "quadric_q3.json")
HEAVY = ("dataclasses", "inspect", "multiprocessing")

# runs each argv of the JSON list in argv[1] through cli.main and prints,
# per run, its exit code and the HEAVY modules then loaded
PROBE = f"""
import json, sys
from cycsieve import cli
for argv in json.loads(sys.argv[1]):
    code = cli.main(argv)
    print(json.dumps([code, [m for m in {HEAVY!r} if m in sys.modules]]))
"""


def probe(*runs):
    """[exit code, HEAVY modules loaded] after each run, in one process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(runs)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    return [json.loads(line) for line in done.stdout.splitlines()
            if line.startswith("[")]


def test_commands_without_a_pool_load_no_heavy_module(tmp_path):
    results = probe(
        ["wd-audit", "--config", CONFIG, "--out", str(tmp_path / "wd")],
        ["sieve-run", "--config", CONFIG, "--workers", "1",
         "--out", str(tmp_path / "w1")])
    assert results == [[0, []], [0, []]]


def test_a_multi_worker_run_loads_no_heavy_module(tmp_path):
    results = probe(["sieve-run", "--config", CONFIG, "--workers", "2",
                     "--out", str(tmp_path)])
    assert results == [[0, []]]
