"""Start-up pays only for what a command runs.

The CLI's import path, ``wd-audit`` and ``sieve-run`` at one worker or
several load neither ``dataclasses`` (which pulls in ``inspect``, ``ast`` and
``dis``) nor ``multiprocessing`` (which pulls in ``pickle``, ``socket`` and
``selectors``); the sieve's workers are forked children that send their
histograms back through pipes.  The package imports no module of its own, and
``cli`` and ``reports`` import ``sieve`` and ``identities`` only in the
functions that run them: the import alone and the commands that run neither
(``wd-audit``, ``dual-check``, ``exc-primes``, ``charsum``) load neither, and
``sieve-run`` and ``count`` do not load ``identities``.  The test process has
imported all of these already, so each check runs in a fresh interpreter."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONFIG = str(ROOT / "configs" / "quadric_q3.json")
HEAVY = ("dataclasses", "inspect", "multiprocessing")
SIEVE, IDENTITIES = "cycsieve.sieve", "cycsieve.identities"

# imports cli, then runs each argv of the JSON list in argv[1] through
# cli.main; prints the modules of the JSON list in argv[2] then loaded, once
# after the import (with the code null) and once per run with its exit code
PROBE = """
import json, sys
watched = json.loads(sys.argv[2])
def report(code):
    print(json.dumps([code, [m for m in watched if m in sys.modules]]))
from cycsieve import cli
report(None)
for argv in json.loads(sys.argv[1]):
    report(cli.main(argv))
"""


def probe(*runs, watched=HEAVY):
    """[exit code, watched modules loaded] after the import of cli (code
    None) and after each run, in one process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(runs),
                           json.dumps(watched)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    return [json.loads(line) for line in done.stdout.splitlines()
            if line.startswith("[")]


def test_commands_without_a_pool_load_no_heavy_module(tmp_path):
    results = probe(
        ["wd-audit", "--config", CONFIG, "--out", str(tmp_path / "wd")],
        ["sieve-run", "--config", CONFIG, "--workers", "1",
         "--out", str(tmp_path / "w1")])
    assert results == [[None, []], [0, []], [0, []]]


def test_a_multi_worker_run_loads_no_heavy_module(tmp_path):
    # at q = 5 the last convolution has pairs enough to fork a worker
    results = probe(["sieve-run", "--config", CONFIG, "--q", "5",
                     "--workers", "2", "--out", str(tmp_path)])
    assert results == [[None, []], [0, []]]


def test_commands_that_run_no_sieve_load_neither_sieve_nor_identities(
        tmp_path):
    results = probe(
        ["wd-audit", "--config", CONFIG, "--out", str(tmp_path)],
        ["dual-check", "--config", CONFIG, "--out", str(tmp_path)],
        ["exc-primes", "--config", CONFIG, "--out", str(tmp_path)],
        ["charsum", "--config", CONFIG, "--out", str(tmp_path)],
        watched=(SIEVE, IDENTITIES))
    assert results == [[None, []]] + [[0, []]] * 4


def test_sieve_commands_do_not_load_identities(tmp_path):
    results = probe(
        ["sieve-run", "--config", CONFIG, "--workers", "1",
         "--out", str(tmp_path / "w1")],
        ["sieve-run", "--config", CONFIG, "--workers", "2",
         "--out", str(tmp_path / "w2")],
        ["count", "--config", CONFIG, "--out", str(tmp_path)],
        watched=(SIEVE, IDENTITIES))
    assert results == [[None, []]] + [[0, [SIEVE]]] * 3
