"""Golden result digests: the behaviour lock on the simulator substrate.

``golden_digests.json`` holds ``ExperimentResult.digest()`` of every
built-in report experiment at ``SCALE``, recorded with the Python minor
version named in the file.  A refactor that claims to preserve
behaviour must leave every digest byte-identical; a change that moves
one on purpose regenerates the file and explains the diff.

* ``test_full_registry_equivalent`` reruns the whole registry in this
  process, with every ``PGMCC_*`` switch cleared;
* ``test_representative_experiments_equivalent`` reruns a structurally
  diverse subset in a fresh interpreter under another
  ``PYTHONHASHSEED``, so no result may depend on string-hash order.

Float formatting and ``random`` streams are only promised stable within
a Python minor version, so the comparisons skip on any other one.
Regenerate (after proving the change intended) with::

    PYTHONPATH=src python tests/simulator/test_equivalence.py --write
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.run_all import _BUILTIN_SPECS

GOLDEN = Path(__file__).with_name("golden_digests.json")
REPO_ROOT = Path(__file__).resolve().parents[2]

#: Small enough for tier-1, large enough that every experiment pushes
#: thousands of events through queues, loss models, timers and faults.
SCALE = 0.05

#: Report experiments (hidden sweep cells are covered by their parents).
SPECS = {spec.id: spec for spec in _BUILTIN_SPECS if not spec.hidden}

#: Plain fairness, TCP competition, NE suppression, scripted faults,
#: ECMP reordering and bursty (Gilbert) loss.
REPRESENTATIVE = ("EXP-F3", "EXP-F4", "EXP-F6", "EXP-CHAOS",
                  "EXP-MPATH", "ABL-BURST")


def python_minor() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def compute_digests(ids) -> dict[str, str]:
    return {exp_id: SPECS[exp_id].run(SCALE).digest() for exp_id in ids}


def defaults_env() -> dict[str, str]:
    """This environment minus the program's own ``PGMCC_*`` switches."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PGMCC_")}


@pytest.fixture(scope="module")
def golden() -> dict:
    doc = json.loads(GOLDEN.read_text())
    if doc["python"] != python_minor():
        pytest.skip(f"golden digests were recorded with Python "
                    f"{doc['python']}; this is Python {python_minor()}")
    return doc["digests"]


@pytest.fixture(scope="module")
def other_hash_seed_digests() -> dict[str, str]:
    env = defaults_env()
    env["PYTHONHASHSEED"] = "12345"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, __file__, "--print", *REPRESENTATIVE],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_golden_file_covers_the_registry():
    doc = json.loads(GOLDEN.read_text())
    assert doc["scale"] == SCALE
    assert sorted(doc["digests"]) == sorted(SPECS)


def test_representative_subset_is_current():
    missing = [i for i in REPRESENTATIVE if i not in SPECS]
    assert not missing, f"stale representative ids: {missing}"


@pytest.mark.parametrize("exp_id", sorted(SPECS))
def test_full_registry_equivalent(monkeypatch, golden, exp_id):
    for key in [k for k in os.environ if k.startswith("PGMCC_")]:
        monkeypatch.delenv(key)
    assert compute_digests([exp_id])[exp_id] == golden[exp_id], (
        f"{exp_id} at scale {SCALE} no longer reproduces its recorded "
        "result digest")


@pytest.mark.parametrize("exp_id", REPRESENTATIVE)
def test_representative_experiments_equivalent(golden,
                                               other_hash_seed_digests,
                                               exp_id):
    assert other_hash_seed_digests[exp_id] == golden[exp_id], (
        f"{exp_id} depends on PYTHONHASHSEED")


if __name__ == "__main__":
    command, ids = sys.argv[1:2], sys.argv[2:]
    if command == ["--print"]:
        print(json.dumps(compute_digests(ids)))
    elif command == ["--write"] and not ids:
        doc = {"python": python_minor(), "scale": SCALE,
               "digests": compute_digests(SPECS)}
        GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(doc['digests'])} digests to {GOLDEN}")
    else:
        sys.exit("usage: test_equivalence.py --write | --print EXP-ID...")
