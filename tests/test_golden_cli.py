"""Golden CLI outputs: stdout digests recorded in the benchmark reference.

perfbench/data/reference.json holds, for a frozen pool of point
descriptions, the sha256 of each `subspace` stdout, and the digests of a
few small `enumerate` requests.  Replaying the first four points of
every pool group (so more than one twisted, boundary and torsion draw
per configuration) and those requests through the CLI keeps
"byte-identical output" a tier-1 check.  The reference file is only read.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from trigbethe.cli import main

REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                        / "data" / "reference.json").read_text(encoding="utf-8"))

# the first PER_GROUP pool entries of each group, in pool order
PER_GROUP = 4
_GROUPS: dict[str, list] = {}
for _entry in REFERENCE["pool"]:
    _GROUPS.setdefault(_entry["group"], []).append(_entry)
GOLDEN_POINTS = [e for entries in _GROUPS.values() for e in entries[:PER_GROUP]]

ENUMERATE = [
    ["enumerate", "layers", "--type", "A2"],
    ["enumerate", "boundary-strata", "--type", "G2"],
    ["enumerate", "building-set", "--type", "B2"],
    ["enumerate", "layers", "--type", "G2", "--format", "dot"],
    # the benchmark's census requests
    ["enumerate", "layers", "--type", "B4", "--format", "dot"],
    ["enumerate", "boundary-strata", "--type", "C4"],
    ["enumerate", "building-set", "--type", "D4"],
    ["enumerate", "layers", "--type", "A4"],
]


def stdout_digest(capsys, argv) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()


def test_pool_has_one_entry_per_group():
    assert len(GOLDEN_POINTS) == 32 * PER_GROUP
    assert len({e["group"] for e in GOLDEN_POINTS}) == 32
    assert len({e["spec"] for e in GOLDEN_POINTS}) == 32 * PER_GROUP


def _entry_id(entry) -> str:
    # the first entry keeps the bare group name as its id
    k = _GROUPS[entry["group"]].index(entry)
    return entry["group"] if k == 0 else f"{entry['group']}-{k}"


@pytest.mark.parametrize("entry", GOLDEN_POINTS, ids=_entry_id)
def test_subspace_output_matches_reference(entry, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(entry["spec"]))
    assert stdout_digest(capsys, ["subspace", "-"]) == entry["sha256"]


@pytest.mark.parametrize("argv", ENUMERATE, ids=" ".join)
def test_enumerate_output_matches_reference(argv, capsys):
    assert stdout_digest(capsys, argv) == REFERENCE["census"][" ".join(argv)]
