"""Golden CLI outputs: stdout digests recorded in the benchmark reference.

perfbench/data/reference.json holds, for a frozen pool of point
descriptions, the sha256 of each `subspace` stdout, and the digests of a
few small `enumerate` requests.  Replaying the first point of every pool
group and those requests through the CLI keeps "byte-identical output"
a tier-1 check.  The reference file is only read.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from trigbethe.cli import main

REFERENCE = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                        / "data" / "reference.json").read_text(encoding="utf-8"))

# the first pool entry of each group, in pool order
_FIRST: dict[str, dict] = {}
for _entry in REFERENCE["pool"]:
    _FIRST.setdefault(_entry["group"], _entry)
FIRST_OF_GROUP = list(_FIRST.values())

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
    assert len(FIRST_OF_GROUP) == 32
    assert len({e["group"] for e in FIRST_OF_GROUP}) == 32


@pytest.mark.parametrize("entry", FIRST_OF_GROUP, ids=lambda e: e["group"])
def test_subspace_output_matches_reference(entry, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(entry["spec"]))
    assert stdout_digest(capsys, ["subspace", "-"]) == entry["sha256"]


@pytest.mark.parametrize("argv", ENUMERATE, ids=" ".join)
def test_enumerate_output_matches_reference(argv, capsys):
    assert stdout_digest(capsys, argv) == REFERENCE["census"][" ".join(argv)]
