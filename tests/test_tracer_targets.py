"""The benchmark must find every program name it reads.

perfbench/tracer.py wraps functions and methods named in its TARGETS,
and its self-test expects some of them at particular import sites.  The
verify workload judges a check all payload wrong when a check named in
perfbench/data/reference.json's check_names is missing from it.  A
change that deletes or renames one of those names fails here, instead
of crashing a traced benchmark run or failing every verify request.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from trigbethe import cli

_BENCH = Path(__file__).resolve().parents[1] / "perfbench"
_PATH = _BENCH / "tracer.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracer", _PATH)
tracer = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer)

# (module, name) -> the module-level function the name must be bound to
IMPORT_SITES = {
    ("trigbethe.bethe", "mat_rank"): ("trigbethe.linalg", "rank"),
    ("trigbethe.bethe", "rref"): ("trigbethe.linalg", "rref"),
    ("trigbethe.cli", "rref"): ("trigbethe.linalg", "rref"),
    ("trigbethe.cli", "enumerate_layers"): ("trigbethe.layers", "enumerate_layers"),
    ("trigbethe.cli", "weyl_action_report"):
        ("trigbethe.bethe", "weyl_action_report"),
    ("trigbethe.layers", "smith_normal_form"):
        ("trigbethe.lattice", "smith_normal_form"),
}


@pytest.mark.parametrize("target", tracer.TARGETS,
                         ids=lambda t: f"{t[1]}.{t[2]}")
def test_target_resolves(target):
    _, module, path, _ = target
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize("site", IMPORT_SITES, ids=".".join)
def test_import_site_exists(site):
    module, name = site
    source_module, source_name = IMPORT_SITES[site]
    bound = getattr(importlib.import_module(module), name)
    assert bound is getattr(importlib.import_module(source_module), source_name)


CHECK_NAMES = json.loads((_BENCH / "data" / "reference.json")
                         .read_text(encoding="utf-8"))["check_names"]


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_reference_check_name_is_a_cli_check(name):
    assert name in cli._CHECKS


def test_check_all_payload_names_every_reference_check(capsys):
    # what workloads.judge reads: the names of the payload's entries
    cli.main(["check", "all", "--type", "A2"])
    payload = json.loads(capsys.readouterr().out)
    assert set(CHECK_NAMES) <= {c["name"] for c in payload["checks"]}
