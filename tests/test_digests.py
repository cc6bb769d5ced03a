"""The bit-identity tool, scripts/digests.py: its seeded calls give the same
digests when run twice in one process (criterion 10, through the tool)."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "digests.py"


def load_script():
    spec = importlib.util.spec_from_file_location("digests", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_short_list_twice_gives_the_same_digests():
    digests = load_script()
    names = ["synth-hmms-full-d2", "h3m-em-reseeds-diag-d2", "vhem-rescues-full-d2",
             "hier-cluster-diag-d2"]
    first = digests.digests(names)
    assert first == digests.digests(names)
    assert {path.split(".")[0].split("[")[0] for path in first} == set(names)
    assert "vhem-rescues-full-d2.assignments.z" in first
    assert all(len(digest) == 64 for digest in first.values())
