"""The shipped instances are the files ``scripts/make_instances.py`` writes.

The golden pins and the CLI digests parse ``instances/*.mps``; this test
ties those files to the generators that made them.
"""

import importlib.util
from pathlib import Path

from diversitree import write_mps

ROOT = Path(__file__).resolve().parent.parent


def test_every_shipped_instance_is_what_the_script_writes():
    spec = importlib.util.spec_from_file_location("make_instances",
                                                  ROOT / "scripts" / "make_instances.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    written = {f"{inst.name}.mps": write_mps(inst).encode() for inst in script.catalog()}
    shipped = sorted((ROOT / "instances").glob("*.mps"))
    assert sorted(written) == [path.name for path in shipped]
    assert len(shipped) == 8
    for path in shipped:
        assert path.read_bytes() == written[path.name], path.name
