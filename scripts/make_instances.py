#!/usr/bin/env python3
"""Regenerate the bundled desk-scale MPS instances in instances/.

Every file is produced deterministically by the generators module, so this
script only needs to run when a generator changes.
"""

import sys
from pathlib import Path

from diversitree.generators import (
    general_integer_instance,
    knapsack_instance,
    mixed_small_instance,
    random_binary_instance,
    two_cluster_instance,
)
from diversitree.mps import write_mps


def catalog() -> list:
    """The shipped instances, in the order they are written."""
    return [
        knapsack_instance(),
        mixed_small_instance(),
        general_integer_instance(),
        two_cluster_instance(8, 1),
        two_cluster_instance(10, 2),
        random_binary_instance(0),
        random_binary_instance(1),
        random_binary_instance(2),
    ]


def main() -> int:
    dest = Path(__file__).resolve().parent.parent / "instances"
    dest.mkdir(exist_ok=True)
    for inst in catalog():
        path = dest / f"{inst.name}.mps"
        path.write_text(write_mps(inst))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
