"""List vs ``array('q')`` subscript cost: why the FM kernels use lists.

Every FM move reads and writes per-net pin counts, id-sums and
per-vertex gains.  This times the kernels' access pattern -- ``+=``,
``-=`` and a read on each slot -- over a 20,000-slot zeroed buffer held
as a plain list and as an ``array('q')``, and prints the best-of-N time
of each and their ratio (array time / list time).

Not collected by pytest (no ``test_`` prefix); run directly:

    python benchmarks/buffer_subscripts.py [repeats]
"""

from __future__ import annotations

import platform
import sys
import timeit
from array import array

SLOTS = 20_000
LOOPS = 20


def _touch(buf) -> None:
    for i in range(SLOTS):
        buf[i] += 1
        buf[i] -= 1
        buf[i]


def main(argv) -> int:
    repeats = int(argv[1]) if len(argv) > 1 else 9
    arr = array("q", bytes(8 * SLOTS))
    lst = [0] * SLOTS
    t_arr = min(timeit.repeat(lambda: _touch(arr), number=LOOPS,
                              repeat=repeats))
    t_lst = min(timeit.repeat(lambda: _touch(lst), number=LOOPS,
                              repeat=repeats))
    print(f"python {platform.python_version()}: {LOOPS} loops x {SLOTS} "
          f"slots, best of {repeats}")
    print(f"array('q') {t_arr:.4f}s  list {t_lst:.4f}s  "
          f"ratio {t_arr / t_lst:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
