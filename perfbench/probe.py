"""Measurements the harness takes in a child process; each prints one JSON object.

Usage:
    python probe.py info              where smirsim imports from, numpy version
    python probe.py net CONTACTNET    node/edge counts of a contact network, loaded
                                      with the program's own reader, and the number
                                      of non-empty county-pair blocks in its edges
    python probe.py speed             seconds of the fixed speed-calibration kernel

They run in a child so that the harness never imports numpy or ``smirsim``
itself: on Linux a child's peak RSS as reported by ``wait4`` includes its
parent's high-water mark, so the harness must stay smaller than every command
it measures.

The calibration kernel gathers and bincounts over a 20 MB edge array, as
``abm.step`` does. Its speed follows the drift of a shared machine (co-tenant
load changes throughput by 15-50% over minutes) closely enough that dividing a
measured time by it removes most of that drift; see ``harness.speed_factor``.
"""

from __future__ import annotations

import json
import sys
import time

import numpy as np


def speed_kernel_s() -> float:
    rng = np.random.default_rng(0)
    n, m = 200_000, 2_500_000
    src = rng.integers(0, n, m).astype(np.uint32)
    dst = rng.integers(0, n, m).astype(np.uint32)
    infected = rng.random(n) < 0.05

    def once() -> float:
        start = time.perf_counter()
        for _ in range(3):
            np.bincount(dst[infected[src]], minlength=n)
        return time.perf_counter() - start

    return min(once() for _ in range(5))


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "speed":
        print(json.dumps({"kernel_s": speed_kernel_s()}))
        return 0
    import smirsim
    from smirsim.contactnet import load_contact_network

    if mode == "info":
        print(json.dumps({"smirsim_file": smirsim.__file__, "numpy": np.__version__}))
        return 0
    net = load_contact_network(rest[0])
    ci = net.county_index.astype(np.int64)
    a, b = ci[net.edges[:, 0]], ci[net.edges[:, 1]]
    pair = np.minimum(a, b) * len(net.county_ids) + np.maximum(a, b)
    print(json.dumps({
        "nodes": net.n_nodes,
        "edges": net.n_edges,
        "blocks": int(np.unique(pair).size),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
