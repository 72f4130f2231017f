"""Record the profile digests that ``run.py`` compares outputs against.

Run from the repository root, on a commit whose outputs are trusted:

    python3 perfbench/record_digests.py --seeds 0-10

For each workload graph it solves the first roots that each seed draws with
``bounded``, checks each output, and writes the digests, per graph and root,
to ``perfbench/digests.json``. Profiles do not depend on the solver, so the
digests also hold for ``ss-yen``.
"""
from __future__ import annotations

import argparse
import io
import json
import sys

import check
import run

# Enough roots per seed to cover a run of this benchmark at its default length.
ROOTS_PER_SEED = {"er-1000-10000-w": 16, "ba-2000-3": 150, "ladder-1000": 12}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=str(run.DEFAULT_SEED),
                        help="seed range, e.g. 0-10")
    first, _, last = parser.parse_args().seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    ksssp = run.import_package()
    recorded = json.loads(run.DIGEST_FILE.read_text()) \
        if run.DIGEST_FILE.is_file() else {}
    for graph_id, count in ROOTS_PER_SEED.items():
        wl = next(w for w in run.WORKLOADS.values()
                  if w.graph == graph_id and w.algo == "bounded")
        graph = run.GRAPHS[graph_id](ksssp)
        text = io.StringIO()
        ksssp.dump_graph(graph, text)
        table = check.ArcTable(text.getvalue())
        digests = recorded.setdefault(graph_id, {})
        for seed in seeds:
            roots = run.root_sequence(graph.vertex_count, seed, wl.root_ranges)
            for root in (next(roots) for _ in range(count)):
                if str(root) in digests:
                    continue
                lines = ksssp.cli.run_solve(graph, root, wl.k, "bounded")
                problems, digest = check.check_output(lines, table, root, wl.k)
                if problems:
                    sys.exit(f"{graph_id} root {root}: {problems}")
                digests[str(root)] = digest
            print(f"{graph_id} seed {seed}: {len(digests)} roots recorded",
                  flush=True)
    run.DIGEST_FILE.write_text(json.dumps(recorded, indent=0, sort_keys=True)
                               + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
