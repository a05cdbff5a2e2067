#!/usr/bin/env python3
"""Record the report digests that run.py checks, for the given seeds.

    python3 bench/record_digests.py 1 2 3 ...

The digest is the sha256 of the exit status and stdout of the first
DIGEST_REQUESTS requests of a workload.  Record again only when a change
means to alter the reports; otherwise a differing digest is a regression.
"""

import json
import os
import shutil
import sys

import run
import workloads


def main(seeds):
    recorded = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    cli = run.load_cli()
    workdir = run.WORK / f"digests-{os.getpid()}"
    try:
        for name in workloads.WORKLOADS:
            table = recorded.setdefault(name, {})
            for seed in seeds:
                shutil.rmtree(workdir, ignore_errors=True)
                workdir.mkdir(parents=True)
                items = run.Batch(name, seed, workdir).first(run.DIGEST_REQUESTS)
                results = [run.call(cli, argv) for _req, argv in items]
                table[str(seed)] = run.digest(results)
            recorded[name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    recorded = {name: recorded[name] for name in sorted(recorded)}
    run.DIGESTS.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main([int(a) for a in sys.argv[1:]])
