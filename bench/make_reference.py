#!/usr/bin/env python3
"""Regenerate bench/reference.json from the current sources.

    python3 bench/make_reference.py

Runs every workload once on each of the INPUT_BANK input seeds and stores
the reported summaries the output check compares.  Regenerate only when a
change alters the numerics on purpose and shows oracle agreement; the
stored values are the ones every later run is checked against.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run as bench


def dump(data: dict) -> str:
    """JSON with one line per input seed, so a regeneration diffs by seed."""
    lines = ["{"]
    for key in ("source_sha256", "input_bank"):
        lines.append(f"  {json.dumps(key)}: {json.dumps(data[key])},")
    lines.append('  "workloads": {')
    workloads = list(data["workloads"].items())
    for i, (name, table) in enumerate(workloads):
        lines.append(f"    {json.dumps(name)}: {{")
        rows = [f"      {json.dumps(seed)}: {json.dumps(values)}" for seed, values in table.items()]
        lines.append(",\n".join(rows))
        lines.append("    }" + ("," if i + 1 < len(workloads) else ""))
    lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def main() -> int:
    cli = bench.import_cli()
    bench.OUT_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=bench.OUT_DIR))
    data = {
        "source_sha256": bench.code_hash(),
        "input_bank": bench.INPUT_BANK,
        "workloads": {},
    }
    try:
        for workload in bench.WORKLOADS.values():
            table = data["workloads"][workload.name] = {}
            for seed in range(bench.INPUT_BANK):
                op_dir = work / f"{workload.name}-{seed}"
                elapsed, error, summaries = bench.run_op(cli.main, workload, seed, op_dir)
                if error is not None:
                    print(f"{workload.name} seed {seed}: {error}", file=sys.stderr)
                    return 1
                table[str(seed)] = summaries
                print(f"{workload.name} seed {seed}: {elapsed:.3f} s", flush=True)
                shutil.rmtree(op_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    bench.REFERENCE_FILE.write_text(dump(data), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
