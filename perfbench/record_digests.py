"""Write digests.json: SHA-256 of every CSV the builtin set writes.

These are the offset-0 jobs of `artifact_sweep`, which run the builtin
scenarios at their own seeds, exactly as `loopsim run builtin` does. The
benchmark fails any job whose CSV no longer matches. Run from the root of a
checkout, only when a change to the CSV bytes is intended:

    python3 perfbench/record_digests.py
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    outdir = ROOT / ".perfbench" / "record-digests"
    shutil.rmtree(outdir, ignore_errors=True)
    try:
        for job in workloads.artifact_jobs([0]):
            job.run(outdir)
        digests = {
            path.relative_to(outdir).as_posix():
                hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(outdir.rglob("*.csv"))}
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")
    print(f"recorded {len(digests)} CSV digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
