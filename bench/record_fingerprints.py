"""Store the fingerprints of finished plain runs as the committed reference.

    python3 bench/record_fingerprints.py

reads every untraced run record under bench/_work/ and writes each
(workload, seed) fingerprint, with its per-fit digests, into
bench/fingerprints.json, keeping the entries of seeds not run.  bench/run.py
compares every run against this file and names each fit that drifted.  A
change that alters optimizer trajectories on purpose re-records the file and
says why.
"""

import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent
REFERENCE = BENCH / "fingerprints.json"


def main() -> None:
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    recorded = 0
    for path in sorted((BENCH / "_work").glob("*-trace0.json")):
        record = json.loads(path.read_text())
        if record["failures"]:
            raise SystemExit(f"{path.name}: run had failed checks; not recording it")
        seeds = reference.setdefault(record["workload"], {})
        seeds[str(record["seed"])] = record["fingerprint"]
        recorded += 1
    reference = {
        workload: dict(sorted(seeds.items(), key=lambda item: int(item[0])))
        for workload, seeds in sorted(reference.items())
    }
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"recorded {recorded} run(s) into {REFERENCE}")


if __name__ == "__main__":
    main()
