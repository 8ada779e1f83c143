"""Record the CLI reference: exit code and stdout digest of every grid entry.

    python3 perfbench/record_cli_reference.py

Run from the root of a checkout of the commit whose output is the reference
(the README promises byte-identical output, so later commits must match it).
Writes perfbench/cli_reference.json.
"""

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main():
    session = workloads.CliSession()
    reference = {}
    for key in sorted(session.grid):
        code, stdout = session.run_child(session.argv(key), traced=False)
        reference[key] = {"exit": code, "stdout_sha256": hashlib.sha256(stdout).hexdigest()}
        print(key, code, file=sys.stderr)
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    (HERE / "cli_reference.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    main()
