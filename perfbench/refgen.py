"""Write the reference data that benchmark runs check against.

Usage (from the root of the repository, at a commit whose output is trusted)::

    python3 perfbench/refgen.py

Every group that a workload builds or verifies is built with
``build --verify`` through ``canoninv.cli.main``.  An output is kept only when
its verification passed, and for the groups of the ``oracle`` workload only
when ``oracle-compare`` also reported the two constructions equal.  The
output of each group that a ``verify`` request names is saved as
``ref/systems/<group>.json`` and then checked once more with the ``verify``
command.  ``ref/references.json`` records the digest of every build request
and of every saved file.  Benchmark runs never call this script.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import REFERENCES, WORKLOADS, Request, system_file

CAP_S = 120.0


def _cli_json(cli, argv):
    stdout, failure, _seconds = run.call_cli(cli, argv, CAP_S)
    if failure is not None:
        raise SystemExit(f"refgen: {' '.join(argv)} failed: {failure}")
    return stdout, json.loads(stdout)


def main() -> int:
    requests = [r for w in WORKLOADS.values() for r in w]
    cli = run.import_canoninv()
    oracle_groups = {r.group for r in requests if r.kind == "oracle"}
    for group in sorted(oracle_groups):
        _text, data = _cli_json(cli, Request("oracle", group).argv())
        if data.get("equal") is not True:
            raise SystemExit(f"refgen: oracle and construction disagree on {group}")

    builds = {}
    saved = {}
    wanted = {r.group for r in requests if r.kind == "verify"}
    for r in requests:
        if r.kind != "build" or r.id in builds:
            continue
        text, data = _cli_json(cli, r.argv())
        if not data["verification"]["passed"]:
            raise SystemExit(f"refgen: {r.id} did not verify")
        builds[r.id] = run.system_digest(data)
        if r.group in wanted and r.mode == "generic":
            path = system_file(r.group)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
            _text, report = _cli_json(cli, Request("verify", r.group).argv())
            if report.get("passed") is not True:
                raise SystemExit(f"refgen: saved system {path} does not verify")
            saved[r.group] = run.file_digest(path)
        print(f"{r.id} {builds[r.id]}", flush=True)
    missing = wanted - set(saved)
    if missing:
        raise SystemExit(f"refgen: no build request saves {sorted(missing)}")
    REFERENCES.write_text(
        json.dumps({"builds": builds, "systems": saved}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
