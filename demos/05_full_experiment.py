"""End-to-end harness run: config -> trials -> CSV -> summary -> replay.

Every trial seed derives from the master seed, so rerunning the same config
writes a byte-identical CSV.  The same flow backs the `injectstream` CLI.
The CSVs go to a temporary directory that is removed at the end.
"""

import dataclasses
import pathlib
import tempfile

from injectstream import config_from_dict, run_experiment

with tempfile.TemporaryDirectory(prefix="injectstream_demo_") as tmp:
    workdir = pathlib.Path(tmp)

    submod = config_from_dict({
        "problem": "submod",
        "instance": {"kind": "decoy_front", "params": {"block": 5, "decoys_per_block": 3}},
        "adversary": {"strategy": "front"},
        "trials": 4,
        "perms": 25,
        "seed": 11,
        "k": 3,
        "mode": "exact",
        "out": str(workdir / "submod.csv"),
    })
    res = run_experiment(submod)
    print(f"submod: fingerprint {submod.fingerprint()}, exit {res.exit_code}")
    print(f"  {res.summary}")
    print(f"  csv: {res.csv_path}")
    head = pathlib.Path(res.csv_path).read_text().splitlines()
    for line in head[:3]:
        print(f"    {line}")

    first = pathlib.Path(res.csv_path).read_bytes()
    run_experiment(submod)
    again = pathlib.Path(res.csv_path).read_bytes()
    print(f"  replay byte-identical: {first == again}")

    matching = config_from_dict({
        "problem": "matching",
        "instance": {"kind": "greedy_trap", "params": {"s": 20}},
        "adversary": {"strategy": "front"},
        "trials": 3,
        "perms": 10,
        "seed": 5,
        "match_mode": "match",
        "out": str(workdir / "matching.csv"),
    })
    res = run_experiment(matching)
    print(f"matching: {res.summary}")

    greedy = dataclasses.replace(matching, match_mode="greedy",
                                 out=str(workdir / "greedy.csv"))
    res = run_experiment(greedy)
    print(f"greedy on the same streams: {res.summary}")
