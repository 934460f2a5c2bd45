"""Golden digests: CLI CSVs and certificate output stay byte-identical.

Each case runs the CLI with its output under a temporary INJECTSTREAM_OUT_DIR
and pins the sha256 of what the command writes.  The ``config_fp`` column
hashes every config value except the output path, so the digests do not
depend on where the file goes.  A digest changes only when an output byte
does; update one only together with a deliberate change to that output.
"""

import hashlib

import pytest

from injectstream.cli import main
from injectstream.harness import OUT_DIR_ENV

SUBMOD = ["submod", "run", "--trials", "2", "--perms", "4", "--seed", "3"]
MATCHING = ["matching", "run", "--trials", "2", "--perms", "4", "--seed", "3"]

#: case -> (argv without its output path, sha256 of the written CSV)
CSV_CASES = {
    "submod-bucketed": (
        SUBMOD + ["--kind", "decoy_front", "--params", '{"block": 6}',
                  "--adversary", "front", "--k", "3", "--mode", "bucketed",
                  "--delta", "0.1", "--out"],
        "d5a1cb71cd140c7cb435bbcdbd6cc2291db072fd13035e78e971f6713c03d2fe",
    ),
    "submod-exact": (
        SUBMOD + ["--kind", "random", "--params", '{"n": 10, "universe": 16}',
                  "--adversary", "random", "--k", "3", "--mode", "exact", "--out"],
        "0645019ffa9b6089d40a35f9da9ad9f3b62ea4c67eac06873f6eca9d655dabc0",
    ),
    "submod-guess-auto": (
        SUBMOD + ["--kind", "random", "--params", '{"n": 10, "universe": 16}',
                  "--adversary", "spread", "--k", "3", "--mode", "bucketed",
                  "--guess", "auto", "--out"],
        "0ff07e014ecfa2b5987d4b88d2a9d01f2b70b2cb69896825a6a4d28dd5c7ad62",
    ),
    "submod-figure2-k3": (
        SUBMOD + ["--kind", "figure2", "--adversary", "back", "--k", "3",
                  "--mode", "exact", "--out"],
        "88771c7ef8c0e578719b21cc32e07cbec64a7caa29acde19311f2b2f2d087311",
    ),
    "submod-readme-auto": (
        ["submod", "run", "--kind", "decoy_front", "--params", '{"block": 6}',
         "--adversary", "front", "--trials", "10", "--perms", "50", "--seed", "3",
         "--k", "3", "--mode", "bucketed", "--delta", "0.1", "--guess", "auto", "--out"],
        "2c5bf4da8c02e8fb4c91d4bc4fcb16ebc1f739e5c0fb2ad0ce8b559dcfa213b3",
    ),
    "matching-greedy": (
        MATCHING + ["--kind", "greedy_trap", "--params", '{"s": 6}',
                    "--adversary", "front", "--mode", "greedy", "--out"],
        "3ce5ebc768b22f0681566cf30c021a29493aa6b27eabbaa4d42388812bc615f5",
    ),
    "matching-match": (
        MATCHING + ["--kind", "greedy_trap", "--params", '{"s": 6}',
                    "--adversary", "random", "--mode", "match", "--out"],
        "84752cc7c75f54cde69fefa4150be628a557c34b8c0d91e6dbae97f4c72f3726",
    ),
    "matching-guessed": (
        MATCHING + ["--kind", "random_bipartite", "--params", '{"nl": 7, "nr": 7, "p": 0.4}',
                    "--adversary", "spread", "--mode", "guessed", "--out"],
        "f96494b0c93e317b8a8842397503f533a27461089960a26a93dd248ebc5b50ab",
    ),
    "recurrence-emit-float": (
        ["recurrence", "--t", "0.8", "--kmax", "300", "--emit"],
        "08453cd501e8bbc4695dd775dad358010878a34556773c85424b8fb0e1ee8c73",
    ),
    "recurrence-emit-exact": (
        ["recurrence", "--t", "0.8", "--kmax", "60", "--mode", "exact", "--emit"],
        "fd9c350ca7a7dcdded53d9515d7ee45307a63692b7f1ced25a94e46147514a0a",
    ),
}

#: case -> (argv, sha256 of stdout)
STDOUT_CASES = {
    "certify-exact": (
        ["recurrence", "--t", "0.8", "--mode", "exact", "--certify", "150",
         "--bound", "5506/10000"],
        "5ce4ae987c30be591a7be197ed2fca2564f405958cb4ccda787e916b565d6891",
    ),
    "certify-decimal-bound": (
        ["recurrence", "--t", "0.8", "--certify", "400", "--bound", "0.55"],
        "a8eb1e5cd27b468b5ff87a15fc7969c2daf85c837765765c0857055cb439a5a9",
    ),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def csv_digest(argv, out_dir) -> str:
    """Run one CSV case with its output under ``out_dir``; sha256 of the CSV."""
    assert main(argv + ["golden.csv"]) == 0
    return _sha256((out_dir / "golden.csv").read_bytes())


@pytest.mark.parametrize("case", CSV_CASES)
def test_cli_csv_digest(case, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    argv, expected = CSV_CASES[case]
    assert csv_digest(argv, tmp_path) == expected


@pytest.mark.parametrize("case", STDOUT_CASES)
def test_cli_stdout_digest(case, capsys):
    argv, expected = STDOUT_CASES[case]
    assert main(argv) == 0
    assert _sha256(capsys.readouterr().out.encode()) == expected
