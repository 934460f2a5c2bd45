"""Golden digests: CLI CSVs and certificate output stay byte-identical.

Each case runs the CLI with a relative output path under INJECTSTREAM_OUT_DIR,
so the ``config_fp`` column does not depend on the temporary directory, and
pins the sha256 of what the command writes.  A digest changes only when an
output byte does; update one only together with a deliberate change to that
output.
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
        "acb800d4587dd7a9337d5d65a471e72bc144ad5991406ef6b384c6bb30ec217b",
    ),
    "submod-exact": (
        SUBMOD + ["--kind", "random", "--params", '{"n": 10, "universe": 16}',
                  "--adversary", "random", "--k", "3", "--mode", "exact", "--out"],
        "822cb3f59797b433a640a24f394c0baf80586ab9d699cb1c707bc19746777a5d",
    ),
    "submod-guess-auto": (
        SUBMOD + ["--kind", "random", "--params", '{"n": 10, "universe": 16}',
                  "--adversary", "spread", "--k", "3", "--mode", "bucketed",
                  "--guess", "auto", "--out"],
        "6f9b3a66892da196880cb58c0ffa9c0ffe5556dd75aaf8189cb81145ec0549ae",
    ),
    "submod-figure2-k3": (
        SUBMOD + ["--kind", "figure2", "--adversary", "back", "--k", "3",
                  "--mode", "exact", "--out"],
        "c250be53302a8e8c4a93112b4d95afd6106bee873ccdf95b1ada8522b1d748c7",
    ),
    "matching-greedy": (
        MATCHING + ["--kind", "greedy_trap", "--params", '{"s": 6}',
                    "--adversary", "front", "--mode", "greedy", "--out"],
        "6f96085b6df1332794d6d275201cccaa59164c6a7793960c57ab6c4648b54c20",
    ),
    "matching-match": (
        MATCHING + ["--kind", "greedy_trap", "--params", '{"s": 6}',
                    "--adversary", "random", "--mode", "match", "--out"],
        "cb6be407cd5090c13f8342b271eeda10e6a7d479c7589b99a413eb437392ac99",
    ),
    "matching-guessed": (
        MATCHING + ["--kind", "random_bipartite", "--params", '{"nl": 7, "nr": 7, "p": 0.4}',
                    "--adversary", "spread", "--mode", "guessed", "--out"],
        "0e66acf1a56b6d208ad89c5e7735ca0ab7088fab3e0afd71f24082a98947c90c",
    ),
    "recurrence-emit-float": (
        ["recurrence", "--t", "0.8", "--kmax", "300", "--emit"],
        "7cc12b5c71c932c040fc42637e5edbcb4e2686e60f067f4179348aadcb1dc7b8",
    ),
    "recurrence-emit-exact": (
        ["recurrence", "--t", "0.8", "--kmax", "60", "--mode", "exact", "--emit"],
        "afef31d6b3594cb9d4272ab60ca48c71b1431cdeb9fa0468efd60f8cb6ce05c1",
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
