"""Golden hashes of CLI outputs for fixed seeds.

Each digest is the SHA-256 of a file that a command writes.  A change in
any digest means a change in the numbers the package produces for that
seed: a change to the random streams, the models or the output format.
The ``run.json`` digests leave out its ``metadata`` member, which holds a
timestamp and elapsed times, and re-serialize the rest with ``indent=2``.

The digests hold for the stream versions in ``STREAMS``.  A change that
bumps a version re-pins the digests that change, which can only be those
of runs that draw from it: the SD and Monte-Carlo digests predate the
``abm`` version 2 step, and of the ABM digests only ``abm-exponential``
changed with ``network`` version 2.
"""

import hashlib
import json

import pytest

from sirvar.cli import main
from sirvar.io import STREAM_VERSIONS

from synthetic_reference import synthetic_reference_path

STREAMS = {"sd_mc": 1, "network": 2, "abm": 2}

ABM = ["run-abm", "--population", "2000", "--seed", "7"]

GOLDEN = [
    (["run-sd"], {
        "series.csv": "da04aab2bacd5eb1bf57d24b9620afd90184189cd529ca2fb9e7c40daf5cd8dd",
    }),
    (["run-mc", "--vary", "all", "--replicates", "20", "--seed", "7"], {
        "ensemble.csv": "56d3b5bde613fa980eecd3b93042c47a6fcdccb4e51dbb99184be77c36ad5d55",
        "summary.csv": "3dd78f7b473d7d9f5531c70a38b8a71157e829d69ba58653002db6bd73d720c1",
    }),
    ([*ABM, "--replicates", "4"], {
        "ensemble.csv": "f2a3e9788ea02453f95beb1f2c193723b2b0626c96fe02e43e943f982d574fb3",
        "summary.csv": "26cfae05e36a6658d6fd0d233b0a5919d7f0ad44d8016f864d9369204ac39070",
    }),
    ([*ABM, "--replicates", "6", "--reuse-network", "--initial-infected", "10",
      "--threads", "2"], {
        "ensemble.csv": "f9c236159d460ac9af8bc1de0b01895f24f3445617f7cfc8971c46d6aa7b8bcf",
        "summary.csv": "fefe4d4eb93a60503888dfc5477ea4238058bbcfd1a2d25db2abd6e0e7cafced",
    }),
    ([*ABM, "--replicates", "5", "--exponential-recovery", "--initial-infected", "10",
      "--contact-rate", "8"], {
        "ensemble.csv": "40e7f63ff6d3bafed0d823fa13fa63a7be21d7e4165dd1ebb267eb575c5b1a0c",
        "summary.csv": "0c48b3f66e6318ae527f37c383420f375c34be2221671e4f4d28cf1ab2339c79",
    }),
    # coarse steps and fast epidemics, where a reordered rounding in the RK4
    # step would show first
    (["run-sd", "--dt", "0.5", "--contact-rate", "20"], {
        "series.csv": "a02fb293d79a865520ddb81062621f4767fbf19a2bd850a4ff4f1a515123a641",
    }),
    (["run-sd", "--dt", "1", "--contact-rate", "40"], {
        "series.csv": "1422c568955818256a509299feadcd2d0eae77f45ea6e5808f13347288624895",
    }),
    (["run-mc", "--vary", "illness", "--sigma", "0.5", "--replicates", "50", "--seed", "3"], {
        "ensemble.csv": "dc17344ca59bd851322fbe320df0d56d30b0e8a701ae1778b093954b30c96074",
        "summary.csv": "826d5ae71793fd3d254c351c471a9c5640d4ff1d44df178006efb15b617eb16d",
    }),
]


def test_digests_are_pinned_for_the_current_stream_versions():
    assert STREAM_VERSIONS == STREAMS


@pytest.mark.parametrize("argv, digests", GOLDEN,
                         ids=["sd", "mc-all", "abm", "abm-shared-pool", "abm-exponential",
                              "sd-dt-0.5", "sd-dt-1", "mc-illness-wide"])
def test_outputs_match_golden_hashes(tmp_path, capsys, argv, digests):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


JSON_GOLDEN = [
    (["run-sd"], "1f2e4406b05242ff5781b2cc1e8719dc2f8a8366433a17063b05558252adcc96"),
    (["run-mc", "--vary", "all", "--replicates", "20", "--seed", "7"],
     "986e827901d5d786522d9ee167d5d5e689019d24bf664bb4ebcdcaf31ceffdf1"),
    ([*ABM, "--replicates", "4"],
     "525ba37aff065b0c99137978c21755229b7d8bec112632e53bc465df174f135f"),
]


@pytest.mark.parametrize("argv, digest", JSON_GOLDEN, ids=["sd", "mc-all", "abm"])
def test_json_outputs_match_golden_hashes(tmp_path, capsys, argv, digest):
    assert main([*argv, "--format", "json", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    del payload["metadata"]
    assert hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest() == digest


COMPARE_GOLDEN = {
    "report.csv": "9a91a3285ba88618f458b82744dde75fe33b18879d2c4baf4ecb668572f9d3ee",
    "report.txt": "bb366724411917cca11912a6df53e6a2c920832bc2a8012930d256644114db48",
}


def test_compare_report_matches_golden_hashes(tmp_path, capsys):
    runs = {"sd": GOLDEN[0][0], "mc": GOLDEN[1][0], "abm": GOLDEN[2][0]}
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
    assert main(["compare", "--reference", str(synthetic_reference_path()),
                 "--inputs", *(str(tmp_path / name) for name in runs),
                 "--out", str(tmp_path / "report")]) == 0
    capsys.readouterr()
    for name, digest in COMPARE_GOLDEN.items():
        assert hashlib.sha256((tmp_path / "report" / name).read_bytes()).hexdigest() == digest, name
