"""Golden hashes of CLI outputs for fixed seeds.

Each digest is the SHA-256 of a file that a command writes.  A change in
any digest means a change in the numbers the package produces for that
seed: a change to the random streams, the models or the output format.
The ``run.json`` digests leave out its ``metadata`` member, which holds a
timestamp and elapsed times, and re-serialize the rest with ``indent=2``.
"""

import hashlib
import json

import pytest

from sirvar.cli import main
from sirvar.io import synthetic_reference_path

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
        "ensemble.csv": "41d047db299b669aa078fd8e7b1bd84d485bcaf174a621dbc9c1fcee426e88bd",
        "summary.csv": "329985497bfe53e03d9303b0cda368554c8ba129782f9e094448e071878c2d6e",
    }),
    ([*ABM, "--replicates", "6", "--reuse-network", "--initial-infected", "10",
      "--threads", "2"], {
        "ensemble.csv": "f4005ae4c7fd24e12d701ca139d1ec332d8a827fd381e788a3b18f03a9dfca01",
        "summary.csv": "8568095648a6770330aa8e5eab30f95539ec4986c8ba2fffc0fde0697e3441fc",
    }),
    ([*ABM, "--replicates", "5", "--exponential-recovery", "--initial-infected", "10",
      "--contact-rate", "8"], {
        "ensemble.csv": "ddce890d01c7b5fa6f6b18ce3a5c459fb191deae67b8dc04d59b3cccd589e416",
        "summary.csv": "37a26c63924c84e05407723ef577ac7e89637df64bdc4351d693db4999c68c37",
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
     "674e1fab62e00f13b119901d9bb554a935877e3b5ea024d8ca6b6642fdbcbf58"),
]


@pytest.mark.parametrize("argv, digest", JSON_GOLDEN, ids=["sd", "mc-all", "abm"])
def test_json_outputs_match_golden_hashes(tmp_path, capsys, argv, digest):
    assert main([*argv, "--format", "json", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    payload = json.loads((tmp_path / "run.json").read_text(encoding="utf-8"))
    del payload["metadata"]
    assert hashlib.sha256(json.dumps(payload, indent=2).encode()).hexdigest() == digest


COMPARE_GOLDEN = {
    "report.csv": "d86a54815f2247f0f5ccff7a920766d108fd0b117d37e3ccb3afa39294d75ecf",
    "report.txt": "06cfa5195b8edcbb93bb12c6d443688f569a7e8557fbe496e369cf89093d5ea4",
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
