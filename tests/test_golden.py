"""Golden hashes of CLI outputs for fixed seeds.

Each digest is the SHA-256 of a file that a command writes.  A change in
any digest means a change in the numbers the package produces for that
seed: a change to the random streams, the models or the output format.
"""

import hashlib

import pytest

from sirvar.cli import main

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
]


@pytest.mark.parametrize("argv, digests", GOLDEN,
                         ids=["sd", "mc-all", "abm", "abm-shared-pool", "abm-exponential"])
def test_outputs_match_golden_hashes(tmp_path, capsys, argv, digests):
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
