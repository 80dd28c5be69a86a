"""Golden hashes of CLI outputs for fixed seeds.

Each digest is the SHA-256 of a file that a command writes.  A change in
any digest means a change in the numbers the package produces for that
seed: a change to the random streams, the models or the output format.

The digests hold for the stream versions in ``STREAMS``.  A change that
bumps a version re-pins the digests that change, which can only be those
of runs that draw from it: the SD and Monte-Carlo digests predate the
``abm`` version 2 step, of the ABM digests only ``abm-exponential``
changed with ``network`` version 2, ``abm`` version 3 changed every
ABM digest and the compare report, which reads an ABM run, and so did
``network`` version 3 and ``abm`` version 4.
"""

import hashlib

import pytest

from sirvar.cli import main
from sirvar.io import STREAM_VERSIONS

from synthetic_reference import synthetic_reference_path

STREAMS = {"sd_mc": 1, "network": 3, "abm": 4}

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
        "ensemble.csv": "e5772f6465dc51a98ce86fd22f7aef3b4816e429219969de6354089226c065f6",
        "summary.csv": "0ae9274d01ef775f1a003a3ee3aa9adccb41da94600b1f1151821b09f072b627",
    }),
    ([*ABM, "--replicates", "6", "--reuse-network", "--initial-infected", "10",
      "--threads", "2"], {
        "ensemble.csv": "1d7981e9b20da479717c94b650b16c1838d5a0376e68595db3c1beb122c005eb",
        "summary.csv": "84899c56ae5ff682725a0d26706051f895529b041699114c52b965d873073104",
    }),
    ([*ABM, "--replicates", "5", "--exponential-recovery", "--initial-infected", "10",
      "--contact-rate", "8"], {
        "ensemble.csv": "7cbbe95b6addce497a7873a50ae557f283609230bf617fd808c0d97bf636ae7f",
        "summary.csv": "8578902260d1187c7500be47dab928c295ac3ddaac64510ed9b93c32420a3314",
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


COMPARE_GOLDEN = {
    "report.csv": "b25c1ec581aa5d53544af2491ce44315ae03463609259f47b496f88c5e1c6df5",
    "report.txt": "24b4e8c88c640cae98d473091d6036ff5fea096fc6f973adf004287a099a09a7",
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
