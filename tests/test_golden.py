"""Output bytes pinned: the sha256 of the JSON and the CSV document of every
criterion 9 config and of the four benchmark workloads' configs at seed 1.

A change that moves one float's last bit, or one byte of the writer's text,
fails here.  The digests were taken with numpy 2.4 on OpenBLAS; a numpy or
BLAS build that rounds a matmul differently gives other bits.
"""

import hashlib
import math

import pytest

from qteleport import load_config, run_campaign, to_csv_text, to_json_text
from qteleport.selftest import DETERMINISTIC_DOCS

# The benchmark's workload configs at seed 1, as perfbench/workloads.py builds them.
WORKLOADS = {
    "mc_qutrit": {
        "kind": "montecarlo", "seed": 1, "trials": 2500, "d": 3, "m": 1, "n": 2,
        "format": "csv", "coeffs": [math.sqrt(1.5), 1.0, math.sqrt(0.5)], "beta": "random:1",
    },
    "mc_wide": {
        "kind": "montecarlo", "seed": 1, "trials": 120, "d": 2, "m": 10, "n": 0,
        "format": "json", "coeffs": [math.sqrt(1.06), math.sqrt(0.94)], "beta": "random:1",
    },
    "decoy_qudit": {
        "kind": "decoy", "seed": 1, "trials": 25000, "d": 5, "eve": "random_basis_resend",
        "format": "json",
    },
    "oracle_sweep": {
        "kind": "sweep", "seed": 1, "trials": 18, "format": "json",
        "sweep": {"d": [2, 3, 4], "m": [1, 2], "n": [0, 1, 2]},
    },
}

# name -> (sha256 of the JSON document, sha256 of the CSV document)
DIGESTS = {
    "montecarlo": (
        "283835eee8ea33847fe643c74c6138734c56bf03c04352488e1eccdfdb78a007",
        "824935257c1bb2cfc89fa909e79f1f0db5659584bd50356dca1574e179c06d45",
    ),
    "enumerate": (
        "5b178490fa7748e31b234ef1c9b2224fa363c4318dcb278d77997a7a0be5b9d1",
        "9da3bb32bcc5bd0bd673034d7242309ce082f603858ddc1b5dd9e07ebfa576a7",
    ),
    "decoy": (
        "475c6f5a69bf80660ca0da865c1027455e0ade4835517fbe2aad9f179781351f",
        "4356fbcdd9b8178871c65450759b97746e03c5eb35225e756f5bb9d05bf9c93b",
    ),
    "sweep": (
        "027bdf3510a193703a2296d45871e883bea18b8576a27817b7ccfe15ab58e21c",
        "78dbf3b4b2931bdca888194e9ed9c448af235a55b3ec8e8d292332bde2a2f9ad",
    ),
    "mc_qutrit": (
        "15f359e3555ecf20bfa3312cccf07c2e486d375eab52f8b28719c5c9e538e07f",
        "45e7d71520c10ec1a90f4ffb842bc79e1211e1224da50c7ec0537a2d65dcd2b4",
    ),
    "mc_wide": (
        "5f462b7d3d5976783c7d689fdb70f30946c119ed7c2dc6b87cb333e7472033e4",
        "12519020e7150f0ad8eb56481349e5c9da3b4516b5a1292ab4d55823e7c70740",
    ),
    "decoy_qudit": (
        "7a5d41e9b3bb3189c867e538d17abbb33bff697d8086c72b835c86d4a59b4aad",
        "ba0ee49fec1a84a3732616aadd110ef7b982fe23131b0db7e99b08a329de1f2d",
    ),
    "oracle_sweep": (
        "7bc7a6be96a130c14a0bf239476da31b02a2c889fa7a2f34aa0e188b01b1b3bb",
        "056a104af353e5558ab0cc85c0823c4a606b96c81c50c69a8f5f48eac035ab5c",
    ),
}

CONFIGS = {doc["kind"]: doc for doc in DETERMINISTIC_DOCS} | WORKLOADS


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_every_config_has_its_digests():
    assert len(DETERMINISTIC_DOCS) == 4 and CONFIGS.keys() == DIGESTS.keys()


@pytest.mark.parametrize("name", DIGESTS)
def test_output_bytes_are_pinned(name):
    record = run_campaign(load_config(dict(CONFIGS[name])))
    assert (_sha256(to_json_text(record)), _sha256(to_csv_text(record))) == DIGESTS[name]
