"""Exact pins of object-path erase trajectories.

Every built-in scheme erases a small block population ~300 times
(100 erases at each of 0, 2.5K and 4.5K PEC) through
``EraseScheme.erase``. The per-erase outcome (latency, pulses, damage,
fail-bit trace, residual fail bits, segments) and every block's final
``WearState`` are hashed; the hashes were captured before the erase
ladder was optimized and must never move: the erase path may get
faster, but it may not draw or compute a single different number.
Floats enter the hash through ``float.hex``, so this is bit-identity,
not tolerance.
"""

import hashlib
import json

import pytest

from repro.errors import EraseFailure
from repro.nand.chip_types import TLC_3D_48L
from repro.rng import make_rng
from repro.schemes import make_scheme
from tests.conftest import make_block

PEC_POINTS = (0, 2500, 4500)
BLOCKS = 10
ERASES_PER_BLOCK = 10

#: (scheme key, mispredict_rate) -> SHA-256 of the trajectory.
PINNED = {
    ("baseline", 0.0):
        "2d2bcbef97ef07689248d1d09a05fc06e1e5ec18e426f1b377f78d186679af3a",
    ("iispe", 0.0):
        "45d44985ecf4d24f9500bd72c70ada3d8362771aed7cf1efd2690cd891cf90e8",
    ("dpes", 0.0):
        "7df707678098b5bb074deed3243740aac1b28d2cbceadcc9cc920fb523e1f559",
    ("mispe", 0.0):
        "c211523db915abe68acf00293efe9299edc07b0efb5a5f87589746a86b03b53a",
    ("aero_cons", 0.0):
        "55420acade9d5c89c5a3105b0092ee627e7054fd3463ddf85592230cc6e15712",
    ("aero", 0.0):
        "6c5271987ddb5f559c6220c537141da161560b53c618e000dc18735421727a97",
    ("aero", 0.2):
        "7650e4254cee8a9feae273968bfa3b196e56e7ee95d834c9469fef328adf5b35",
}


def _trajectory_hash(key: str, mispredict_rate: float) -> str:
    scheme = make_scheme(TLC_3D_48L, key, mispredict_rate=mispredict_rate)
    rng = make_rng(2024)
    records = []
    for pec in PEC_POINTS:
        blocks = [
            make_block(TLC_3D_48L, age_kilocycles=pec / 1000, seed=pec + 1,
                       index=index)
            for index in range(BLOCKS)
        ]
        for _ in range(ERASES_PER_BLOCK):
            for block in blocks:
                try:
                    result = scheme.erase(block, rng)
                except EraseFailure as failure:
                    records.append(["fail", failure.fail_bits, failure.loops])
                    continue
                records.append([
                    result.latency_us.hex(),
                    result.total_pulses,
                    result.damage.hex(),
                    list(result.fail_bit_trace),
                    result.residual_fail_bits,
                    result.loops,
                    [
                        [s.kind.value, s.duration_us.hex(), s.loop, s.pulses]
                        for s in result.segments
                    ],
                ])
        for block in blocks:
            wear = block.wear
            records.append([
                wear.age_kilocycles.hex(),
                wear.pec,
                wear.damage_total.hex(),
                wear.residual_fail_bits,
                wear.residual_nispe,
            ])
    text = json.dumps(records, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize(
    "key,mispredict_rate", sorted(PINNED), ids=lambda v: str(v)
)
def test_erase_trajectory_is_pinned(key, mispredict_rate):
    assert _trajectory_hash(key, mispredict_rate) == PINNED[
        (key, mispredict_rate)
    ]
