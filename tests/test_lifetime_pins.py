"""Exact pins of lifetime curves on both engines.

Each case cycles a block set to failure through
:class:`~repro.lifetime.simulator.LifetimeSimulator` and hashes the
curve's JSON form (``LifetimeCurve.to_json_dict``; floats enter through
``float.hex``). The hashes were captured before the kernel path started
sharing one block population across schemes, and must not move: the
lifetime sweep may get faster, but every curve must stay bit-identical,
including the aero/aero_cons kernel curves, whose equivalence with the
object path is only statistical.

The kernel engine shares one memoized block population across the
schemes of a sweep; the sweep tests below check that sharing changes
nothing whether the schemes run on threads or one after another, and
whatever key the memo held before.
"""

import hashlib
import json

import pytest

from repro.harness import ThreadExecutor
from repro.lifetime import LifetimeSimulator, compare_schemes
from repro.lifetime.simulator import lifetime_population
from repro.nand.chip_types import TLC_3D_48L

FIVE_SCHEMES = ("baseline", "iispe", "dpes", "aero_cons", "aero")

#: Kernel sweep: 128 blocks, step 50, default max PEC.
KERNEL_KWARGS = dict(block_count=128, step=50)
#: Object sweep: small, since the object path is ~50x slower.
OBJECT_KWARGS = dict(block_count=24, step=100, seed=3)

#: (engine, scheme key, seed, mispredict_rate) -> SHA-256 of the curve.
PINNED = {
    ("kernel", "baseline", 1, 0.0):
        "885b1cf2b3679e548d186b7d77606fc97a00d0ecf37c9c4ce5ace76485fd875b",
    ("kernel", "iispe", 1, 0.0):
        "45362a0ecd09eac924f2bc80052902bca4e77c9fb6e1ac7062e75fdb6b26cc92",
    ("kernel", "dpes", 1, 0.0):
        "4e020ad6bbd052bc70ccd028f26f568669be7b1ebafae4c2bd79a2acf27b826b",
    ("kernel", "aero_cons", 1, 0.0):
        "caadb203d74b6f43febcc0040b6f15a73a974d4c0457e0a23370a8d8d16a8936",
    ("kernel", "aero", 1, 0.0):
        "31d6d2442de964da414d53043998d6e0f1c43f704b9b3804eb9af730970b6b98",
    ("kernel", "baseline", 2, 0.0):
        "ec2a6f498d53025bba04981352085c86316ee5bb958acf9d53a153159094b666",
    ("kernel", "iispe", 2, 0.0):
        "34e632babc9b4a6693fcb518f4e653e792054c0523b79847bb316dbb914cc5ff",
    ("kernel", "dpes", 2, 0.0):
        "27d9ce1394a136a687b20ea5f9b1dd427833667737ca8ae790d482356742afd1",
    ("kernel", "aero_cons", 2, 0.0):
        "6c20d17e7465a25620b2c6d1220fecc661732ac4ba458ef6af8331dbdc1924b2",
    ("kernel", "aero", 2, 0.0):
        "3bce6cee6e1b8eda7614e65f363d8ddcf575c7f865771127c27c2680d8fc250f",
    ("kernel", "mispe", 1, 0.0):
        "9cae7137820433cc136ec5a49ddaac1e701f0e2b23a2111a28dc322314930e5a",
    ("kernel", "aero", 1, 0.2):
        "87a1475d8d3a2afa63773769b03512175a8a33a38ac2b1cefc2368920285882a",
    ("object", "baseline", 3, 0.0):
        "58517eedc8ef9d3ec08f1e2e9e48048b53490ad6af095f631bd01f9781a5ef8e",
    ("object", "iispe", 3, 0.0):
        "498a5f827212a2b5f9213f527d61c0561cecaacb49721813e70cd83327b5aa1a",
    ("object", "dpes", 3, 0.0):
        "fbab84c838e23f98dd6cac5fb3b85b1565b4d51fd47703f99f24221bd4d612c3",
    ("object", "aero_cons", 3, 0.0):
        "d498b31b91e6513969e2896110e0159c1dc52910b5a76b76608c050458ceffff",
    ("object", "aero", 3, 0.0):
        "7951ec0ba42fae00ac2d93f3cd7c290730ef3d9920d39cbbbce99448c7ecbe3a",
}


def curve_hash(curve) -> str:
    """SHA-256 of a curve's JSON form, floats as ``float.hex``."""
    data = curve.to_json_dict()
    data["avg_mrber"] = [value.hex() for value in data["avg_mrber"]]
    data["requirement"] = data["requirement"].hex()
    encoded = json.dumps(data, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


def run_curve(engine: str, key: str, seed: int, mispredict_rate: float):
    kwargs = dict(KERNEL_KWARGS if engine == "kernel" else OBJECT_KWARGS)
    kwargs["seed"] = seed
    return LifetimeSimulator(
        TLC_3D_48L, key, engine=engine, mispredict_rate=mispredict_rate,
        **kwargs,
    ).run()


@pytest.mark.parametrize(
    "case", sorted(PINNED), ids=lambda case: "-".join(map(str, case))
)
def test_lifetime_curve_is_pinned(case):
    curve = run_curve(*case)
    assert curve.lifetime_pec is not None
    assert curve_hash(curve) == PINNED[case]


def kernel_sweep(seed: int, executor=None):
    comparison = compare_schemes(
        TLC_3D_48L, scheme_keys=FIVE_SCHEMES, seed=seed, engine="kernel",
        executor=executor, **KERNEL_KWARGS,
    )
    return {key: curve_hash(curve) for key, curve in comparison.curves.items()}


def pinned_sweep(seed: int):
    return {key: PINNED[("kernel", key, seed, 0.0)] for key in FIVE_SCHEMES}


def test_threaded_sweep_equals_serial_sweep():
    # Evict the memo, so the threads race to build and grow it.
    lifetime_population(TLC_3D_48L, 0, 1)
    threaded = kernel_sweep(2, ThreadExecutor(2))
    assert threaded == kernel_sweep(2) == pinned_sweep(2)


def test_population_memo_does_not_leak_across_seeds():
    for seed in (1, 2, 1):
        assert kernel_sweep(seed) == pinned_sweep(seed)
