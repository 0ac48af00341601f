"""Shared block populations of the lifetime kernel engine.

A :class:`~repro.kernels.BlockArrayPopulation` holds a block set's
read-only ``base``/``rate`` draws and a jitter matrix that several
:class:`~repro.kernels.BlockArrayState` objects read, each at its own
column cursor. Pinned here: the matrix columns are exactly each
model's successive jitter draws, sharing is read-only and thread-safe,
a private population (characterization's ``from_blocks``) keeps one
chunk, and the lifetime memo holds one key. The curve-level checks
(threaded vs serial sweeps, memo reuse across seeds) live in
``test_lifetime_pins.py``.
"""

import sys
import threading

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.kernels import BlockArrayPopulation, BlockArrayState
from repro.kernels.state import _JITTER_CHUNK
from repro.lifetime.simulator import lifetime_population
from repro.nand.block import Block
from repro.nand.chip_types import TLC_3D_48L
from repro.nand.erase_model import ERASE_JITTER_STD, BlockEraseModel
from repro.nand.geometry import BlockAddress
from repro.rng import derive


def _lifetime_blocks(profile, count, seed):
    return [
        Block(
            address=BlockAddress(0, 0, 0, index),
            profile=profile,
            pages=8,
            seed=derive(seed, "lifetime-block", index),
        )
        for index in range(count)
    ]


def _models(profile, count, seed):
    return [BlockEraseModel(profile, seed, "pop", i) for i in range(count)]


def test_population_jitter_columns_equal_model_draws():
    columns = 2 * _JITTER_CHUNK + 3  # crosses two growth steps
    population = BlockArrayPopulation(TLC_3D_48L, _models(TLC_3D_48L, 5, 3))
    pulses_mirror = _models(TLC_3D_48L, 5, 3)
    jitter_mirror = _models(TLC_3D_48L, 5, 3)
    state = BlockArrayState(population)
    for column in range(columns):
        expected = [
            ERASE_JITTER_STD * m._jitter_rng.standard_normal()
            for m in jitter_mirror
        ]
        np.testing.assert_array_equal(
            population.jitter_column(column), expected
        )
        assert state.required_pulses().tolist() == [
            m.required_pulses(0.0) for m in pulses_mirror
        ]
    assert population.columns == 3 * _JITTER_CHUNK
    assert population.jitter_bytes == 5 * population.columns * 8


def test_population_is_shared_read_only():
    population = BlockArrayPopulation(TLC_3D_48L, _models(TLC_3D_48L, 4, 8))
    first, second = BlockArrayState(population), BlockArrayState(population)
    ahead = [first.draw_jitter() for _ in range(_JITTER_CHUNK + 2)]
    behind = [second.draw_jitter() for _ in range(_JITTER_CHUNK + 2)]
    np.testing.assert_array_equal(ahead, behind)
    for array in (
        population.base, population.rate, population.sensitivity,
        first.base, first.rate, population.jitter_column(0),
    ):
        with pytest.raises(ValueError):
            array[0] = 1.0
    # Each state's wear is its own.
    first.age[0] = 1.0
    assert second.age[0] == 0.0


def test_private_population_keeps_one_chunk():
    state = BlockArrayState.from_blocks(_lifetime_blocks(TLC_3D_48L, 6, 4))
    population = state.population
    assert not population.shared
    for _ in range(3 * _JITTER_CHUNK + 1):
        state.draw_jitter()
    assert population.columns == 4 * _JITTER_CHUNK
    assert population.jitter_bytes == 6 * _JITTER_CHUNK * 8
    with pytest.raises(ConfigError):
        population.jitter_column(0)


def test_population_growth_under_thread_contention():
    columns = 3 * _JITTER_CHUNK + 5
    population = BlockArrayPopulation(TLC_3D_48L, _models(TLC_3D_48L, 6, 2))
    reference = BlockArrayPopulation(TLC_3D_48L, _models(TLC_3D_48L, 6, 2))
    expected = [reference.jitter_column(k) for k in range(columns)]
    seen = {}

    def read(worker):
        state = BlockArrayState(population)
        seen[worker] = [state.draw_jitter() for _ in range(columns)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=read, args=(w,)) for w in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    # A doubled growth step would draw extra chunks and shift columns.
    assert population.columns == reference.columns
    for worker in range(6):
        np.testing.assert_array_equal(seen[worker], expected)


def test_lifetime_population_memo_holds_one_key():
    first = lifetime_population(TLC_3D_48L, 21, 8)
    assert lifetime_population(TLC_3D_48L, 21, 8) is first
    other = lifetime_population(TLC_3D_48L, 22, 8)
    assert other is not first
    assert lifetime_population(TLC_3D_48L, 21, 8) is not first
    blocks = _lifetime_blocks(TLC_3D_48L, 8, 21)
    np.testing.assert_array_equal(
        first.base, [b.erase_model.base for b in blocks]
    )
    np.testing.assert_array_equal(
        first.rate, [b.erase_model.rate for b in blocks]
    )
