"""Structure-of-arrays block state for the vectorized batch kernels.

:class:`BlockArrayState` is the batch counterpart of a list of
:class:`~repro.nand.block.Block` objects: one NumPy array per physical
quantity (process-variation ``base``/``rate`` draws, damage-normalized
wear age, P/E count, residual fail bits / NISPE from the last erase)
instead of one Python object per block. The batch erase kernels in
:mod:`repro.kernels.erase` advance every block of the array per step,
which is what turns the lifetime and characterization hot loops from
O(blocks) Python into a handful of vectorized operations.

The static half of that state lives in a :class:`BlockArrayPopulation`:
the read-only ``base``/``rate`` arrays and a *jitter matrix* whose
column ``k`` holds every block's ``k``-th erase-to-erase jitter draw.
Every scheme draws exactly one jitter value per block per erase, so
several states (the five schemes of a lifetime sweep) can share one
population, each reading the matrix at its own column cursor; the
lifetime simulator builds one population per ``(profile, seed,
block_count)`` and never builds ``Block`` objects on the kernel path.

Bit-compatibility: the population wraps the existing
:class:`~repro.nand.erase_model.BlockEraseModel` instances (same seed
derivation, same truncated-normal draws), and the matrix grows in
``_JITTER_CHUNK``-column chunks drawn from each model's own jitter
stream — NumPy ``Generator`` array fills consume the stream exactly
like repeated scalar draws, so the kernel path sees the same
required-pulse sequence as the object path. The wear-age update mirrors
:meth:`~repro.nand.erase_model.WearState.record_erase` term for term.
"""

from __future__ import annotations

import threading
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.nand.block import Block
from repro.nand.chip_types import ChipProfile
from repro.nand.erase_model import (
    ERASE_WEAR_SHARE,
    PROGRAM_WEAR_SHARE,
    BlockEraseModel,
)

#: Jitter-matrix columns drawn per growth step (one column per erase).
_JITTER_CHUNK = 64

#: Ladder headroom beyond ``max_loops`` covered by the damage lookup
#: table (i-ISPE may escalate past the datasheet budget).
_LOOP_HEADROOM = 4


class BlockArrayPopulation:
    """Static draws of a block population, as arrays, plus its jitter matrix.

    ``base``, ``rate`` and ``sensitivity`` are read-only, so any number
    of :class:`BlockArrayState` objects can share them. The jitter
    matrix grows on demand, one ``_JITTER_CHUNK``-column chunk at a
    time, under a lock (the schemes of a sweep may run on threads).

    A *shared* population keeps every column it has drawn, so each
    state reads the same sequence from column 0. A private one
    (``shared=False``) serves a single state that reads its columns in
    order, and keeps only the chunk holding the current column.
    """

    def __init__(
        self,
        profile: ChipProfile,
        models: Sequence[BlockEraseModel],
        shared: bool = True,
    ):
        if not models:
            raise ConfigError("block array needs at least one block")
        self.profile = profile
        self.shared = shared
        self._models: List[BlockEraseModel] = list(models)
        self.count = len(self._models)
        self.base = np.array([m.base for m in self._models], dtype=np.float64)
        self.rate = np.array([m.rate for m in self._models], dtype=np.float64)
        self.sensitivity = self.rate / profile.erase_work.rate_mean
        for array in (self.base, self.rate, self.sensitivity):
            array.setflags(write=False)
        #: Chunks of the jitter matrix, ``(_JITTER_CHUNK, count)`` each:
        #: row ``j`` of chunk ``c`` is column ``c * _JITTER_CHUNK + j``.
        self._chunks: List[np.ndarray] = []
        #: Leading chunks a private population has released.
        self._released = 0
        self._lock = threading.Lock()

    @property
    def columns(self) -> int:
        """Jitter-matrix columns drawn so far."""
        return (self._released + len(self._chunks)) * _JITTER_CHUNK

    @property
    def jitter_bytes(self) -> int:
        """Bytes the jitter matrix holds now (``count x columns x 8``)."""
        return sum(chunk.nbytes for chunk in self._chunks)

    def jitter_column(self, column: int) -> np.ndarray:
        """Every block's jitter draw for its ``column``-th erase (read-only).

        Block ``i``'s value is the ``column``-th draw of its model's
        jitter stream, i.e. what the ``column+1``-th
        ``required_pulses`` call on that model would add.
        """
        chunk, row = divmod(column, _JITTER_CHUNK)
        index = chunk - self._released
        chunks = self._chunks
        if index >= len(chunks):
            self._grow(chunk)
            index = chunk - self._released
            chunks = self._chunks
        if index < 0:
            raise ConfigError(
                f"jitter column {column} was released by this private "
                "population (columns must be read in order)"
            )
        return chunks[index][row]

    def _grow(self, chunk: int) -> None:
        with self._lock:
            while chunk - self._released >= len(self._chunks):
                block = np.stack(
                    [m.jitter_batch(_JITTER_CHUNK) for m in self._models],
                    axis=1,
                )
                block.setflags(write=False)
                if self.shared:
                    self._chunks.append(block)
                else:
                    self._released += len(self._chunks)
                    self._chunks = [block]


class BlockArrayState:
    """Per-block state of a block population, stored as arrays.

    Mutable wear quantities (``age``, ``pec``, ``damage_total``,
    ``residual_fail_bits``, ``residual_nispe``) advance through
    :meth:`record_erase`; the static process-variation draws
    (``base``, ``rate``, ``sensitivity``) are the population's
    read-only arrays.
    """

    def __init__(self, population: BlockArrayPopulation):
        profile = population.profile
        self.profile = profile
        self.population = population
        n = population.count
        self.count = n
        self.base = population.base
        self.rate = population.rate
        self.sensitivity = population.sensitivity
        self.age = np.zeros(n, dtype=np.float64)
        self.pec = np.zeros(n, dtype=np.int64)
        self.damage_total = np.zeros(n, dtype=np.float64)
        self.residual_fail_bits = np.zeros(n, dtype=np.int64)
        self.residual_nispe = np.ones(n, dtype=np.int64)
        points = profile.erase_work.floor_points
        self._floor_x = np.array([p[0] for p in points], dtype=np.float64)
        self._floor_y = np.array([p[1] for p in points], dtype=np.float64)
        max_loop = profile.max_loops + _LOOP_HEADROOM
        #: ``pulse_damage_lut[k]`` = damage of one pulse quantum in loop k.
        self.pulse_damage_lut = np.array(
            [0.0] + [profile.pulse_damage(k) for k in range(1, max_loop + 1)]
        )
        #: ``cum_loop_damage[k]`` = sum of pulse_damage over loops 1..k.
        self.cum_loop_damage = np.cumsum(self.pulse_damage_lut)
        #: Next jitter-matrix column this state reads.
        self._jitter_column = 0

    # --- construction ---------------------------------------------------------

    @classmethod
    def from_blocks(cls, blocks: Sequence[Block]) -> "BlockArrayState":
        """Mirror a list of ``Block`` objects, wear state included.

        The blocks' models go into a private population, which draws
        from their jitter streams where they stand.
        """
        if not blocks:
            raise ConfigError("block array needs at least one block")
        state = cls(BlockArrayPopulation(
            blocks[0].profile, [b.erase_model for b in blocks], shared=False
        ))
        state.age = np.array([b.wear.age_kilocycles for b in blocks])
        state.pec = np.array([b.wear.pec for b in blocks], dtype=np.int64)
        state.damage_total = np.array([b.wear.damage_total for b in blocks])
        state.residual_fail_bits = np.array(
            [b.wear.residual_fail_bits for b in blocks], dtype=np.int64
        )
        state.residual_nispe = np.array(
            [b.wear.residual_nispe for b in blocks], dtype=np.int64
        )
        return state

    # --- required erase work --------------------------------------------------

    def draw_jitter(self) -> np.ndarray:
        """One erase-to-erase jitter draw per block: the next matrix column.

        Block ``i`` sees exactly the sequence ``required_pulses`` on
        the corresponding :class:`BlockEraseModel` would have drawn.
        """
        column = self.population.jitter_column(self._jitter_column)
        self._jitter_column += 1
        return column

    def _floor_pulses(self, age: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`EraseWorkModel.floor_pulses` (same rounding)."""
        pec = np.rint(age * 1000.0)
        return np.interp(pec / 1000.0, self._floor_x, self._floor_y)

    def _pulses(self, jitter: np.ndarray | float) -> np.ndarray:
        work = self.profile.erase_work
        raw = self.base + self.rate * self.age ** work.pec_exponent + jitter
        bounded = np.maximum(raw, self._floor_pulses(self.age))
        clipped = np.clip(np.rint(bounded), 1, self.profile.max_pulses)
        return clipped.astype(np.int64)

    def required_pulses(self, jitter: np.ndarray | None = None) -> np.ndarray:
        """Sample each block's required pulses for one erase."""
        if jitter is None:
            jitter = self.draw_jitter()
        return self._pulses(jitter)

    def deterministic_pulses(self) -> np.ndarray:
        """Required pulses at the current wear, without operation jitter."""
        return self._pulses(0.0)

    def nispe(self) -> np.ndarray:
        """Loops a standard ISPE erase needs per block at current wear."""
        per_loop = self.profile.pulses_per_loop
        return (self.deterministic_pulses() + per_loop - 1) // per_loop

    def baseline_damage(self) -> np.ndarray:
        """Damage a Baseline ISPE erase would inflict per block."""
        loops = self.nispe()
        return self.profile.pulses_per_loop * self.cum_loop_damage[loops]

    # --- wear accounting ------------------------------------------------------

    def record_erase(
        self,
        damage: np.ndarray,
        residual_fail_bits: np.ndarray,
        nispe: np.ndarray,
        cycles: int = 1,
    ) -> None:
        """Account one batch erase (``cycles`` coarse-step cycles each).

        Mirrors :meth:`WearState.record_erase`: damage is normalized by
        the Baseline reference at the *pre-erase* wear age, so Baseline
        cycling ages every block by exactly one cycle per erase.
        """
        baseline = self.baseline_damage()
        ratio = np.where(baseline > 0, damage / baseline, 1.0)
        step = (PROGRAM_WEAR_SHARE + ERASE_WEAR_SHARE * ratio) / 1000.0
        self.age = self.age + step * cycles
        self.pec = self.pec + cycles
        self.damage_total = self.damage_total + damage * cycles
        self.residual_fail_bits = np.asarray(residual_fail_bits, dtype=np.int64)
        self.residual_nispe = np.asarray(nispe, dtype=np.int64)

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (
            f"BlockArrayState({self.profile.name}, blocks={self.count}, "
            f"mean_age={float(np.mean(self.age)):.3f}kc)"
        )
