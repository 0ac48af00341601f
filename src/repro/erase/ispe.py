"""Baseline: the conventional Incremental Step Pulse Erasure scheme.

Every erase-pulse step runs the fixed, worst-case ``tEP`` (3.5 ms on
the paper's chips); on failure the voltage steps up by a fixed
``delta-V`` and the full-length pulse repeats (paper Section 3.2,
Figure 2). This is the scheme every compared technique is normalized
against.
"""

from __future__ import annotations

import numpy as np

from repro.erase.scheme import EraseOperationResult, EraseScheme
from repro.nand.block import Block
from repro.nand.erase_model import EraseState


class BaselineIspeScheme(EraseScheme):
    """Conventional ISPE with fixed per-loop erase-pulse latency."""

    name = "baseline"

    def batch_kernel(self):
        from repro.kernels.erase import BaselineBatchKernel

        return BaselineBatchKernel(self.profile)

    def _run(
        self,
        block: Block,
        state: EraseState,
        result: EraseOperationResult,
        rng: np.random.Generator,
    ) -> None:
        per_loop = self.profile.pulses_per_loop
        for loop in range(1, self.profile.max_loops + 1):
            fail_bits = self._ladder_step(state, result, rng, loop, per_loop)
            if state.passes(fail_bits):
                result.completed = True
                result.loops = loop
                return
        # The erase model caps required work at max_loops * pulses_per_loop,
        # so control only reaches here on a model violation; the base
        # class raises EraseFailure from the un-set ``completed`` flag.
        result.loops = self.profile.max_loops
