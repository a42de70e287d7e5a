"""The Disaggregator: receiver-side merge (Section V-C, Figure 7b).

Given an aggregated payload and the stale cache line resident in the giant
cache, the Disaggregator reconstructs updated values by the paper's
three-step logic: (1) reset the low ``dirty_bytes`` bytes of each stale
word, (2) shift each payload chunk to its word position, (3) OR the two.
This costs one extra DRAM read (fetch the stale line) and one write (store
the merged line) per updated line, which :mod:`repro.memsim.dram`
quantifies.
"""

from __future__ import annotations

import numpy as np

from repro.dba.aggregator import WORDS_PER_LINE
from repro.dba.registers import DBARegister
from repro.utils.bits import float32_to_words, low_byte_mask, words_to_float32
from repro.utils.units import NS

__all__ = ["Disaggregator"]

#: ASIC-scaled Disaggregator latency per 64-byte line (Section VIII-D).
DISAGGREGATOR_LATENCY = 1.126 * NS


class Disaggregator:
    """Accelerator-side CXL-module logic merging payloads into lines."""

    def __init__(self, register: DBARegister | None = None):
        self.register = register or DBARegister()
        self.lines_merged = 0
        #: Extra giant-cache DRAM reads performed for merging.
        self.extra_reads = 0

    @property
    def latency(self) -> float:
        """Per-line processing latency (0 when bypassed)."""
        return DISAGGREGATOR_LATENCY if self.register.enabled else 0.0

    def configure(self, register: DBARegister) -> None:
        """Receive the DBA-register value from the CXL host agent."""
        self.register = register

    def _validated(
        self, stale_lines: np.ndarray, payload: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        stale_lines = np.ascontiguousarray(stale_lines, dtype=np.float32)
        if stale_lines.ndim != 2 or stale_lines.shape[1] != WORDS_PER_LINE:
            raise ValueError(
                f"expected (n, {WORDS_PER_LINE}) float32, got {stale_lines.shape}"
            )
        n = self.register.effective_dirty_bytes
        expected = (stale_lines.shape[0], WORDS_PER_LINE * n)
        payload = np.asarray(payload, dtype=np.uint8)
        if payload.shape != expected:
            raise ValueError(
                f"payload shape {payload.shape} != expected {expected}"
            )
        return stale_lines, payload, n

    def merge_lines(
        self, stale_lines: np.ndarray, payload: np.ndarray
    ) -> np.ndarray:
        """Merge wire payloads into stale lines (vectorized fast path).

        The payload is scattered into the low byte lanes of a zeroed
        little-endian byte grid with one strided copy and reinterpreted as
        words — no per-byte shift/OR passes.  Bit-identical to
        :meth:`merge_lines_scalar`, the per-word reference.

        Parameters
        ----------
        stale_lines
            FP32 array ``(n_lines, 16)``: the old copies in the giant cache.
        payload
            ``uint8`` array ``(n_lines, 16 * dirty_bytes)`` as produced by
            :meth:`repro.dba.aggregator.Aggregator.pack_lines`.

        Returns
        -------
        numpy.ndarray
            Reconstructed FP32 lines ``(n_lines, 16)``.
        """
        stale_lines, payload, n = self._validated(stale_lines, payload)
        rows = stale_lines.shape[0]
        lanes = np.zeros((rows, WORDS_PER_LINE, 4), dtype=np.uint8)
        lanes[:, :, :n] = payload.reshape(rows, WORDS_PER_LINE, n)
        # "<u4" makes byte lane j the (8j)-shifted byte on any host.
        fresh_low = lanes.view("<u4")[:, :, 0].astype(np.uint32, copy=False)
        mask = low_byte_mask(n)
        stale_words = float32_to_words(stale_lines)
        merged = (stale_words & ~mask) | (fresh_low & mask)
        self.lines_merged += rows
        self.extra_reads += rows if self.register.enabled else 0
        return words_to_float32(merged.astype(np.uint32))

    def merge_lines_scalar(
        self, stale_lines: np.ndarray, payload: np.ndarray
    ) -> np.ndarray:
        """Reference merge: one Python iteration per FP32 word.

        The literal transcription of the paper's three-step reset/shift/OR
        logic; :meth:`merge_lines` must reproduce it bit-for-bit.  Counters
        advance exactly as in the fast path.
        """
        stale_lines, payload, n = self._validated(stale_lines, payload)
        rows = stale_lines.shape[0]
        chunks = payload.reshape(rows, WORDS_PER_LINE, n)
        mask = int(low_byte_mask(n))
        stale_words = float32_to_words(stale_lines)
        merged = np.empty((rows, WORDS_PER_LINE), dtype=np.uint32)
        for i in range(rows):
            for j in range(WORDS_PER_LINE):
                low = 0
                for b in range(n):
                    low |= int(chunks[i, j, b]) << (8 * b)
                merged[i, j] = (int(stale_words[i, j]) & ~mask & 0xFFFFFFFF) | (
                    low & mask
                )
        self.lines_merged += rows
        self.extra_reads += rows if self.register.enabled else 0
        return words_to_float32(merged)

    def merge_tensor(
        self, stale: np.ndarray, payload: np.ndarray
    ) -> np.ndarray:
        """Merge into a flat FP32 tensor (inverse of ``pack_tensor``)."""
        flat = np.ascontiguousarray(stale, dtype=np.float32).reshape(-1)
        rem = (-flat.size) % WORDS_PER_LINE
        padded = (
            np.concatenate([flat, np.zeros(rem, dtype=np.float32)])
            if rem
            else flat
        )
        merged = self.merge_lines(
            padded.reshape(-1, WORDS_PER_LINE), payload
        ).reshape(-1)
        return merged[: flat.size].reshape(stale.shape)

    def unpack(self, stale: np.ndarray, payload: np.ndarray) -> np.ndarray:
        """The tensor-level inverse of
        :meth:`repro.dba.aggregator.Aggregator.pack_tensor` — alias of
        :meth:`merge_tensor`, named for the pack/unpack pair the batch
        API exposes."""
        return self.merge_tensor(stale, payload)
