"""MEM module: address memory (Eq. 1) and content memory (Eq. 5).

The address memory performs content-based addressing — an |E|-wide dot
product per slot streamed one slot per cycle through the multiplier
lanes and adder tree, followed by the pipelined exponential unit and a
divider stream for the softmax normalisation. The content memory then
accumulates the attention-weighted rows into the read vector. Softmax's
exp and division "cannot be parallelized on an FPGA" (Section III), so
both are modelled as element-wise sequential pipelines.
"""

from __future__ import annotations

import numpy as np

from repro.hw.fifo import Fifo
from repro.hw.kernel import Environment
from repro.hw.latency import LatencyParams
from repro.hw.modules.messages import KeyMsg, MemoryRowMsg, ReadVectorMsg
from repro.mann.batch import _ForwardPass


class MemModule:
    """Stores embedded rows and serves attention reads.

    The memories hold ``dtype``, the dtype of the forward pass whose
    kernels the module calls, so Eqs. 1 and 5 run in the weights' dtype
    as they do in the golden trace and the served engine.
    """

    def __init__(
        self,
        env: Environment,
        latency: LatencyParams,
        memory_size: int,
        from_write: Fifo,
        key_in: Fifo,
        read_out: Fifo,
        write_ack: Fifo | None = None,
        dtype: np.dtype = np.dtype(np.float64),
    ):
        self.env = env
        self.latency = latency
        self.memory_size = memory_size
        self.from_write = from_write
        self.key_in = key_in
        self.read_out = read_out
        self.write_ack = write_ack
        embed_dim = latency.embed_dim
        self.mem_a = np.zeros((memory_size, embed_dim), dtype=dtype)
        self.mem_c = np.zeros((memory_size, embed_dim), dtype=dtype)
        self.rows_valid = 0
        self.busy_cycles = 0
        self.reads_served = 0
        self.write_process = env.process(self._write_loop(), name="MEM.write")
        self.read_process = env.process(self._read_loop(), name="MEM.read")

    # -- write port ------------------------------------------------------
    def _write_loop(self):
        while True:
            msg = yield self.from_write.get()
            if msg is None:  # shutdown sentinel
                return
            if not isinstance(msg, MemoryRowMsg):
                raise TypeError(f"expected MemoryRowMsg, got {type(msg).__name__}")
            if not 0 <= msg.slot < self.memory_size:
                raise IndexError(
                    f"slot {msg.slot} outside memory of {self.memory_size}"
                )
            yield self.env.timeout(self.latency.memory_write_latency)
            self.mem_a[msg.slot] = msg.row_a
            self.mem_c[msg.slot] = msg.row_c
            self.rows_valid = max(self.rows_valid, msg.slot + 1)
            if self.write_ack is not None:
                yield self.write_ack.put(msg.slot)

    def reset_example(self) -> None:
        """Invalidate rows between examples (new story overwrites)."""
        self.rows_valid = 0

    # -- read port ---------------------------------------------------------
    def _read_loop(self):
        while True:
            msg = yield self.key_in.get()
            if msg is None:
                return
            if not isinstance(msg, KeyMsg):
                raise TypeError(f"expected KeyMsg, got {type(msg).__name__}")
            start = self.env.now
            n_slots = max(1, self.rows_valid)
            yield self.env.timeout(self.latency.addressing_cycles(n_slots))
            # The batch engine's Eq. 1 and Eq. 5 kernels on one row.
            valid = self.rows_valid
            scores, attention = _ForwardPass.attention(
                self.mem_a[None, :valid], msg.key[None], np.ones((1, valid), bool)
            )
            yield self.env.timeout(self.latency.content_read_cycles(n_slots))
            read = _ForwardPass.read_memory(attention, self.mem_c[None, :valid])
            yield self.read_out.put(
                ReadVectorMsg(msg.hop, read[0], scores[0], attention[0])
            )
            self.reads_served += 1
            self.busy_cycles += self.env.now - start
