"""INPUT & WRITE module: bag-of-words embedding and memory writes.

Implements Eq. 2: for each word index the module reads one |E|-wide
column of the embedding weights and accumulates it (emb_a and emb_c
lanes run in parallel hardware), adds the slot's temporal encoding and
ships the embedded row pair to the MEM module. Reading only the columns
named by the word indices is the paper's key efficiency argument for
this module.
"""

from __future__ import annotations

import numpy as np

from repro.hw.fifo import Fifo
from repro.hw.kernel import Environment
from repro.hw.latency import LatencyParams
from repro.hw.modules.messages import MemoryRowMsg, SentenceMsg
from repro.mann.batch import _ForwardPass


class InputWriteModule:
    """Embeds sentences arriving from CONTROL into memory rows."""

    def __init__(
        self,
        env: Environment,
        latency: LatencyParams,
        forward: _ForwardPass,
        from_control: Fifo,
        to_mem: Fifo,
    ):
        self.env = env
        self.latency = latency
        self.forward = forward
        self.from_control = from_control
        self.to_mem = to_mem
        self.busy_cycles = 0
        self.sentences_embedded = 0
        self.process = env.process(self._run(), name="INPUT&WRITE")

    def _run(self):
        while True:
            msg = yield self.from_control.get()
            if msg is None:  # shutdown sentinel
                yield self.to_mem.put(None)
                return
            if not isinstance(msg, SentenceMsg):
                raise TypeError(f"expected SentenceMsg, got {type(msg).__name__}")
            start = self.env.now
            n_words = max(1, int(np.count_nonzero(msg.word_indices)))
            # One embedding column per word through the accumulator,
            # then the accumulate register and temporal-encoding add.
            cycles = n_words * self.latency.mac_issue + 2 * self.latency.reg_latency
            yield self.env.timeout(cycles)
            # The batch engine's memory-row kernel on one sentence.
            row = self.forward.memory_rows(msg.word_indices[None], np.array([msg.slot]))
            row_a, row_c = np.split(row[0], 2)
            yield self.to_mem.put(MemoryRowMsg(msg.slot, row_a, row_c))
            self.sentences_embedded += 1
            self.busy_cycles += self.env.now - start
