"""READ module: the recurrent controller (Eqs. 3 and 4).

The READ module embeds the question into the first read key, then for
each hop sends the key to MEM, receives the read vector and computes
``h = r + W_r k`` with a sequential |E|x|E| matvec. The recurrent path
(blue line in Fig. 1) is the loop feeding ``h`` back as the next key.
After the final hop, ``h`` goes to the OUTPUT module.
"""

from __future__ import annotations

import numpy as np

from repro.hw.fifo import Fifo
from repro.hw.kernel import Environment
from repro.hw.latency import LatencyParams
from repro.hw.modules.messages import (
    KeyMsg,
    QuestionMsg,
    ReadVectorMsg,
    SearchRequestMsg,
    StartExampleMsg,
)
from repro.mann.batch import _ForwardPass
from repro.mips.backend import inner_products


class ReadModule:
    """Generates read keys and runs the recurrent hop loop."""

    def __init__(
        self,
        env: Environment,
        latency: LatencyParams,
        forward: _ForwardPass,
        from_control: Fifo,
        key_out: Fifo,
        read_in: Fifo,
        to_output: Fifo,
    ):
        self.env = env
        self.latency = latency
        self.forward = forward
        self.from_control = from_control
        self.key_out = key_out
        self.read_in = read_in
        self.to_output = to_output
        self.busy_cycles = 0
        self.hops_run = 0
        self.trace_keys: list[np.ndarray] = []
        self.trace_reads: list[ReadVectorMsg] = []
        self.process = env.process(self._run(), name="READ")

    def _run(self):
        while True:
            msg = yield self.from_control.get()
            if msg is None:
                yield self.key_out.put(None)
                return
            start_msg, question = msg
            if not isinstance(start_msg, StartExampleMsg):
                raise TypeError(
                    f"expected StartExampleMsg, got {type(start_msg).__name__}"
                )
            if not isinstance(question, QuestionMsg):
                raise TypeError(
                    f"expected QuestionMsg, got {type(question).__name__}"
                )
            start = self.env.now
            self.trace_keys = []
            self.trace_reads = []

            # Eq. 3 (t = 1): embed the question into the first key.
            n_words = max(1, int(np.count_nonzero(question.word_indices)))
            yield self.env.timeout(self.latency.embed_question_cycles(n_words))
            key = self.forward.embed_questions(question.word_indices[None])[0]

            w_r_t = self.forward._w_r_t[0]
            h = key
            for hop in range(start_msg.hops):
                self.trace_keys.append(key)
                yield self.key_out.put(KeyMsg(hop, key))
                reply = yield self.read_in.get()
                if not isinstance(reply, ReadVectorMsg):
                    raise TypeError(
                        f"expected ReadVectorMsg, got {type(reply).__name__}"
                    )
                self.trace_reads.append(reply)
                # Eq. 4: sequential E-wide dots of W_r against the key,
                # then the elementwise add of the read vector.
                yield self.env.timeout(self.latency.controller_cycles())
                h = reply.read + inner_products(key[None], w_r_t)[0]
                key = h  # recurrent path (Eq. 3, t > 1)
                self.hops_run += 1

            yield self.to_output.put(SearchRequestMsg(h))
            self.busy_cycles += self.env.now - start
