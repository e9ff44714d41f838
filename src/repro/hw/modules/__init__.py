"""The five hardware modules of the accelerator (Fig. 1).

Each module is an event-driven process on the :mod:`repro.hw.kernel`
environment, connected to its neighbours by bounded FIFOs. Cycle costs
come from :class:`repro.hw.latency.LatencyParams`; functional values
come from the batch inference engine's kernels run on one row
(:mod:`repro.mann.batch`), the code the golden trace and every served
answer run, so co-simulation is bit-exact.
"""

from repro.hw.modules.control import ControlModule
from repro.hw.modules.input_write import InputWriteModule
from repro.hw.modules.mem import MemModule
from repro.hw.modules.messages import (
    AnswerMsg,
    KeyMsg,
    MemoryRowMsg,
    QuestionMsg,
    ReadVectorMsg,
    SearchRequestMsg,
    SentenceMsg,
    StartExampleMsg,
)
from repro.hw.modules.output import OutputModule
from repro.hw.modules.read import ReadModule

__all__ = [
    "ControlModule",
    "InputWriteModule",
    "MemModule",
    "ReadModule",
    "OutputModule",
    "StartExampleMsg",
    "SentenceMsg",
    "QuestionMsg",
    "MemoryRowMsg",
    "KeyMsg",
    "ReadVectorMsg",
    "SearchRequestMsg",
    "AnswerMsg",
]
