"""Memory-augmented neural network (End-to-End Memory Network).

Implements the model of Section II of the paper: bag-of-words embedding
writes (Eq. 2), content-based addressing (Eq. 1), soft memory reads
(Eq. 5), the recurrent READ controller (Eqs. 3-4) and the output layer
(Eq. 6). Training runs on the :mod:`repro.nn` autograd; inference runs
one vectorised numpy forward pass (:class:`BatchInferenceEngine`), and
its one-row trace (:meth:`InferenceEngine.forward_trace`) records every
intermediate value so the hardware simulator can be co-simulated
against it.
"""

from repro.mann.batch import BatchInferenceEngine, BatchTrace
from repro.mann.config import MannConfig
from repro.mann.inference import InferenceEngine, InferenceTrace
from repro.mann.model import MemoryNetwork
from repro.mann.quantize import (
    QFormat,
    QuantizationReport,
    QuantizedWeights,
    accuracy_vs_bits,
    quantize_weights,
)
from repro.mann.trainer import Trainer, TrainResult, train_task_model
from repro.mann.weights import MannWeights

__all__ = [
    "MannConfig",
    "MemoryNetwork",
    "MannWeights",
    "InferenceEngine",
    "InferenceTrace",
    "BatchInferenceEngine",
    "BatchTrace",
    "Trainer",
    "TrainResult",
    "train_task_model",
    "QFormat",
    "QuantizationReport",
    "QuantizedWeights",
    "quantize_weights",
    "accuracy_vs_bits",
]
