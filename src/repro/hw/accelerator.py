"""Top-level accelerator: assembles Fig. 1 and runs QA workloads.

``MannAccelerator`` instantiates the five modules on a fresh
discrete-event environment, wires the FIFOs, streams encoded examples
through the host interface model and collects a full
:class:`AcceleratorReport`: predictions (co-simulated against the golden
engine), per-phase cycles, wall time at the configured frequency, energy
and average power.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.babi.dataset import EncodedBatch
from repro.hw.config import HwConfig
from repro.hw.energy import EnergyBreakdown, EnergyModel
from repro.hw.fifo import Fifo
from repro.hw.kernel import Environment
from repro.hw.modules import (
    ControlModule,
    InputWriteModule,
    MemModule,
    OutputModule,
    QuestionMsg,
    ReadModule,
    SentenceMsg,
    StartExampleMsg,
)
from repro.hw.opcounts import ExampleOpCounts, OpCounter
from repro.hw.pcie import HostInterface, TransferStats
from repro.hw.timing import CycleModel, PhaseCycles
from repro.mann.batch import _ForwardPass
from repro.mann.weights import MannWeights
from repro.mips.backend import MipsBackend, get_backend
from repro.mips.thresholding import ThresholdModel


@dataclass
class ExampleRun:
    """Result of one QA example on the accelerator."""

    prediction: int
    comparisons: int
    early_exit: bool
    cycles: int
    phases: PhaseCycles
    interface: TransferStats
    ops: ExampleOpCounts
    logit: float = float("nan")  # winning output score from the OUTPUT scan


@dataclass
class AcceleratorReport:
    """Aggregate result of a workload run."""

    config: HwConfig
    predictions: np.ndarray
    accuracy: float
    total_cycles: int
    phases: PhaseCycles
    compute_seconds: float
    interface_seconds: float
    wall_seconds: float
    energy: EnergyBreakdown
    average_power_w: float
    ops: ExampleOpCounts
    mean_comparisons: float
    early_exit_rate: float
    module_busy_cycles: dict[str, int] = field(default_factory=dict)
    examples: list[ExampleRun] = field(default_factory=list)

    @property
    def flops(self) -> int:
        return self.ops.flops

    @property
    def energy_joules(self) -> float:
        return self.energy.total

    def flops_per_kilojoule(self) -> float:
        return self.flops / (self.energy_joules / 1e3)


class MannAccelerator:
    """The FPGA accelerator of Fig. 1 as a cycle-level simulation."""

    def __init__(
        self,
        weights: MannWeights,
        config: HwConfig,
        threshold_model: ThresholdModel | None = None,
    ):
        if config.latency.embed_dim != weights.config.embed_dim:
            raise ValueError(
                f"latency embed_dim {config.latency.embed_dim} != model "
                f"embed_dim {weights.config.embed_dim}"
            )
        backend_cls = get_backend(config.output_backend)  # fail fast on unknown names
        needs_model = getattr(backend_cls, "requires_threshold_model", False)
        if needs_model and threshold_model is None:
            raise ValueError(
                f"the {config.output_backend!r} backend requires a fitted "
                "ThresholdModel"
            )
        self.weights = weights
        self.config = config
        self.threshold_model = threshold_model
        self.host = HostInterface(config.calibration)
        self.energy_model = EnergyModel(config.calibration)
        self.cycle_model = CycleModel(config.latency)
        self.op_counter = OpCounter(config.latency.embed_dim)

    # ------------------------------------------------------------------
    def _build_mips_engine(self) -> MipsBackend:
        """Instantiate the OUTPUT module's search engine via the
        ``repro.mips`` registry — any registered backend co-simulates."""
        return get_backend(self.config.output_backend).build(
            self.weights.w_o,
            threshold_model=self.threshold_model,
            rho=self.config.ith_rho,
            index_ordering=self.config.ith_index_ordering,
        )

    def _build_pipeline(self, env: Environment):
        """Instantiate modules and FIFOs on a fresh environment."""
        depth = self.config.fifo_depth
        lat = self.config.latency
        fifo_in = Fifo(env, depth, "FIFO_IN")
        fifo_out = Fifo(env, depth, "FIFO_OUT")
        to_write = Fifo(env, depth, "ctrl->write")
        to_read = Fifo(env, depth, "ctrl->read")
        write_to_mem = Fifo(env, depth, "write->mem")
        key_fifo = Fifo(env, 2, "read->mem")
        read_vec_fifo = Fifo(env, 2, "mem->read")
        search_fifo = Fifo(env, 2, "read->output")
        answer_fifo = Fifo(env, 2, "output->ctrl")
        # The write-commit acknowledgement is a credit counter in
        # hardware; it must hold one credit per memory slot or the MEM
        # write port can stall against a CONTROL module that is still
        # forwarding sentences (deadlock at small FIFO depths).
        ack_fifo = Fifo(
            env,
            max(depth, self.weights.config.memory_size),
            "mem->ctrl.ack",
        )

        # The modules run the batch engine's kernels on one row. Built
        # here rather than once in __init__, so each run reads the
        # weights as they are now.
        forward = _ForwardPass([self.weights])
        control = ControlModule(
            env, lat, fifo_in, fifo_out, to_write, to_read, answer_fifo, ack_fifo
        )
        input_write = InputWriteModule(env, lat, forward, to_write, write_to_mem)
        mem = MemModule(
            env,
            lat,
            self.weights.config.memory_size,
            write_to_mem,
            key_fifo,
            read_vec_fifo,
            ack_fifo,
            dtype=forward.dtype,
        )
        read = ReadModule(
            env, lat, forward, to_read, key_fifo, read_vec_fifo, search_fifo
        )
        output = OutputModule(
            env, lat, self._build_mips_engine(), search_fifo, answer_fifo
        )
        return fifo_in, fifo_out, control, input_write, mem, read, output

    # ------------------------------------------------------------------
    def run_example(
        self,
        env: Environment,
        fifo_in: Fifo,
        fifo_out: Fifo,
        mem: MemModule,
        story: np.ndarray,
        question: np.ndarray,
        n_sentences: int,
    ) -> tuple[int, int, bool, int, float]:
        """Stream one example; returns (label, comparisons, early, cycles, logit)."""
        mem.reset_example()
        start_cycle = env.now
        hops = self.weights.config.hops

        def host():
            yield fifo_in.put(StartExampleMsg(n_sentences, hops))
            for slot in range(n_sentences):
                yield fifo_in.put(SentenceMsg(slot, story[slot]))
            yield fifo_in.put(QuestionMsg(question))
            answer = yield fifo_out.get()
            return answer

        process = env.process(host(), name="HOST")
        env.run()
        answer = process.value
        return (
            answer.label,
            answer.comparisons,
            answer.early_exit,
            env.now - start_cycle,
            answer.logit,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        batch: EncodedBatch,
        include_model_transfer: bool = True,
        keep_examples: bool = False,
    ) -> AcceleratorReport:
        """Run a whole encoded batch through the event simulation."""
        env = Environment()
        fifo_in, fifo_out, control, input_write, mem, read, output = (
            self._build_pipeline(env)
        )

        total_interface = TransferStats()
        if include_model_transfer:
            total_interface += self.host.model_transfer(self.weights.nbytes())

        total_ops = ExampleOpCounts()
        total_phases = PhaseCycles()
        total_cycles = 0
        predictions = np.zeros(len(batch), dtype=np.int64)
        comparisons = np.zeros(len(batch), dtype=np.int64)
        early = np.zeros(len(batch), dtype=bool)
        examples: list[ExampleRun] = []

        for i in range(len(batch)):
            n_sentences = int(batch.story_lengths[i])
            story = batch.stories[i]
            question = batch.questions[i]
            label, n_cmp, early_exit, cycles, logit = self.run_example(
                env, fifo_in, fifo_out, mem, story, question, n_sentences
            )
            predictions[i] = label
            comparisons[i] = n_cmp
            early[i] = early_exit

            word_counts = [
                int(np.count_nonzero(story[s])) for s in range(n_sentences)
            ]
            question_words = int(np.count_nonzero(question))
            phases = self.cycle_model.example_cycles(
                word_counts, question_words, self.weights.config.hops, n_cmp
            )
            ops = self.op_counter.example(
                word_counts, question_words, self.weights.config.hops, n_cmp
            )
            stream_in = 2 + sum(word_counts) + question_words  # + control words
            transfer = self.host.example_transfer(stream_in, 1)

            total_phases = total_phases + phases
            total_ops = total_ops + ops
            total_cycles += cycles
            total_interface += transfer
            if keep_examples:
                examples.append(
                    ExampleRun(
                        label, n_cmp, early_exit, cycles, phases, transfer, ops, logit
                    )
                )

        compute_seconds = total_cycles * self.config.cycle_time_s
        wall_seconds = self.cycle_model.wall_time(
            total_cycles, total_interface.seconds, self.config
        )
        energy = self.energy_model.run_energy(
            total_ops,
            total_interface.energy_joules,
            wall_seconds,
            self.config.frequency_mhz,
        )
        answers = getattr(batch, "answers", None)
        accuracy = (
            float((predictions == answers).mean()) if answers is not None else 0.0
        )
        return AcceleratorReport(
            config=self.config,
            predictions=predictions,
            accuracy=accuracy,
            total_cycles=total_cycles,
            phases=total_phases,
            compute_seconds=compute_seconds,
            interface_seconds=total_interface.seconds,
            wall_seconds=wall_seconds,
            energy=energy,
            average_power_w=energy.average_power(wall_seconds),
            ops=total_ops,
            mean_comparisons=float(comparisons.mean()),
            early_exit_rate=float(early.mean()),
            module_busy_cycles={
                "CONTROL": control.busy_cycles,
                "INPUT&WRITE": input_write.busy_cycles,
                "MEM": mem.busy_cycles,
                "READ": read.busy_cycles,
                "OUTPUT": output.busy_cycles,
            },
            examples=examples,
        )
