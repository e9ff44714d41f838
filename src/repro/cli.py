"""Command-line interface: ``python -m repro <command> [options]``.

Experiment subcommands regenerate the paper's tables and figures;
serving subcommands train once, persist the models and answer queries
from the saved artifacts:

    python -m repro table1 --tasks 1 2 3 --n-test 40
    python -m repro fig3
    python -m repro fig4
    python -m repro ablation
    python -m repro mips --mips-backend threshold   # MIPS backend eval
    python -m repro sweep --kind frequency          # design-space sweeps
    python -m repro resources
    python -m repro tasks           # list the 20 bAbI task generators

    python -m repro train --save artifacts/         # train + persist
    python -m repro train --save artifacts/ --quantize 3 8   # + fixed point
    python -m repro query --artifacts artifacts/ --task 1 [--quantized]
    python -m repro serve-bench --artifacts artifacts/ --tasks 1 6

Every suite-based experiment accepts ``--artifacts DIR`` to reuse a
directory written by ``train --save`` instead of retraining.

``serve-bench`` drives the multi-task serving runtime: one
``ModelRouter`` holding a predictor per task behind a single scheduler
whose flushes run inline, same-shaped routes answered with one engine
call. It reports one-at-a-time vs scheduler throughput (plus an
``AsyncFrontend`` pass with ``--async``) and per-route traffic.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from repro.babi.tasks import TASK_NAMES, all_task_ids
from repro.eval.experiments import (
    run_fig3,
    run_fig4,
    run_interface_ablation,
    run_table1,
)
from repro.eval.suite import BabiSuite, SuiteConfig
from repro.hw import HwConfig, estimate_resources
from repro.mann.config import MannConfig
from repro.mips import available_backends
from repro.utils.tables import TextTable

#: Single source of truth for the CLI's suite-building defaults: the
#: :class:`SuiteConfig` dataclass itself.
_SUITE_DEFAULTS = SuiteConfig()

_EPILOG = (
    "subcommands: "
    "table1, fig3, fig4, ablation, mips, sweep, resources, tasks, "
    "train, query, serve-bench. "
    "Suite-based commands accept --artifacts DIR (from `train --save DIR`) "
    "to skip retraining. "
    "Serving: `train --quantize M N` persists fixed-point weights that "
    "`query --quantized` serves; `serve-bench --tasks ...` routes a "
    "mixed-task request stream through one router and scheduler. "
    "`--cache-entries N --zipf S` adds a per-route "
    "story-encoding cache and a zipf-skewed replay mix to measure "
    "hit-rate vs throughput."
)


def _add_suite_arguments(
    parser: argparse.ArgumentParser, artifacts: bool = True
) -> None:
    parser.add_argument(
        "--tasks",
        type=int,
        nargs="+",
        default=None,
        help="bAbI task ids (default: all 20, or every task in --artifacts)",
    )
    parser.add_argument("--n-train", type=int, default=_SUITE_DEFAULTS.n_train)
    parser.add_argument("--n-test", type=int, default=_SUITE_DEFAULTS.n_test)
    parser.add_argument("--epochs", type=int, default=_SUITE_DEFAULTS.epochs)
    parser.add_argument("--seed", type=int, default=_SUITE_DEFAULTS.seed)
    if artifacts:  # `train` always trains, so it takes no --artifacts
        parser.add_argument(
            "--artifacts",
            default=None,
            metavar="DIR",
            help="load a suite saved with `repro train --save DIR` instead of "
            "training (ignores --n-train/--n-test/--epochs/--seed)",
        )


def _build_suite(args: argparse.Namespace) -> BabiSuite:
    tasks = tuple(args.tasks) if args.tasks else tuple(all_task_ids())
    print(
        f"building suite: {len(tasks)} tasks, "
        f"{args.n_train} train / {args.n_test} test examples each ...",
        file=sys.stderr,
    )
    return BabiSuite.build(
        SuiteConfig(
            task_ids=tasks,
            n_train=args.n_train,
            n_test=args.n_test,
            epochs=args.epochs,
            seed=args.seed,
        )
    )


def _obtain_suite(args: argparse.Namespace) -> BabiSuite:
    """Load the suite from ``--artifacts`` or train it from scratch."""
    if args.artifacts is None:
        return _build_suite(args)
    from repro.artifacts import load_suite

    print(f"loading suite artifacts from {args.artifacts} ...", file=sys.stderr)
    suite = load_suite(args.artifacts)
    if args.tasks:
        missing = set(args.tasks) - set(suite.tasks)
        if missing:
            raise SystemExit(
                f"tasks {sorted(missing)} not in {args.artifacts} "
                f"(available: {suite.task_ids})"
            )
        suite.tasks = {task_id: suite.tasks[task_id] for task_id in args.tasks}
        # Keep the suite self-describing: config must list exactly the
        # tasks the subset holds (a later suite.save relies on it).
        suite.config = dataclasses.replace(
            suite.config, task_ids=tuple(args.tasks)
        )
    return suite


def _cmd_table1(args: argparse.Namespace) -> None:
    result = run_table1(_obtain_suite(args))
    print(result.to_table().render())
    print("\nITH inference-time reduction:")
    for mhz in result.frequencies:
        print(f"  {mhz:5.0f} MHz: {100 * result.ith_time_reduction(mhz):5.1f}%")


def _cmd_fig3(args: argparse.Namespace) -> None:
    print(run_fig3(_obtain_suite(args)).to_table().render())


def _cmd_fig4(args: argparse.Namespace) -> None:
    print(run_fig4(_obtain_suite(args)).to_table().render())


def _cmd_ablation(args: argparse.Namespace) -> None:
    print(run_interface_ablation(_obtain_suite(args)).to_table().render())


def _cmd_mips(args: argparse.Namespace) -> None:
    """Evaluate registered MIPS backends on the suite's test queries."""
    from repro.eval.backends import evaluate_mips_backends

    suite = _obtain_suite(args)
    names = (
        list(available_backends())
        if args.mips_backend == "all"
        else [args.mips_backend]
    )
    table = TextTable(
        [
            "backend",
            "agreement w/ exact",
            "label accuracy",
            "mean comparisons",
            "early-exit rate",
        ],
        title="MIPS backends on identical trained-model queries",
    )
    for row in evaluate_mips_backends(suite, names, rho=args.rho, seed=args.seed):
        table.add_row(
            [
                row.backend,
                f"{row.agreement_with_exact:.3f}",
                f"{row.label_accuracy:.3f}",
                f"{row.mean_comparisons:.1f}",
                f"{row.early_exit_rate:.3f}",
            ]
        )
    print(table.render())


# ---------------------------------------------------------------------------
# serving verbs
# ---------------------------------------------------------------------------
def _cmd_train(args: argparse.Namespace) -> None:
    """Train the suite and persist it as a serving artifact directory."""
    from repro.artifacts import save_suite

    qformat = None
    if args.quantize is not None:
        from repro.mann.quantize import QFormat

        qformat = QFormat(args.quantize[0], args.quantize[1])
    suite = _build_suite(args)
    save_suite(suite, args.save, qformat=qformat)
    title = f"Trained suite saved to {args.save}"
    if qformat is not None:
        title += f" (with {qformat} fixed-point snapshot)"
    table = TextTable(["task", "test accuracy", "epochs"], title=title)
    for task_id in suite.task_ids:
        system = suite.tasks[task_id]
        table.add_row(
            [
                str(task_id),
                f"{system.test_accuracy:.3f}",
                str(system.train_result.epochs_run),
            ]
        )
    print(table.render())
    print(f"mean test accuracy: {suite.mean_test_accuracy():.3f}")
    print(f"reload with: python -m repro table1 --artifacts {args.save}")


def _cmd_query(args: argparse.Namespace) -> None:
    """Answer test-set queries through the unified Predictor facade."""
    from repro.serving import QueryRequest, open_predictor

    suite = BabiSuite.load(args.artifacts)
    if args.task not in suite.tasks:
        raise SystemExit(
            f"task {args.task} not in {args.artifacts} "
            f"(available: {suite.task_ids})"
        )
    try:
        predictor = open_predictor(
            suite,
            args.task,
            device=args.device,
            mips_backend=args.mips_backend,
            quantized=args.quantized,
            cache_entries=args.cache_entries or None,
            **({"rho": args.rho} if args.mips_backend == "threshold" else {}),
        )
    except ValueError as error:  # e.g. --quantized without a snapshot
        raise SystemExit(str(error))
    system = suite.tasks[args.task]
    batch = system.test_batch
    indices = args.indices if args.indices else list(range(min(5, len(batch))))
    table = TextTable(
        ["example", "prediction", "truth", "ok", "comparisons", "early exit"],
        title=f"task {args.task} queries on device={args.device} "
        f"({args.mips_backend} backend"
        + (", quantized weights)" if args.quantized else ")"),
    )
    correct = 0
    requests = []
    for i in indices:
        if not 0 <= i < len(batch):
            raise SystemExit(f"example index {i} outside [0, {len(batch)})")
        requests.append(
            QueryRequest(
                batch.stories[i],
                batch.questions[i],
                n_sentences=int(batch.story_lengths[i]),
                request_id=i,
                deadline_s=args.deadline_ms / 1e3 if args.deadline_ms else None,
            )
        )

    scheduler = None
    if args.deadline_ms:
        # Deadline-stamped queries ride the async SLO front end: same
        # predictor, plus micro-batching and per-request deadline
        # attainment (printed after the table).
        import asyncio

        from repro.serving import AsyncFrontend, BatchScheduler

        scheduler = BatchScheduler(
            predictor, max_batch=max(1, len(requests)), max_wait_s=0.002
        )

        def serve(wave):
            async def run():
                async with AsyncFrontend(
                    scheduler, close_backend=False
                ) as frontend:
                    return await frontend.query_many(wave)

            return asyncio.run(run())

    else:

        def serve(wave):
            return [predictor.predict(r) for r in wave]

    # The predictor (and its story cache, with --cache-entries) is
    # built once and reused across repeats — repeats 2..N replay the
    # same stories, so every memory write after the first pass is a
    # cache hit.
    for repeat in range(args.repeat):
        start = time.perf_counter()
        responses = serve(requests)
        seconds = time.perf_counter() - start
        if repeat == 0:  # the table shows each example once
            for i, response in zip(indices, responses):
                truth = suite.vocab.word(int(batch.answers[i]))
                correct += int(response.label == int(batch.answers[i]))
                table.add_row(
                    [
                        str(i),
                        response.answer or str(response.label),
                        truth,
                        "yes" if response.label == int(batch.answers[i]) else "NO",
                        str(response.comparisons),
                        "yes" if response.early_exit else "no",
                    ]
                )
            print(table.render())
            print(f"{correct}/{len(indices)} correct")
        if args.repeat > 1:
            print(f"repeat {repeat + 1}/{args.repeat}: {seconds * 1e3:.2f} ms")
    if scheduler is not None:
        scheduler.close()
        stats = scheduler.stats
        print(
            f"deadline {args.deadline_ms:.1f} ms: {stats.deadline_met} met / "
            f"{stats.deadline_missed} missed "
            f"(goodput {stats.goodput_rate:.1%})"
        )
    cache = getattr(predictor, "cache", None)
    if cache is not None:
        stats = cache.stats
        print(
            f"story cache: {stats.hits} hits / {stats.misses} misses "
            f"(hit rate {stats.hit_rate:.1%}, {cache.entries} entries resident)"
        )


def _mixed_task_requests(suite: BabiSuite, n: int) -> list:
    """A round-robin request stream across every task of the suite."""
    from repro.serving import QueryRequest

    tasks = suite.task_ids
    requests = []
    for i in range(n):
        task = tasks[i % len(tasks)]
        batch = suite.tasks[task].test_batch
        j = (i // len(tasks)) % len(batch)
        requests.append(
            QueryRequest(
                batch.stories[j],
                batch.questions[j],
                n_sentences=int(batch.story_lengths[j]),
                request_id=i,
                task=task,
            )
        )
    return requests


def _zipf_requests(suite: BabiSuite, n: int, s: float, seed: int = 0) -> list:
    """A zipf(s)-skewed request stream: story popularity follows a
    power law over the suite's whole test pool (the realistic
    "millions of users replay hot stories" shape), while each request
    pairs the story with an independently drawn question from the same
    task — same story, different question, the case the story cache
    exists for. ``s=0`` degenerates to a uniform mix.
    """
    import numpy as np

    from repro.serving import QueryRequest

    pool = [
        (task, j)
        for task in suite.task_ids
        for j in range(len(suite.tasks[task].test_batch))
    ]
    rng = np.random.default_rng(seed)
    rng.shuffle(pool)  # decorrelate popularity rank from task order
    ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
    weights = ranks**-s
    weights /= weights.sum()
    choices = rng.choice(len(pool), size=n, p=weights)
    requests = []
    for i, choice in enumerate(choices):
        task, j = pool[choice]
        batch = suite.tasks[task].test_batch
        q = int(rng.integers(len(batch)))
        requests.append(
            QueryRequest(
                batch.stories[j],
                batch.questions[q],
                n_sentences=int(batch.story_lengths[j]),
                request_id=i,
                task=task,
            )
        )
    return requests


def _timed_async_run(args: argparse.Namespace, suite, requests):
    """One `serve-bench --async` pass: AsyncFrontend over the same
    router configuration, open-loop paced when --qps is given, with
    per-request deadlines and admission control. Returns
    ``(seconds, router, n_served)`` — shed/expired requests resolve as
    typed exceptions and are excluded from the served count (their
    tallies land in ``router.stats``)."""
    import asyncio

    from repro.serving import (
        AsyncFrontend,
        DeadlineExceededError,
        ModelRouter,
        OverloadError,
    )

    router = ModelRouter.open(
        suite,
        tasks=list(suite.tasks),
        mips_backend=args.mips_backend,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        cache_entries=args.cache_entries or None,
        queue_cap=args.queue_cap,
        overload_policy=args.overload_policy,
        inline_flush=False,
    )
    deadline_s = args.deadline_ms / 1e3 if args.deadline_ms else None

    async def drive():
        async with AsyncFrontend(router) as frontend:
            if args.qps:
                # Open loop: arrivals follow the offered rate, not the
                # service rate — the regime where shedding matters.
                loop = asyncio.get_running_loop()
                epoch = loop.time()
                waves = []
                for i, request in enumerate(requests):
                    delay = epoch + i / args.qps - loop.time()
                    if delay > 0:
                        await asyncio.sleep(delay)
                    waves.append(
                        asyncio.ensure_future(
                            frontend.query(request, deadline_s=deadline_s)
                        )
                    )
                return await asyncio.gather(*waves, return_exceptions=True)
            return await frontend.query_many(
                requests, deadline_s=deadline_s, return_exceptions=True
            )

    start = time.perf_counter()
    results = asyncio.run(drive())
    seconds = time.perf_counter() - start
    n_served = sum(not isinstance(r, BaseException) for r in results)
    stranded = [
        r
        for r in results
        if isinstance(r, BaseException)
        and not isinstance(r, (OverloadError, DeadlineExceededError))
    ]
    if stranded:  # typed errors are expected; anything else is a bug
        raise stranded[0]
    return seconds, router, n_served


def _cmd_serve_bench(args: argparse.Namespace) -> None:
    """Multi-task serving throughput: router + scheduler.

    Submission modes over the same mixed-task request stream:
    one-at-a-time ``predict`` calls, the batching scheduler, and with
    ``--async`` the asyncio frontend.
    """
    from repro.serving import ModelRouter

    suite = _obtain_suite(args)
    if args.zipf is not None:
        requests = _zipf_requests(suite, args.requests, args.zipf)
    else:
        requests = _mixed_task_requests(suite, args.requests)
    open_kwargs = dict(
        mips_backend=args.mips_backend,
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        cache_entries=args.cache_entries or None,
    )

    direct = ModelRouter.open(suite, start_worker=False, **open_kwargs)
    start = time.perf_counter()
    for request in requests:
        direct.predict(request)
    one_at_a_time = time.perf_counter() - start
    direct.close()

    router = ModelRouter.open(suite, tasks=list(suite.tasks), **open_kwargs)
    start = time.perf_counter()
    with router:
        futures = [router.submit(request) for request in requests]
        for future in futures:
            future.result()
    seconds = time.perf_counter() - start

    mix = f"zipf(s={args.zipf})" if args.zipf is not None else "round-robin"
    table = TextTable(
        [
            "submission",
            "requests/s",
            "mean batch",
            "p50 (ms)",
            "p95 (ms)",
            "p99 (ms)",
            "shed",
            "expired",
            "goodput",
        ],
        title=(
            f"Serving throughput — {len(suite.task_ids)} task routes, "
            f"{args.requests} requests ({mix}), {args.mips_backend} backend"
            + (
                f", cache {args.cache_entries} entries"
                if args.cache_entries
                else ""
            )
        ),
    )
    table.add_row(
        [
            "one-at-a-time",
            f"{args.requests / one_at_a_time:.0f}",
            "1.0",
            "-",
            "-",
            "-",
            "-",
            "-",
            "-",
        ]
    )

    def _scheduler_row(label: str, seconds: float, router, served=None) -> None:
        stats = router.stats
        served = args.requests if served is None else served
        goodput = (
            f"{stats.goodput_rate:.1%}" if stats.deadline_outcomes else "-"
        )
        table.add_row(
            [
                label,
                f"{served / seconds:.0f}",
                f"{stats.mean_batch_size:.1f}",
                f"{stats.p50_latency_s * 1e3:.2f}",
                f"{stats.p95_latency_s * 1e3:.2f}",
                f"{stats.p99_latency_s * 1e3:.2f}",
                str(stats.shed),
                str(stats.expired),
                goodput,
            ]
        )

    _scheduler_row(f"scheduler (max_batch={args.max_batch})", seconds, router)
    if args.async_frontend:
        async_seconds, async_router, n_served = _timed_async_run(args, suite, requests)
        policy = args.overload_policy
        _scheduler_row(
            f"async frontend (cap={args.queue_cap or '∞'}, {policy})",
            async_seconds,
            async_router,
            served=max(1, n_served),
        )
    print(table.render())
    if args.async_frontend:
        stats = async_router.stats
        print(
            f"async frontend: {n_served}/{args.requests} served, "
            f"{stats.shed} shed, {stats.expired} expired"
            + (
                f", goodput {stats.goodput_rate:.1%} "
                f"(deadline {args.deadline_ms:.1f} ms)"
                if args.deadline_ms
                else ""
            )
        )
    print(f"micro-batching speedup: {one_at_a_time / seconds:.1f}x")
    if args.cache_entries:
        caches = [router.predictor(task).cache.stats for task in router.tasks]
        hits = sum(stats.hits for stats in caches)
        misses = sum(stats.misses for stats in caches)
        evictions = sum(stats.evictions for stats in caches)
        print(
            f"story cache: hit rate {hits / max(1, hits + misses):.1%} "
            f"({hits} hits / {misses} misses, {evictions} evictions)"
        )
    per_route = ", ".join(
        f"task {task}: {stats.requests}"
        for task, stats in sorted(router.route_stats.items())
    )
    print(f"per-route requests: {per_route}")


def _cmd_resources(args: argparse.Namespace) -> None:
    config = HwConfig().with_embed_dim(args.embed_dim)
    model = MannConfig(
        vocab_size=args.vocab,
        embed_dim=args.embed_dim,
        memory_size=args.memory,
    )
    estimate = estimate_resources(config, model)
    table = TextTable(
        ["resource", "used", "utilisation"],
        title="Estimated VCU107 utilisation (Fig. 1 design)",
    )
    capacities = {
        "LUT": estimate.luts,
        "FF": estimate.ffs,
        "DSP": estimate.dsps,
        "BRAM": f"{estimate.bram_kb:.0f} kB",
    }
    for name, fraction in estimate.utilisation().items():
        table.add_row([name, str(capacities[name]), f"{fraction * 100:.2f}%"])
    print(table.render())
    print("fits on the device" if estimate.fits() else "DOES NOT FIT")


def _cmd_sweep(args: argparse.Namespace) -> None:
    from repro.hw.sweep import (
        WorkloadShape,
        frequency_sweep,
        interface_latency_sweep,
        lane_width_sweep,
        sweep_table,
    )

    workload = WorkloadShape(output_visited=args.vocab)
    model = MannConfig(
        vocab_size=args.vocab, embed_dim=args.embed_dim, memory_size=20
    )
    if args.kind == "frequency":
        print(sweep_table(frequency_sweep(workload, model), "Clock sweep").render())
    elif args.kind == "width":
        print(
            sweep_table(
                lane_width_sweep(workload, vocab_size=args.vocab),
                "Model-width sweep",
            ).render()
        )
    else:
        points = interface_latency_sweep(workload, model)
        table = TextTable(
            ["txn latency (us)", "wall (s)", "power (W)"],
            title="Interface-latency sweep @ 100 MHz",
        )
        for latency_us, point in points:
            table.add_row(
                [
                    f"{latency_us:.2f}",
                    f"{point.wall_seconds:.4f}",
                    f"{point.average_power_w:.2f}",
                ]
            )
        print(table.render())


def _cmd_tasks(_args: argparse.Namespace) -> None:
    table = TextTable(["id", "task"], title="Implemented bAbI task generators")
    for task_id in all_task_ids():
        table.add_row([str(task_id), TASK_NAMES[task_id]])
    print(table.render())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Park et al., DATE 2019 (MANN FPGA accelerator)",
        epilog=_EPILOG,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    for name, handler in (
        ("table1", _cmd_table1),
        ("fig3", _cmd_fig3),
        ("fig4", _cmd_fig4),
        ("ablation", _cmd_ablation),
    ):
        sub = subparsers.add_parser(name, help=f"reproduce {name}")
        _add_suite_arguments(sub)
        sub.set_defaults(handler=handler)

    mips = subparsers.add_parser(
        "mips", help="evaluate pluggable MIPS backends on the suite"
    )
    _add_suite_arguments(mips)
    mips.add_argument(
        "--mips-backend",
        choices=(*available_backends(), "all"),
        default="all",
        help="registered output-search backend to evaluate (default: all)",
    )
    mips.add_argument(
        "--rho",
        type=float,
        default=1.0,
        help="thresholding constant for the 'threshold' backend",
    )
    mips.set_defaults(handler=_cmd_mips)

    train = subparsers.add_parser(
        "train", help="train the suite and save serving artifacts"
    )
    _add_suite_arguments(train, artifacts=False)
    train.add_argument(
        "--save",
        required=True,
        metavar="DIR",
        help="artifact directory to write (readable by load_suite / "
        "open_predictor / every --artifacts flag)",
    )
    train.add_argument(
        "--quantize",
        type=int,
        nargs=2,
        default=None,
        metavar=("INT_BITS", "FRAC_BITS"),
        help="also persist a Qm.n fixed-point weight snapshot, servable "
        "with `query --quantized` / open_predictor(quantized=True)",
    )
    train.set_defaults(handler=_cmd_train)

    query = subparsers.add_parser(
        "query", help="answer queries from saved artifacts via open_predictor"
    )
    query.add_argument("--artifacts", required=True, metavar="DIR")
    query.add_argument("--task", type=int, required=True, help="bAbI task id")
    query.add_argument(
        "--indices",
        type=int,
        nargs="+",
        default=None,
        help="test-set example indices to query (default: first 5)",
    )
    query.add_argument(
        "--device",
        choices=("sw", "hw"),
        default="sw",
        help="vectorised engine (sw) or accelerator co-simulation (hw)",
    )
    query.add_argument(
        "--mips-backend", choices=available_backends(), default="exact"
    )
    query.add_argument("--rho", type=float, default=1.0)
    query.add_argument(
        "--quantized",
        action="store_true",
        help="serve the artifacts' fixed-point weight snapshot "
        "(written by `train --quantize M N`)",
    )
    query.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="answer the query set this many times through one "
        "predictor (with --cache-entries, repeats hit the story cache)",
    )
    query.add_argument(
        "--cache-entries",
        type=int,
        default=0,
        help="enable the cross-request story-encoding cache with this "
        "many LRU entries (0 disables; sw device only)",
    )
    query.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-query SLO budget in milliseconds: queries are served "
        "through the async front end (AsyncFrontend) and deadline "
        "attainment is reported after the table",
    )
    query.set_defaults(handler=_cmd_query)

    bench = subparsers.add_parser(
        "serve-bench",
        help="multi-task serving throughput (router + scheduler)",
    )
    _add_suite_arguments(bench)
    bench.add_argument("--requests", type=int, default=256)
    bench.add_argument("--max-batch", type=int, default=32)
    bench.add_argument("--max-wait-ms", type=float, default=5.0)
    bench.add_argument(
        "--mips-backend", choices=available_backends(), default="exact"
    )
    bench.add_argument(
        "--cache-entries",
        type=int,
        default=0,
        help="per-route story-encoding cache size in LRU entries "
        "(0 disables; replayed stories skip the memory-write phase)",
    )
    bench.add_argument(
        "--zipf",
        type=float,
        default=None,
        metavar="S",
        help="draw the request mix with zipf(S)-skewed story "
        "popularity (same story, different question) instead of "
        "round-robin — the shape that exercises --cache-entries; "
        "S=0 is uniform",
    )
    bench.add_argument(
        "--async",
        dest="async_frontend",
        action="store_true",
        help="add an AsyncFrontend pass: awaitable queries over the "
        "same router, with --deadline-ms SLO budgets and "
        "--queue-cap/--overload-policy admission control",
    )
    bench.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-request SLO budget for the --async pass (deadline "
        "attainment / goodput is reported in the summary)",
    )
    bench.add_argument(
        "--queue-cap",
        type=int,
        default=None,
        metavar="N",
        help="bound the async pass's pending queue at N requests "
        "(default: unbounded)",
    )
    bench.add_argument(
        "--overload-policy",
        choices=("shed", "shed-expired"),
        default="shed",
        help="what a full --queue-cap queue does: 'shed' rejects with "
        "OverloadError, 'shed-expired' first drops past-deadline queue "
        "entries (DeadlineExceededError) and sheds only if none has "
        "expired",
    )
    bench.add_argument(
        "--qps",
        type=float,
        default=None,
        help="pace the --async pass open-loop at this offered request "
        "rate instead of submitting everything at once",
    )
    bench.set_defaults(handler=_cmd_serve_bench)

    resources = subparsers.add_parser(
        "resources", help="estimate FPGA resource utilisation"
    )
    resources.add_argument("--vocab", type=int, default=170)
    resources.add_argument("--embed-dim", type=int, default=20)
    resources.add_argument("--memory", type=int, default=20)
    resources.set_defaults(handler=_cmd_resources)

    tasks = subparsers.add_parser("tasks", help="list bAbI task generators")
    tasks.set_defaults(handler=_cmd_tasks)

    sweep = subparsers.add_parser(
        "sweep", help="analytic design-space sweeps (clock / model width)"
    )
    sweep.add_argument("--vocab", type=int, default=170)
    sweep.add_argument("--embed-dim", type=int, default=20)
    sweep.add_argument(
        "--kind", choices=("frequency", "width", "interface"), default="frequency"
    )
    sweep.set_defaults(handler=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.handler(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
