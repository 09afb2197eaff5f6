"""Workloads ``train-pecnet`` and ``train-lbebm``: AdapTraj Alg. 1 via ``fit()``.

Set-up simulates three source domains cold into the run's private dataset
cache and builds the method.  It is repeated ``SETUPS`` times, once before
the first round and then between rounds so that one slow stretch of the
host cannot cover every repeat, and reported as a median.  A round builds the same-seed method afresh and runs the full
three-phase schedule once, so every round trains on identical batches and
step ``j`` of one round is comparable with step ``j`` of every other.
"""

from __future__ import annotations

import math
import time

import numpy as np

from common import Outcome, Tracer, median, peak_rss_mb, robust_round_seconds
import oracles

SOURCES = ("eth_ucy", "lcas", "syi")
DOMAINS = (*SOURCES, "sdd")
#: The experiment engine's ``small`` data scale.
DATA = {"num_scenes": 2, "frames_per_scene": 90, "stride": 3, "max_neighbours": 8}
#: 10 epochs split 8 / 1 / 1 over the three phases of Alg. 1; the per-epoch
#: cap keeps every round at 80 full batches of 32 whatever the seed.
EPOCHS = 10
BATCH_SIZE = 32
BATCHES_PER_EPOCH = 8
EVAL_SAMPLES = 3
SETUPS = 5


def run(backbone: str, ctx) -> Outcome:
    import repro.core.method as method_module
    from repro.baselines import build_method
    from repro.core import TrainConfig
    from repro.data import DataConfig, clear_cache, load_multi_domain
    from repro.nn import Tensor

    out = Outcome()
    data_config = DataConfig(seed=ctx.seed, **DATA)
    train_config = TrainConfig(
        epochs=EPOCHS,
        batch_size=BATCH_SIZE,
        max_batches_per_epoch=BATCHES_PER_EPOCH,
        eval_samples=EVAL_SAMPLES,
        seed=ctx.seed,
    )

    def build_learner():
        return build_method(
            "adaptraj", backbone, num_domains=len(SOURCES),
            train_config=train_config, rng=ctx.seed,
        )

    data_s, model_s, setup_s = [], [], []

    def set_up():
        clear_cache(disk=True)
        start = time.perf_counter()
        splits = load_multi_domain(list(SOURCES), data_config, domains=list(DOMAINS))
        built = time.perf_counter()
        build_learner()
        done = time.perf_counter()
        data_s.append(built - start)
        model_s.append(done - built)
        setup_s.append(done - start)
        return splits

    splits = set_up()
    tracer = Tracer() if ctx.trace else None
    if tracer:
        tracer.patch(Tensor, "backward", "nn.backward")
        tracer.count_calls(Tensor, "__init__", "nn.tensors")
        tracer.patch(method_module, "clip_grad_norm", "nn.clip_grad")

    rounds: list[list[float]] = []
    schedule = None  # (batch sizes, phases) of one round
    tensors = 0
    out.probe()
    started = time.perf_counter()
    try:
        while True:
            learner = build_learner()
            stamps, sizes, phases = [], [], []
            phase = [0]
            _instrument(learner, tracer, stamps, sizes, phases, phase)
            before = tracer.counts["nn.tensors"] if tracer else 0
            result = learner.fit(splits.train)
            end = time.perf_counter()
            if tracer:
                tensors += tracer.counts["nn.tensors"] - before
            rounds.append(list(np.diff(stamps + [end])))
            out.attempted += len(stamps)
            if schedule is None:
                schedule = (sizes, phases)
            out.check((sizes, phases) == schedule, "rounds trained different schedules")
            losses = result.epoch_losses
            out.check(
                len(losses) == EPOCHS and all(math.isfinite(x) for x in losses),
                f"non-finite epoch loss: {losses}",
            )
            out.check(losses[-1] < losses[0], f"last epoch loss {losses[-1]} >= first {losses[0]}")
            out.probe()
            if time.perf_counter() - started >= ctx.seconds:
                break
            if len(setup_s) < SETUPS:
                splits = set_up()
    finally:
        if tracer:
            tracer.restore()
    while len(setup_s) < SETUPS:
        splits = set_up()

    sizes, phases = schedule
    round_s = robust_round_seconds(rounds)
    samples_per_s = sum(sizes) / round_s
    out.end_to_end = {
        "setup_s": median(setup_s),
        "samples_per_s": samples_per_s,
        "latency_ms": median(d for durations in rounds for d in durations) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer:
        columns = [median(column) for column in zip(*rounds)]
        for p in (1, 2, 3):
            seconds = sum(c for c, q in zip(columns, phases) if q == p)
            work = sum(n for n, q in zip(sizes, phases) if q == p)
            out.per_layer[f"core.phase{p}_samples_per_s"] = work / seconds if seconds else 0.0
        out.per_layer.update({
            "core.training_step_ms": tracer.median_ms("core.training_step"),
            "nn.backward_ms": tracer.median_ms("nn.backward"),
            "nn.optimizer_step_ms": tracer.median_ms("nn.optimizer_step"),
            "nn.clip_grad_ms": tracer.median_ms("nn.clip_grad"),
            "data.next_batch_ms": tracer.median_ms("data.next_batch"),
            "nn.tensors_per_step": tensors / out.attempted,
            "data.build_s": median(data_s),
            "models.build_s": median(model_s),
            "trace.samples_per_s": samples_per_s,
        })

    trained = _val_ade(learner, splits.val, ctx.seed, out)
    untrained = _val_ade(build_learner(), splits.val, ctx.seed, out)
    out.check(
        trained < untrained,
        f"trained best-of-{EVAL_SAMPLES} val ADE {trained:.4f} not below untrained {untrained:.4f}",
    )
    return out


def _instrument(learner, tracer, stamps, sizes, phases, phase) -> None:
    """Stamp every training step; with a tracer, time the layers it calls."""
    if tracer:
        tracer.patch(learner, "training_step", "core.training_step")
        epoch_batches = learner.epoch_batches
        durations = tracer.durations["data.next_batch"]

        def timed_batches(train, epoch):
            batches = epoch_batches(train, epoch)
            while True:
                start = time.perf_counter()
                try:
                    item = next(batches)
                except StopIteration:
                    return
                durations.append(time.perf_counter() - start)
                yield item

        tracer.replace(learner, "epoch_batches", timed_batches)

    on_epoch_start = learner.on_epoch_start

    def tagged_epoch_start(epoch, total_epochs):
        phase[0] = learner.current_phase(epoch, total_epochs)
        # fit() creates the optimizer before the first epoch starts.
        if tracer and epoch == 0:
            tracer.patch(learner.optimizer, "step", "nn.optimizer_step")
        return on_epoch_start(epoch, total_epochs)

    step = learner.training_step

    def stamped(batch, context=None):
        stamps.append(time.perf_counter())
        sizes.append(batch.size)
        phases.append(phase[0])
        return step(batch, context)

    learner.on_epoch_start = tagged_epoch_start
    learner.training_step = stamped


def _val_ade(learner, val, seed: int, out: Outcome) -> float:
    """Best-of-K ADE of ``learner`` on the source val split, by the oracle."""
    from repro.metrics import best_of_ade_fde

    samples, futures = [], []
    for batch in val.batches(64, shuffle=False):
        samples.append(learner.predict(batch, EVAL_SAMPLES, rng=seed + 1))
        futures.append(batch.future)
    samples = np.concatenate(samples, axis=1)
    future = np.concatenate(futures)
    out.check(bool(np.isfinite(samples).all()), "non-finite validation prediction")
    return check_ade(out, samples, future, best_of_ade_fde(samples, future)[0])


def check_ade(out: Outcome, samples, future, program_ade: float) -> float:
    """The oracle's best-of-K ADE, checked against the program's to 1e-9."""
    ade = oracles.best_of_ade(samples, future)
    out.check(abs(ade - program_ade) <= 1e-9, f"best_of_ade_fde {program_ade} != oracle {ade}")
    return ade
