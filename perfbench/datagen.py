"""Workload ``datagen``: build all four domains cold, then read them back.

A round empties the run's private dataset cache, calls
``load_domain_dataset`` once per domain (simulate, window, split, write:
four cache misses), then clears the in-process layer and loads every
domain again (four disk hits).  Set-up is what precedes the first build:
a fresh interpreter importing ``repro.sim`` and ``repro.data``.  It is
repeated ``SETUPS`` times, before the first round and then between rounds,
and reported as a median.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

from common import Outcome, Tracer, median, peak_rss_mb, robust_round_seconds
import oracles

DOMAINS = ("eth_ucy", "lcas", "syi", "sdd")
#: Four scenes per domain average the crowd size over independent
#: recordings, so a round's work is nearly the same for every seed.
DATA = {"num_scenes": 4, "frames_per_scene": 120, "stride": 2, "max_neighbours": 8}
SETUPS = 5
SPLITS = ("train", "val", "test")


def run(ctx) -> Outcome:
    import repro.data.registry as registry
    import repro.sim.generator as generator
    from repro.data import DataConfig, cache_stats, clear_cache, reset_cache_stats

    out = Outcome()
    config = DataConfig(seed=ctx.seed, **DATA)
    setup_s = []

    def set_up():
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import repro.sim, repro.data"], check=True)
        setup_s.append(time.perf_counter() - start)

    set_up()

    scenes: dict[str, list] = {}
    tracer = Tracer()
    generate_scenes = registry.generate_scenes

    def keep_scenes(domain, *args, **kwargs):
        result = generate_scenes(domain, *args, **kwargs)
        scenes.setdefault(domain.name, result)
        return result

    tracer.replace(registry, "generate_scenes", keep_scenes)
    if ctx.trace:
        tracer.patch(registry, "generate_scenes", "sim.generate_scenes")
        tracer.patch(generator, "social_force_step", "sim.force_step")
        tracer.patch(registry, "extract_samples", "data.extract_samples")
    generated = tracer.durations["sim.generate_scenes"]
    extracted = tracer.durations["data.extract_samples"]

    def load(domain):
        return registry.load_domain_dataset(domain, config, domains=list(DOMAINS))

    rounds: list[list[float]] = []
    read_s, write_s = [], []
    first = None
    out.probe()
    started = time.perf_counter()
    try:
        while True:
            clear_cache(disk=True)
            reset_cache_stats()
            cold, durations = {}, []
            for domain in DOMAINS:
                marks = len(generated), len(extracted)
                start = time.perf_counter()
                cold[domain] = load(domain)
                durations.append(time.perf_counter() - start)
                if ctx.trace:
                    write_s.append(
                        durations[-1] - sum(generated[marks[0]:]) - sum(extracted[marks[1]:])
                    )
            out.attempted += len(DOMAINS)
            rounds.append(durations)
            out.check(
                cache_stats["misses"] == len(DOMAINS) and cache_stats["disk_hits"] == 0,
                f"cold builds: cache stats {dict(cache_stats)}",
            )
            clear_cache()
            for domain in DOMAINS:
                start = time.perf_counter()
                back = load(domain)
                read_s.append(time.perf_counter() - start)
                check_same(out, domain, cold[domain], back)
            out.check(
                cache_stats["disk_hits"] == len(DOMAINS) and cache_stats["misses"] == len(DOMAINS),
                f"read-back: cache stats {dict(cache_stats)}",
            )
            first = first or cold
            out.probe()
            if time.perf_counter() - started >= ctx.seconds:
                break
            if len(setup_s) < SETUPS:
                set_up()
    finally:
        tracer.restore()
        clear_cache(disk=True)
    while len(setup_s) < SETUPS:
        set_up()

    windows = sum(len(getattr(first[d], s)) for d in DOMAINS for s in SPLITS)
    for domain in DOMAINS:
        check_windows(out, domain, scenes[domain], first[domain], config)

    samples_per_s = windows / robust_round_seconds(rounds)
    out.end_to_end = {
        "setup_s": median(setup_s),
        "samples_per_s": samples_per_s,
        "latency_ms": robust_round_seconds(rounds) / len(DOMAINS) * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }
    if ctx.trace:
        out.per_layer = {
            "sim.generate_scenes_ms": tracer.median_ms("sim.generate_scenes"),
            "sim.force_step_us": tracer.median_ms("sim.force_step") * 1e3,
            "sim.force_steps": len(tracer.durations["sim.force_step"]) / len(rounds),
            "data.extract_samples_ms": tracer.median_ms("data.extract_samples"),
            "data.cache_write_ms": median(write_s) * 1e3,
            "data.cache_read_ms": median(read_s) * 1e3,
            "trace.samples_per_s": samples_per_s,
        }
    return out


def _all_samples(splits) -> list:
    return [sample for name in SPLITS for sample in getattr(splits, name)]


def check_same(out: Outcome, domain: str, cold, back) -> None:
    """The read-back dataset equals the cold build, array for array."""
    a, b = _all_samples(cold), _all_samples(back)
    same = len(a) == len(b) and all(
        (x.domain, x.scene_id, x.frame) == (y.domain, y.scene_id, y.frame)
        and np.array_equal(x.obs, y.obs)
        and np.array_equal(x.future, y.future)
        and np.array_equal(x.neighbours, y.neighbours)
        for x, y in zip(a, b)
    )
    out.check(same, f"{domain}: read-back arrays differ from the cold build")


def check_windows(out: Outcome, domain: str, scenes: list, splits, config) -> None:
    """Every window equals its re-derivation from the scene tracks."""
    expected = []
    for scene in scenes:
        num_frames = max(t.start_frame + len(t.positions) for t in scene.tracks)
        for start, obs, future, neighbours in oracles.windows(
            scene.tracks, num_frames, config.obs_len, config.pred_len,
            config.stride, config.max_neighbours,
        ):
            expected.append((scene.scene_id, start, obs, future, neighbours))
    got = [
        (s.scene_id, s.frame, s.obs, s.future,
         oracles.nearest_first(s.neighbours, s.obs[-1], config.obs_len))
        for s in _all_samples(splits)
    ]
    out.check(len(got) == len(expected), f"{domain}: {len(got)} windows, tracks give {len(expected)}")

    def key(window):
        return window[0], window[1], tuple(window[2][-1])

    for e, g in zip(sorted(expected, key=key), sorted(got, key=key)):
        same = e[:2] == g[:2] and all(np.array_equal(x, y) for x, y in zip(e[2:], g[2:]))
        out.check(same, f"{domain}: window at scene {g[0]} frame {g[1]} differs from its tracks")
