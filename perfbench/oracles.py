"""Reference computations made apart from the program, in plain numpy.

Each function re-derives, from the raw inputs alone, an output the program
computes, so a workload can check the program against it.  None of them
imports :mod:`repro`: a track is anything with ``agent_id``,
``start_frame`` and ``positions`` (``[n, 2]``, one row per frame).
"""

from __future__ import annotations

import numpy as np


def best_of_ade(samples: np.ndarray, future: np.ndarray) -> float:
    """Best-of-K ADE: per agent the lowest mean displacement over K samples.

    ``samples`` is ``[K, N, T, 2]`` and ``future`` ``[N, T, 2]``.
    """
    samples = np.asarray(samples, dtype=np.float64)
    future = np.asarray(future, dtype=np.float64)
    if samples.ndim != 4 or samples.shape[1:] != future.shape:
        raise ValueError(f"samples {samples.shape} do not match future {future.shape}")
    total = 0.0
    for agent in range(future.shape[0]):
        best = np.inf
        for sample in samples[:, agent]:
            diff = sample - future[agent]
            ade = np.mean(np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2))
            best = min(best, ade)
        total += best
    return total / future.shape[0]


def _span(track) -> tuple[int, int]:
    """``[first, last]`` frame a track covers."""
    return track.start_frame, track.start_frame + len(track.positions) - 1


def ready_agents(tracks, frame: int, obs_len: int) -> set:
    """Ids of the agents whose last ``obs_len`` frames up to ``frame`` are
    all observed, i.e. those a streaming server can predict at ``frame``."""
    ready = set()
    for track in tracks:
        first, last = _span(track)
        if first <= frame - obs_len + 1 and frame <= last:
            ready.add(track.agent_id)
    return ready


def windows(tracks, num_frames: int, obs_len: int, pred_len: int, stride: int,
            max_neighbours: int | None):
    """Every prediction window of one scene, as
    ``(start, obs, future, neighbours)`` with neighbours sorted nearest-first.

    A track is a focal agent at window start ``s`` when it covers frames
    ``s .. s + obs_len + pred_len - 1``; its neighbours are the other tracks
    covering ``s .. s + obs_len - 1``, the ``max_neighbours`` nearest to the
    focal agent's last observed position when that cap is set.
    """
    length = obs_len + pred_len
    out = []
    for start in range(0, num_frames - length + 1, stride):
        observed = {}
        for track in tracks:
            first, last = _span(track)
            if first <= start and start + obs_len - 1 <= last:
                offset = start - first
                observed[track.agent_id] = track.positions[offset : offset + obs_len]
        for track in tracks:
            first, last = _span(track)
            if not (first <= start and start + length - 1 <= last):
                continue
            offset = start - first
            whole = track.positions[offset : offset + length]
            obs, future = whole[:obs_len], whole[obs_len:]
            others = [w for agent, w in observed.items() if agent != track.agent_id]
            out.append(
                (start, obs, future, nearest_first(others, obs[-1], obs_len, max_neighbours))
            )
    return out


def nearest_first(neighbours, origin: np.ndarray, obs_len: int,
                  limit: int | None = None) -> np.ndarray:
    """Neighbour windows ``[N, obs_len, 2]`` ordered by distance of their last
    point to ``origin``, cut to ``limit`` when given."""
    neighbours = [np.asarray(w, dtype=np.float64) for w in neighbours]
    distance = [float(np.hypot(*(w[-1] - origin))) for w in neighbours]
    order = sorted(range(len(neighbours)), key=lambda i: distance[i])
    if limit is not None:
        order = order[:limit]
    if not order:
        return np.zeros((0, obs_len, 2))
    return np.stack([neighbours[i] for i in order])
