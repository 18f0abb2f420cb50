"""Traced run: exclusive host time per layer, folded from a cProfile capture.

The program is not edited: the profiler is switched on around the timed
region from the benchmark's side.  A frame inside ``src/repro/<package>/``
charges its exclusive time to that package.  A frame outside ``repro`` (a C
builtin, numpy, scipy, the stdlib) charges its exclusive time to the layers
of its nearest ``repro`` callers: the first hop is weighted by the exclusive
time the profiler recorded on each caller edge, further hops by the
cumulative time on the edge.  What reaches no ``repro`` caller (the
profiler's own root frames) stays in ``unattributed``.
"""

from __future__ import annotations

import cProfile
import pstats

from ledger.layers import LAYERS, layer_of

#: the layer rows must sum to the traced total within this share, that is,
#: no more than this may stay unattributed
SUM_TOLERANCE = 0.02
MAX_SWEEPS = 200


def fold(profile: cProfile.Profile) -> dict:
    """``{"total_s", "unattributed_s", "self_s": {layer: s}, "calls": {layer: n}}``."""
    stats = pstats.Stats(profile).stats
    outside = [func for func in stats if layer_of(func[0]) is None]

    def caller_weights(func, index: int) -> list:
        """``(caller, share)`` by field ``index`` of the profiler's caller
        edges (2 exclusive, 3 cumulative); self-recursion carries no owner."""
        edges = {caller: edge[index] for caller, edge in stats[func][4].items()
                 if caller != func and caller in stats}
        total = sum(edges.values())
        return [(c, w / total) for c, w in edges.items()] if total > 0 else []

    def mix(weights: list) -> dict:
        """Layer -> share of a frame's time, given its callers' shares."""
        out: dict = {}
        for caller, weight in weights:
            layer = layer_of(caller[0])
            owners = {layer: 1.0} if layer is not None else owner[caller]
            for name, share in owners.items():
                out[name] = out.get(name, 0.0) + weight * share
        return out

    # who owns the time of a frame outside repro: solved by sweeping until
    # the shares settle, which also resolves recursion between such frames
    # (the import machinery, deepcopy)
    owner: dict = {func: {} for func in outside}
    by_cumulative = {func: caller_weights(func, 3) for func in outside}
    for _ in range(MAX_SWEEPS):
        moved = 0.0
        for func in outside:
            new = mix(by_cumulative[func])
            moved = max(moved, abs(sum(new.values()) - sum(owner[func].values())))
            owner[func] = new
        if moved < 1e-9:
            break

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    total = unattributed = 0.0
    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        total += tottime
        layer = layer_of(func[0])
        if layer is not None:
            self_s[layer] += tottime
            calls[layer] += ncalls
            continue
        owners = mix(caller_weights(func, 2))
        for name, share in owners.items():
            self_s[name] += tottime * share
        unattributed += tottime * (1.0 - sum(owners.values()))

    if unattributed > SUM_TOLERANCE * total:
        raise RuntimeError(
            f"layer rows sum to {sum(self_s.values()):.4f}s of a traced total "
            f"of {total:.4f}s: more than {SUM_TOLERANCE:.0%} is unattributed")
    return {"total_s": total, "unattributed_s": unattributed,
            "self_s": self_s, "calls": calls}
