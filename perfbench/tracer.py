"""Outside-in tracer: wraps tracefuzz's public functions from the benchmark.

Nothing inside ``src/`` is instrumented.  Each layer entry point is replaced,
in every module that imported it by name, with a wrapper that opens a span
(name, start, end, enclosing span) and folds it into per-name totals when it
closes.  A span's self time is its duration minus the durations of the spans
it directly encloses; on one thread spans nest strictly, so that equals the
duration minus the part its children cover.  Spans are folded as they close
rather than kept: one pass makes over a million ``stable_u64`` calls, and a
list of that many spans would cost more memory than the program measured.

Untraced runs install only light wrappers on ``execute``, ``reset_server``,
``synthesize_prompt`` and ``SimCore.step``: they count calls, which the
operation accounting needs, and let the step's Yardstick time its reference
work every few milliseconds; a step reaches one of them about every
millisecond.  Traced runs install every wrapper and the ceiling counters.
"""

from __future__ import annotations

import hashlib
import statistics
import struct
import time
from array import array
from collections import Counter

import tracefuzz.adapter as adapter
import tracefuzz.campaign as campaign
import tracefuzz.confirmation as confirmation
import tracefuzz.hashing as hashing
import tracefuzz.mutation as mutation
import tracefuzz.oracles as oracles
import tracefuzz.simulator.decode as decode
import tracefuzz.simulator.engine as engine
import tracefuzz.trace as trace

clock = time.perf_counter

# Seconds the reference work takes at full speed on a 2-vCPU x86-64 host
# under CPython 3.11; scaled times read as seconds at that speed.
REFERENCE_S = 0.00022
PACE_INTERVAL_S = 0.01  # program time between two timings of the reference
PACE_WINDOW = 8  # reference timings on each side that set a stretch's speed


def _digest(*parts) -> int:
    """A 64-bit blake2b digest of ints and strings, length- and type-prefixed."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, int):
            body, tag = part.to_bytes(17, "little", signed=True), b"i"
        else:
            body, tag = part.encode("utf-8"), b"s"
        h.update(tag)
        h.update(struct.pack("<I", len(body)))
        h.update(body)
    return int.from_bytes(h.digest(), "little")


class _Token:
    __slots__ = ("pos", "value", "context")

    def __init__(self, pos: int, value: int, context: int):
        self.pos, self.value, self.context = pos, value, context


def reference_work() -> int:
    """Fixed pure-Python work, independent of tracefuzz, to time the host by.

    A shared host swings in speed by up to a factor of two for seconds to
    minutes at a time, and the swings slow interpreted code nearly alike, so
    the time of this work, taken a few milliseconds from the program's, gives
    the host's speed at that moment.  It mixes what the program does most:
    chained small blake2b digests, small objects, dicts keyed by tuples,
    integer arithmetic and a sort.
    """
    context, tokens, table = 0, [], {}
    for i in range(100):
        context = _digest("ctx", context, i)
        token = _Token(i, context % 1024, context)
        tokens.append(token)
        table[(i & 15, token.value & 3)] = table.get((i % 31, i & 7), 0) + i * 2654435761 % 1000003
    tokens.sort(key=lambda token: token.value)
    return context ^ len(table) ^ tokens[0].value


class Yardstick:
    """Rescales the program's wall time to a fixed host speed.

    ``tick`` runs the reference work when ``PACE_INTERVAL_S`` of program time
    has passed since it last ran.  ``scaled`` splits a step into the stretches
    between reference timings, leaves the reference's own time out, and
    multiplies each stretch by ``REFERENCE_S`` over the median reference time
    around it.
    """

    def __init__(self):
        self.timings = array("d")  # flattened (start, duration) of each reference run
        self._next = 0.0

    def measure(self) -> float:
        start = clock()
        reference_work()
        end = clock()
        self.timings.extend((start, end - start))
        self._next = end + PACE_INTERVAL_S
        return end - start

    def tick(self) -> None:
        if clock() >= self._next:
            self.measure()

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(wall, scaled) seconds of the program between ``start`` and ``end``.

        Expects a reference timing at ``start`` and just before ``end``.
        """
        runs = [(self.timings[i], self.timings[i + 1]) for i in range(0, len(self.timings), 2)
                if start <= self.timings[i] <= end]
        durations = [duration for _, duration in runs]
        wall = scaled = 0.0
        for j in range(1, len(runs)):
            stretch = runs[j][0] - (runs[j - 1][0] + runs[j - 1][1])
            local = statistics.median(durations[max(0, j - PACE_WINDOW):j + PACE_WINDOW])
            wall += stretch
            scaled += stretch * REFERENCE_S / local
        return wall, scaled


# Layer name -> every (module, attribute) through which the package reaches it.
# prompt_for (imported by name in adapter and oracles) calls synthesize_prompt
# through trace's globals, so patching it there catches both callers; likewise
# chain_digest and stable_unit reach stable_u64 through hashing's globals.
PATCH_SITES = {
    "hashing.stable_u64": [(hashing, "stable_u64"), (trace, "stable_u64"), (mutation, "stable_u64"),
                           (engine, "stable_u64"), (decode, "stable_u64")],
    "trace.synthesize_prompt": [(trace, "synthesize_prompt")],
    "simulator.step": [(engine.SimCore, "step")],
    "adapter.execute": [(adapter, "execute"), (campaign, "execute"), (confirmation, "execute")],
    "adapter.reset_server": [(adapter, "reset_server"), (campaign, "reset_server"), (confirmation, "reset_server")],
    "oracles.full_sweep": [(campaign, "full_sweep")],
    "oracles.structural_forensics": [(oracles, "structural_forensics"), (confirmation, "structural_forensics")],
    "telemetry.compute_telemetry": [(campaign, "compute_telemetry")],
    "campaign.novelty": [(campaign, "novelty")],
    "campaign.loop": [(campaign, "run_campaign")],
    "mutation.mutate": [(campaign, "mutate")],
    "confirmation.confirm_suspicion": [(campaign, "confirm_suspicion")],
    "campaign.minimize": [(campaign, "minimize")],
}


class Tracer:
    """Per-process span totals and ceiling counters for one benchmark step."""

    def __init__(self, timed: bool):
        self.timed = timed
        self.yardstick = Yardstick()
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[float] = []  # child time accumulated by each open span
        self._seen_prompts: set = set()
        self._confirm_depth = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        hooks = {"adapter.execute": (None, None), "adapter.reset_server": (None, None),
                 "trace.synthesize_prompt": (None, None), "simulator.step": (None, None)}
        if self.timed:
            hooks.update({
                "adapter.execute": (None, self._after_execute),
                "trace.synthesize_prompt": (self._before_prompt, None),
                "simulator.step": (self._before_step, None),
                "oracles.full_sweep": (None, self._after_sweep),
                "confirmation.confirm_suspicion": (self._enter_confirm, self._after_confirm),
            })
            for name in PATCH_SITES:
                hooks.setdefault(name, (None, None))
        for name, (before, after) in hooks.items():
            sites = PATCH_SITES[name]
            original = getattr(*sites[0])
            wrapped = self._wrap(name, original, before, after)
            for owner, attr in sites:
                setattr(owner, attr, wrapped)

    def _wrap(self, name, fn, before, after):
        calls, self_s, stack, counts = self.calls, self.self_s, self._stack, self.counts
        if not self.timed:
            tick = self.yardstick.tick

            def counted(*args, **kwargs):
                calls[name] += 1
                tick()
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    counts[name + ".failed"] += 1
                    raise
                return result

            return counted

        def spanned(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".failed"] += 1
                raise
            finally:
                duration = clock() - start
                children = stack.pop()
                calls[name] += 1
                self_s[name] += duration - children
                if stack:
                    stack[-1] += duration
            if after is not None:
                after(result)
            return result

        return spanned

    # -- ceiling counters and layer counts ----------------------------------

    def _before_prompt(self, args, kwargs) -> None:
        # Key of a would-be prompt cache: (shape, identity, corpus_seed, vocab).
        shape, identity, corpus_seed = args[:3]
        vocab = args[3] if len(args) > 3 else kwargs.get("vocab_size", 1024)
        key = (shape, identity, corpus_seed, vocab)
        if key in self._seen_prompts:
            self.counts["prompt_repeats"] += 1
        else:
            self._seen_prompts.add(key)

    def _before_step(self, args, kwargs) -> None:
        core = args[0]
        if not core.waiting and not core.running and not core.loading:
            self.counts["idle_steps"] += 1

    def _after_execute(self, report) -> None:
        if self._confirm_depth:
            self.counts["replays"] += 1
        kinds = Counter(event.kind for event in report.kv_events)
        self.counts["kv_events"] += len(report.kv_events)
        self.counts["prefix_hits"] += kinds["prefix_hit"]
        self.counts["allocs"] += kinds["alloc"]
        self.counts["evicts"] += kinds["evict"]

    def _after_sweep(self, suspicions) -> None:
        self.counts["suspicions"] += len(suspicions)

    def _enter_confirm(self, args, kwargs) -> None:
        self._confirm_depth += 1

    def _after_confirm(self, outcome) -> None:
        self._confirm_depth -= 1
        if isinstance(outcome, confirmation.Finding):
            self.counts["confirm_findings"] += 1

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s), "counts": dict(self.counts)}
