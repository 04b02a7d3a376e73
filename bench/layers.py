"""Per-layer probes for voicesep, installed on a Tracer for a traced run.

Each probe wraps a function at the attribute its callers look up at call
time: `trainer` imported `clip_global_norm` by name, so the probe replaces
`trainer.clip_global_norm`, not `optim.clip_global_norm`; `model.forward`
finds `encode`, `mulcat_block` and `decode_head` as module globals;
`evalkit` and `trainer` call `model.separate` through the module. Methods
are wrapped on their class. Nothing under src/ is edited.

Every per-layer metric is reported on every workload, 0 where the workload
does not reach the layer (no backward pass in separate-long, for one).
A `_s` metric is the span's self time summed over the whole traced run,
set-up included, except three: `autodiff.backward_s` and `trainer.step_s`
are medians per backward pass and per training step, and
`model.separate_s` includes the forward pass that separate() runs.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
import weakref

from voicesep import (autodiff, checkpoint, data, dsp, embedder, evalkit,
                      losses, model, optim, trainer)

# Backward ops reported by name; every other op is summed under "other".
BWD_OPS = ("bilstm_bank", "linear", "mul", "concat", "conv1d",
           "conv1d_transpose", "conv2d")

# (owner, attribute, span name): functions recorded as spans.
SPANS = [
    (autodiff, "bilstm_bank", "autodiff.bilstm_bank.fwd"),
    (model, "encode", "model.encode"),
    (model, "decode_head", "model.decode_head"),
    (model, "forward", "model.forward"),
    (model, "separate", "model.separate"),
    (dsp, "chunk", "dsp.chunk"),
    (dsp, "overlap_add", "dsp.overlap_add"),
    (losses, "multiscale_loss", "losses.multiscale_loss"),
    (losses, "id_loss", "losses.id_loss"),
    (trainer, "clip_global_norm", "optim.clip"),
    (trainer, "train", "trainer.train"),
    (evalkit, "select_count", "evalkit.select_count"),
    (evalkit, "evaluate", "evalkit.evaluate"),
    (evalkit, "calibrate_threshold", "evalkit.calibrate"),
    (data, "build_corpus", "data.build_corpus"),
    (data, "load_manifest", "data.load_manifest"),
    (checkpoint, "save_separator", "checkpoint.save"),
]

# (owner, attribute, counter): functions only counted.
COUNTS = [
    (losses, "upit", "losses.upit_calls"),
    (losses, "si_snr", "losses.si_snr_calls"),
    (embedder.EmbedderModel, "embed_tensor", "embedder.embed_tensor_calls"),
]


def _mulcat_name(_model, _ct, index):
    # odd blocks recur along the chunk index (R), even ones within a chunk
    return "model.mulcat_r" if index % 2 == 1 else "model.mulcat_k"


def sample_live_bytes(tracer, run) -> list[int]:
    """Call `run()` with tracemalloc on and return the bytes it traced as
    live when each backward pass started. This is a pass of its own: the
    tracemalloc hook on every allocation would slow the timed spans, the
    small-array ones (losses, optim) several times over."""
    backward = autodiff.Tape.backward
    live: list[int] = []

    def sampled(tape, loss):
        live.append(tracemalloc.get_traced_memory()[0])
        return backward(tape, loss)

    tracer.patch(autodiff.Tape, "backward", sampled)
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
        tracer.restore()
    return live


class LayerProbes:
    """Wraps the voicesep layers on `tracer` and turns its spans into the
    per-layer metrics."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.tape_nodes: list[int] = []
        self.tapes_alive_max = 0
        self.step_ends: list[float] = []
        self._tapes: list = []

    def install(self) -> None:
        t = self.tracer
        for owner, attr, name in SPANS:
            t.patch(owner, attr, t.wrap(getattr(owner, attr), name))
        t.patch(model, "mulcat_block", t.wrap(model.mulcat_block,
                                              _mulcat_name))
        for owner, attr, key in COUNTS:
            t.patch(owner, attr, t.counted(getattr(owner, attr), key))
        self._install_tape()
        self._install_adam()

    def _install_tape(self) -> None:
        t = self.tracer
        Tape = autodiff.Tape
        enter, record, backward = Tape.__enter__, Tape.record, Tape.backward

        def traced_enter(tape):
            alive = sum(1 for ref in self._tapes if ref() is not None)
            self.tapes_alive_max = max(self.tapes_alive_max, alive)
            self._tapes.append(weakref.ref(tape))
            return enter(tape)

        begin, end = t.begin, t.end

        def traced_record(tape, out, bwd):
            owner = bwd.__qualname__.split(".")[0]
            name = "autodiff.bwd." + (owner if owner in BWD_OPS else "other")

            # One wrapper per tape node, kept as small as possible: every
            # object it allocates lives as long as the tape and makes the
            # garbage collector run at other times than untraced.
            def timed(g, bwd=bwd, name=name):
                idx = begin(name)
                try:
                    bwd(g)
                finally:
                    end(idx)
            return record(tape, out, timed)

        def traced_backward(tape, loss):
            self.tape_nodes.append(len(tape))
            return backward(tape, loss)

        t.patch(Tape, "__enter__", traced_enter)
        t.patch(Tape, "record", traced_record)
        t.patch(Tape, "backward", t.wrap(traced_backward,
                                         "autodiff.backward"))

    def _install_adam(self) -> None:
        step = optim.Adam.step
        wrapped = self.tracer.wrap(step, "optim.adam_step")

        def traced_step(opt):
            try:
                return wrapped(opt)
            finally:
                self.step_ends.append(time.perf_counter())
        self.tracer.patch(optim.Adam, "step", traced_step)

    # -- metrics ------------------------------------------------------------

    def _step_times(self) -> list[float]:
        """Wall time between step boundaries (the end of each optimizer
        step), the first step starting where its train() call began."""
        t = self.tracer
        events = sorted([(s, True) for n, s in zip(t.names, t.starts)
                         if n == "trainer.train"] +
                        [(e, False) for e in self.step_ends])
        out = []
        prev = None
        for when, is_train_start in events:
            if not is_train_start:
                out.append(when - prev)
            prev = when
        return out

    def metrics(self, live_bytes=()) -> dict:
        """{name: (value, unit)} for every per-layer metric, 0 for a layer
        this run did not reach; `live_bytes` are the samples of
        sample_live_bytes(), if taken."""
        t = self.tracer
        tot = t.totals()
        out: dict = {}

        def self_s(span, metric=None):
            out[metric or span + "_s"] = (tot.get(span, (0, 0.0))[1], "s")

        def calls(span, metric):
            out[metric] = (tot.get(span, (0,))[0], "count")

        def median(values):
            return statistics.median(values) if values else 0.0

        self_s("autodiff.bilstm_bank.fwd")
        calls("autodiff.bilstm_bank.fwd", "autodiff.bilstm_bank.fwd_calls")
        out["autodiff.backward_s"] = (median(
            [e - s for n, s, e in zip(t.names, t.starts, t.ends)
             if n == "autodiff.backward"]), "s")
        calls("autodiff.backward", "autodiff.backward_calls")
        for op in BWD_OPS + ("other",):
            self_s("autodiff.bwd." + op)
        out["autodiff.tape_nodes"] = (median(self.tape_nodes), "count")
        out["autodiff.tapes_alive_max"] = (self.tapes_alive_max, "count")
        out["autodiff.live_bytes_at_backward"] = (
            live_bytes[0] if live_bytes else 0, "bytes")
        out["autodiff.live_bytes_at_backward_max"] = (
            max(live_bytes, default=0), "bytes")
        for span in ("model.encode", "model.mulcat_r", "model.mulcat_k",
                     "model.decode_head", "model.forward", "dsp.chunk",
                     "dsp.overlap_add", "losses.multiscale_loss",
                     "losses.id_loss", "optim.clip", "optim.adam_step",
                     "evalkit.select_count", "evalkit.calibrate",
                     "data.build_corpus", "data.load_manifest",
                     "checkpoint.save"):
            self_s(span)
        # inclusive: the forward pass it runs is the work it stands for
        out["model.separate_s"] = (
            tot.get("model.separate", (0, 0.0, 0.0))[2], "s")
        calls("model.separate", "model.separate_calls")
        self_s("evalkit.evaluate", "evalkit.score_s")
        in_eval = sum(1 for i, n in enumerate(t.names)
                      if n == "model.separate"
                      and t.has_ancestor(i, "evalkit.evaluate"))
        evaluations = tot.get("evalkit.evaluate", (0,))[0]
        out["evalkit.separations_per_mix"] = (
            in_eval / evaluations if evaluations else 0.0, "count")
        for key in ("losses.upit_calls", "losses.si_snr_calls",
                    "embedder.embed_tensor_calls"):
            out[key] = (t.counts[key], "count")
        steps = self._step_times()
        out["trainer.step_s"] = (median(steps), "s")
        out["trainer.step_max_s"] = (max(steps, default=0.0), "s")
        out["trace.spans"] = (len(t.names), "count")
        return out
