"""Span tracing around the repro layers, installed from outside the program.

A :class:`Tracer` replaces each layer entry point *at the name its caller
looks up* (a module attribute such as ``repro.core.matvec.pad_to_soti``,
or a class attribute such as ``FFTPlan.execute``) with a wrapper that
records a span, and puts every original back on exit.  Spans stay in
memory -- name, layer, start, end, parent span and op id -- until the
run ends; :meth:`Tracer.dump` writes them out.  All times here are
*measured* wall time (``time.perf_counter``).

A layer's time is the sum of its spans' self time: a span's duration
minus the part of it its child spans cover.  Summed over all layers that
is exactly the time inside top-level spans, with nothing counted twice
(a collective that verifies its payload charges the verification to the
``checksum`` layer, not to ``comm``).
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Span", "Target", "Tracer", "layer_targets", "LAYERS"]

LAYERS = (
    "engine",
    "phases",
    "fft",
    "reorder",
    "blas",
    "checksum",
    "comm",
    "cg",
    "serve",
)


@dataclass
class Span:
    """One traced call."""

    id: int
    parent: Optional[int]
    op: Optional[int]
    layer: str
    name: str
    start: float
    end: float = 0.0
    error: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


Hook = Callable[[Span, tuple, dict, Any], None]


@dataclass(frozen=True)
class Target:
    """A layer entry point: ``owner.attr`` is wrapped while tracing.

    ``pre`` runs before the call and ``post`` after it returns (with the
    result); both may fill ``span.attrs``.  ``opens_op`` gives the span
    (and everything it calls on its thread) a fresh op id -- for work
    that starts on a thread the workload does not drive, such as the
    serving executor.
    """

    owner: Any
    attr: str
    layer: str
    pre: Optional[Hook] = None
    post: Optional[Hook] = None
    opens_op: bool = False


def _nbytes(a: Any) -> int:
    return int(getattr(a, "nbytes", 0))


def _reorder_bytes(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    # Computed traffic: read the input once, write the output once.
    span.attrs["bytes"] = _nbytes(args[0]) + _nbytes(result)


def _flops(a_shape, k: int, dtype) -> float:
    batch, m, n = (int(s) for s in a_shape)
    per = 8.0 if getattr(dtype, "kind", "c") == "c" else 2.0
    return per * batch * m * n * k


def _gemm_flops(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    a, b = args[1], args[2]  # (self, A, B, ...)
    span.attrs["flops"] = _flops(a.shape, int(b.shape[2]), a.dtype)


def _gemv_flops(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["flops"] = _flops(args[1].shape, 1, args[1].dtype)


def _gemm_fn_flops(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    a, b = args[0], args[1]  # (A, B, op, ...)
    span.attrs["flops"] = _flops(a.shape, int(b.shape[2]), a.dtype)


def _gemv_fn_flops(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["flops"] = _flops(args[0].shape, 1, args[0].dtype)  # (A, x, op, ...)


def _comm_bytes_before(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["bytes"] = -float(args[0].bytes_communicated)


def _comm_bytes_after(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["bytes"] += float(args[0].bytes_communicated)


def _cg_iters(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["iters"] = int(result.iterations)


def _flush_queue(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    batch = args[2]  # SolverService._execute(self, gkey, batch)
    span.attrs["k"] = len(batch)
    span.attrs["queue_s"] = [span.start - req.t_submit for req in batch]


def layer_targets() -> List[Target]:
    """Every entry point the benchmark traces, grouped by layer."""
    import repro.blas.gemm_kernels as gemm_kernels
    import repro.blas.gemv_kernels as gemv_kernels
    import repro.core.matvec as matvec
    import repro.inverse.cg as cg
    import repro.util.checksum as checksum
    from repro.blas.dispatch import SBGEMVDispatcher
    from repro.comm.simcomm import SimCommunicator
    from repro.core.parallel import ParallelFFTMatvec
    from repro.fft.plan import FFTPlan
    from repro.serve.service import SolverService

    targets = [
        Target(matvec, "pad_to_soti", "phases"),
        Target(matvec, "unpad_from_soti", "phases"),
        Target(matvec, "soti_to_tosi", "reorder", post=_reorder_bytes),
        Target(matvec, "tosi_to_soti", "reorder", post=_reorder_bytes),
        Target(FFTPlan, "execute", "fft"),
        Target(FFTPlan, "inverse", "fft"),
        Target(SBGEMVDispatcher, "gemm_strided_batched", "blas", post=_gemm_flops),
        Target(SBGEMVDispatcher, "gemv_strided_batched", "blas", post=_gemv_flops),
        Target(gemm_kernels, "pairwise_segment_values", "blas", post=_gemm_fn_flops),
        # The reference kernels: Phase 3 of an engine without a device
        # (the serving engines), and the body of some dispatcher kernels.
        Target(gemv_kernels, "gemv_strided_batched_reference", "blas", post=_gemv_fn_flops),
        Target(gemm_kernels, "gemm_strided_batched_reference", "blas", post=_gemm_fn_flops),
        Target(
            gemm_kernels, "pairwise_gemm_strided_batched_reference", "blas",
            post=_gemm_fn_flops,
        ),
        Target(gemm_kernels, "gemm_checksum_verify", "checksum"),
        Target(cg, "conjugate_gradient", "cg", post=_cg_iters),
        Target(cg, "block_conjugate_gradient", "cg", post=_cg_iters),
        Target(SolverService, "_execute", "serve", pre=_flush_queue, opens_op=True),
    ]
    for name in (
        "verify_forward_energy",
        "verify_inverse_energy",
        "verify_gemm_checksums",
        "verify_payload",
        "verify_table",
        "payload_digest",
        "table_digest",
    ):
        targets.append(Target(checksum, name, "checksum"))
    for op in SimCommunicator._OPS + ("reduce_segments",):
        targets.append(
            Target(
                SimCommunicator, op, "comm",
                pre=_comm_bytes_before, post=_comm_bytes_after,
            )
        )
    for engine in (matvec.FFTMatvec, ParallelFFTMatvec):
        for name in ("matvec", "rmatvec", "matmat", "rmatmat"):
            targets.append(Target(engine, name, "engine"))
    return targets


class Tracer:
    """Records spans around :func:`layer_targets` while installed.

    Use as a context manager; the originals are restored on exit even
    when the traced code raises.  Thread-safe for the one pattern the
    benchmark has: the serving executor thread records spans while the
    event-loop thread drives requests (each thread keeps its own span
    stack and op id).
    """

    def __init__(self, targets: Optional[List[Target]] = None) -> None:
        self.targets = layer_targets() if targets is None else targets
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._local = threading.local()
        self._saved: List[tuple] = []
        self.t0 = time.perf_counter()

    # -- op ids -----------------------------------------------------------------
    def begin_op(self) -> int:
        """Start a new op on the calling thread; later spans carry its id."""
        op = next(self._ops)
        self._local.op = op
        return op

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    # -- install / restore ----------------------------------------------------------
    def __enter__(self) -> "Tracer":
        for t in self.targets:
            original = inspect.getattr_static(t.owner, t.attr)
            self._saved.append((t.owner, t.attr, original))
            setattr(t.owner, t.attr, self._wrap(t, getattr(t.owner, t.attr)))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        layer, name = target.layer, f"{getattr(target.owner, '__name__', '?')}.{target.attr}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            saved_op = getattr(self._local, "op", None)
            if target.opens_op:
                self.begin_op()
            span = Span(
                id=next(self._ids),
                parent=stack[-1] if stack else None,
                op=getattr(self._local, "op", None),
                layer=layer,
                name=name,
                start=time.perf_counter(),
            )
            self.spans.append(span)
            if target.pre is not None:
                target.pre(span, args, kwargs, None)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if target.opens_op:
                    self._local.op = saved_op
            if target.post is not None:
                target.post(span, args, kwargs, result)
            return result

        return traced

    # -- summaries ----------------------------------------------------------------
    def self_times(self) -> Dict[int, float]:
        """Self time of every span, by span id."""
        out = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def outermost(self, layer: str) -> List[Span]:
        """Spans of ``layer`` with no ancestor of the same layer."""
        by_id = {s.id: s for s in self.spans}
        out = []
        for s in self.spans:
            if s.layer != layer:
                continue
            p = s.parent
            while p is not None and by_id[p].layer != layer:
                p = by_id[p].parent
            if p is None:
                out.append(s)
        return out

    def layer_seconds(self) -> Dict[str, float]:
        """Measured self time per layer, in seconds."""
        selfs = self.self_times()
        totals = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            totals[s.layer] = totals.get(s.layer, 0.0) + selfs[s.id]
        return totals

    def dump(self, path, extra: Dict[str, Any]) -> None:
        """Write every span (times relative to tracer creation) plus
        ``extra`` (host fingerprint, modeled clock totals) as JSON."""
        doc = dict(extra)
        doc["clock"] = "measured: time.perf_counter seconds since tracer start"
        doc["spans"] = [
            {
                "id": s.id,
                "parent": s.parent,
                "op": s.op,
                "layer": s.layer,
                "name": s.name,
                "start": s.start - self.t0,
                "end": s.end - self.t0,
                "error": s.error,
                "attrs": s.attrs,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
