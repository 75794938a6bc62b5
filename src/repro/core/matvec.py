"""The FFTMatvec engine: five-phase F / F* matvecs on one (simulated) GPU.

Algorithm (paper Section 2.4) for ``d = F m``:

1. **pad** — broadcast (trivial on one GPU) and zero-pad the input into
   the circulant embedding, converting to space-outer layout;
2. **fft** — batched real-to-complex FFT of every spatial point's time
   series (length ``2*Nt``, giving ``Nt+1`` frequencies);
3. **sbgemv** — per-frequency block-diagonal matvec
   ``d_hat[k] = F_hat[k] @ m_hat[k]`` as one strided-batched GEMV
   (batch ``Nt+1``), via the rocBLAS dispatcher;
4. **ifft** — batched complex-to-real inverse FFT of the outputs;
5. **unpad** — drop the padding, reduce across the process grid (a
   no-op here; see :mod:`repro.core.parallel`), return to time-outer
   layout.

``F* d`` runs the same pipeline with the conjugate-transpose SBGEMV and
input/output roles swapped.  Every phase computes in the precision its
:class:`~repro.core.precision.PrecisionConfig` assigns; casts are fused
into the adjacent memory operations; inputs and outputs are always
double precision (Section 3.2).  The spectrum ``F_hat`` is precomputed
in double precision at setup, with the ``1/(2*Nt)`` inverse-transform
normalization folded in.

**Blocked multi-RHS path** (:meth:`FFTMatvec.matmat` /
:meth:`FFTMatvec.rmatmat`): ``k`` right-hand sides flow through *one*
pipeline pass — one pad kernel, one batched FFT with batch ``k * space``,
a per-frequency strided-batched **GEMM** (``F_hat[f] @ M_hat[f]`` with
``M_hat[f]`` an ``(Nm, k)`` panel) via the same dispatcher, one inverse
FFT and one unpad.  The spectrum — the dominant Phase-3 traffic — is
read once instead of ``k`` times, and the per-call launch/plan overhead
of the other phases is paid once, which is where block solvers,
posterior sampling and OED sweeps get their speedup.  The vector apply
is the same pipeline at ``k = 1``: one front half (pad → Phase 3) and
one back half (reorder → unpad) serve every entry point.
"""

from __future__ import annotations

import contextlib
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple, Union

import numpy as np

from repro.backend import Backend, host_empty, resolve_backend
from repro.blas.dispatch import SBGEMVDispatcher
from repro.blas.types import Operation
from repro.core.phases import pad_to_soti, unpad_from_soti
from repro.core.precision import PrecisionConfig
from repro.core.reorder import soti_to_tosi, tosi_to_soti
from repro.core.toeplitz import BlockTriangularToeplitz
from repro.fft.plan import FFTPlan, FFTType
from repro.gpu.device import SimulatedDevice
from repro.util import checksum as _chk
from repro.util.blocking import check_block, check_out_buffer
from repro.util.dtypes import Precision, cast_to, complex_dtype, real_dtype
from repro.util.timing import TimingReport
from repro.util.validation import ReproError
from repro.util.workspace import Workspace

__all__ = ["FFTMatvec"]

_PHASES = ("pad", "fft", "sbgemv", "ifft", "unpad")

_VALIDATE_MODES = ("guard", "abft")

# Corruption-schedule stage name of each hooked phase boundary.
_INJECT_STAGE = {"fft": "fft", "sbgemv": "sbgemm", "ifft": "ifft"}


@contextlib.contextmanager
def _apply_scope(ws: Optional[Workspace]):
    """Bracket one apply in the arena's re-entrancy guard.

    No-op without a workspace; otherwise cursors reset and a second
    apply interleaving on the same arena raises :class:`ReproError`
    instead of aliasing checkout slots.
    """
    if ws is None:
        yield
        return
    ws.begin_apply()
    try:
        yield
    finally:
        ws.end_apply()


def _parse_validate(validate) -> frozenset:
    """Parse a ``validate=`` spec into its mode set.

    ``None``/``False``/``""`` mean no checks; a string is a
    ``"+"``-separated combination of ``"guard"`` (NaN/Inf at every
    five-phase boundary) and ``"abft"`` (checksum/energy verification of
    the compute phases).  ``True`` enables everything.
    """
    if validate is None or validate is False or validate == "":
        return frozenset()
    if validate is True:
        return frozenset(_VALIDATE_MODES)
    modes = frozenset(t for t in str(validate).split("+") if t)
    bad = modes - set(_VALIDATE_MODES)
    if bad:
        raise ReproError(
            f"unknown validate mode(s) {sorted(bad)}; pick from "
            f"{list(_VALIDATE_MODES)} joined with '+'"
        )
    return modes


class FFTMatvec:
    """FFT-based matvec engine for a block lower-triangular Toeplitz matrix.

    Parameters
    ----------
    matrix:
        A :class:`BlockTriangularToeplitz` or a raw ``(Nt, Nd, Nm)``
        kernel-block array.
    device:
        Optional :class:`SimulatedDevice`; when given, every phase
        charges modeled time to the device clock and ``last_timing``
        holds the per-phase breakdown of the most recent call.
    use_optimized_sbgemv:
        When False, the dispatcher is bypassed and the original rocBLAS
        kernel handles the (conjugate) transpose SBGEMV too — the
        pre-optimization behaviour used in ablation benches.
    workspace:
        ``True`` builds a private :class:`Workspace` arena (registered
        with the device allocator when a device is attached), a
        :class:`Workspace` instance is used as given, ``None``/``False``
        keeps the allocate-per-call reference path.  With an arena every
        phase of the pipeline writes into persistent checked-out
        buffers — numerics are bitwise-identical either way; only the
        allocation behaviour changes.
    backend:
        Array backend for the hot path: a :class:`Backend` instance, a
        name (``"numpy"``/``"cupy"``/``"torch"``, explicit mode — raises
        when unavailable), or ``None`` to follow ``REPRO_BACKEND``
        (default ``auto``: cupy → torch → numpy).  Inputs and outputs
        stay host float64 on every backend.
    reduction:
        ``"fast"`` (default) lets Phase 3 accumulate in whatever order
        the selected BLAS kernel's tiling produces.  ``"pairwise"``
        pins the fixed binary-tree order of :mod:`repro.util.pairwise`
        instead: every block column is bitwise its vector apply at any
        block width, with or without ``deterministic`` (which pairwise
        ignores), and on the grid engine any contraction-axis
        partition — including width-1 parts — reproduces the same bits.
        Costs the modeled determinism tax of
        :class:`~repro.blas.gemm_kernels.PairwiseSBGEMM`.
    validate:
        SDC defense checks, off by default.  ``"guard"`` runs the
        NaN/Inf numerical-health guard at every five-phase boundary
        (raising :class:`~repro.util.checksum.NumericalHealthError`);
        ``"abft"`` verifies each compute phase algebraically — Parseval
        energy checks after the FFT/IFFT, Huang–Abraham column checksums
        after the SBGEMM panel — raising
        :class:`~repro.util.checksum.SilentCorruption` on mismatch.
        Combine with ``"guard+abft"`` (or ``True``).  Installing a
        :class:`~repro.comm.fault.CorruptionSchedule` implies the
        ``abft`` checks, so every injected flip has a detector armed.
    """

    def __init__(
        self,
        matrix: Union[BlockTriangularToeplitz, np.ndarray],
        device: Optional[SimulatedDevice] = None,
        use_optimized_sbgemv: bool = True,
        workspace: Union[None, bool, Workspace] = None,
        backend: Union[None, str, Backend] = None,
        reduction: str = "fast",
        validate: Union[None, bool, str] = None,
    ) -> None:
        if reduction not in ("fast", "pairwise"):
            raise ReproError(
                f"reduction must be 'fast' or 'pairwise', got {reduction!r}"
            )
        self.reduction = reduction
        self.validate_modes = _parse_validate(validate)
        self.rank_label: Optional[int] = None  # grid rank, set by the owner
        self._corruption = None  # CorruptionSchedule, armed via install_*
        self.sdc_checks = 0  # abft/energy verifications that passed
        self.matrix = (
            matrix
            if isinstance(matrix, BlockTriangularToeplitz)
            else BlockTriangularToeplitz(np.asarray(matrix))
        )
        self.backend = resolve_backend(backend)
        self.device = device
        self.use_optimized_sbgemv = use_optimized_sbgemv
        self.nt = self.matrix.nt
        self.nd = self.matrix.nd
        self.nm = self.matrix.nm
        self.n_pad = 2 * self.nt
        self.n_freq = self.nt + 1

        spec = device.spec if device is not None else None
        self.dispatcher = SBGEMVDispatcher(spec) if spec is not None else None

        # Setup: F_hat in double precision (one-time, not perf-critical),
        # with the 1/(2*Nt) inverse normalization folded in.  The host
        # double copy is authoritative; per-precision backend copies are
        # cached lazily in spectrum().
        self._fhat_host = self._setup_spectrum()
        self._fhat: Dict[Precision, Any] = {}
        self.setup_time = (
            self.device.clock.phase_total("setup") if self.device is not None else 0.0
        )

        self._plans: "OrderedDict[Tuple[str, Precision, int], FFTPlan]" = (
            OrderedDict()
        )
        self.plan_evictions = 0  # plans dropped by the LRU bound
        self.last_timing: Optional[TimingReport] = None
        self.matvec_count = 0
        self.matmat_count = 0
        self.cast_noop_count = 0  # inter-phase casts skipped (equal precisions)
        self._ref_cache: Dict[Tuple[bool, Tuple[int, ...], bytes], np.ndarray] = {}
        self._fhat_conj: Dict[Precision, Any] = {}
        if workspace is True:
            workspace = Workspace(
                allocator=device.allocator if device is not None else None,
                name="fftmatvec",
                backend=self.backend,
            )
        elif workspace is False:
            workspace = None
        elif workspace is not None and workspace.backend.name != self.backend.name:
            raise ReproError(
                f"workspace backend {workspace.backend.name!r} does not match "
                f"engine backend {self.backend.name!r}"
            )
        self.workspace: Optional[Workspace] = workspace

    # -- setup -----------------------------------------------------------------
    def _setup_spectrum(self) -> np.ndarray:
        """Precompute F_hat (always double precision, Section 3.2).

        Follows the real code's data flow: the kernel blocks arrive
        lag-major ``(Nt, Nd, Nm)``; the batched FFT wants lag-contiguous
        ``(Nd, Nm, 2*Nt)``, and the strided-batched GEMV wants
        frequency-major ``(Nt+1, Nd, Nm)`` — two 3-D permutations around
        the FFT.  These are the permutations cuTENSOR performed in the
        original CUDA code and the custom kernel performs after
        hipification (see :mod:`repro.blas.permute`).
        """
        from repro.blas.permute import permute3d

        ctx = (
            self.device.clock.phase("setup")
            if self.device is not None
            else contextlib.nullcontext()
        )
        with ctx:
            return self._setup_spectrum_inner(permute3d)

    def _setup_spectrum_inner(self, permute3d) -> np.ndarray:
        padded = self.matrix.padded_kernel()  # (2*Nt, Nd, Nm), lag-major
        # (2Nt, Nd, Nm) -> (Nd, Nm, 2Nt): lags contiguous for the FFT.
        lag_inner = permute3d(padded, (1, 2, 0), device=self.device, phase="setup")
        plan = FFTPlan(
            n=self.n_pad,
            batch=self.nd * self.nm,
            fft_type=FFTType.D2Z,
            device=self.device,
        )
        spec = plan.execute(
            lag_inner.reshape(self.nd * self.nm, self.n_pad), phase="setup"
        ).reshape(self.nd, self.nm, self.n_freq)
        # (Nd, Nm, Nt+1) -> (Nt+1, Nd, Nm): frequency-major for SBGEMV.
        freq_major = permute3d(spec, (2, 0, 1), device=self.device, phase="setup")
        scale = 1.0 / float(self.n_pad)  # fold in the IFFT normalization
        return (freq_major * scale).astype(np.complex128)

    def _fhat_double_for_tests(self) -> np.ndarray:
        """The double-precision host spectrum (test hook)."""
        return self._fhat_host

    # -- cached resources ----------------------------------------------------
    def spectrum(self, precision: Precision) -> Any:
        """F_hat at the requested precision on the engine backend
        (single copy cached lazily; identity for numpy double)."""
        precision = Precision.parse(precision)
        if precision not in self._fhat:
            self._fhat[precision] = self.backend.asarray(
                cast_to(self._fhat_host, precision)
            )
        return self._fhat[precision]

    def spectrum_conj(self, precision: Precision) -> Any:
        """The conjugated spectrum at the requested precision, cached.

        The adjoint GEMM applies the conjugated spectrum on every
        iteration; caching the exact bytes a fresh conjugation would
        produce keeps repeated adjoint applies from re-materializing the
        largest array on the hot path, with bitwise-unchanged results.
        """
        precision = Precision.parse(precision)
        if precision not in self._fhat_conj:
            self._fhat_conj[precision] = self.backend.conjugate(
                self.spectrum(precision)
            )
        return self._fhat_conj[precision]

    # Bound on the (kind, precision, batch)-keyed FFT-plan cache.  Under
    # serving load the batch dimension varies with every coalesced block
    # width, so an unbounded dict would grow one plan per (k, precision)
    # ever seen; least-recently-used plans are dropped past this size
    # (per instance — override the attribute to tune).
    plan_cache_size = 32

    def _plan(self, kind: str, precision: Precision, batch: int) -> FFTPlan:
        key = (kind, precision, batch)
        plan = self._plans.get(key)
        if plan is not None:
            self._plans.move_to_end(key)
            return plan
        if kind == "fwd":
            t = FFTType.real_forward(precision)
        else:
            t = FFTType.real_inverse(precision)
        plan = FFTPlan(
            n=self.n_pad,
            batch=batch,
            fft_type=t,
            device=self.device,
            backend=self.backend,
        )
        self._plans[key] = plan
        limit = max(1, int(self.plan_cache_size))
        while len(self._plans) > limit:
            self._plans.popitem(last=False)
            self.plan_evictions += 1
        return plan

    def geometry_key(
        self, config: Union[None, str, PrecisionConfig] = None
    ) -> Tuple:
        """Stable, hashable fingerprint of this engine's geometry.

        Two engines with equal keys run the same five-phase shapes:
        problem extents, padded/frequency lengths, backend name and the
        simulated device (None without one).  ``config`` folds a
        precision configuration into the key for callers that cache per
        config.  The serving layer's coalescer and
        :class:`~repro.serve.cache.EngineCache` group requests by this
        key (plus the kernel-content digest — geometry says nothing
        about the Toeplitz blocks' values).

        The reduction mode is part of the key: a fast-mode and a
        pairwise-mode engine produce different bits for the same
        operator, so the serving layer must never coalesce their
        requests or share a cached engine between them.
        """
        return (
            "FFTMatvec",
            self.nt,
            self.nd,
            self.nm,
            self.n_pad,
            self.n_freq,
            self.backend.name,
            self.device.spec.name if self.device is not None else None,
            self.reduction,
            str(PrecisionConfig.parse(config)) if config is not None else None,
        )

    # -- phase wrappers ------------------------------------------------------
    def _phase_ctx(self, name: str):
        if self.device is not None:
            return self.device.clock.phase(name)
        return contextlib.nullcontext()

    def _run_sbgemv(
        self, mhat: Any, operation: Operation, precision: Precision
    ) -> Any:
        be = self.backend
        fhat = self.spectrum(precision)
        out = x_conj = None
        if self.workspace is not None:
            out_len = fhat.shape[1] if operation is Operation.N else fhat.shape[2]
            out = self.workspace.checkout(
                "sbgemv_out", (fhat.shape[0], out_len), be.dtype_of(fhat)
            )
            if operation is Operation.C:
                # Stage the adjoint's conj(x) in the arena — bitwise the
                # bytes a fresh conjugation would produce, no per-apply
                # temporary.
                x_conj = self.workspace.checkout(
                    "sbgemv_conj_x", tuple(mhat.shape), be.dtype_of(mhat)
                )
                be.conjugate(mhat, out=x_conj)
        if self.dispatcher is not None:
            if self.use_optimized_sbgemv:
                return self.dispatcher.gemv_strided_batched(
                    fhat,
                    mhat,
                    operation,
                    device=self.device,
                    phase="sbgemv",
                    out=out,
                    x_conj=x_conj,
                    backend=be,
                )
            # Ablation: force the original kernel through the same path.
            from repro.blas.gemv_kernels import RocblasSBGEMV
            from repro.blas.types import BlasDatatype, GemvProblem

            problem = GemvProblem(
                m=self.nd,
                n=self.nm,
                batch=self.n_freq,
                datatype=BlasDatatype.from_dtype(be.dtype_of(fhat)),
                operation=operation,
            )
            return RocblasSBGEMV().run(
                fhat,
                mhat,
                problem,
                device=self.device,
                phase="sbgemv",
                out=out,
                x_conj=x_conj,
                backend=be,
            )
        from repro.blas.gemv_kernels import gemv_strided_batched_reference

        return gemv_strided_batched_reference(
            fhat, mhat, operation, out=out, x_conj=x_conj, backend=be
        )

    def _run_sbgemm(
        self, mhat: Any, operation: Operation, precision: Precision
    ) -> Any:
        """Blocked Phase 3: per-frequency GEMM on a (n_freq, nx, k) panel.

        Honors the engine's ``reduction`` mode: pairwise engines route
        through the fixed-tree kernel at every entry point (including
        the ``k == 1`` panel the GEMV degeneration would otherwise
        claim), so one accumulation order serves the whole engine.
        """
        be = self.backend
        fhat = self.spectrum(precision)
        # The conjugated spectrum is cached for the adjoint (op C): the
        # bytes match a fresh conjugation, so results are bitwise-unchanged.
        a_conj = self.spectrum_conj(precision) if operation is Operation.C else None
        out = None
        if self.workspace is not None:
            out_rows = fhat.shape[1] if operation is Operation.N else fhat.shape[2]
            out = self.workspace.checkout(
                "sbgemm_out",
                (fhat.shape[0], out_rows, mhat.shape[2]),
                be.dtype_of(fhat),
            )
        if self.dispatcher is not None:
            if self.use_optimized_sbgemv:
                return self.dispatcher.gemm_strided_batched(
                    fhat,
                    mhat,
                    operation,
                    device=self.device,
                    phase="sbgemv",
                    out=out,
                    a_conj=a_conj,
                    backend=be,
                    reduction=self.reduction,
                )
            # Ablation: force the vendor GEMM, mirroring the GEMV ablation
            # (wrapped in the fixed-tree order when the engine pins one).
            from repro.blas.gemm_kernels import PairwiseSBGEMM
            from repro.blas.types import BlasDatatype, GemmProblem

            problem = GemmProblem(
                m=self.nd,
                n=self.nm,
                k=mhat.shape[2],
                batch=self.n_freq,
                datatype=BlasDatatype.from_dtype(be.dtype_of(fhat)),
                operation=operation,
            )
            kernel = self.dispatcher.rocblas_gemm
            if self.reduction == "pairwise":
                kernel = PairwiseSBGEMM(kernel)
            return kernel.run(
                fhat,
                mhat,
                problem,
                device=self.device,
                phase="sbgemv",
                out=out,
                a_conj=a_conj,
                backend=be,
            )
        if self.reduction == "pairwise":
            from repro.blas.gemm_kernels import (
                pairwise_gemm_strided_batched_reference,
            )

            return pairwise_gemm_strided_batched_reference(
                fhat, mhat, operation, out=out, a_conj=a_conj, backend=be
            )
        from repro.blas.gemm_kernels import gemm_strided_batched_reference

        return gemm_strided_batched_reference(
            fhat, mhat, operation, out=out, a_conj=a_conj, backend=be
        )

    def _run_sbgemm_pairwise_segments(
        self,
        panel: Any,
        operation: Operation,
        precision: Precision,
        start: int,
        n_global: int,
    ) -> Dict[Tuple[int, int], Any]:
        """Phase 3 for a grid rank in pairwise mode: canonical segments.

        Instead of this rank's full local contraction (whose grouping
        would depend on the local width), compute the partial panel of
        every canonical tree segment of the rank's global range
        ``[start, start + nx)`` within an axis of length ``n_global``.
        The grid engine merges all ranks' segments in frequency domain
        (:func:`repro.comm.collectives.fixed_tree_reduce_segments`), so
        the full contraction is one fixed tree regardless of partition.
        Charges the local pairwise kernel's modeled launch.
        """
        from repro.blas.gemm_kernels import pairwise_segment_values

        be = self.backend
        fhat = self.spectrum(precision)
        a_conj = self.spectrum_conj(precision) if operation is Operation.C else None
        values = pairwise_segment_values(
            fhat, panel, operation, start, n_global, a_conj=a_conj, backend=be
        )
        if self.dispatcher is not None and self.device is not None:
            from repro.blas.types import BlasDatatype, GemmProblem

            problem = GemmProblem(
                m=self.nd,
                n=self.nm,
                k=panel.shape[2],
                batch=self.n_freq,
                datatype=BlasDatatype.from_dtype(be.dtype_of(fhat)),
                operation=operation,
            )
            kernel = self.dispatcher.select_gemm(problem, reduction="pairwise")
            self.dispatcher.dispatch_counts[kernel.name] += 1
            kernel.charge_launch(problem, self.device, phase="sbgemv")
        return values

    def _run_sbgemv_panel(
        self, mhat: Any, operation: Operation, precision: Precision
    ) -> Any:
        """Deterministic blocked Phase 3: k per-frequency GEMVs on a panel.

        ``mhat`` is the ``(n_freq, nx, k)`` panel :meth:`_run_sbgemm`
        would consume; column ``j`` of the result carries **bitwise** the
        bytes :meth:`_run_sbgemv` produces for column ``j`` alone.  The
        blocked GEMM does not have that property — its accumulation
        order over the shared ``nx`` contraction differs from the GEMV's
        — so serving-layer coalescing, which promises results identical
        to sequential applies, routes through this method instead.

        On the numpy backend without a device the k GEMVs run as one
        broadcast-batched matmul over strided per-column views (no
        copies, ~2.5-6x faster than looping Python-side).  With a
        dispatcher attached (or a non-numpy backend) the columns loop
        through :meth:`_run_sbgemv` so the modeled device time honestly
        charges k GEMV launches — the price of determinism the docs
        advertise.
        """
        be = self.backend
        nf, nx, k = mhat.shape
        ny = self.nd if operation is Operation.N else self.nm
        dt = be.dtype_of(mhat)
        ws = self.workspace
        if ws is not None:
            out = ws.checkout("det_sbgemv_out", (nf, ny, k), dt)
        else:
            out = be.empty((nf, ny, k), dt)
        if self.dispatcher is not None or be.name != "numpy":
            for j in range(k):
                out[:, :, j] = self._run_sbgemv(mhat[:, :, j], operation, precision)
            return out
        fhat = self.spectrum(precision)
        cols = np.moveaxis(mhat, 2, 0)  # (k, nf, nx) strided view
        out_v = np.moveaxis(out, 2, 0)  # (k, nf, ny) strided view
        if operation is Operation.N:
            # One GEMV per (column, frequency): (1,nf,ny,nx) @ (k,nf,nx,1).
            be.matmul(fhat[None], cols[..., None], out=out_v[..., None])
            return out
        # Adjoint GEMV per column: conj(conj(x)^T A), conjugated in
        # place after the write.  The contraction runs as matrix-vector
        # against the transposed spectrum *view* — same strided gufunc
        # accumulation as the row-vector form (bitwise-identical, the
        # coalescing tests assert it), but measurably faster; a
        # contiguous copy of the transpose would flip numpy into a BLAS
        # path with a different summation order and break the identity.
        # conj(x) is staged in a contiguous (k, nf, nx) buffer: a
        # conjugate that keeps the strided column layout changes that
        # order too at small nx.
        if ws is not None:
            x_conj = ws.checkout("det_sbgemv_conj_x", (k, nf, nx), dt)
        else:
            x_conj = be.empty((k, nf, nx), dt)
        be.conjugate(cols, out=x_conj)
        fhat_t = be.transpose(fhat, (0, 2, 1))
        be.matmul(fhat_t[None], x_conj[..., None], out=out_v[..., None])
        be.conjugate(out, out=out)
        return out

    # -- SDC defense: injection sites and algebraic checks ---------------------
    def install_corruption_schedule(
        self, schedule, rank: Optional[int] = None
    ) -> None:
        """Arm (or disarm, with ``None``) seeded device-buffer corruption.

        The schedule's shared event counter advances at this engine's
        FFT / SBGEMM / IFFT stages; when an event index is scheduled,
        the freshly computed stage buffer gets one bit flipped — and the
        abft checks (implied by an armed schedule) are expected to catch
        it immediately after.  ``rank`` labels this engine's position in
        a grid for error messages.
        """
        self._corruption = schedule
        if rank is not None:
            self.rank_label = int(rank)

    @property
    def _abft_on(self) -> bool:
        return "abft" in self.validate_modes or self._corruption is not None

    @property
    def _guard_on(self) -> bool:
        return "guard" in self.validate_modes

    def _corruption_where(self) -> str:
        return (
            "engine" if self.rank_label is None else f"engine_rank{self.rank_label}"
        )

    def _boundary(self, phase: str, buf: Any, verify: Callable[[], None]) -> None:
        """Hooks on a freshly computed stage buffer, in their one fixed
        order: inject → verify → guard.

        *Inject*: an armed corruption schedule counts the stage as one
        event and, when that event is scheduled, flips one bit of
        ``buf`` (of one segment panel when ``buf`` is a pairwise segment
        table).  *Verify*: with the abft checks on, ``verify()`` checks
        the stage algebraically and raises
        :class:`~repro.util.checksum.SilentCorruption` on mismatch.
        *Guard*: with the guard on, NaN/Inf in an array ``buf`` raises
        :class:`~repro.util.checksum.NumericalHealthError`.
        """
        table = isinstance(buf, dict)
        sched = self._corruption
        if sched is not None and (
            sched.on_event(_INJECT_STAGE[phase], self._corruption_where())
            is not None
        ):
            if table:
                _chk.flip_table_bit(buf, sched.element_index(1 << 30), bit=sched.bit)
            else:
                arr = np.asarray(buf)
                floats = int(arr.size) * (2 if arr.dtype.kind == "c" else 1)
                _chk.flip_bit(arr, sched.element_index(max(1, floats)), bit=sched.bit)
        if self._abft_on:
            verify()
            self.sdc_checks += 1
        if self._guard_on and not table:
            _chk.ensure_finite(
                self.backend.from_device(buf), phase=phase, rank=self.rank_label
            )

    def _verify_gemm(
        self, panel: Any, result: Any, operation: Operation, precision: Precision
    ) -> None:
        """ABFT column-checksum verification of a Phase-3 result.

        ``result`` is the ``(n_freq, ny, k)`` panel or a grid rank's
        canonical-segment table.  The segments tile the rank's whole
        contraction range, so their elementwise total must satisfy the
        same identity as the undivided local GEMM — one check covers
        every segment.
        """
        from repro.blas.gemm_kernels import gemm_checksum_verify

        context = ""
        if isinstance(result, dict):
            total = None
            for key in sorted(result.keys()):
                v = result[key]
                total = v if total is None else total + v
            result, context = total, "pairwise segments"
        a_conj = (
            self.spectrum_conj(precision) if operation is Operation.C else None
        )
        gemm_checksum_verify(
            self.spectrum(precision),
            panel,
            operation,
            result,
            a_conj=a_conj,
            backend=self.backend,
            phase="sbgemv",
            rank=self.rank_label,
            context=context,
        )

    # -- the five-phase pipeline -----------------------------------------------
    def _maybe_cast(self, arr: Any, prec: Precision, tag: str) -> Any:
        """Inter-phase cast with the no-op made explicit (and counted).

        Adjacent phases at equal precision skip the cast entirely —
        ``cast_noop_count`` advances instead of a call that relies on
        ``copy=False`` doing nothing.  An actual cast writes into an
        arena buffer when the workspace is active.
        """
        be = self.backend
        target = complex_dtype(prec) if be.iscomplex(arr) else real_dtype(prec)
        if be.dtype_of(arr) == target:
            self.cast_noop_count += 1
            return arr
        if self.workspace is None:
            return be.astype(arr, target, copy=True)
        buf = self.workspace.checkout(tag, tuple(arr.shape), target)
        buf[...] = arr
        return buf

    def _finalize(
        self, res: Any, out: Optional[np.ndarray], detach: bool = True
    ) -> Any:
        """Return the pipeline result as float64.

        ``res`` is the unpad output (possibly an arena buffer, possibly
        already ``out`` itself).  Without a workspace and without ``out``
        this is the historical ``astype(float64, copy=False)``; with a
        workspace the result is *detached* from the arena (copied) so the
        caller can hold it across subsequent applies.  ``detach=False``
        skips that copy for internal callers (the grid engine) that
        consume the result before the next apply on this engine; on a
        device backend the undetached result stays a backend array.

        Caller-facing results (``out`` given, or detached) are always
        host float64, whatever the compute backend.
        """
        be = self.backend
        if out is None:
            if self.workspace is None and not detach:
                return be.astype(res, np.float64, copy=False)
            if self.workspace is None:
                return be.from_device(be.astype(res, np.float64, copy=False))
            if not detach:
                if be.dtype_of(res) == np.float64:
                    return res
                buf = self.workspace.checkout("final64", tuple(res.shape), np.float64)
                buf[...] = res
                return buf
            host = host_empty(tuple(res.shape), np.float64)
            host[...] = be.from_device(res)
            return host
        if be.name == "numpy":
            if res is out or np.shares_memory(res, out):
                return out  # unpad already wrote the caller's buffer
            out[...] = res.reshape(out.shape)
            return out
        out[...] = be.from_device(res).reshape(out.shape)
        return out

    def _unpad_dest(
        self, config: PrecisionConfig, out: Optional[np.ndarray], shape2d
    ) -> Optional[np.ndarray]:
        """Caller ``out`` reshaped as the unpad destination, when the
        unpad precision already produces float64 (no staging needed).

        Only the numpy backend can write the host buffer directly; a
        device backend unpads on device and transfers in _finalize.
        """
        if self.backend.name != "numpy":
            return None
        if out is None or real_dtype(config.unpad) != np.float64:
            return None
        if not out.flags["C_CONTIGUOUS"]:
            return None
        return out.reshape(shape2d)

    def _phase3(
        self,
        panel: Any,
        operation: Operation,
        precision: Precision,
        deterministic: bool,
        segments: Optional[Tuple[int, int]],
    ) -> Any:
        """Phase 3 on the ``(n_freq, nx, k)`` panel, chosen in one place.

        - grid rank in pairwise mode (``segments=(start, n_global)``):
          canonical-segment partials, merged across ranks before the
          back half runs;
        - ``reduction="pairwise"``: the fixed-tree GEMM — every column
          already accumulates like its vector apply, so
          ``deterministic`` is redundant and ignored;
        - ``deterministic``: the per-column GEMV panel; at ``k == 1``
          (the vector apply) that is one strided-batched GEMV;
        - otherwise: the blocked GEMM.
        """
        if segments is not None:
            return self._run_sbgemm_pairwise_segments(
                panel, operation, precision, *segments
            )
        if self.reduction == "pairwise" or not deterministic:
            return self._run_sbgemm(panel, operation, precision)
        if panel.shape[2] == 1:
            return self._run_sbgemv(panel[:, :, 0], operation, precision)[:, :, None]
        return self._run_sbgemv_panel(panel, operation, precision)

    def _front(
        self,
        v_in: np.ndarray,
        config: PrecisionConfig,
        adjoint: bool,
        deterministic: bool = False,
        segments: Optional[Tuple[int, int]] = None,
    ) -> Any:
        """Front half: pad, FFT, SOTI→TOSI reorder, cast, Phase 3.

        ``v_in`` is ``(Nt, nx, k)``.  The k columns ride along as an
        extra inner dimension of the "space" axis: pad/FFT/reorder treat
        ``nx * k`` fused columns (the batched kernels are agnostic), and
        only Phase 3 unflattens them into per-frequency ``(nx, k)``
        panels.  Returns the ``(n_freq, ny, k)`` Phase-3 result, or a
        segment table when ``segments`` is given (see :meth:`_phase3`).
        """
        operation = Operation.C if adjoint else Operation.N
        nt, nx, k = v_in.shape
        ws = self.workspace

        # Phase 1: one pad kernel over all k vectors, in the phase's
        # precision (cast fused into the pad kernel's writes).
        with self._phase_ctx("pad"):
            x = pad_to_soti(
                v_in.reshape(nt, nx * k),
                config.pad,
                device=self.device,
                phase="pad",
                workspace=ws,
                backend=self.backend,
                validate=self._guard_on,
                rank=self.rank_label,
            )

        # Phase 2: one batched forward FFT, batch = k * space.  The input
        # cast is an explicit no-op when the precisions agree.
        with self._phase_ctx("fft"):
            x = self._maybe_cast(x, config.fft, "cast_fft")
            plan = self._plan("fwd", config.fft, batch=x.shape[0])
            xhat = plan.execute(x, phase="fft", workspace=ws)
            self._boundary(
                "fft",
                xhat,
                lambda: plan.verify_forward_energy(
                    x, xhat, phase="fft", rank=self.rank_label
                ),
            )

        # Reorder to frequency-outer layout at the lower adjacent
        # precision, then present to Phase 3 at its precision.
        with self._phase_ctx("sbgemv"):
            vhat = soti_to_tosi(
                xhat,
                precision=config.reorder_precision("fft", "sbgemv"),
                device=self.device,
                phase="sbgemv",
                workspace=ws,
                tag="fwd_reorder",
                backend=self.backend,
            )
            vhat = self._maybe_cast(vhat, config.sbgemv, "cast_sbgemv")
            if self.backend.dtype_of(vhat) != complex_dtype(config.sbgemv):
                raise ReproError("internal: Phase-3 input precision mismatch")
            panel = vhat.reshape(self.n_freq, nx, k)
            yhat = self._phase3(
                panel, operation, config.sbgemv, deterministic, segments
            )
            self._boundary(
                "sbgemv",
                yhat,
                lambda: self._verify_gemm(panel, yhat, operation, config.sbgemv),
            )
        return yhat

    def _back(
        self,
        yhat: Any,
        config: PrecisionConfig,
        adjoint: bool,
        out: Optional[np.ndarray],
        detach: bool,
    ) -> np.ndarray:
        """Back half: TOSI→SOTI reorder, IFFT, unpad, finalize on a
        ``(n_freq, ny, k)`` frequency panel."""
        nf, ny, k = yhat.shape
        ws = self.workspace
        with self._phase_ctx("sbgemv"):
            yhat = tosi_to_soti(
                yhat.reshape(nf, ny * k),
                precision=config.reorder_precision("sbgemv", "ifft"),
                device=self.device,
                phase="sbgemv",
                workspace=ws,
                tag="bwd_reorder",
                backend=self.backend,
            )

        # Phase 4: one batched inverse FFT, batch = k * space.
        with self._phase_ctx("ifft"):
            yhat = self._maybe_cast(yhat, config.ifft, "cast_ifft")
            plan = self._plan("inv", config.ifft, batch=yhat.shape[0])
            y = plan.inverse(yhat, phase="ifft", workspace=ws)
            self._boundary(
                "ifft",
                y,
                lambda: plan.verify_inverse_energy(
                    yhat, y, phase="ifft", rank=self.rank_label
                ),
            )

        # Phase 5: one unpad kernel over all k vectors (+ reduction
        # across the grid in the parallel engine) in its precision, then
        # return to double.  With a double-precision unpad the kernel
        # writes straight into the caller's buffer.
        with self._phase_ctx("unpad"):
            dest = self._unpad_dest(config, out, (self.nt, y.shape[0]))
            res = unpad_from_soti(
                y,
                self.nt,
                config.unpad,
                device=self.device,
                phase="unpad",
                workspace=None if dest is not None else ws,
                out=dest,
                backend=self.backend,
                validate=self._guard_on,
                rank=self.rank_label,
            )
        return self._finalize(res.reshape(self.nt, ny, k), out, detach=detach)

    def _pipeline_block(
        self,
        v_in: np.ndarray,
        config: PrecisionConfig,
        adjoint: bool,
        out: Optional[np.ndarray] = None,
        detach: bool = True,
        deterministic: bool = False,
    ) -> np.ndarray:
        """The five-phase pipeline on a block: front half + back half.

        Forward: v_in is (Nt, Nm, k); output (Nt, Nd, k); Phase-3 op = N.
        Adjoint: v_in is (Nt, Nd, k); output (Nt, Nm, k); Phase-3 op = C.
        ``out`` (float64, (Nt, ny, k)) receives the result in place;
        ``detach=False`` may return an arena buffer (internal callers
        only — it is overwritten by this engine's next apply).
        ``deterministic`` selects the per-column GEMV Phase 3 (see
        :meth:`_phase3`).
        """
        with _apply_scope(self.workspace):
            yhat = self._front(v_in, config, adjoint, deterministic=deterministic)
            return self._back(yhat, config, adjoint, out, detach)

    # -- grid pairwise split: front (phases 1-3) / back (phases 4-5) -----------
    # The IFFT does not distribute over addition bitwise, so a
    # partition-invariant grid apply must reduce in *frequency domain*
    # (where the contraction lives) and run the back half exactly once
    # per output part.  Phases 1-2 are per-column batch-independent and
    # the spectrum slices are bitwise slices of the global spectrum
    # (per-(d,m) lag FFTs in _setup_spectrum), which is what makes a
    # rank's front bitwise-equal to the corresponding slice of a
    # single-device front.

    def _pipeline_block_pairwise_segments(
        self,
        v_in: np.ndarray,
        config: PrecisionConfig,
        adjoint: bool,
        start: int,
        n_global: int,
    ) -> Dict[Tuple[int, int], Any]:
        """Front half for one grid rank, with Phase-3 canonical-segment
        partials over the rank's global contraction range
        ``[start, start + nx)``.  Segment values are fresh arrays (not
        arena buffers), safe to hold across this engine's next apply.
        """
        with _apply_scope(self.workspace):
            return self._front(v_in, config, adjoint, segments=(start, n_global))

    def _pipeline_block_finish(
        self,
        yhat: Any,
        config: PrecisionConfig,
        adjoint: bool,
        out: Optional[np.ndarray] = None,
        detach: bool = True,
    ) -> np.ndarray:
        """Back half on the merged ``(n_freq, ny, k)`` frequency panel.
        Runs once per output part on its root rank's engine (``ny`` must
        match this engine's output extent)."""
        ny = self.nm if adjoint else self.nd
        if tuple(yhat.shape[:2]) != (self.n_freq, ny):
            raise ReproError(
                f"finish panel must be ({self.n_freq}, {ny}, k), "
                f"got {tuple(yhat.shape)}"
            )
        with _apply_scope(self.workspace):
            return self._back(yhat, config, adjoint, out, detach)

    # -- public API ----------------------------------------------------------
    def _check_out(self, out: Optional[np.ndarray], shape: Tuple[int, ...]):
        """Validate a caller-supplied output buffer (float64, contiguous)."""
        return check_out_buffer(out, shape)

    def matvec(
        self,
        m: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Compute ``d = F m``.

        ``m`` is a double-precision ``(Nt, Nm)`` array (or flat vector);
        the result is a double-precision ``(Nt, Nd)`` array.  ``out``
        receives the result in a caller-owned buffer — combined with a
        workspace arena, repeated applies are allocation-free.

        The vector apply is the width-1 block
        ``matmat(m[:, :, None], deterministic=True)``, so ``matvec(m)``
        is bitwise ``matmat(M, deterministic=True)[:, :, j]`` whenever
        ``M[:, :, j] == m`` — and in pairwise mode, which ignores
        ``deterministic``, bitwise column ``j`` of any ``matmat(M)``.
        """
        return self._apply_vector(m, config, out, adjoint=False)

    def rmatvec(
        self,
        d: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Compute ``m = F* d`` (adjoint/conjugate-transpose matvec), the
        width-1 block ``rmatmat(d[:, :, None], deterministic=True)``."""
        return self._apply_vector(d, config, out, adjoint=True)

    def _apply_vector(
        self,
        v: np.ndarray,
        config: Union[str, PrecisionConfig],
        out: Optional[np.ndarray],
        adjoint: bool,
    ) -> np.ndarray:
        """Vector apply as the width-1 deterministic block."""
        cfg = PrecisionConfig.parse(config)
        check = self.matrix.check_output if adjoint else self.matrix.check_input
        vv = check(v).astype(np.float64, copy=False)
        out = self._check_out(out, (self.nt, self.nm if adjoint else self.nd))
        res = self._timed(
            lambda: self._pipeline_block(
                vv[:, :, None],
                cfg,
                adjoint,
                out=None if out is None else out[:, :, None],
                deterministic=True,
            ),
            str(cfg),
        )
        return res[:, :, 0] if out is None else out

    # -- blocked multi-RHS API -------------------------------------------------
    def _check_block(self, V: np.ndarray, nx: int, what: str) -> np.ndarray:
        """Validate/reshape a multi-RHS block to (Nt, nx, k)."""
        return check_block(V, self.nt, nx, what)

    def matmat(
        self,
        M: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        out: Optional[np.ndarray] = None,
        deterministic: bool = False,
    ) -> np.ndarray:
        """Compute ``D = F M`` for a block of ``k`` parameter vectors.

        ``M`` is ``(Nt, Nm, k)`` (or scipy-style ``(Nt*Nm, k)``); the
        result is ``(Nt, Nd, k)`` with column ``j`` equal to
        ``matvec(M[:, :, j])`` up to rounding.  All k vectors share one
        pad, one batched FFT, one strided-batched GEMM per pass and one
        inverse FFT — see the module docstring.  ``out`` (``(Nt, Nd,
        k)`` float64) receives the result in place.  ``matvec_count``
        advances by ``k`` (logical operator actions); ``matmat_count``
        by one (pipeline passes).

        ``deterministic=True`` makes "up to rounding" exact: Phase 3
        runs one GEMV per column instead of the blocked GEMM, so column
        ``j`` is **bitwise** ``matvec(M[:, :, j])`` — phases 1/2/4/5 are
        batched either way (elementwise kernels and a row-independent
        batched FFT preserve per-column bits), and the vector apply is
        itself this path at ``k == 1``.  The serving coalescer uses this
        to batch concurrent tenants without perturbing anyone's answer.
        A ``reduction="pairwise"`` engine ignores ``deterministic``: its
        fixed-tree GEMM already gives every column its vector-apply bits.
        """
        return self._apply_block(M, config, out, deterministic, adjoint=False)

    def rmatmat(
        self,
        D: np.ndarray,
        config: Union[str, PrecisionConfig] = "ddddd",
        out: Optional[np.ndarray] = None,
        deterministic: bool = False,
    ) -> np.ndarray:
        """Compute ``M = F* D`` for a block of ``k`` data vectors.

        ``D`` is ``(Nt, Nd, k)`` (or ``(Nt*Nd, k)``); result
        ``(Nt, Nm, k)``.  The blocked counterpart of :meth:`rmatvec`;
        ``deterministic=True`` makes column ``j`` bitwise
        ``rmatvec(D[:, :, j])``, as in :meth:`matmat`.
        """
        return self._apply_block(D, config, out, deterministic, adjoint=True)

    def _apply_block(
        self,
        V: np.ndarray,
        config: Union[str, PrecisionConfig],
        out: Optional[np.ndarray],
        deterministic: bool,
        adjoint: bool,
    ) -> np.ndarray:
        cfg = PrecisionConfig.parse(config)
        nx, ny = (self.nd, self.nm) if adjoint else (self.nm, self.nd)
        vv = self._check_block(V, nx, "data" if adjoint else "parameter")
        k = vv.shape[2]
        out = self._check_out(out, (self.nt, ny, k))
        res = self._timed(
            lambda: self._pipeline_block(
                vv, cfg, adjoint, out=out, deterministic=deterministic
            ),
            f"{cfg}[k={k}{', det' if deterministic else ''}]",
        )
        self.matvec_count += k - 1  # _timed already counted one
        self.matmat_count += 1
        return res

    def _timed(self, fn, label: str) -> np.ndarray:
        if self.device is None:
            self.matvec_count += 1
            self.last_timing = None
            return fn()
        clock = self.device.clock
        before = {p: clock.phase_total(p) for p in _PHASES}
        out = fn()
        self.last_timing = TimingReport(
            phases={
                p: clock.phase_total(p) - before[p]
                for p in _PHASES
                if clock.phase_total(p) - before[p] > 0
            },
            label=label,
        )
        self.matvec_count += 1
        return out

    # -- convenience -----------------------------------------------------------
    _REF_CACHE_MAX = 16

    def relative_error(
        self,
        config: Union[str, PrecisionConfig],
        m: np.ndarray,
        adjoint: bool = False,
        ref: Optional[np.ndarray] = None,
    ) -> float:
        """Relative L2 error of a config vs the all-double baseline.

        This mirrors the artifact workflow: mixed-precision outputs are
        compared against the saved double-precision output.  The
        ``ddddd`` reference is cached per input (keyed by the input's
        bytes), so config sweeps over the same test vector pay for it
        once instead of doubling every evaluation; pass ``ref`` to
        supply a precomputed reference and skip the cache entirely.
        """
        op = self.rmatvec if adjoint else self.matvec
        if ref is None:
            check = self.matrix.check_output if adjoint else self.matrix.check_input
            mm = np.ascontiguousarray(check(m), dtype=np.float64)
            import hashlib

            key = (adjoint, mm.shape, hashlib.sha1(mm.tobytes()).digest())
            ref = self._ref_cache.get(key)
            if ref is None:
                ref = op(m, config="ddddd")
                if len(self._ref_cache) >= self._REF_CACHE_MAX:
                    self._ref_cache.pop(next(iter(self._ref_cache)))
                self._ref_cache[key] = ref
        val = op(m, config=config)
        denom = float(np.linalg.norm(ref))
        if denom == 0.0:
            return float(np.linalg.norm(val))
        return float(np.linalg.norm(val - ref)) / denom

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        dev = self.device.spec.name if self.device is not None else "no device"
        return f"FFTMatvec(Nt={self.nt}, Nd={self.nd}, Nm={self.nm}, {dev})"
