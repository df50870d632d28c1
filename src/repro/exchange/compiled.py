"""Compiled batched inference engine over the graph IR.

:class:`~repro.exchange.executor.GraphExecutor` is the *reference
interpreter*: it re-reads every node's attribute dict on every call,
re-applies weight quantization through a per-node cache, allocates fresh
intermediates for every op and knows nothing about fused activations.
That is the right shape for a semantic oracle and the wrong shape for the
serving hot path.

:class:`CompiledExecutor` lowers a :class:`~repro.exchange.graph.GraphIR`
once, at construction time, into a flat plan of NumPy kernel closures:

* **Folded weights** — per-node ``bits`` / ``quant_scheme`` / ``per_channel``
  annotations are applied exactly once at compile time via
  :func:`~repro.exchange.executor.quantize_node_params` (shared with the
  reference executor, so both run bit-identical weights), and conv kernels
  are pre-reshaped into their GEMM form.
* **Fused kernels** — matmul + bias + ``fused_activation`` execute as one
  closure writing into a preallocated output buffer (``np.dot(..., out=)``
  plus in-place activation), so a ``fuse_activations``-lowered graph runs
  directly instead of being re-expanded first.
* **Cached workspaces** — im2col column matrices, padded inputs and GEMM
  outputs are owned by the plan and reused across batches of the same size;
  steady-state serving does no large allocations.
* **Batched execution** — :meth:`run_many` executes one graph over a list
  of stacked per-device windows in a single sweep, and
  :class:`FleetExecutor` runs *heterogeneous* model variants (fp32 /
  quantized / pruned) across a whole fleet, grouping devices by variant.

Semantics: for every graph the reference oracle accepts, the plan's output
is allclose-identical to ``GraphExecutor(expand_fused_activations(graph))``
(bit-identical for the GEMM-dominated paths).  Data-dependent quantization
(``activation_bits`` or explicit ``quantize`` nodes) computes its range
over whatever batch the executor is handed, so :meth:`run_many` falls back
to per-window execution for such graphs to preserve exact per-window
statistics — *unless* the plan is calibrated: passing ``calibration_data``
(or calling :meth:`CompiledExecutor.calibrate_activations`) records each
quantization site's activation range once, after which the plan quantizes
against those **static** ranges
(:func:`repro.optimize.quantization.static_fake_quantize`), every kernel is
per-sample independent again, and ``run_many`` stacks quantized graphs
exactly like fp32 ones.  On the calibration batch itself the static path is
bit-identical to the dynamic oracle; elsewhere it differs by at most half a
quantization step per site (plus clipping outside the calibrated range) —
the standard static-range deployment contract.

**Adding a fused kernel**: add a ``_compile_<op>`` branch in
:meth:`CompiledExecutor._compile_node` that captures everything derivable
from ``node.attrs`` / folded params in closure locals, writes into buffers
obtained from :meth:`_Workspace.buf` keyed by ``(node_index, role)``,
applies activation quantization *before* the fused activation (matching the
expanded reference order compute → quantize → activation), and appends any
``(A, B, C)`` GEMM triple to the ``gemms`` list when it is not ``None`` so
Freivalds verification (:func:`repro.verification.verify_compiled_run`)
covers the new kernel.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.nn import activations as A
from repro.optimize.quantization import static_fake_quantize

from .executor import _fake_quantize, quantize_node_params
from .graph import GraphIR, GraphNode

__all__ = ["CompiledExecutor", "FleetExecutor", "split_stacked"]


def split_stacked(stacked: np.ndarray, sizes: Sequence[int]) -> List[np.ndarray]:
    """Split a stacked result tensor back into per-window views.

    ``sizes`` may contain zeros (windows that contributed no rows); used by
    :meth:`CompiledExecutor.run_many`.
    """
    outs: List[np.ndarray] = []
    offset = 0
    for n in sizes:
        outs.append(stacked[offset : offset + n])
        offset += n
    return outs

# A GEMM triple (A, B, C) claimed to satisfy A @ B == C, recorded for
# randomized verification.  C is the raw product, before bias/activation.
GemmRecord = Tuple[np.ndarray, np.ndarray, np.ndarray]
_Step = Callable[[np.ndarray, Optional[List[GemmRecord]]], np.ndarray]


def _apply_activation(name: str, z: np.ndarray) -> np.ndarray:
    """Apply an activation, in place when NumPy offers an ``out=`` kernel."""
    if name == "linear":
        return z
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "relu6":
        return np.clip(z, 0.0, 6.0, out=z)
    if name == "tanh":
        return np.tanh(z, out=z)
    return A.get_activation(name)[0](z)


class _Workspace:
    """The scratch state a plan's steps close over.

    Cached buffers, activation ranges and the calibrating flag live here,
    not on the :class:`CompiledExecutor`, so the step closures never
    reference their executor: a dropped plan is freed by reference counting
    at once instead of waiting for the cycle collector.
    """

    def __init__(self, max_buffers: int) -> None:
        # Buffers keyed by (node_index, role, shape).  Keying by shape lets
        # the main chunk size and a remainder chunk coexist instead of
        # thrashing one slot; a small LRU bounds the memory when a workload
        # cycles through many batch sizes.
        self.buffers: "OrderedDict[Tuple[int, str, Tuple[int, ...]], np.ndarray]" = OrderedDict()
        self.max_buffers = max_buffers
        # Activation-quantization site name -> calibrated max-abs range.
        self.activation_ranges: Dict[str, float] = {}
        self.calibrating = False

    def buf(self, key: Tuple[int, str], shape: Tuple[int, ...], zero: bool = False) -> np.ndarray:
        """Plan-owned float64 scratch buffer, allocated once per shape.

        ``zero`` buffers start zero-filled on allocation (reused ones keep
        whatever the caller left in them — pad buffers rely on this to zero
        their border exactly once).
        """
        full_key = key + (shape,)
        buf = self.buffers.get(full_key)
        if buf is None:
            buf = np.zeros(shape, dtype=np.float64) if zero else np.empty(shape, dtype=np.float64)
            self.buffers[full_key] = buf
            while len(self.buffers) > self.max_buffers:
                self.buffers.popitem(last=False)
        else:
            self.buffers.move_to_end(full_key)
        return buf

    def quantize(self, site: str, x: np.ndarray, bits: int) -> np.ndarray:
        """Quantize one site's activations: static range once calibrated,
        dynamic (per-batch) range otherwise; calibration runs record the
        observed range while still applying the dynamic quantizer, so
        downstream sites calibrate on exactly the tensors they will see."""
        if self.calibrating:
            observed = float(np.max(np.abs(x))) if x.size else 0.0
            prev = self.activation_ranges.get(site)
            self.activation_ranges[site] = observed if prev is None else max(prev, observed)
            return _fake_quantize(x, bits)
        calibrated = self.activation_ranges.get(site)
        if calibrated is None:
            return _fake_quantize(x, bits)
        return static_fake_quantize(x, bits, calibrated)

    def padded(self, idx: int, x: np.ndarray, pad: int) -> np.ndarray:
        """Zero-pad H/W into a plan-owned buffer (identity when pad == 0).

        The border is zeroed only when the buffer is (re)allocated: the
        interior is overwritten on every call and the border never is.
        """
        if not pad:
            return x
        n, h, w, c = x.shape
        padded = self.buf((idx, "pad"), (n, h + 2 * pad, w + 2 * pad, c), zero=True)
        padded[:, pad : pad + h, pad : pad + w, :] = x
        return padded

    def im2col(self, idx: int, x: np.ndarray, k: int, stride: int, pad: int) -> Tuple[np.ndarray, int, int]:
        """im2col into a plan-owned column buffer (no per-call allocation)."""
        x = self.padded(idx, x, pad)
        n, hp, wp, c = x.shape
        out_h = (hp - k) // stride + 1
        out_w = (wp - k) // stride + 1
        windows = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(1, 2))
        windows = windows[:, ::stride, ::stride, :, :, :].transpose(0, 1, 2, 4, 5, 3)
        cols = self.buf((idx, "cols"), (n * out_h * out_w, k * k * c))
        np.copyto(cols.reshape(n, out_h, out_w, k, k, c), windows)
        return cols, out_h, out_w


class CompiledExecutor:
    """A GraphIR lowered to a flat plan of fused, preallocated NumPy kernels.

    Parameters
    ----------
    graph:
        The lowered IR to compile.  Graphs carrying ``fused_activation``
        attributes (from :func:`~repro.exchange.passes.fuse_activations`)
        execute natively — no re-expansion.
    apply_quantization:
        Honour per-node ``bits`` / ``activation_bits`` annotations exactly
        like the reference executor.  Weight quantization is folded once at
        compile time.
    calibration_data:
        Optional calibration batch.  When given (and the plan has activation
        quantization sites), :meth:`calibrate_activations` runs on it at
        construction time so the plan quantizes against static recorded
        ranges and stays stackable in :meth:`run_many`.
    """

    def __init__(
        self,
        graph: GraphIR,
        apply_quantization: bool = True,
        chunk_size: int = 256,
        calibration_data: Optional[np.ndarray] = None,
    ) -> None:
        self.graph = graph
        self.apply_quantization = apply_quantization
        self.chunk_size = int(chunk_size)
        self.output_shape: Tuple[int, ...] = tuple(graph.output_shape())
        # True when per-sample outputs are independent of batch composition,
        # i.e. the graph has no data-dependent (activation) quantization and
        # run_many may execute one stacked GEMM sweep over all windows.
        self.stacking_exact = True
        # Activation-quantization sites and their calibrated max-abs ranges
        # (the workspace's dict).  Empty until calibrate_activations records
        # the ranges; uncalibrated sites quantize dynamically per batch.
        self.quant_sites: List[str] = []
        # Buffer capacity scales with plan depth (up to ~4 roles per node,
        # times a main and a remainder chunk shape) so deep graphs never
        # evict their own working set mid-run.
        self._ws = _Workspace(max_buffers=max(96, 8 * len(graph.nodes)))
        self.activation_ranges = self._ws.activation_ranges
        self._steps: List[_Step] = []
        self.n_gemm_steps = 0
        in_shapes = [graph.input_shape] + graph.shapes()[:-1]
        for idx, node in enumerate(graph.nodes):
            self._steps.extend(self._compile_node(idx, node, in_shapes[idx]))
        if calibration_data is not None:
            self.calibrate_activations(calibration_data)

    # -- workspace ---------------------------------------------------------
    def workspace_bytes(self) -> int:
        """Bytes currently held in cached workspaces (observability)."""
        return int(sum(b.nbytes for b in self._ws.buffers.values()))

    # -- activation quantization sites -------------------------------------
    def _new_quant_site(self, name: str) -> str:
        site = name if name not in self.quant_sites else f"{name}#{len(self.quant_sites)}"
        self.quant_sites.append(site)
        return site

    def calibrate_activations(self, calibration_x: np.ndarray) -> Dict[str, float]:
        """Record static activation ranges on a calibration batch.

        After calibration every quantization site uses its recorded max-abs
        range (:func:`~repro.optimize.quantization.static_fake_quantize`), so
        per-sample outputs no longer depend on batch composition and
        :meth:`run_many` stacks quantized graphs in one sweep
        (``stacking_exact`` flips to True).  Returns the recorded ranges
        (``site name -> max_abs``).  On the calibration batch itself the
        static path reproduces the dynamic-range oracle bit for bit; on
        other data each site differs by at most half a quantization step,
        plus clipping for values outside the calibrated range.
        """
        if not self.quant_sites:
            return {}
        calibration_x = np.asarray(calibration_x, dtype=np.float64)
        if calibration_x.shape[0] == 0:
            raise ValueError("calibration batch must contain at least one sample")
        self.activation_ranges.clear()
        self._ws.calibrating = True
        try:
            self._run_steps(calibration_x, None)
        finally:
            self._ws.calibrating = False
        self.stacking_exact = True
        return dict(self.activation_ranges)

    # -- compilation -------------------------------------------------------
    def _compile_node(self, idx: int, node: GraphNode, in_shape: Tuple[int, ...]) -> List[_Step]:
        op = node.op_type
        attrs = node.attrs
        params = quantize_node_params(node, self.apply_quantization)
        act_bits = int(attrs.get("activation_bits", 32)) if self.apply_quantization else 32
        fused = str(attrs["fused_activation"]) if attrs.get("fused_activation") else None
        if act_bits < 32 or op == "quantize":
            self.stacking_exact = False

        if op == "dense":
            if len(in_shape) != 1:
                # The IR's own shape inference declares (units,) regardless
                # of input rank, so such graphs are already inconsistent;
                # refuse at compile time instead of mis-executing.
                raise NotImplementedError(
                    f"dense node {node.name!r} on rank-{len(in_shape)} per-example input; insert a flatten first"
                )
            return [self._compile_dense(idx, node, params, act_bits, fused)]
        if op in ("conv2d", "depthwise_conv2d"):
            return [self._compile_conv(idx, node, params, act_bits, fused, depthwise=op == "depthwise_conv2d")]

        kernel = self._compile_simple(idx, node, params)
        steps: List[_Step] = [kernel] if kernel is not None else []
        if act_bits < 32:
            site = self._new_quant_site(f"{node.name}/act")
            ws = self._ws
            steps.append(lambda x, gemms: ws.quantize(site, x, act_bits))
        if fused is not None:
            # Non-compute node carrying a fused activation (not produced by
            # the standard passes, but legal in the IR).
            steps.append(lambda x, gemms: _apply_activation(fused, np.array(x)))
        return steps

    def _compile_dense(
        self,
        idx: int,
        node: GraphNode,
        params: Dict[str, np.ndarray],
        act_bits: int,
        fused: Optional[str],
    ) -> _Step:
        w = np.ascontiguousarray(np.asarray(params["W"], dtype=np.float64))
        b = None
        if node.attrs.get("use_bias", True) and "b" in params:
            b = np.asarray(params["b"], dtype=np.float64)
        self.n_gemm_steps += 1
        site = self._new_quant_site(f"{node.name}/act") if act_bits < 32 else None
        ws = self._ws

        def step(x: np.ndarray, gemms: Optional[List[GemmRecord]]) -> np.ndarray:
            z = ws.buf((idx, "out"), (x.shape[0], w.shape[1]))
            np.dot(x, w, out=z)
            if gemms is not None:
                gemms.append((x.copy(), w, z.copy()))
            if b is not None:
                z += b
            if site is not None:
                z = ws.quantize(site, z, act_bits)
            if fused is not None:
                z = _apply_activation(fused, z)
            return z

        return step

    def _compile_conv(
        self,
        idx: int,
        node: GraphNode,
        params: Dict[str, np.ndarray],
        act_bits: int,
        fused: Optional[str],
        depthwise: bool,
    ) -> _Step:
        attrs = node.attrs
        k = int(attrs.get("kernel_size", 3))
        stride = int(attrs.get("stride", 1))
        pad = (k - 1) // 2 if attrs.get("padding", "same") == "same" else 0
        w = np.asarray(params["W"], dtype=np.float64)
        b = None
        if attrs.get("use_bias", True) and "b" in params:
            b = np.asarray(params["b"], dtype=np.float64)
        if depthwise:
            wk = np.ascontiguousarray(w.reshape(k * k, -1))
        else:
            wmat = np.ascontiguousarray(w.reshape(-1, w.shape[-1]))
            self.n_gemm_steps += 1
        site = self._new_quant_site(f"{node.name}/act") if act_bits < 32 else None
        ws = self._ws

        def step(x: np.ndarray, gemms: Optional[List[GemmRecord]]) -> np.ndarray:
            n = x.shape[0]
            if depthwise:
                # Direct accumulation over the k*k kernel taps: one fused
                # multiply-add per tap on strided views, no column matrix.
                xp = ws.padded(idx, x, pad)
                c = x.shape[3]
                out_h = (xp.shape[1] - k) // stride + 1
                out_w = (xp.shape[2] - k) // stride + 1
                z = ws.buf((idx, "z"), (n, out_h, out_w, c))
                tmp = ws.buf((idx, "tmp"), z.shape)
                z.fill(0.0)
                for ki in range(k):
                    for kj in range(k):
                        tap = xp[:, ki : ki + out_h * stride : stride, kj : kj + out_w * stride : stride, :]
                        np.multiply(tap, wk[ki * k + kj], out=tmp)
                        z += tmp
                out_c = c
            elif k == 1:
                # Pointwise conv is a plain GEMM on the channel axis.
                xs = x if stride == 1 else np.ascontiguousarray(x[:, ::stride, ::stride, :])
                out_h, out_w = xs.shape[1], xs.shape[2]
                cols = xs.reshape(-1, xs.shape[3])
                z = ws.buf((idx, "z"), (cols.shape[0], wmat.shape[1]))
                np.dot(cols, wmat, out=z)
                if gemms is not None:
                    gemms.append((cols.copy(), wmat, z.copy()))
                out_c = wmat.shape[1]
            else:
                cols, out_h, out_w = ws.im2col(idx, x, k, stride, pad)
                z = ws.buf((idx, "z"), (cols.shape[0], wmat.shape[1]))
                np.dot(cols, wmat, out=z)
                if gemms is not None:
                    gemms.append((cols.copy(), wmat, z.copy()))
                out_c = wmat.shape[1]
            if b is not None:
                z += b
            # Per-tensor quantization and element-wise activations are
            # shape-independent, so both run on the GEMM/tap output directly.
            if site is not None:
                z = ws.quantize(site, z, act_bits)
            if fused is not None:
                z = _apply_activation(fused, z)
            return z.reshape(n, out_h, out_w, out_c)

        return step

    def _compile_simple(self, idx: int, node: GraphNode, params: Dict[str, np.ndarray]) -> Optional[_Step]:
        """Kernels with no GEMM; returns None for identity ops."""
        op = node.op_type
        attrs = node.attrs
        ws = self._ws
        if op in ("input", "dropout", "dequantize"):
            return None
        if op == "batchnorm":
            eps = float(attrs.get("eps", 1e-5))
            inv_std = 1.0 / np.sqrt(params["running_var"] + eps)
            scale = params["gamma"] * inv_std
            shift = params["beta"] - params["running_mean"] * scale

            def bn(x: np.ndarray, gemms: Optional[List[GemmRecord]]) -> np.ndarray:
                out = ws.buf((idx, "out"), x.shape)
                np.multiply(x, scale, out=out)
                out += shift
                return out

            return bn
        if op in ("relu", "relu6", "leaky_relu", "sigmoid", "tanh", "hard_sigmoid", "linear"):

            def act(x: np.ndarray, gemms: Optional[List[GemmRecord]], _op: str = op) -> np.ndarray:
                if _op == "relu":
                    return np.maximum(x, 0.0, out=ws.buf((idx, "out"), x.shape))
                if _op == "relu6":
                    return np.clip(x, 0.0, 6.0, out=ws.buf((idx, "out"), x.shape))
                return A.get_activation(_op)[0](x)

            return act
        if op == "softmax":
            return lambda x, gemms: A.softmax(x, axis=-1)
        if op == "maxpool2d" or op == "avgpool2d":
            p = int(attrs.get("pool_size", 2))
            reduce_max = op == "maxpool2d"

            def pool(x: np.ndarray, gemms: Optional[List[GemmRecord]]) -> np.ndarray:
                # p*p strided-view reductions into a reused buffer instead of
                # one big axis-pair reduction (much friendlier access pattern).
                n, h, w, c = x.shape
                oh, ow = h // p, w // p
                out = ws.buf((idx, "out"), (n, oh, ow, c))
                np.copyto(out, x[:, 0 : oh * p : p, 0 : ow * p : p, :])
                for di in range(p):
                    for dj in range(p):
                        if di or dj:
                            window = x[:, di : oh * p : p, dj : ow * p : p, :]
                            if reduce_max:
                                np.maximum(out, window, out=out)
                            else:
                                out += window
                if not reduce_max:
                    out *= 1.0 / (p * p)
                return out

            return pool
        if op == "global_avgpool2d":
            return lambda x, gemms: x.mean(axis=(1, 2))
        if op == "flatten":
            return lambda x, gemms: x.reshape(x.shape[0], -1)
        if op == "quantize":
            q_bits = int(attrs.get("bits", 8))
            q_site = self._new_quant_site(node.name)
            return lambda x, gemms: ws.quantize(q_site, x, q_bits)
        if op == "normalize":
            mean = np.asarray(attrs.get("mean", 0.0))
            std = np.asarray(attrs.get("std", 1.0))
            return lambda x, gemms: (x - mean) / std
        if op == "threshold":
            value = float(attrs.get("value", 0.5))
            return lambda x, gemms: (x >= value).astype(np.float64)
        if op == "argmax":
            return lambda x, gemms: x.argmax(axis=-1, keepdims=True).astype(np.float64)
        if op == "add":
            const = np.asarray(attrs.get("constant", 0.0))
            return lambda x, gemms: x + const
        if op == "mul":
            const = np.asarray(attrs.get("constant", 1.0))
            return lambda x, gemms: x * const
        if op == "reshape":
            shape = tuple(int(v) for v in attrs["shape"])
            return lambda x, gemms: x.reshape((x.shape[0],) + shape)
        raise NotImplementedError(f"compiled executor has no kernel for op {op!r}")

    # -- execution ---------------------------------------------------------
    def _run_steps(self, x: np.ndarray, gemms: Optional[List[GemmRecord]]) -> np.ndarray:
        out = x
        for step in self._steps:
            out = step(out, gemms)
        return out

    def run(self, x: np.ndarray, record_gemms: bool = False):
        """Execute the plan on one batch.

        Large batches of per-sample-independent graphs execute in
        cache-sized chunks (``chunk_size`` samples) so every intermediate
        stays hot across the whole plan instead of streaming through memory
        once per step.

        With ``record_gemms`` the return value is ``(output, gemms)`` where
        ``gemms`` holds every dense/conv ``(A, B, C)`` matrix product of the
        run, for randomized verification
        (:func:`repro.verification.verify_compiled_run`).
        """
        x = np.asarray(x, dtype=np.float64)
        n = x.shape[0]
        if n == 0:
            out = np.empty((0,) + self.output_shape, dtype=np.float64)
            return (out, []) if record_gemms else out
        if record_gemms:
            gemms: List[GemmRecord] = []
            out = np.array(self._run_steps(x, gemms))
            return out, gemms
        if self.stacking_exact and n > self.chunk_size:
            out = np.empty((n,) + self.output_shape, dtype=np.float64)
            for start in range(0, n, self.chunk_size):
                stop = start + self.chunk_size
                out[start:stop] = self._run_steps(x[start:stop], None)
            return out
        # np.array detaches the result from the plan-owned buffers.
        return np.array(self._run_steps(x, None))

    __call__ = run

    def run_many(self, windows: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Execute the plan over many windows in one stacked sweep.

        All windows are concatenated along the batch axis, executed once,
        and split back — per-window results are identical to per-window
        :meth:`run` calls because every kernel is per-sample independent.
        The returned arrays are views into one shared result tensor.
        Graphs with *uncalibrated* data-dependent quantization
        (``activation_bits`` / ``quantize`` nodes) fall back to a per-window
        loop so each window keeps its own quantization statistics; after
        :meth:`calibrate_activations` the quantizers use static recorded
        ranges and such graphs stack exactly like fp32 ones.
        """
        arrays = [np.asarray(w, dtype=np.float64) for w in windows]
        if not arrays:
            return []
        if not self.stacking_exact:
            return [self.run(w) for w in arrays]
        parts = [w for w in arrays if w.shape[0] > 0]
        if not parts:
            return [np.empty((0,) + self.output_shape, dtype=np.float64) for _ in arrays]
        stacked = self.run(np.concatenate(parts, axis=0))
        return split_stacked(stacked, [w.shape[0] for w in arrays])


class FleetExecutor:
    """Run heterogeneous compiled model variants across a fleet in one sweep.

    The paper deploys a *different* artifact per device class (fp32 on
    phones, int8 on MCUs, pruned on DSPs...).  Serving such a fleet
    per-device wastes the batching the compiled plans offer; the fleet
    executor groups devices by their assigned variant and executes each
    variant's plan once over the group's stacked windows.
    """

    def __init__(self, plans: Mapping[str, CompiledExecutor]) -> None:
        self.plans: Dict[str, CompiledExecutor] = dict(plans)

    @classmethod
    def from_graphs(
        cls,
        graphs: Mapping[str, GraphIR],
        apply_quantization: bool = True,
        calibration_data: Optional[np.ndarray] = None,
    ) -> "FleetExecutor":
        """Compile one plan per named graph (e.g. per-target artifacts).

        ``calibration_data`` (one shared batch) calibrates every variant's
        activation quantizers so quantized variants stay stackable."""
        return cls(
            {
                name: CompiledExecutor(
                    g, apply_quantization=apply_quantization, calibration_data=calibration_data
                )
                for name, g in graphs.items()
            }
        )

    def run_fleet(
        self,
        assignments: Mapping[str, str],
        inputs: Mapping[str, np.ndarray],
    ) -> Dict[str, np.ndarray]:
        """One sweep over the fleet: ``{device_id: output}`` for every device
        that has both an assignment (``{device_id: variant_name}``) and an
        input window."""
        groups: Dict[str, List[str]] = {}
        for device_id, variant in assignments.items():
            if device_id in inputs:
                groups.setdefault(variant, []).append(device_id)
        unknown = sorted(set(groups) - set(self.plans))
        if unknown:
            raise KeyError(f"no compiled plan for variant(s) {unknown}")
        outputs: Dict[str, np.ndarray] = {}
        for variant, device_ids in groups.items():
            results = self.plans[variant].run_many([inputs[d] for d in device_ids])
            outputs.update(zip(device_ids, results))
        return outputs
