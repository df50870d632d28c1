"""Fleet-scale vectorized federated training engine.

Executed client by client, a round clones the global model, runs local SGD
in a Python loop and compresses one delta at a time.  This module executes
the same round *fleet-wide*:

* client shards are stacked into padded 3-D tensors ``(clients, samples,
  features)`` and the local training epochs run as batched matrix products
  over every selected client at once (:func:`train_clients_batched`),
  replaying the exact per-client shuffle order, Dropout mask streams,
  optimizer state updates (plain SGD, momentum, Adam — with per-client
  hyper-parameters broadcast over stacked state tensors) and FedProx term,
  so the result matches the per-client loop to float tolerance;
* heterogeneous fleets are *bucketed*: :func:`partition_cohorts` groups the
  selected clients into homogeneous (optimizer family, batch size, epochs)
  cohorts and the engine runs one vectorized sweep per cohort, so a fleet
  mixing Adam phones with SGD sensors no longer collapses to the scalar
  loop — only genuinely unreplayable clients (stateful optimizer instances,
  unsupported layer types) take the per-client fallback;
* compressor round-trips are vectorized over the stacked deltas
  (:meth:`UpdateCompressor.roundtrip_batch`);
* client selection is driven from live :class:`~repro.devices.fleet.Fleet`
  state (battery state of charge, metered-network flags) instead of
  hand-built context dicts, and participating devices pay a per-device
  energy cost for local training;
* the round loop supports deployment scenarios: mid-round dropouts,
  straggler timeouts and byzantine clients injecting scaled / sign-flipped
  deltas (exercised against :class:`TrimmedMeanAggregator`).

:meth:`FederatedEngine.run_round` is the only round transaction; its
``engine=`` (:mod:`repro.dispatch`) picks just the three kernels that
differ — *collect*, *compress*, *aggregate*.  ``engine="oracle"`` is the
scalar reference: one ``train_round`` per contributor (each its own
single-client cohort, so checkpoints and interrupts count clients), the
base-class per-row compressor loop and ``aggregator.aggregate(updates)``.
It runs no batched kernel, so the equivalence suites and the order-of-
magnitude guardrail of ``bench_e6`` compare independent computations; its
one pinned quirk is under *Known divergence* on ``run_round``.
``engine="sharded"`` is batched with one kernel swapped: the same collect
loop places rows that
:meth:`~repro.runtime.sharded.ShardedFleetRunner.train_cohorts` trained —
each batched cohort whole in one pool worker — byte-identical to sweeping
them in-process (which it does when a checkpoint store is attached).  Every
outcome, aborts included, gets its :class:`RoundResult` from one builder.

**Extending the batched trainer** (the federated twin of the fused-kernel
recipe in :mod:`repro.exchange.compiled`):

1. *New layer type*: teach :func:`_supported_layers` to accept it, thread it
   through the ``plan`` built in :func:`train_clients_batched` (a forward
   entry, a backward entry, any per-step per-client state such as the
   Dropout masks), and make sure the flat-delta layout still walks
   ``sorted(layer.params)`` in model order.
2. *New optimizer family*: give the :class:`~repro.nn.optimizers.Optimizer`
   subclass ``state_slots`` + ``hyperparams()``, allocate the matching
   ``(clients, n_params)`` state planes next to the momentum/Adam ones, and
   apply the update with per-client ``(C, 1)`` hyper-parameter broadcasts
   plus ``np.copyto(..., where=active)`` masking (in-place when every client
   stepped) so clients that exhausted their batches keep bit-identical
   state.  Replicate the *exact* elementwise operation order of
   ``Optimizer.update_param`` — equivalence suites assert allclose against
   the per-client loop.
3. *New config axis*: add it to the cohort key in :func:`partition_cohorts`
   (structural knobs like batch size split cohorts; purely numeric knobs
   like learning rates broadcast inside one cohort) and extend the
   hypothesis suite in ``tests/federated/test_batched_cohorts.py``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dispatch import ENGINE_ORACLE, ENGINE_SHARDED, resolve_engine
from repro.faults import (
    CheckpointStore,
    FaultInjector,
    RoundCheckpoint,
    RoundInterrupted,
)
from repro.nn import activations as A
from repro.nn.layers import Dense, Dropout, Layer
from repro.nn.model import Sequential

from .aggregation import Aggregator, FedAvgAggregator
from .client import ClientUpdate, FederatedClient
from .compression import NoCompression, UpdateCompressor
from .scheduling import ClientScheduler, RandomScheduler

__all__ = [
    "RoundResult",
    "RoundScenario",
    "FederatedEngine",
    "Cohort",
    "partition_cohorts",
    "vectorized_supported",
    "train_clients_batched",
    "noniid_severity_sweep",
]


@dataclass
class RoundResult:
    """Metrics of one federated round.

    ``participants`` lists the clients whose updates were actually
    aggregated; under a :class:`RoundScenario` that can be a strict subset
    of ``n_selected`` (dropouts and stragglers receive the model — and are
    billed for downlink — but never deliver an update).
    """

    round_index: int
    participants: List[str]
    train_loss: float
    global_accuracy: float
    uplink_bytes: int
    downlink_bytes: int
    mean_local_accuracy: float = 0.0
    n_selected: int = 0
    n_dropouts: int = 0
    n_stragglers: int = 0
    n_byzantine: int = 0
    # Shards the sharded backend re-executed in-process after a worker fault
    # (repro.runtime.sharded); 0 on fault-free runs and single-process
    # engines, so cross-engine result equality is unaffected.
    shard_recoveries: int = 0
    # Degradation telemetry (repro.faults): clients that crashed before
    # training, delta deliveries that never arrived, the retransmit /
    # duplicate traffic the retry policy generated, and — when a quorum is
    # configured — the commit target plus how far an aborted round fell
    # short.  All zero/False on fault-free runs, so cross-engine result
    # equality is unaffected.
    n_crashes: int = 0
    n_delivery_failures: int = 0
    n_retransmits: int = 0
    n_duplicates: int = 0
    quorum_required: int = 0
    quorum_shortfall: int = 0
    aborted: bool = False
    abort_reason: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "round": self.round_index,
            "n_participants": len(self.participants),
            "train_loss": round(self.train_loss, 4),
            "global_accuracy": round(self.global_accuracy, 4),
            "uplink_kb": round(self.uplink_bytes / 1024, 2),
            "downlink_kb": round(self.downlink_bytes / 1024, 2),
            "n_selected": self.n_selected,
            "n_dropouts": self.n_dropouts,
            "n_stragglers": self.n_stragglers,
            "n_byzantine": self.n_byzantine,
            "shard_recoveries": self.shard_recoveries,
            "n_crashes": self.n_crashes,
            "n_delivery_failures": self.n_delivery_failures,
            "n_retransmits": self.n_retransmits,
            "n_duplicates": self.n_duplicates,
            "quorum_required": self.quorum_required,
            "quorum_shortfall": self.quorum_shortfall,
            "aborted": self.aborted,
            "abort_reason": self.abort_reason,
        }


@dataclass
class RoundScenario:
    """Failure / adversary model applied to every round the engine runs.

    * ``dropout_rate`` — probability that a selected client vanishes
      mid-round (network loss, app killed): it never trains nor uploads.
    * ``straggler_timeout_s`` — round deadline.  Each trained client's
      simulated local-training latency is ``n_samples * local_epochs *
      time_per_sample_s`` with log-normal jitter; clients over the deadline
      finish training (and pay the energy) but their update is discarded.
    * ``hardware_latency`` — derive each client's per-sample time from its
      *device profile* instead of the fleet-wide ``time_per_sample_s``
      constant: one training step costs the device's per-inference latency
      (``peak_flops``, memory bandwidth and bit-width aware, via the cost
      model) times the cost model's forward+backward ``training_factor``.
      An MCU then genuinely straggles behind a flagship phone under the
      same deadline.  Clients without a mapped fleet device keep the
      ``time_per_sample_s`` fallback.
    * ``byzantine_ids`` — clients that inject corrupted deltas:
      ``"scale"`` multiplies the honest delta by ``byzantine_scale``,
      ``"flip"`` additionally reverses its sign.  Pair with
      :class:`~repro.federated.aggregation.TrimmedMeanAggregator` to keep
      the aggregate bounded by the honest clients' range.
    """

    dropout_rate: float = 0.0
    straggler_timeout_s: Optional[float] = None
    time_per_sample_s: float = 1e-3
    hardware_latency: bool = False
    latency_jitter: float = 0.5
    byzantine_ids: frozenset = field(default_factory=frozenset)
    byzantine_mode: str = "scale"
    byzantine_scale: float = 10.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")
        if self.byzantine_mode not in ("scale", "flip"):
            raise ValueError("byzantine_mode must be 'scale' or 'flip'")
        if self.straggler_timeout_s is not None and self.straggler_timeout_s <= 0.0:
            raise ValueError("straggler_timeout_s must be positive (or None to disable)")
        if self.time_per_sample_s < 0.0:
            raise ValueError("time_per_sample_s must be >= 0")
        if self.latency_jitter < 0.0:
            raise ValueError("latency_jitter must be >= 0")
        if self.byzantine_scale <= 0.0:
            raise ValueError("byzantine_scale must be positive ('flip' supplies the sign)")
        self.byzantine_ids = frozenset(self.byzantine_ids)


# ---------------------------------------------------------------------------
# cohort partitioning
# ---------------------------------------------------------------------------

_SUPPORTED_ACTIVATIONS = {None, "relu", "leaky_relu", "relu6", "tanh", "sigmoid", "linear"}


def _supported_layers(model: Sequential) -> Optional[List[Tuple[str, Layer]]]:
    """The model's layers as ``(kind, layer)`` ops if the batched trainer
    can replay them: a stack of Dense (supported activations) and Dropout
    layers with at least one Dense."""
    ops: List[Tuple[str, Layer]] = []
    n_dense = 0
    for layer in model.layers:
        if type(layer) is Dense and layer.activation_name in _SUPPORTED_ACTIVATIONS:
            ops.append(("dense", layer))
            n_dense += 1
        elif type(layer) is Dropout:
            ops.append(("drop", layer))
        else:
            return None
    return ops if n_dense else None


@dataclass(frozen=True)
class Cohort:
    """A homogeneous slice of one round's contributors.

    ``kind`` is ``"batched"`` (one vectorized sweep), ``"fallback"``
    (per-client loop: unsupported model or unreplayable optimizer) or
    ``"idle"`` (zero-sample clients: zero delta, no work at all).
    ``indices`` are positions into the client sequence that was partitioned.
    """

    kind: str
    key: Tuple
    indices: Tuple[int, ...]

    @property
    def batched(self) -> bool:
        return self.kind == "batched"


def partition_cohorts(model: Sequential, clients: Sequence[FederatedClient]) -> List[Cohort]:
    """Partition clients into homogeneous cohorts for per-cohort sweeps.

    Clients sharing (optimizer family, batch size, local epochs) form one
    batched cohort — per-client *numeric* hyper-parameters (lr, momentum,
    betas, weight decay, FedProx mu) broadcast inside the sweep and never
    split a cohort.  Zero-sample clients land in an ``idle`` cohort.
    Clients the batched trainer cannot replay (a shared
    :class:`~repro.nn.optimizers.Optimizer` instance whose state persists
    across rounds) and every client of an unsupported model (non-Dense /
    Dropout layers) form ``fallback`` cohorts served by the per-client
    loop, so correctness never depends on batching.
    """
    supported_model = _supported_layers(model) is not None
    groups: "OrderedDict[Tuple, List[int]]" = OrderedDict()
    for i, client in enumerate(clients):
        if client.n_samples == 0:
            key: Tuple = ("idle",)
        elif not supported_model:
            key = ("fallback", "model")
        else:
            cfg = client.batched_optimizer_config()
            if cfg is None:
                key = ("fallback", "optimizer")
            else:
                key = ("batched", cfg["family"], int(client.batch_size), int(client.local_epochs))
        groups.setdefault(key, []).append(i)
    return [Cohort(kind=key[0], key=key[1:], indices=tuple(idx)) for key, idx in groups.items()]


def vectorized_supported(model: Sequential, clients: Sequence[FederatedClient]) -> bool:
    """Whether ONE batched sweep covers every data-holding client.

    Heterogeneous-but-replayable fleets return False here yet still avoid
    the scalar loop: :func:`partition_cohorts` splits them into multiple
    batched cohorts.  This predicate is the "no bucketing needed" answer;
    the cohort suites check :func:`partition_cohorts` against it.
    """
    if _supported_layers(model) is None:
        return False
    cohorts = [c for c in partition_cohorts(model, clients) if c.kind != "idle"]
    return all(c.batched for c in cohorts) and len(cohorts) <= 1


# ---------------------------------------------------------------------------
# vectorized local training
# ---------------------------------------------------------------------------

# Recreating ``default_rng(seed)`` for every client each round is a
# measurable share of a vectorized round, so Generators are pooled: the
# initial bit-generator state per seed is cached and restored on reuse,
# which reproduces the exact stream a fresh ``default_rng(seed)`` yields.
# The pool is a small LRU — long multi-round runs that keep minting fresh
# client seeds (e.g. per-round resampling) would otherwise grow it without
# bound; an evicted seed simply pays one ``default_rng`` construction again
# and restarts the identical stream.
_RNG_POOL: "OrderedDict[int, Tuple[np.random.Generator, dict]]" = OrderedDict()
_RNG_POOL_MAX = 512


def _pooled_rng(seed: int) -> np.random.Generator:
    entry = _RNG_POOL.get(seed)
    if entry is None:
        rng = np.random.default_rng(seed)
        _RNG_POOL[seed] = (rng, rng.bit_generator.state)
        while len(_RNG_POOL) > _RNG_POOL_MAX:
            _RNG_POOL.popitem(last=False)
        return rng
    _RNG_POOL.move_to_end(seed)
    rng, state = entry
    rng.bit_generator.state = state
    return rng


def _momentum_update(param, vel, grad, scratch, mom, lr, active) -> None:
    """Heavy-ball step on a stacked parameter, masked to active clients.

    Elementwise operation order replicates ``Momentum.update_param``
    (``v *= m; v -= lr * grad; param += v``) exactly; rows of clients that
    ran out of batches this step keep their state bit-identical.  With
    ``active is None`` (every client stepped — the common case) state
    updates in place, skipping the candidate + masked-copy round-trip.
    """
    if active is None:
        vel *= mom
        np.multiply(grad, lr, out=grad)
        vel -= grad
        param += vel
        return
    np.multiply(vel, mom, out=scratch)
    np.multiply(grad, lr, out=grad)
    scratch -= grad
    np.copyto(vel, scratch, where=active)
    scratch += param
    np.copyto(param, scratch, where=active)


def _adam_update(param, m, v, grad, mc, vc, t1, b1, omb1, b2, omb2, eps, lr, c1, c2, active) -> None:
    """Adam step on a stacked parameter, masked to active clients.

    Replicates ``Adam.update_param`` elementwise: moment decay + gradient
    blend, per-client bias corrections ``c1 = 1 - beta1**t`` /
    ``c2 = 1 - beta2**t`` (computed with Python-float pow, like the scalar
    loop), then ``param -= lr * m_hat / (sqrt(v_hat) + eps)``.  With
    ``active is None`` (every client stepped) the moments update in place.
    """
    if active is None:
        m *= b1
        np.multiply(grad, omb1, out=t1)
        m += t1
        v *= b2
        np.multiply(grad, grad, out=grad)
        grad *= omb2
        v += grad
        np.divide(m, c1, out=mc)  # m_hat
        np.divide(v, c2, out=vc)  # v_hat
        np.sqrt(vc, out=vc)
        vc += eps
        mc *= lr
        mc /= vc
        param -= mc
        return
    np.multiply(m, b1, out=mc)
    np.multiply(grad, omb1, out=t1)
    mc += t1
    np.multiply(v, b2, out=vc)
    np.multiply(grad, grad, out=grad)
    grad *= omb2
    vc += grad
    np.copyto(m, mc, where=active)
    np.copyto(v, vc, where=active)
    mc /= c1  # m_hat
    vc /= c2  # v_hat
    np.sqrt(vc, out=vc)
    vc += eps
    mc *= lr
    mc /= vc
    np.subtract(param, mc, out=mc)
    np.copyto(param, mc, where=active)


def train_clients_batched(
    global_model: Sequential,
    clients: Sequence[FederatedClient],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run every client's local epochs in lock-step with stacked tensors.

    Replays exactly what ``FederatedClient.train_round`` does per client —
    same seeded shuffles, same Dropout masks (each client's mask stream is
    cloned from the model's Dropout generators, exactly like the per-client
    model clone), same cross-entropy gradients averaged over the true
    (unpadded) batch sizes, same SGD / momentum / Adam state updates with
    per-client hyper-parameters, same FedProx term — but as one sequence of
    batched ``(clients, batch, features)`` matrix products.

    The clients must form one homogeneous cohort: same optimizer family,
    batch size and epoch count across the clients that hold data (numeric
    hyper-parameters may differ per client).  Mixed fleets are split with
    :func:`partition_cohorts` and swept per cohort.

    Returns ``(deltas, mean_losses, local_accuracies)`` where ``deltas`` has
    shape ``(len(clients), n_params)``.  Clients without samples get a zero
    delta, zero loss and zero accuracy, matching the per-client loop.
    """
    ops = _supported_layers(global_model)
    if ops is None:
        raise ValueError("model is not a Dense/Dropout stack; use the per-client loop")
    n_params = global_model.get_flat_weights().size
    deltas = np.zeros((len(clients), n_params), dtype=np.float64)
    losses = np.zeros(len(clients), dtype=np.float64)
    accs = np.zeros(len(clients), dtype=np.float64)
    active = [(i, c) for i, c in enumerate(clients) if c.n_samples > 0]
    if not active:
        return deltas, losses, accs

    configs = [c.batched_optimizer_config() for _, c in active]
    ref = active[0][1]
    family = None if configs[0] is None else str(configs[0]["family"])
    if family is None or any(
        cfg is None
        or cfg["family"] != family
        or c.batch_size != ref.batch_size
        or c.local_epochs != ref.local_epochs
        for cfg, (_, c) in zip(configs, active)
    ):
        raise ValueError(
            "clients do not form a homogeneous batched cohort; split them with partition_cohorts() first"
        )

    C = len(active)
    counts = np.array([c.n_samples for _, c in active], dtype=np.int64)
    n_max = int(counts.max())
    x_dim = int(np.prod(global_model.input_shape))
    X = np.zeros((C, n_max, x_dim), dtype=np.float64)
    Y = np.zeros((C, n_max), dtype=np.int64)
    for ci, (_, client) in enumerate(active):
        X[ci, : counts[ci]] = client.data.x.reshape(counts[ci], -1)
        Y[ci, : counts[ci]] = client.data.y.astype(np.int64)

    batch_size = ref.batch_size
    epochs = ref.local_epochs
    mu = np.array([c.proximal_mu for _, c in active], dtype=np.float64)
    use_prox = bool(np.any(mu > 0.0))
    seen_seeds: set = set()
    rngs = []
    for _, c in active:
        # Pooled generators are keyed by seed; a duplicate seed within one
        # call needs its own independent stream, exactly like the legacy loop.
        rngs.append(np.random.default_rng(c.seed) if c.seed in seen_seeds else _pooled_rng(c.seed))
        seen_seeds.add(c.seed)

    # Per-client hyper-parameters broadcast as (C, 1) columns over the flat
    # parameter planes below.
    lr2 = np.array([cfg["lr"] for cfg in configs], dtype=np.float64)[:, None]
    wd2 = np.array([cfg["weight_decay"] for cfg in configs], dtype=np.float64)[:, None]
    use_wd = bool(np.any(wd2 != 0.0))
    if family == "momentum":
        mom2 = np.array([cfg["momentum"] for cfg in configs], dtype=np.float64)[:, None]
    elif family == "adam":
        b1_py = [float(cfg["beta1"]) for cfg in configs]
        b2_py = [float(cfg["beta2"]) for cfg in configs]
        b1_2 = np.array(b1_py, dtype=np.float64)[:, None]
        b2_2 = np.array(b2_py, dtype=np.float64)[:, None]
        omb1_2 = 1.0 - b1_2
        omb2_2 = 1.0 - b2_2
        eps2 = np.array([cfg["eps"] for cfg in configs], dtype=np.float64)[:, None]

    # Stacked per-client parameters live in ONE flat (clients, n_params)
    # plane in the get_flat_weights layout; each Dense layer's weight and
    # bias are reshaped *views* into it, so GEMMs read/write the stacks
    # directly while optimizer state updates, weight decay, FedProx and the
    # final delta all run as single fused ops over the whole plane (per-step
    # per-layer ufunc chains would otherwise dominate small models).
    dense_layers = [layer for kind, layer in ops if kind == "dense"]
    n_dense = len(dense_layers)
    acts = [A.get_activation(l.activation_name) if l.activation_name else None for l in dense_layers]
    relu_like = [l.activation_name == "relu" for l in dense_layers]
    dims = [x_dim] + [layer.units for layer in dense_layers]
    gflat = global_model.get_flat_weights()
    WF = np.repeat(gflat[None], C, axis=0)  # parameter plane
    GF = np.empty_like(WF)  # gradient plane (fully rewritten every step)
    W: List[np.ndarray] = []
    b: List[Optional[np.ndarray]] = []
    gw_v: List[np.ndarray] = []
    gb_v: List[Optional[np.ndarray]] = []
    offset = 0
    for layer in dense_layers:
        wk, bk = None, None
        for key in sorted(layer.params):  # "W" precedes "b", like get_flat_weights
            size = layer.params[key].size
            if key == "W":
                shape = (C,) + layer.params[key].shape
                W.append(WF[:, offset : offset + size].reshape(shape))
                gw_v.append(GF[:, offset : offset + size].reshape(shape))
                wk = True
            else:
                b.append(WF[:, offset : offset + size].reshape(C, size))
                gb_v.append(GF[:, offset : offset + size].reshape(C, size))
                bk = True
            offset += size
        if bk is None:
            b.append(None)
            gb_v.append(None)
        assert wk is not None

    plan: List[Tuple[str, int]] = []
    drop_dims: List[int] = []
    drop_keep: List[float] = []
    drop_u: List[np.ndarray] = []
    cur_dim, di = x_dim, 0
    for kind, layer in ops:
        if kind == "dense":
            plan.append(("dense", di))
            di += 1
            cur_dim = layer.units
        elif layer.rate > 0.0:
            # Zero-rate Dropout draws nothing in the per-client loop either.
            plan.append(("drop", len(drop_dims)))
            drop_dims.append(cur_dim)
            drop_keep.append(1.0 - float(layer.rate))
            # Every per-client model clone inherits the SAME generator state
            # from this layer, so all clients read one common uniform stream
            # — each at its own rate (counts[ci] rows per epoch).  Draw the
            # deepest client's worth once; per-epoch gathers below slice each
            # client's exact stream window, so masks are value-identical to
            # the scalar loop's sequential per-batch draws.
            drop_u.append(layer.spawn_stream().random((epochs * n_max, cur_dim)))
    n_drop = len(drop_dims)
    # Per-epoch per-client mask rows gathered from the common streams.
    drop_epoch = [np.empty((C, n_max, drop_dims[pi])) for pi in range(n_drop)]

    # Optimizer state planes + flat update scratch (all (C, n_params)).
    if family == "momentum":
        VF = np.zeros_like(WF)
    elif family == "adam":
        MF = np.zeros_like(WF)
        VF = np.zeros_like(WF)
    U1 = np.empty_like(WF) if (use_wd or use_prox or family != "sgd") else None
    U2 = np.empty_like(WF) if (use_prox or family == "adam") else None
    U3 = np.empty_like(WF) if family == "adam" else None

    rows = np.arange(C)[:, None]
    loss_sum = np.zeros(C)
    n_batches = np.zeros(C)
    perm = np.zeros((C, n_max), dtype=np.int64)

    # Step geometry (true batch widths, padding masks, loss denominators,
    # active-client rows) repeats identically every epoch, so precompute it
    # once — on fleet-scale sweeps the per-step ufunc dispatch for these
    # little arrays otherwise costs as much as the GEMMs.
    step_meta: List[Dict[str, object]] = []
    for s in range(math.ceil(n_max / batch_size)):
        nb = np.clip(counts - s * batch_size, 0, batch_size)
        width = int(nb.max())
        if width == 0:
            break
        rowmask = np.arange(width)[None, :] < nb[:, None]
        step_on = nb > 0
        step_meta.append(
            {
                "nb": nb,
                "width": width,
                "mask": rowmask,
                "maskf": rowmask.astype(np.float64),
                "cols": np.arange(width)[None, :],
                "denom": np.maximum(nb, 1).astype(np.float64),
                "full": bool(rowmask.all()),
                "active": step_on,
                "active2": step_on[:, None],
                "activef": step_on.astype(np.float64),
                "all_on": bool(step_on.all()),
            }
        )
    steps = len(step_meta)

    if family == "adam":
        # Bias corrections 1 - beta**t depend only on the (epoch, step)
        # position; tabulate them with Python-float pow (matching the scalar
        # loop's arithmetic) instead of re-deriving per step.
        c1_tab = np.ones((epochs * steps, C))
        c2_tab = np.ones((epochs * steps, C))
        t_run = np.zeros(C, dtype=np.int64)
        k = 0
        for _e in range(epochs):
            for s in range(steps):
                act = step_meta[s]["active"]
                t_run += act
                r1, r2 = c1_tab[k], c2_tab[k]
                for ci in range(C):
                    if act[ci]:
                        t = int(t_run[ci])
                        r1[ci] = 1.0 - b1_py[ci] ** t
                        r2[ci] = 1.0 - b2_py[ci] ** t
                k += 1

    # All step tensors are preallocated per batch width and every hot op
    # writes through ``out=`` — on a 100-client fleet the allocator churn of
    # fresh (clients, batch, features) temporaries otherwise rivals the
    # arithmetic itself.  Buffers: z/y per dense layer, gradient ping-pong
    # per layer width, per-layer weight/bias gradients, Dropout masks and
    # outputs, targets and loss temp.
    buffers: Dict[int, Dict[str, object]] = {}

    def _buffers(width: int) -> Dict[str, object]:
        buf = buffers.get(width)
        if buf is None:
            buf = {
                "z": [np.empty((C, width, dims[li + 1])) for li in range(n_dense)],
                "y": [np.empty((C, width, dims[li + 1])) for li in range(n_dense)],
                "g": [np.empty((C, width, dims[li + 1])) for li in range(n_dense)],
                "dm": [np.empty((C, width, drop_dims[pi])) for pi in range(n_drop)],
                "do": [np.empty((C, width, drop_dims[pi])) for pi in range(n_drop)],
                "t": np.empty((C, width, dims[-1])),
                "tmp": np.empty((C, width, dims[-1])),
            }
            buffers[width] = buf
        return buf

    Xp = np.empty_like(X)
    Yp = np.empty_like(Y)
    sample_rows = np.arange(n_max)[None, :]
    for _epoch in range(epochs):
        for ci, rng in enumerate(rngs):
            idx = np.arange(counts[ci])
            rng.shuffle(idx)
            perm[ci, : counts[ci]] = idx
        # One gather per epoch; every step below slices contiguous views.
        Xp[:] = X[rows, perm]
        Yp[:] = Y[rows, perm]
        for pi in range(n_drop):
            # Client ci consumes counts[ci] mask rows per epoch, so its
            # epoch-e window starts at common-stream row e * counts[ci].
            np.take(drop_u[pi], _epoch * counts[:, None] + sample_rows, axis=0, out=drop_epoch[pi])
        for s in range(steps):
            meta = step_meta[s]
            width: int = meta["width"]  # type: ignore[assignment]
            mask: np.ndarray = meta["mask"]  # type: ignore[assignment]
            full: bool = meta["full"]  # type: ignore[assignment]
            xb = Xp[:, s * batch_size : s * batch_size + width]
            yb = Yp[:, s * batch_size : s * batch_size + width]
            buf = _buffers(width)
            zs: List[np.ndarray] = buf["z"]  # type: ignore[assignment]
            ys: List[np.ndarray] = buf["y"]  # type: ignore[assignment]
            gs: List[np.ndarray] = buf["g"]  # type: ignore[assignment]
            dms: List[np.ndarray] = buf["dm"]  # type: ignore[assignment]
            dos: List[np.ndarray] = buf["do"]  # type: ignore[assignment]

            # Forward pass through the Dense/Dropout plan.
            h = xb
            inputs: List[Optional[np.ndarray]] = [None] * n_dense
            for kind, k_idx in plan:
                if kind == "dense":
                    li = k_idx
                    inputs[li] = h
                    np.matmul(h, W[li], out=zs[li])
                    if b[li] is not None:
                        zs[li] += b[li][:, None, :]
                    if acts[li] is not None:
                        if relu_like[li]:
                            np.maximum(zs[li], 0.0, out=ys[li])
                        else:
                            ys[li][:] = acts[li][0](zs[li])
                        h = ys[li]
                    else:
                        h = zs[li]
                else:
                    pi = k_idx
                    dmask = dms[pi]
                    keep = drop_keep[pi]
                    vals = drop_epoch[pi][:, s * batch_size : s * batch_size + width]
                    np.copyto(dmask, vals < keep, casting="unsafe")
                    if not full:
                        dmask *= mask[:, :, None]  # padded rows draw no mask
                    dmask /= keep
                    np.multiply(h, dmask, out=dos[pi])
                    h = dos[pi]
            logits = h

            # Softmax cross-entropy averaged over each client's true batch
            # size; the shared shifted-exponential pass yields probabilities
            # and log-probabilities bitwise identical to the ``softmax`` /
            # ``log_softmax`` pair the per-client loss uses.
            denom: np.ndarray = meta["denom"]  # type: ignore[assignment]
            targets: np.ndarray = buf["t"]  # type: ignore[assignment]
            targets[:] = 0.0
            targets[rows, meta["cols"], yb] = meta["maskf"]
            tmp: np.ndarray = buf["tmp"]  # type: ignore[assignment]
            np.subtract(logits, np.max(logits, axis=-1, keepdims=True), out=tmp)  # shifted
            g_out = gs[n_dense - 1]
            np.exp(tmp, out=g_out)  # e
            norm = np.sum(g_out, axis=-1, keepdims=True)
            np.subtract(tmp, np.log(norm), out=tmp)  # log-probabilities
            tmp *= targets
            step_loss = -tmp.sum(axis=(1, 2)) / denom
            np.divide(g_out, norm, out=g_out)  # probabilities
            g_out -= targets
            g_out /= denom[:, None, None]
            if not full:
                g_out *= mask[:, :, None]

            # Backward pass; per-layer gradients land in their GF plane views.
            g = g_out
            for kind, k_idx in reversed(plan):
                if kind == "drop":
                    g *= dms[k_idx]
                    continue
                li = k_idx
                if relu_like[li]:
                    g *= zs[li] > 0.0
                elif acts[li] is not None:
                    g *= acts[li][1](zs[li], ys[li])
                np.matmul(inputs[li].transpose(0, 2, 1), g, out=gw_v[li])
                if b[li] is not None:
                    g.sum(axis=1, out=gb_v[li])
                if li == 0:
                    break  # nothing trainable upstream of the first Dense
                np.matmul(g, W[li].transpose(0, 2, 1), out=gs[li - 1])
                g = gs[li - 1]

            step_active: np.ndarray = meta["active"]  # type: ignore[assignment]
            all_on: bool = meta["all_on"]  # type: ignore[assignment]
            if use_prox:
                np.subtract(WF, gflat[None], out=U1)  # w - w_global
                np.multiply(U1, U1, out=U2)
                sq = U2.sum(axis=1)
                U1 *= (mu * step_active)[:, None]
                GF += U1
                step_loss = step_loss + 0.5 * mu * sq
            if not all_on:
                step_loss *= meta["activef"]  # inactive clients record no batch
            loss_sum += step_loss
            n_batches += step_active

            # Optimizer step: ONE fused update over the flat planes with
            # per-client (C, 1) hyper-parameter broadcasts and active-row
            # masking (rows whose client ran out of batches keep state).
            act2 = None if all_on else meta["active2"]
            if use_wd:
                # ``Optimizer.step``: grad = grad + weight_decay * param.
                np.multiply(WF, wd2, out=U1)
                GF += U1
            if family == "sgd":
                if use_wd and act2 is not None:
                    # Without decay inactive rows are exactly zero grads.
                    GF *= act2
                GF *= lr2
                WF -= GF
            elif family == "momentum":
                _momentum_update(WF, VF, GF, U1, mom2, lr2, act2)
            else:  # adam
                k = _epoch * steps + s
                _adam_update(
                    WF, MF, VF, GF, U1, U2, U3,
                    b1_2, omb1_2, b2_2, omb2_2, eps2, lr2,
                    c1_tab[k][:, None], c2_tab[k][:, None], act2,
                )

    # Local evaluation of the trained weights on each client's own shard
    # (training=False: Dropout is identity, exactly like ``model.evaluate``).
    h = X
    for li in range(n_dense):
        z = h @ W[li]
        if b[li] is not None:
            z += b[li][:, None, :]
        h = acts[li][0](z) if acts[li] is not None else z
    valid = np.arange(n_max)[None, :] < counts[:, None]
    correct = ((h.argmax(axis=-1) == Y) & valid).sum(axis=1)

    # The parameter plane already IS the get_flat_weights layout (Dropout
    # layers hold no parameters), so the deltas are one subtraction.
    flat = WF - gflat[None]
    for ci, (i, _) in enumerate(active):
        deltas[i] = flat[ci]
        losses[i] = loss_sum[ci] / max(n_batches[ci], 1.0)
        accs[i] = correct[ci] / counts[ci]
    return deltas, losses, accs


# ---------------------------------------------------------------------------
# the engine
# ---------------------------------------------------------------------------


# The plan facts a round reports (the ``RoundResult`` fields of these names)
# and persists (``RoundCheckpoint.counts`` keys); a new one is listed here once.
_PLAN_COUNTERS = (
    "n_dropouts", "n_stragglers", "n_crashes", "n_delivery_failures",
    "n_retransmits", "n_duplicates", "quorum_required",
)


@dataclass
class _RoundPlan:
    """Everything a round decides *before* any local training happens.

    Scenario dropouts/stragglers, fault-plan crashes, the simulated
    delivery verdict of every surviving contributor and the quorum
    check are all data-independent (seeded RNG + plan lookups only), so
    the engine resolves them up front.  That is what makes the quorum
    abort transactional: an aborted round is decided at admission time
    and performs *zero* work — no training, no energy drain, no weight
    update — leaving fleet planes, ledgers and client RNG streams
    byte-untouched.  ``trivial`` marks the no-scenario/no-fault/no-quorum
    case where every engine path must stay byte-identical to its
    pre-fault-plane behaviour.
    """

    selected: List[str]
    contributors: List[str]
    stragglers: List[str]
    n_dropouts: int = 0
    n_stragglers: int = 0
    n_crashes: int = 0
    # Rows into ``contributors`` whose delta arrived (None = all), and the
    # per-row uplink transmission count (attempts + duplicates).
    delivered_rows: Optional[List[int]] = None
    tx_counts: Optional[List[int]] = None
    n_retransmits: int = 0
    n_duplicates: int = 0
    n_delivery_failures: int = 0
    # Delivered rows whose uplink showed >= 1 corrupt attempt before the
    # clean copy arrived (suspect links; quorum_mode="verified" discounts
    # them from the commit threshold).
    corrupt_rows: Optional[List[int]] = None
    quorum_required: int = 0
    # Deliveries counted toward the quorum threshold under the engine's
    # quorum_mode (== n_delivered in legacy "delivered" mode).
    quorum_counted: int = 0
    aborted: bool = False
    abort_reason: str = ""
    trivial: bool = True

    @property
    def n_delivered(self) -> int:
        return len(self.contributors) if self.delivered_rows is None else len(self.delivered_rows)

    def counters(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in _PLAN_COUNTERS}


class FederatedEngine:
    """Executes federated rounds fleet-wide instead of client-by-client.

    Beyond the model, clients, aggregator, compressor, scheduler and
    ``eval_data``:

    fleet:
        A :class:`~repro.devices.fleet.Fleet` whose live device state
        (battery, network, idleness) feeds the scheduler each round.  When
        given, participating devices also pay a training energy cost
        proportional to their shard size and the model's per-inference cost
        on their hardware profile.
    device_map:
        Optional ``client_id -> device_id`` mapping; defaults to the client
        id itself.
    scenario:
        Optional :class:`RoundScenario` describing dropouts, stragglers and
        byzantine clients.
    fault_injector:
        Optional :class:`repro.faults.FaultInjector` replaying a seeded
        :class:`~repro.faults.FaultPlan` against the round loop: client
        crashes, lossy/corrupted/duplicated delta deliveries (retried
        under the :class:`~repro.faults.RetryPolicy` the injector carries)
        and coordinator interrupts.  ``None`` (and an empty plan) keep every
        path byte-identical to the plain engine.
    quorum:
        Optional commit fraction in ``(0, 1]``: a round merges iff at
        least ``ceil(quorum * n_selected)`` deltas are delivered,
        otherwise it aborts deterministically with zero side effects.
    quorum_mode:
        How deliveries count toward the quorum threshold.
        ``"delivered"`` (default, today's behaviour) counts every
        delivered delta.  ``"verified"`` counts only deliveries the
        coordinator can vouch for: the client is not in
        ``scenario.byzantine_ids`` and its uplink showed no corrupt
        attempts (a link that corrupted payloads before the clean retry
        is integrity-suspect).  Byzantine deltas still *aggregate* in
        both modes — robust aggregation stays the aggregator's job — so
        a verified-mode round that meets quorum commits byte-identically
        to legacy mode; only the abort decision differs.
    checkpoints:
        Optional :class:`repro.faults.CheckpointStore` (files in a dict)
        or :class:`repro.faults.DurableCheckpointStore` (the same store,
        files in a directory).  The round puts a :class:`RoundCheckpoint`
        after selection and every completed cohort sweep (every client on
        the oracle) and records each commit; a ``RoundInterrupted`` round
        re-issued against the store resumes byte-identically.
    """

    def __init__(
        self,
        global_model: Sequential,
        clients: Sequence[FederatedClient],
        aggregator: Optional[Aggregator] = None,
        compressor: Optional[UpdateCompressor] = None,
        scheduler: Optional[ClientScheduler] = None,
        eval_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        fleet=None,
        device_map: Optional[Dict[str, str]] = None,
        scenario: Optional[RoundScenario] = None,
        train_energy_factor: float = 3.0,
        fault_injector: Optional[FaultInjector] = None,
        quorum: Optional[float] = None,
        quorum_mode: str = "delivered",
        checkpoints: Optional[CheckpointStore] = None,
    ) -> None:
        if not clients:
            raise ValueError("at least one client is required")
        if quorum is not None and not 0.0 < quorum <= 1.0:
            raise ValueError("quorum must be in (0, 1]")
        if quorum_mode not in ("delivered", "verified"):
            raise ValueError(
                f'quorum_mode must be "delivered" or "verified", got {quorum_mode!r}'
            )
        self.global_model = global_model
        self.clients: Dict[str, FederatedClient] = {c.client_id: c for c in clients}
        self.aggregator = aggregator or FedAvgAggregator()
        self.compressor = compressor or NoCompression()
        self.scheduler = scheduler or RandomScheduler(fraction=1.0)
        self.eval_data = eval_data
        self.fleet = fleet
        self.device_map = dict(device_map or {})
        self.scenario = scenario
        self.train_energy_factor = float(train_energy_factor)
        self.fault_injector = fault_injector
        self.quorum = None if quorum is None else float(quorum)
        self.quorum_mode = quorum_mode
        self.checkpoints = checkpoints
        self.history: List[RoundResult] = []
        self._model_bytes = self.global_model.get_flat_weights().size * 4
        self._cost_model = None
        # hardware_latency per-sample times, keyed by device profile name.
        self._per_sample_time_cache: Dict[str, float] = {}
        # Optional pre-configured repro.runtime.sharded.ShardedFleetRunner
        # used by run_round(engine="sharded"); None builds a default per call.
        self.shard_runner = None

    @classmethod
    def for_candidate(
        cls, incumbent: Sequential, clients: Sequence[FederatedClient], **kwargs
    ) -> "FederatedEngine":
        """An engine for a *triggered* retraining round (model lifecycle).

        The engine's rounds mutate ``global_model`` in place, which is the
        right behaviour for an in-production federated update but wrong for
        a lifecycle-triggered retrain: the candidate must not touch the
        serving incumbent until a canary gate promotes it.  This constructor
        trains a weight-copy clone instead — the incumbent is never written,
        and the trained candidate is available as ``engine.global_model``
        (:class:`repro.lifecycle.LifecyclePipeline` registers it as a new
        base version and canaries it).
        """
        return cls(incumbent.clone(copy_weights=True), clients, **kwargs)

    # -- fleet integration ----------------------------------------------
    def _device_for(self, client_id: str):
        if self.fleet is None:
            return None
        return self.fleet.devices.get(self.device_map.get(client_id, client_id))

    def fleet_context(self) -> Optional[Dict[str, Dict[str, object]]]:
        """Live scheduler context built from the fleet's current state.

        One :meth:`~repro.devices.Fleet.context_rows` sweep over the columnar
        store covers every mapped client — no device objects are
        materialized, so building context for a million-device fleet is a
        handful of array ops plus one dict per client.
        """
        if self.fleet is None:
            return None
        mapped = {cid: self.device_map.get(cid, cid) for cid in self.clients}
        present = [did for did in dict.fromkeys(mapped.values()) if did in self.fleet.devices]
        if not present:
            return {}
        by_device = self.fleet.context_rows(present)
        return {cid: by_device[did] for cid, did in mapped.items() if did in by_device}

    def _drain_training_energy(self, client_ids: Sequence[str]) -> None:
        """Charge each training device for its local epochs (fwd + bwd)."""
        if self.fleet is None or not client_ids:
            return
        self._ensure_cost_model()
        for cid in client_ids:
            device = self._device_for(cid)
            if device is None:
                continue
            client = self.clients[cid]
            cost = self._cost_model.model_inference_cost(device.profile, self.global_model)
            device.battery.draw(cost.energy_j * self.train_energy_factor * client.local_epochs * client.n_samples)

    def _ensure_cost_model(self):
        if self._cost_model is None:
            from repro.devices.cost import CostModel

            self._cost_model = CostModel()
        return self._cost_model

    def _time_per_sample_s(self, client_id: str) -> float:
        """One training step's simulated wall time for a client.

        With ``scenario.hardware_latency`` and a mapped fleet device this is
        the device-profile inference latency (peak_flops / memory-bandwidth
        aware) times the cost model's forward+backward training factor;
        otherwise the scenario's fleet-wide ``time_per_sample_s`` constant.
        Cached per profile name — the value depends only on (profile, model
        architecture), and the architecture is fixed for an engine's life —
        so a round costs O(#distinct profiles) cost-model walks, not
        O(#clients).
        """
        sc = self.scenario
        if sc is not None and sc.hardware_latency:
            device = self._device_for(client_id)
            if device is not None:
                cached = self._per_sample_time_cache.get(device.profile.name)
                if cached is not None:
                    return cached
                cost_model = self._ensure_cost_model()
                forward = cost_model.model_inference_cost(device.profile, self.global_model)
                per_sample = forward.latency_s * cost_model.training_factor
                self._per_sample_time_cache[device.profile.name] = per_sample
                return per_sample
        return sc.time_per_sample_s if sc is not None else 0.0

    # -- scenario --------------------------------------------------------
    def _apply_scenario(
        self, selected: List[str], round_index: int
    ) -> Tuple[List[str], List[str], int, int]:
        """Split the selection into contributors vs dropouts/stragglers."""
        sc = self.scenario
        if sc is None:
            return selected, [], 0, 0
        rng = np.random.default_rng([sc.seed, round_index])
        dropped = rng.random(len(selected)) < sc.dropout_rate
        jitter = rng.lognormal(mean=0.0, sigma=sc.latency_jitter, size=len(selected))
        survivors = [cid for cid, d in zip(selected, dropped) if not d]
        n_dropouts = int(dropped.sum())
        stragglers: List[str] = []
        if sc.straggler_timeout_s is not None:
            surviving = set(survivors)
            keep = []
            for cid, jit in zip(selected, jitter):
                if cid not in surviving:
                    continue
                client = self.clients[cid]
                latency = client.n_samples * client.local_epochs * self._time_per_sample_s(cid) * jit
                (keep if latency <= sc.straggler_timeout_s else stragglers).append(cid)
            survivors = keep
        return survivors, stragglers, n_dropouts, len(stragglers)

    def _corrupt_deltas(self, contributors: Sequence[str], deltas: np.ndarray) -> int:
        """Overwrite byzantine clients' rows in place; returns how many."""
        sc = self.scenario
        if sc is None or not sc.byzantine_ids:
            return 0
        n = 0
        factor = -sc.byzantine_scale if sc.byzantine_mode == "flip" else sc.byzantine_scale
        for i, cid in enumerate(contributors):
            if cid in sc.byzantine_ids:
                deltas[i] *= factor
                n += 1
        return n

    # -- fault plane ------------------------------------------------------
    def _weights_digest(self) -> str:
        """Content address of the current global weights (checkpoint key)."""
        import hashlib

        return hashlib.sha256(
            np.ascontiguousarray(self.global_model.get_flat_weights()).tobytes()
        ).hexdigest()

    def _scheduler_rng_state(self) -> Optional[dict]:
        """The scheduler's post-selection RNG stream state, if it has one.

        Stock schedulers (``RandomScheduler`` / ``EligibilityScheduler``)
        keep a persistent ``_rng`` Generator, so a resumed round must
        restore — not re-draw — the stream or every later round diverges.
        """
        rng = getattr(self.scheduler, "_rng", None)
        if isinstance(rng, np.random.Generator):
            return rng.bit_generator.state
        return None

    def _restore_scheduler_rng(self, state: Optional[dict]) -> None:
        rng = getattr(self.scheduler, "_rng", None)
        if state is not None and isinstance(rng, np.random.Generator):
            rng.bit_generator.state = state

    def _plan_round(self, round_index: int, selected: List[str]) -> _RoundPlan:
        """Resolve every pre-training decision of a round.

        Applies the scenario (dropouts/stragglers), the fault plan's
        client crashes, simulates each surviving contributor's delta
        delivery under the retry policy, and runs the quorum check.  All
        of it is data-independent, so an abort can be decided before any
        work is scheduled and costs nothing.
        """
        contributors, stragglers, n_dropouts, n_stragglers = self._apply_scenario(selected, round_index)
        plan = _RoundPlan(
            selected=list(selected),
            contributors=list(contributors),
            stragglers=list(stragglers),
            n_dropouts=n_dropouts,
            n_stragglers=n_stragglers,
            trivial=self.scenario is None and self.fault_injector is None and self.quorum is None,
        )
        inj = self.fault_injector
        if inj is not None:
            crashed = set(inj.crashed_clients(round_index, plan.contributors))
            if crashed:
                plan.contributors = [cid for cid in plan.contributors if cid not in crashed]
                plan.n_crashes = len(crashed)
            delivered_rows: List[int] = []
            tx_counts: List[int] = []
            corrupt_rows: List[int] = []
            for row, cid in enumerate(plan.contributors):
                verdict = inj.deliver(round_index, cid, row)
                tx_counts.append(verdict.transmissions)
                plan.n_retransmits += verdict.retransmits
                plan.n_duplicates += verdict.duplicates
                if verdict.delivered:
                    delivered_rows.append(row)
                    if verdict.corrupt:
                        corrupt_rows.append(row)
                else:
                    plan.n_delivery_failures += 1
            plan.delivered_rows = delivered_rows
            plan.tx_counts = tx_counts
            plan.corrupt_rows = corrupt_rows
        if self.quorum is not None:
            plan.quorum_required = int(math.ceil(self.quorum * len(selected)))
            plan.quorum_counted = plan.n_delivered
            if self.quorum_mode == "verified":
                byzantine = self.scenario.byzantine_ids if self.scenario is not None else frozenset()
                suspect = set(plan.corrupt_rows or ())
                rows = range(len(plan.contributors)) if plan.delivered_rows is None else plan.delivered_rows
                plan.quorum_counted = sum(
                    1 for row in rows
                    if row not in suspect and plan.contributors[row] not in byzantine
                )
            if plan.quorum_counted < plan.quorum_required:
                plan.aborted = True
                mode = "" if self.quorum_mode == "delivered" else " verified"
                plan.abort_reason = (
                    f"quorum not met: {plan.quorum_counted}/{plan.quorum_required}"
                    f"{mode} deliverable of {len(selected)} selected"
                )
        return plan

    def _finish_round(
        self, round_index: int, plan: Optional[_RoundPlan] = None, participants: Sequence[str] = (),
        train_loss: float = 0.0, uplink: int = 0, downlink: int = 0, **outcome,
    ) -> RoundResult:
        """Build a round's result — ``n_selected`` and the counters from
        ``plan``, other fields from ``outcome`` — and commit it: persist the
        commit record (which drops the round's resume pointers) and append
        to ``history``.

        The commit record (post-round weights + result dict + scheduler
        RNG stream) is the *between-rounds* crash anchor: a fresh process
        restores the latest commit, replays nothing before it and resumes
        any in-flight checkpoint after it — see
        :class:`repro.faults.durable.DurableCheckpointStore`."""
        if plan is not None:
            outcome.update(plan.counters(), n_selected=len(plan.selected))
        result = RoundResult(
            round_index, list(participants), train_loss, self._evaluate(), uplink, downlink, **outcome
        )
        if self.checkpoints is not None:
            self.checkpoints.record_commit(
                round_index,
                self.global_model.get_flat_weights(),
                result.as_dict(),
                self._scheduler_rng_state(),
            )
        self.history.append(result)
        return result

    def _plan_from_checkpoint(self, ckpt: RoundCheckpoint) -> _RoundPlan:
        return _RoundPlan(
            selected=list(ckpt.selected),
            contributors=list(ckpt.contributors),
            stragglers=list(ckpt.stragglers),
            delivered_rows=None if ckpt.delivered_rows is None else list(ckpt.delivered_rows),
            tx_counts=None if ckpt.tx_counts is None else list(ckpt.tx_counts),
            trivial=bool(ckpt.counts.get("trivial", 0)),
            **{name: int(ckpt.counts.get(name, 0)) for name in _PLAN_COUNTERS},
        )

    def _checkpoint_for(self, round_index: int, plan: _RoundPlan) -> RoundCheckpoint:
        return RoundCheckpoint(
            round_index=round_index,
            model_digest=self._weights_digest(),
            selected=tuple(plan.selected),
            contributors=tuple(plan.contributors),
            stragglers=tuple(plan.stragglers),
            counts={**plan.counters(), "trivial": int(plan.trivial)},
            delivered_rows=None if plan.delivered_rows is None else tuple(plan.delivered_rows),
            tx_counts=None if plan.tx_counts is None else tuple(plan.tx_counts),
            scheduler_state=self._scheduler_rng_state(),
        )

    # -- round execution -------------------------------------------------
    def _collect_deltas(
        self,
        contributors: Sequence[str],
        round_index: Optional[int] = None,
        checkpoint: Optional[RoundCheckpoint] = None,
        per_client: bool = False,
        runner=None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Local training for the contributors, on every engine: one
        vectorized sweep per homogeneous cohort, per-client fallback for
        the rest.  Returns ``(deltas, losses, accs, shard_recoveries)``.

        ``per_client`` is the oracle's collect kernel: every contributor
        is its own single-client ``"fallback"`` cohort at ``position`` =
        its row — never ``"idle"``, so a zero-sample contributor is still
        ``train_round``-ed — which makes checkpoints, restores and
        ``interrupt_after`` count *clients* there, through the same code.
        ``runner`` is the sharded one: its ``train_cohorts`` runs all the
        batched sweeps in one dispatch up front and the loop places those
        rows as it would its own; fallback cohorts still train here, in the
        parent, so their cross-round optimizer state persists.

        With a ``checkpoint``, already-recorded cohorts are restored
        instead of retrained (their sweeps are pure functions of the
        global weights, so the restored rows are the bytes a retrain
        would produce), every fresh cohort is persisted to the engine's
        checkpoint store as it completes, and a fault-plan coordinator
        interrupt raises :class:`RoundInterrupted` *between* sweeps —
        after the finished work is safely checkpointed.
        """
        clients = [self.clients[cid] for cid in contributors]
        n_params = self.global_model.get_flat_weights().size
        deltas = np.zeros((len(clients), n_params))
        losses = np.zeros(len(clients))
        accs = np.zeros(len(clients))
        inj = self.fault_injector if checkpoint is not None else None
        completed = 0
        if per_client:
            cohorts = [Cohort("fallback", ("client",), (row,)) for row in range(len(clients))]
        else:
            cohorts = partition_cohorts(self.global_model, clients)
        sweeps, shard_recoveries = {}, 0  # cohort position -> its sweep, when the runner trained it
        batched = [position for position, cohort in enumerate(cohorts) if cohort.batched]
        if runner is not None and batched:  # an all-fallback round dispatches nothing
            trained, shard_recoveries = runner.train_cohorts(
                self.global_model, [[clients[i] for i in cohorts[p].indices] for p in batched]
            )
            sweeps = dict(zip(batched, trained))
        for position, cohort in enumerate(cohorts):
            if cohort.kind == "idle":
                continue  # zero-sample clients keep their zero rows
            if checkpoint is not None and position in checkpoint.cohorts:
                payload = checkpoint.cohorts[position]
                idx = payload["indices"].tolist()
                deltas[idx] = payload["deltas"]
                losses[idx] = payload["losses"]
                accs[idx] = payload["accs"]
                completed += 1
                continue
            if inj is not None:
                after = inj.interrupt_after(round_index)
                if after is not None and completed >= after:
                    inj.fire_interrupt(round_index)
                    raise RoundInterrupted(round_index, self.checkpoints.put(checkpoint))
            idx = list(cohort.indices)
            if cohort.batched:
                deltas[idx], losses[idx], accs[idx] = sweeps.get(position) or train_clients_batched(
                    self.global_model, [clients[i] for i in idx]
                )
            else:
                for i in idx:
                    update = clients[i].train_round(self.global_model)
                    deltas[i] = update.delta
                    losses[i] = update.local_loss
                    accs[i] = update.metrics.get("local_accuracy", 0.0)
            completed += 1
            if checkpoint is not None:
                checkpoint.record_cohort(position, idx, deltas[idx], losses[idx], accs[idx])
                self.checkpoints.put(checkpoint)
        if inj is not None:
            # An interrupt scheduled at-or-past the cohort count fires
            # after the last sweep: all work is checkpointed, only the
            # commit is missing — resume replays it from restored rows.
            after = inj.interrupt_after(round_index)
            if after is not None and completed >= after:
                inj.fire_interrupt(round_index)
                raise RoundInterrupted(round_index, self.checkpoints.put(checkpoint))
        return deltas, losses, accs, shard_recoveries

    def run_round(
        self,
        round_index: int,
        device_context: Optional[Dict[str, Dict[str, object]]] = None,
        engine: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> RoundResult:
        """Execute one round and append its result to ``history``.

        One transaction serves every engine: resume-or-plan → abort /
        empty short-circuits → checkpoint → *collect* → byzantine
        corruption → *compress* → filter delivered → *aggregate* → energy
        drain → commit (:meth:`_finish_round`, the one result builder).
        ``engine=`` (:mod:`repro.dispatch`) picks only the three kernels:
        ``"batched"`` (default) runs one vectorized sweep per cohort, the
        compressor's own ``roundtrip_batch`` and ``aggregate_stack`` for
        plain FedAvg; ``"oracle"`` runs one ``train_round`` per contributor,
        the base-class per-row compressor loop and
        ``aggregator.aggregate(updates)`` — no batched kernel, hence the
        differential reference; ``"sharded"`` is batched with the third
        collect kernel (per-client cohorts, in-process sweeps, pooled
        ``train_cohorts`` — one loop, :meth:`_collect_deltas`, places all
        three): the batched cohorts train whole over ``workers`` processes (a
        :class:`~repro.runtime.sharded.ShardedFleetRunner`; assign
        :attr:`shard_runner` to customize backend/timeouts and to reuse its
        worker processes across rounds — you then own its ``close()``; a
        runner built here is closed before returning), byte-identical to
        batched.

        Fault semantics (``fault_injector`` / ``quorum`` /
        ``checkpoints``, see :mod:`repro.faults`): crashes, delivery
        verdicts and the quorum check resolve *before* training
        (:meth:`_plan_round`); a quorum shortfall aborts with zero side
        effects.  A checkpoint store means in-process sweeps — under
        ``engine="sharded"`` no runner is borrowed or built (its dispatch
        is all-or-nothing and byte-identical, so checkpointing inside it
        would add nothing) — and a fault-plan coordinator interrupt raises
        :class:`~repro.faults.RoundInterrupted`; re-issuing the same
        ``run_round`` resumes from the checkpoint byte-identically, in a
        fresh process too.  Checkpoints are per *cohort* on batched /
        sharded and per *client* on the oracle (position = contributor
        row; the plan's ``after_cohorts`` counts completed clients there).

        Known divergence, pinned (``tests/pins``: ``fleet/oracle``): with
        no scenario, injector or quorum the oracle skips the training
        energy drain the other engines apply, as the seed-era loop did.
        Aligning it is a ``[behaviour]`` PR of its own.
        """
        engine = resolve_engine(engine, owner="FederatedEngine.run_round", extra=(ENGINE_SHARDED,))
        oracle = engine == ENGINE_ORACLE

        resume = None
        if self.checkpoints is not None:
            resume = self.checkpoints.latest_for(round_index, self._weights_digest())
        if resume is not None:
            selected = list(resume.selected)
            plan = self._plan_from_checkpoint(resume)
            self._restore_scheduler_rng(resume.scheduler_state)
            if self.fault_injector is not None:
                # The checkpoint *is* the evidence the interrupt fired: a
                # fresh process (whose injector never saw it fire) must
                # mark it spent or resume would re-crash forever.
                # In-process this is a no-op (already fired).
                self.fault_injector.fire_interrupt(round_index)
        else:
            context = device_context if device_context is not None else self.fleet_context()
            selected = self.scheduler.select(list(self.clients), round_index, context=context)
            if not selected:
                return self._finish_round(round_index)
            plan = self._plan_round(round_index, selected)

        if plan.aborted:
            # A deterministic abort: the coordinator refuses to start a
            # round it already knows cannot commit, so nothing is broadcast,
            # trained, drained or merged — fleet planes, ledgers and RNG
            # streams stay byte-untouched (the chaos suite asserts this
            # against a no-fault world).
            shortfall = plan.quorum_required - plan.quorum_counted
            return self._finish_round(
                round_index, plan, quorum_shortfall=shortfall, aborted=True, abort_reason=plan.abort_reason
            )
        contributors, stragglers = plan.contributors, plan.stragglers
        downlink = self._model_bytes * len(selected)
        if not contributors:
            # Stragglers still trained (and pay for it) even though every
            # update missed the deadline and the round aggregates nothing.
            self._drain_training_energy(stragglers)
            return self._finish_round(round_index, plan, downlink=downlink)

        checkpoint = resume
        if self.checkpoints is not None and checkpoint is None:
            checkpoint = self._checkpoint_for(round_index, plan)
            self.checkpoints.put(checkpoint)
        runner = None
        if engine == ENGINE_SHARDED and checkpoint is None:  # a store means in-process sweeps
            from repro.runtime.sharded import ShardedFleetRunner

            runner = self.shard_runner or ShardedFleetRunner(workers=workers)
        try:
            deltas, losses, accs, shard_recoveries = self._collect_deltas(
                contributors, round_index, checkpoint, per_client=oracle, runner=runner
            )
        finally:
            if runner is not None and runner is not self.shard_runner:
                runner.close()  # a runner built for this call owns processes
        n_byzantine = self._corrupt_deltas(contributors, deltas)
        if oracle:
            decompressed, nbytes = UpdateCompressor.roundtrip_batch(self.compressor, deltas)
        else:
            decompressed, nbytes = self.compressor.roundtrip_batch(deltas)
        if plan.delivered_rows is None:
            rows = None
            participants = list(contributors)
            uplink = int(nbytes.sum())
        else:
            rows = np.asarray(plan.delivered_rows, dtype=np.int64)
            participants = [contributors[i] for i in plan.delivered_rows]
            # Every attempt (and duplicate) of every contributor crossed
            # the uplink, including the ones that never arrived.
            uplink = int(np.sum(nbytes * np.asarray(plan.tx_counts, dtype=np.int64)))
        if participants:
            kept = decompressed if rows is None else decompressed[rows]
            kept_losses = losses if rows is None else losses[rows]
            kept_accs = accs if rows is None else accs[rows]
            n_samples = np.array(
                [self.clients[cid].n_samples for cid in participants], dtype=np.float64
            )
            if type(self.aggregator) is FedAvgAggregator and not oracle:
                # Fast path: we already hold the stack FedAvg would build,
                # so skip the per-update object churn.
                delta = self.aggregator.aggregate_stack(kept, n_samples)
            else:
                updates = [
                    ClientUpdate(
                        client_id=cid,
                        delta=kept[i],
                        n_samples=self.clients[cid].n_samples,
                        local_loss=float(kept_losses[i]),
                        metrics={"local_accuracy": float(kept_accs[i])} if self.clients[cid].n_samples > 0 else {},
                    )
                    for i, cid in enumerate(participants)
                ]
                delta = self.aggregator.aggregate(updates)
            self.global_model.set_flat_weights(self.global_model.get_flat_weights() + delta)
            train_loss = float(np.mean(kept_losses))
            mean_local_accuracy = float(np.mean(kept_accs))
        else:
            # Everyone trained but nothing arrived (and no quorum was set
            # to abort): the round commits no delta.
            train_loss = 0.0
            mean_local_accuracy = 0.0
        if not (oracle and plan.trivial):  # known divergence, see the docstring
            self._drain_training_energy(list(contributors) + stragglers)

        return self._finish_round(
            round_index, plan, participants, train_loss, uplink, downlink,
            mean_local_accuracy=mean_local_accuracy, n_byzantine=n_byzantine,
            shard_recoveries=shard_recoveries,
        )

    def run(
        self,
        n_rounds: int,
        device_context: Optional[Dict[str, Dict[str, object]]] = None,
        engine: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> List[RoundResult]:
        """Run ``n_rounds`` federated rounds."""
        return [
            self.run_round(r, device_context=device_context, engine=engine, workers=workers)
            for r in range(n_rounds)
        ]

    # -- reporting --------------------------------------------------------
    def _evaluate(self) -> float:
        if self.eval_data is None:
            return 0.0
        x, y = self.eval_data
        return self.global_model.evaluate(x, y)["accuracy"]

    def total_communication(self) -> Dict[str, float]:
        """Aggregate uplink/downlink volume over all rounds so far."""
        return {
            "uplink_mb": sum(r.uplink_bytes for r in self.history) / 1e6,
            "downlink_mb": sum(r.downlink_bytes for r in self.history) / 1e6,
            "rounds": float(len(self.history)),
        }


def noniid_severity_sweep(
    dataset,
    alphas: Sequence[float],
    model_fn,
    n_clients: int = 10,
    rounds: int = 3,
    eval_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    seed: int = 0,
    **client_kwargs,
) -> Dict[float, Dict[str, float]]:
    """Run short federated trainings across a Dirichlet non-IID severity sweep.

    For each ``alpha`` the dataset is re-partitioned with
    :func:`repro.data.federated.partition_dirichlet`, a fresh model from
    ``model_fn()`` is trained for ``rounds`` engine rounds, and the sweep
    reports the partition's label-skew statistics next to the resulting
    accuracy — the paper's "federated learning must cope with heterogeneous
    client data" trade-off as one table.
    """
    from repro.data.federated import partition_dirichlet, partition_statistics

    results: Dict[float, Dict[str, float]] = {}
    for alpha in alphas:
        parts = partition_dirichlet(dataset, n_clients, alpha=alpha, seed=seed)
        stats = partition_statistics(parts, dataset.num_classes)
        clients = [FederatedClient(p, seed=seed + i, **client_kwargs) for i, p in enumerate(parts)]
        engine = FederatedEngine(model_fn(), clients, eval_data=eval_data)
        history = engine.run(rounds)
        results[float(alpha)] = {
            "final_accuracy": history[-1].global_accuracy,
            "final_train_loss": history[-1].train_loss,
            "mean_tv_distance": stats["mean_tv_distance"],
            "size_imbalance": stats["size_imbalance"],
        }
    return results
