"""Markov chain approximation schemes and the local-consistency checker.

Three scheme kinds are provided:

* ``euler``: increment b(y,t) h + sigma(y,t) sqrt(h) N with standard normal
  draws (the Euler scheme as a chain);
* ``binomial_fixed``: increment b(y,t) h +/- sigma(y,t) sqrt(h) with equal
  probabilities, scalar models only;
* ``binomial_variable``: state-dependent step dt = h / sigma(y,t)^2 with
  spatial jumps b dt +/- sqrt(h), admissible only while sigma stays inside a
  declared band eps < |sigma| < 1/eps, which every step checks.

Every kind steps a batch of paths together; a single path is a batch of one.
The fixed-step kinds share one update, differing only in its draws (normals
or +/-1 signs), on one grid; the variable-step tree steps its rows with
:func:`binomial_variable_step`, each on its own grid.  The consistency checker
computes these same two kernels' one-step moments exactly, over their
outcomes.  All kinds truncate the final step so the grid lands exactly on
t = 1; every other step is h, or in [eps^2 h, h / eps^2] on the
tree, so quasi-uniformity holds by construction.  ``simulate_path``
emits the realized grid as a :class:`StepPath`.  Paths are reproducible:
every path owns a counter-based RNG stream keyed by (seed, namespace, stream
id), so each path's draws depend neither on batching nor on the process.
Below the public entries the engine reads Philox key pairs (:func:`_stream_keys`
for ``estimate``), each drawn from a pooled generator reseated onto it (:func:`_reseat`).

Every kind is a stream of states (:func:`_grid_states`), stepped as it
is read into reused buffers, so the observer (``functionals.fold_args_batch``)
stores only the columns its payoff can read.  On the fixed grids each stream's
draws arrive on the calling thread in time blocks of at most
``_BATCH_ELEMENTS`` elements from a Philox generator that the stream keeps
for the whole grid.  The tree's rows step on grids of their own, so each
column also brings the rows' times, and each row reads its signs from raw
Philox words, 64 at a time.

:func:`_priced` splits work items -- ``estimate``'s paths,
``counterexample_bessel``'s rows -- into one forked range per usable CPU
and returns their results in item order; each item draws from a key of its
own, so no result depends on the split.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import pickle
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import EstimationError, PreconditionError, SimulationError
from .models import SdeModel
from .paths import StepPath

__all__ = [
    "SchemeConfig",
    "RngStream",
    "binomial_variable_step",
    "simulate_path",
    "simulate_values",
    "simulate_terminals",
    "check_local_consistency",
    "ConsistencyReport",
]

SCHEME_KINDS = ("euler", "binomial_fixed", "binomial_variable")
_BAD_COEFFS = "non-finite drift/diffusion evaluation"
_BAD_STATE = "non-finite state during simulation"

# Memory cap of one simulated block, in float64 elements: a time-major
# noise block on the fixed grids, and the stored batch of paths on the routes
# that keep whole paths (the estimator sizes those batches from it).
_BATCH_ELEMENTS = 8_000_000

# Fewest random draws a forked range of Bessel rows makes (_priced): a fork
# costs 1-3 ms, 10^5 normals about 1.5 ms.
_FORK_DRAWS = 2**18


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream keyed by (seed, namespace, stream_id).

    The triple is packed into a distinct 128-bit Philox key, so identical
    keys reproduce identical draws and distinct stream ids give independent
    streams by construction.  The namespace separates independent uses (one
    per convergence row, diagnostic, ...) without seed arithmetic.
    """

    seed: int
    stream_id: int = 0
    namespace: int = 0

    @property
    def key(self) -> tuple[int, int]:
        """The checked Philox key words (low, high) every generator of the stream reads."""
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"a seed must lie in [0, 2^64), got {self.seed}")
        if not (0 <= self.stream_id < 1 << 48 and 0 <= self.namespace < 1 << 16):
            raise ValueError("stream_id must fit 48 bits and namespace 16 bits")
        return (self.namespace << 48) | self.stream_id, self.seed

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=np.array(self.key, np.uint64)))


def _stream_keys(seed: int, namespace: int, start: int, stop: int) -> list:
    """``RngStream(seed, i, namespace).key`` for i in start..stop-1, range-checked once."""
    high = RngStream(seed, max(start, stop - 1), namespace).key[1]
    return [((namespace << 48) | i, high) for i in range(start, stop)]


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selection: kernel kind and step parameter.

    The scheme at another step size is ``replace(scheme, h=...)``.  No chain
    is ever clamped: ``cap`` is accepted only as None, the value the
    benchmark harness passes, and anything else is refused.
    """

    kind: str
    h: float
    cap: None = None

    def __post_init__(self):
        if self.kind not in SCHEME_KINDS:
            raise ValueError(f"unknown scheme kind {self.kind!r}")
        if not (0.0 < self.h <= 1.0):
            raise ValueError("step parameter h must lie in (0, 1]")
        if self.cap is not None:
            raise ValueError(f"cap must be None (got {self.cap!r}): no chain is clamped")

    def max_times(self, model: SdeModel) -> int:
        """The most grid times a path of ``model`` can take: the fixed grid's,
        or ceil(1 / (eps^2 h)) + 1 on the tree, whose steps are at least
        eps^2 h.  Every simulation entry and the consistency checker call it
        first, so it also refuses models the kernel cannot run."""
        if self.kind != "euler" and (model.dim_state, model.dim_noise) != (1, 1):
            raise PreconditionError("binomial kernels require d = d1 = 1")
        if self.kind == "binomial_variable":
            eps = _require_sigma_band(model)
            return math.ceil(1.0 / (eps * eps * self.h)) + 1
        return fixed_time_grid(self.h).size


def _require_sigma_band(model: SdeModel) -> float:
    if model.sigma_eps is None:
        raise PreconditionError(
            f"model {model.label!r} declares no sigma band; "
            "binomial_variable needs eps with eps < |sigma| < 1/eps"
        )
    return float(model.sigma_eps)


def _raise_at_first_bad_row(message, rows_ok):
    """Raise SimulationError at the first row not ok (None: all are), as ``batch_index``."""
    if rows_ok is not None and not rows_ok.all():
        e = SimulationError(message)
        e.batch_index = int(np.argmin(rows_ok))
        raise e


def _finite_rows(b, s):
    return np.isfinite(b).all(axis=-1) & np.isfinite(s).all(axis=(-2, -1))


def _fixed_update(model, y, t, dt, xi, out, mix):
    """Shared update y + b dt + (sigma @ xi) sqrt(dt) of a (B, d) batch, into ``out``.

    ``mix`` is scratch shaped like ``out``; ``y`` is left intact.  A single
    (1, d) state broadcasts against (B, d1) draws, so the coefficients are
    evaluated once for all of them.  Non-finite coefficients make the new
    state non-finite, so one sum of it screens them.  Returns None when that
    sum is finite, as is then every entry of ``out``; else whether each
    row's coefficients were finite (all of them when the sum overflowed).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # screened below, named by the caller
        b = model.drift(y, t)
        s = model.diffusion(y, t)
        np.multiply(s[..., 0], xi[..., 0, None], out=mix)  # sum_j sigma[..., j] xi[..., j]
        for j in range(1, s.shape[-1]):
            np.add(mix, s[..., j] * xi[..., j, None], out=mix)
        np.multiply(mix, np.sqrt(dt), out=mix)
        np.add(y, np.multiply(b, dt, out=out), out=out)
        np.add(out, mix, out=out)
        total = np.add.reduce(out, axis=None)
    if math.isfinite(total):
        return None
    return _finite_rows(b, s)


def binomial_variable_step(model: SdeModel, y, t, h: float, sign):
    """One variable-step binomial transition of a (B, 1) batch of states.

    ``t`` is a scalar or a (B, 1) column, ``sign`` a (B, 1) column of +/-1.
    Returns ``(dt, y_next)``: dt = h / sigma^2 cut at the horizon, and a jump
    sigma * sqrt(dt) that keeps the variance sigma^2 dt on a truncated step.
    """
    eps = _require_sigma_band(model)
    b = model.drift(y, t)
    s = model.diffusion(y, t)
    _raise_at_first_bad_row(_BAD_COEFFS, _finite_rows(b, s))
    sig = s[:, :, 0]
    in_band = ((np.abs(sig) > eps) & (np.abs(sig) < 1.0 / eps))[:, 0]
    if not in_band.all():
        i = int(np.argmin(in_band))
        t_i = float(np.broadcast_to(t, y.shape)[i, 0])
        e = PreconditionError(f"sigma({float(y[i, 0])!r}, {t_i!r}) = {float(sig[i, 0])!r} "
                              f"outside the declared band ({eps}, {1.0 / eps})")
        e.batch_index = i
        raise e
    dt = np.minimum(h / (sig * sig), 1.0 - t)
    if np.any(dt <= 0.0):
        raise PreconditionError("step starts at or beyond the horizon")
    return dt, y + b * dt + sig * np.sqrt(dt) * sign


def fixed_time_grid(h: float) -> np.ndarray:
    """Grid 0, h, 2h, ..., 1 with the final step truncated to land on 1."""
    inv = 1.0 / h
    n = int(round(inv)) if abs(inv - round(inv)) < 1e-9 else int(np.ceil(inv))
    t = np.arange(n + 1) * h
    t[-1] = 1.0
    return t


def _draw_fixed_noise(gen: np.random.Generator, kind: str, out: np.ndarray) -> None:
    """Fill ``out`` with the kind's draws: normals, or +/-1 signs."""
    if kind == "euler":
        gen.standard_normal(out=out)
    else:
        gen.random(out=out)
        np.copysign(1.0, out - 0.5, out=out)  # uniform draw -> +/-1 sign


def _fixed_states(model: SdeModel, times: np.ndarray, n_rows: int, blocks):
    """Advance a (B, d) batch along a shared fixed grid, as a stream.

    ``blocks`` yields time-major (Tb, B, d1) noise covering the grid's steps
    in order.  Yields the state at every grid column, starting with column 0,
    in (B, d) buffers that later steps overwrite, so a consumer copies what it
    keeps.  The arithmetic is elementwise, so a batch of one reproduces a
    single simulation bit for bit.  When the screen fires, rows whose
    coefficients or new state are not finite restart from y0; after
    the last column the lowest such row's first error is raised, as it would
    be alone, with that row as ``batch_index``.
    """
    y = np.repeat(model.y0[None, :], n_rows, axis=0)
    nxt, mix = np.empty((2,) + y.shape)
    yield y
    n, failure = 0, None
    for block in blocks:
        for xi in block:
            coeffs_ok = _fixed_update(model, y, times[n], times[n + 1] - times[n], xi, nxt, mix)
            y, nxt = nxt, y
            n += 1
            if coeffs_ok is not None:  # the screen fired
                ok = coeffs_ok & np.isfinite(y).all(axis=1)
                r = int(np.argmin(ok))
                if not ok[r] and (failure is None or r < failure.batch_index):
                    failure = SimulationError(_BAD_STATE if coeffs_ok[r] else _BAD_COEFFS)
                    failure.batch_index = r
                y[~ok] = model.y0
            yield y
    if failure is not None:
        raise failure


def _tree_states(model: SdeModel, config: SchemeConfig, n_rows: int, sign):
    """Advance ``n_rows`` tree paths together to t = 1, as a stream.

    Yields each column as it is stepped, column 0 first: the rows' (B, 1)
    times and (B, d) states, in arrays later steps overwrite; a row that has
    reached t = 1 repeats it and its terminal state.  ``sign(k, rows)`` gives
    the +/-1 column of step k for the active ``rows``.  A failing row leaves
    the batch with the rows after it; after the last column the lowest
    failing row's error is raised with that row as ``batch_index``.
    """
    y, t = np.repeat(model.y0[None, :], n_rows, axis=0), np.zeros((n_rows, 1))
    k, failure, active = 0, None, np.ones(n_rows, dtype=bool)
    yield t, y
    while active.any():
        rows = np.flatnonzero(active)
        try:
            dt, y_next = binomial_variable_step(model, y[rows], t[rows], config.h, sign(k, rows))
            t_next = t[rows] + dt
            trunc = t_next >= 1.0 - 1e-15
            _raise_at_first_bad_row(_BAD_STATE, np.isfinite(y_next).all(axis=1))
        except (PreconditionError, SimulationError) as e:
            failure = SimulationError(str(e))  # a band violation too
            failure.batch_index = int(rows[e.batch_index])
            active[failure.batch_index:] = False
            continue
        y[rows], t[rows] = y_next, np.where(trunc, 1.0, t_next)
        active[rows] = ~trunc[:, 0]
        k += 1
        yield t, y
    if failure is not None:
        raise failure


def _reseat(gen: np.random.Generator, key, st: dict) -> np.random.Generator:
    """Restart ``gen`` on Philox ``key`` through ``st``, an :func:`_int_state`."""
    st["state"]["key"] = key
    gen.bit_generator.state = st
    return gen


def _int_state() -> dict:  # counter 0, buffer empty: numpy's setter reads ints 2x faster
    return {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": [0, 0]},
            "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}


@functools.cache
def _reseat_is_exact() -> bool:
    """Whether a reseated generator draws what a fresh ``RngStream.generator()`` draws.

    :func:`_reseat` writes numpy's private Philox state layout, so once per process
    this checks its fields, a reseat over a row with a part-used buffer, two rows
    drawing interleaved (one on the largest key), and raw words around ``advance``.
    """
    rows = [np.random.Generator(np.random.Philox(key=0)) for _ in range(2)]
    st, got = _int_state(), rows[0].bit_generator.state
    if (got.keys(), got["state"].keys()) != (st.keys(), st["state"].keys()):
        return False  # a layout the setter may refuse
    a, b = RngStream(7, 3, 1), RngStream(2**64 - 1, 2**48 - 3, 2**16 - 1)
    rows[0].integers(0, 2, size=3)
    ga, gb = _reseat(rows[0], a.key, st), _reseat(rows[1], b.key, st)
    head, other, tail = ga.standard_normal(5), gb.integers(0, 2, size=9), ga.standard_normal(6)
    raw = [np.concatenate([g.random_raw(5), g.advance(8).random_raw(3)])  # the tree's signs
           for g in (_reseat(rows[1], b.key, st).bit_generator, b.generator().bit_generator)]
    return (np.array_equal(np.concatenate([head, tail]), a.generator().standard_normal(11))
            and np.array_equal(other, b.generator().integers(0, 2, size=9))
            and np.array_equal(*raw))


# Reseatable Philox generators shared by every batch in the process: building
# one takes 10-18 us, reseating it about 0.55 us (one CPU of a 2-vCPU Xeon VM).
_FREE_ROWS: list = []


@contextlib.contextmanager
def _seated_rows(n: int):
    """``seat(j, key)``: row j's generator, restarted on Philox ``key``.

    The n rows come from ``_FREE_ROWS`` (built when it runs short) and go
    back on exit; two live callers, threads included, share no row and no
    state dict.  If :func:`_reseat_is_exact` fails, seats build new generators.
    """
    if not _reseat_is_exact():
        yield lambda j, key: np.random.Generator(np.random.Philox(key=np.array(key, np.uint64)))
        return
    rows = []
    for _ in range(n):
        try:
            rows.append(_FREE_ROWS.pop())
        except IndexError:
            rows.append(np.random.Generator(np.random.Philox(key=0)))
    st = _int_state()
    try:
        yield lambda j, key: _reseat(rows[j], key, st)
    finally:
        _FREE_ROWS.extend(rows)


_TILE_ROWS = 128  # streams a tile holds: few enough that its transposing copy stays in cache


def _noise_blocks(keys: Sequence, kind: str, n_steps: int, d1: int):
    """Each stream's fixed-grid draws as time-major (Tb, B, d1) blocks.

    Stream i's draws (Philox key ``keys[i]``) are one long ``_draw_fixed_noise``
    call's: each stream keeps its own generator from block to block, drawn into
    a tile of ``_TILE_ROWS`` streams that is copied in transposed.  A block and its
    tile hold at most ``_BATCH_ELEMENTS`` elements (at least one step), whatever
    B and the number of steps; the same buffer is yielded again for every block.
    """
    B, n_tile = len(keys), min(_TILE_ROWS, len(keys))
    tb = max(1, min(n_steps, _BATCH_ELEMENTS // max(1, (B + n_tile) * d1)))
    # one buffer of at least the cap (64 MB) holds both: glibc maps that much afresh and
    # unmaps it when freed, where freeing less would raise its mmap threshold for good
    buf = np.empty(max(_BATCH_ELEMENTS, tb * (B + n_tile) * d1))
    block = buf[:tb * B * d1].reshape(tb, B, d1)
    tile = buf[tb * B * d1:tb * (B + n_tile) * d1].reshape(n_tile, tb, d1)
    single = tb == n_steps  # each stream draws once, so one row serves them all
    with _seated_rows(1 if single else B) as seat:
        gens = None if single else [seat(i, key) for i, key in enumerate(keys)]
        for start in range(0, n_steps, tb):
            k = min(tb, n_steps - start)
            for i0 in range(0, B, _TILE_ROWS):
                n = min(_TILE_ROWS, B - i0)
                rows = map(seat, [0] * n, keys[i0:i0 + n]) if single else gens[i0:i0 + n]
                for gen, out in zip(rows, tile[:n, :k]):
                    _draw_fixed_noise(gen, kind, out)
                block[:k, i0:i0 + n] = tile[:n, :k].transpose(1, 0, 2)
            yield block[:k]


def _stream_signs(keys: Sequence):
    """``sign(k, rows)``: the k-th ``integers(0, 2)`` draws of Philox keys
    ``keys[rows]`` as a +/-1 column: bit 31 (k even) or 63 (k odd) of raw Philox
    word k // 2 on numpy's Lemire path.  A row reads 64 signs at a time: at
    k = 64 j a reseat and ``advance(8 j)`` give words 32 j to 32 j + 31."""
    words = np.empty((len(keys), 32), np.uint64)

    def sign(k, rows):
        if k % 64 == 0:
            with _seated_rows(1) as seat:  # one row, reseated stream by stream
                gens = (seat(0, keys[i]).bit_generator for i in rows)
                words[rows] = [(g.advance(k // 8) if k else g).random_raw(32) for g in gens]
        return ((words[rows, k % 64 // 2, None] >> (31 + 32 * (k % 2))) & 1) * 2.0 - 1.0
    return sign


def _grid_states(model: SdeModel, config: SchemeConfig, keys, noise=None):
    """(times, states) of a batch on Philox ``keys``: the fixed grid and each column's (B, d)
    states, or on the tree None and each column's (B, 1) times and (B, d) states, each stepped
    as it is read into arrays later steps reuse.  ``noise`` replaces the draws: path-major
    (B, n_steps, d1) on the fixed grids, (B, n) signs, n >= steps, on the tree."""
    config.max_times(model)  # refuses models the kernel cannot run
    if config.kind == "binomial_variable":
        sign = _stream_signs(keys) if noise is None else lambda k, rows: noise[rows, k, None]
        return None, _tree_states(model, config, len(keys), sign)
    times = fixed_time_grid(config.h)
    n_steps, d1 = times.size - 1, model.dim_noise
    if noise is None:
        blocks = _noise_blocks(keys, config.kind, n_steps, d1)
    elif noise.shape[1:] != (n_steps, d1):
        raise ValueError(f"forced noise must have shape {(n_steps, d1)}")
    else:
        blocks = [noise.transpose(1, 0, 2)]
    return times, _fixed_states(model, times, len(keys), blocks)


def _simulate(model: SdeModel, config: SchemeConfig, keys, noise=None):
    """(times, values) of a stored batch; ``noise`` replaces the keyed draws."""
    times, states = _grid_states(model, config, keys, noise)
    if times is None:  # the tree's per-row grids
        ts, ys = zip(*((t.copy(), y.copy()) for t, y in states))
        return np.hstack(ts), np.stack(ys, axis=1)
    values = np.empty((len(keys), times.size, model.dim_state))
    for col, y in enumerate(states):
        values[:, col] = y
    return times, values


def simulate_path(model: SdeModel, config: SchemeConfig, rng: RngStream, *,
                  forced_noise=None) -> StepPath:
    """Simulate one chain path from the model's initial state to t = 1.

    The path is a batch of one; a one-row tree batch ends at its own t = 1.
    ``forced_noise`` substitutes the draws of ``rng``: (n_steps, d1) normals
    for euler or +/-1 signs for binomial_fixed, or a sequence of at least one
    +/-1 sign per step for the tree.  Scalar models yield flat-valued paths.
    """
    noise = None if forced_noise is None else np.asarray(forced_noise, dtype=np.float64)[None]
    times, values = _simulate(model, config, [rng.key if noise is None else None], noise)
    return StepPath(times.reshape(-1), values[0, :, 0] if model.dim_state == 1 else values[0])


def simulate_values(model: SdeModel, config: SchemeConfig, streams: Sequence[RngStream]):
    """Batch simulation of one path per stream, for every scheme kind.

    Returns (times, values) with values of shape (B, K+1, d) and ``times``
    the fixed kinds' shared (n+1,) grid or, on the tree, a (B, K+1) grid per
    row, padded after t = 1 with t = 1 and the terminal value.  A failure's
    ``batch_index`` is its stream.
    """
    return _simulate(model, config, [s.key for s in streams])


def simulate_terminals(model: SdeModel, config: SchemeConfig, streams: Sequence[RngStream]) -> np.ndarray:
    """Terminal states only, shape (B, d): the last column of :func:`_grid_states`."""
    *_, last = _grid_states(model, config, [s.key for s in streams])[1]
    return last[1] if isinstance(last, tuple) else last  # the tree's (times, states)


def _child(w: int, run) -> None:
    """Pickle ``run()`` or its error into pipe end ``w``; ``os._exit`` skips flush and atexit."""
    try:
        try:
            data = pickle.dumps(run())
        except BaseException as e:  # sent to the caller, which raises it
            try:
                data = pickle.dumps(e)
            except Exception:  # an exception that does not pickle
                data = pickle.dumps(RuntimeError(f"{type(e).__name__}: {e}"))
        with open(w, "wb") as f:
            f.write(data)
    finally:
        os._exit(0)


def _priced(price, n: int, min_range: int) -> list:
    """``price(start, stop)`` of W near-equal ranges of n work items (paths or
    rows) in order, W the usable CPUs cut to ranges of ``min_range`` items, the
    fewest worth a fork; the caller prices the first range, forked children the rest.
    The first failing range raises, as does a child that dies or sends nothing."""
    cpus = len(getattr(os, "sched_getaffinity", lambda _: range(os.cpu_count() or 1))(0))
    W = max(1, min(cpus, n // min_range)) if hasattr(os, "fork") else 1
    cuts = [n * w // W for w in range(W + 1)]
    kids = {}  # pid -> its pipe's read end, until reaped
    try:
        for a, b in zip(cuts[1:-1], cuts[2:]):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:
                _child(w, lambda: price(a, b))
            os.close(w)
            kids[pid] = open(r, "rb")
        parts = [price(0, cuts[1])]
        for k, pid in enumerate(list(kids), 1):
            data = kids[pid].read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            kids.pop(pid).close()
            out = pickle.loads(data) if code == 0 and data else EstimationError(
                f"pricing items {cuts[k]} to {cuts[k + 1] - 1}: {len(data)} bytes, status {code}")
            if isinstance(out, BaseException):
                raise out
            parts.append(out)
        return parts
    finally:
        for pid, f in kids.items():
            f.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)


@dataclass
class ConsistencyRow:
    y: float
    t: float
    method: str
    r1: float
    r2: float
    tol1: float
    tol2: float
    dt_ratio: float
    passed: bool
    note: str = ""


@dataclass
class ConsistencyReport:
    rows: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)


def check_local_consistency(model: SdeModel, config: SchemeConfig,
                            probes: Iterable, n_draws: int = 10**6,
                            seed: int = 0) -> ConsistencyReport:
    """Exact check of the local-consistency moment conditions.

    At each probe (y, t) the kernel's one-step conditional mean and covariance
    are computed from the state ``model.y0`` with its first coordinate set
    to y, as weighted sums over an enumeration of the kernel's outcomes: the
    two signs of the binomial kernels, and for the Euler kernel the 2 d1
    points +/-sqrt(d1) e_j of weight 1/(2 d1), whose first two moments are
    those of N(0, I), which is exact because the update is affine in its
    draw (Stroud 1971).  At d1 = 1 they are the binomial signs.  Residuals are

        r1 = (E[dY] - dt b(y,t)) / dt
        r2 = (cov[dY] - dt sigma sigma'(y,t)) / dt

    and a probe passes when |r| <= h; a residual that is not finite
    (coefficients that overflow the moments) makes the probe an error row.
    The realized dt / h is reported, not judged: the steps are quasi-uniform
    by construction, and a step truncated at t = 1 is shorter.  ``n_draws``
    and ``seed`` are read by nothing: the benchmark passes them.
    """
    def fail(y, t, e):
        return ConsistencyRow(y=y, t=t, method="n/a", r1=np.nan, r2=np.nan, tol1=0.0,
                              tol2=0.0, dt_ratio=np.nan, passed=False, note=str(e))
    try:
        config.max_times(model)  # refuses models the kernel cannot run
    except PreconditionError as e:
        return ConsistencyReport([fail(np.nan, np.nan, e)])
    d1 = model.dim_noise
    xi = math.sqrt(d1) * np.vstack([np.eye(d1), -np.eye(d1)])  # equally weighted outcomes
    w = 1.0 / len(xi)
    out, mix = np.empty((2, len(xi), model.dim_state))

    @np.errstate(over="ignore", invalid="ignore")  # a non-finite moment is an ERROR row
    def probe(x, t) -> ConsistencyRow:
        y = model.y0.copy()
        y[0] = x
        t = float(t)
        b = model.drift(y[None, :], t)[0]
        s = model.diffusion(y[None, :], t)[0]
        try:
            if config.kind == "binomial_variable":
                dt, y_next = binomial_variable_step(model, y[None, :], t, config.h, xi)
                dt = float(dt[0, 0])
            else:
                dt = config.h if t + config.h <= 1.0 else 1.0 - t
                _raise_at_first_bad_row(_BAD_COEFFS, _fixed_update(
                    model, y[None, :], t, dt, xi, out, mix))
                y_next = out
            dy = np.subtract(y_next, y, out=y_next)
        except (PreconditionError, SimulationError) as e:
            return fail(float(y[0]), t, e)
        mean = (w * dy).sum(axis=0)
        cov = (w * dy[:, :, None] * dy[:, None, :]).sum(axis=0) - mean[:, None] * mean
        r1 = float(np.max(np.abs(mean - dt * b))) / dt
        r2 = float(np.max(np.abs(cov - dt * (s @ s.T)))) / dt
        if not np.isfinite([r1, r2]).all():
            return fail(float(y[0]), t, "non-finite moment residual")
        return ConsistencyRow(
            y=float(y[0]), t=t, method="enumeration", r1=r1, r2=r2, tol1=config.h,
            tol2=config.h, dt_ratio=dt / config.h, passed=max(r1, r2) <= config.h)

    return ConsistencyReport([probe(y, t) for y, t in probes])
