"""Fixed-step integration of the full system and the reduced fields.

The full system is stiff in the weights: their linearization about the
equilibrium surface is exactly -(1/epsilon) times the identity, so RK4 is
stable for dt below roughly 2.78 * epsilon.  Its runs (simulate, attract)
enforce the much stricter dt <= epsilon / 10 as a hard error and default
to epsilon / 20, which keeps the fast transient resolved rather than merely
stable.  The convergence study's reference, ``_exponential_stack``, takes
that stiffness exactly instead, at one step size for every epsilon.

One loop, ``_integrate``, takes every step of either scheme; every RK4
full-system run is ``integrate_full``'s, on one flat row.

Phases are canonicalized only in stored snapshots.  The carried state is
left unwrapped so that stage arithmetic never crosses the branch cut.
The stage arithmetic never writes into the state it steps or into what an
rhs returned, so an rhs may hand out read-only or cached arrays.
"""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import threading
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import _Core
from .model import (
    ContractError,
    FloatArray,
    FullState,
    IntegrationError,
    ModelParams,
    _is_int,
    _is_positive,
    wrap_phase,
)

MAX_DEFAULT_SAMPLES = 10_000
# bytes of stored history one run may allocate
MAX_HISTORY_BYTES = 2 * 1024 ** 3
# values per forked CSV part: over twice the break-even measured on 2 CPUs
MIN_VALUES_PER_PART = 2 ** 17


@dataclass(frozen=True)
class IntegrationConfig:
    """Step size, horizon and sampling stride, all in slow time.  t_end
    must be a whole number of steps dt, and sample_every must divide that
    number, so that the last sample is at t_end; see ``spanning``."""

    dt: float
    t_end: float
    sample_every: int = 1

    def __post_init__(self):
        if not _is_positive(self.dt):
            raise ContractError(f"dt must be > 0, got {self.dt!r}")
        if not _is_positive(self.t_end):
            raise ContractError(f"t_end must be > 0, got {self.t_end!r}")
        if self.dt > self.t_end:
            raise ContractError(
                f"dt={self.dt} exceeds t_end={self.t_end}")
        if not math.isfinite(float(self.t_end) / float(self.dt)):
            raise ContractError(f"t_end={self.t_end} is more steps of "
                                f"dt={self.dt} than a float can count")
        if abs(self.n_steps * self.dt - self.t_end) > 1e-9 * self.t_end:
            raise ContractError(
                f"t_end={self.t_end} is not a whole number of steps of "
                f"dt={self.dt}")
        if not _is_int(self.sample_every) or self.sample_every < 1 \
                or self.n_steps % self.sample_every:
            raise ContractError(
                f"sample_every must be a positive integer dividing the "
                f"{self.n_steps} steps, got {self.sample_every}")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    @classmethod
    def spanning(cls, t_end: float, max_dt: float,
                 sample_every: Optional[int] = None) -> "IntegrationConfig":
        """The grid of [0, t_end] in the fewest equal steps of at most
        max_dt whose count the stride divides: n = ceil(t_end / max_dt)
        rounded up to a multiple of sample_every, or else of ceil(n /
        MAX_DEFAULT_SAMPLES), which stores 5 000 to 10 000 samples past n =
        10 000.  Raises ContractError for a t_end or max_dt not finite and
        > 0, a stride not a positive integer, or steps past float range."""
        if not (_is_positive(t_end) and _is_positive(max_dt)):
            raise ContractError(f"t_end and max_dt must be > 0, got "
                                f"{t_end!r} and {max_dt!r}")
        if sample_every is not None and not (_is_int(sample_every)
                                             and sample_every >= 1):
            raise ContractError(f"sample_every must be a positive integer, "
                                f"got {sample_every!r}")
        try:  # ceil(inf), or a step count past the float range
            n = math.ceil(t_end / max_dt)
            stride = int(sample_every or -(-n // MAX_DEFAULT_SAMPLES))
            dt = t_end / (-(-n // stride) * stride)
        except OverflowError:
            raise ContractError(f"t_end={t_end} is more steps of max_dt="
                                f"{max_dt} than a float can count") from None
        return cls(dt=dt, t_end=t_end, sample_every=stride)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Uniformly sampled trajectory.

    ``thetas`` has one row per stored sample (phases canonical in [0, 2*pi)),
    of shape (N,), or (S, N) for a stack of S trajectories; ``weights`` is
    the matching stack of weight matrices, or None for phase-only
    trajectories.  Times are uniform with spacing
    dt * sample_every.
    """

    times: FloatArray
    thetas: FloatArray
    weights: Optional[FloatArray] = None

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if t.ndim != 1 or t.size < 2:
            raise ContractError("times must be a 1-d array with >= 2 entries")
        if not np.all(np.isfinite(t)):
            raise ContractError("times must be finite")
        gaps = np.diff(t)
        if np.any(gaps <= 0):
            raise ContractError("times must be strictly increasing")
        # np.linspace rounds each time by about one ulp of t
        if np.max(np.abs(gaps - gaps[0])) > 1e-12 * max(1.0, abs(t[-1])):
            raise ContractError(
                "times must be uniformly spaced to 1e-12 * max(1, |t_end|)")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "thetas", np.asarray(self.thetas, dtype=float))
        if self.thetas.shape[:1] != t.shape:
            raise ContractError("thetas row count must match times")
        if self.weights is not None:
            object.__setattr__(self, "weights",
                               np.asarray(self.weights, dtype=float))
            if self.weights.shape != self.thetas.shape + self.thetas.shape[-1:]:
                raise ContractError("weights must have shape thetas.shape + (N,)")

    @property
    def n_samples(self) -> int:
        return self.times.size


def rk4_step(rhs, state: FloatArray, dt) -> FloatArray:
    """One classical Runge-Kutta step on a flat state array, or on a stack
    of them (S, D) with dt a float, a column (S, 1) or an array (S, D).
    Bit for bit it is state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    with stages at state + 0.5 * dt * k, and it writes only into arrays it
    allocated: never into ``state`` or an array ``rhs`` returned.  Raises
    IntegrationError if any stage produces a non-finite value, found
    exactly: the result's sum of squares is finite only if every value is.
    """
    half = 0.5 * dt
    k1 = rhs(state)
    k2 = rhs(state + half * k1)
    k3 = rhs(state + half * k2)
    k4 = rhs(state + dt * k3)
    # 2.0 * k is k + k to the bit
    out = state + (dt / 6.0) * (k1 + (k2 + k2) + (k3 + k3) + k4)
    if not math.isfinite(np.vdot(out, out)):
        _check_finite(out, "Runge-Kutta")
    return out


def _check_finite(out, scheme: str) -> None:
    """Raise IntegrationError, its ``rows`` those holding a non-finite value
    (0 for a flat state), if ``out`` has one.  A step calls it only when
    np.vdot(out, out) is not finite."""
    if not np.isfinite(out).all():
        raise IntegrationError(f"non-finite value in {scheme} stage",
                               np.flatnonzero(~np.isfinite(
                                   np.atleast_2d(out)).all(-1)))


def _integrate(rhs, state: FloatArray, dt: float, substeps: int,
               n_samples: int, what: str, stored: Optional[int] = None,
               step=None, mend="shorten integration.t_end") -> FloatArray:
    """Take ``substeps`` steps step(rhs, state, dt), rk4_step by default,
    between two samples, and return the first ``stored`` columns (all by
    default) at n_samples sample times, the initial state first.

    ``state`` is one flat row (D,), giving rows (n_samples, D), or a stack
    (S, D), giving rows (n_samples, S, D); a stack of one row is stepped
    as a flat row, on which numpy is faster.
    ``what`` names the system in the error raised when a step fails, with
    the time, the step and, in a stack of more than one row, the failing
    rows.  A history over MAX_HISTORY_BYTES raises ContractError, which
    ends with ``mend``, before it is allocated.
    """
    step = rk4_step if step is None else step
    stack = np.array(state, dtype=float, ndmin=2)
    kept = stack[:, :stored]
    needs = 8.0 * n_samples * kept.size
    if needs > MAX_HISTORY_BYTES:
        raise ContractError(
            f"the {what} history of {n_samples:.3g} samples needs {needs:.3g} "
            f"bytes, over MAX_HISTORY_BYTES = {MAX_HISTORY_BYTES}; {mend}")
    rows = np.empty((n_samples,) + kept.shape)
    rows[0] = kept
    active = stack[0] if len(stack) == 1 else stack
    for sample in range(1, n_samples):
        for k in range(substeps):
            try:
                active[...] = step(rhs, active, dt)
            except IntegrationError as exc:
                n = (sample - 1) * substeps + k + 1
                failed = exc.rows or tuple(range(len(stack)))
                where = "" if len(stack) == 1 else \
                    f"in rows {', '.join(map(str, failed))} "
                raise IntegrationError(f"{what} integration failed {where}at "
                                       f"t={n * dt:.6g} (step {n}): {exc}",
                                       failed) from exc
        rows[sample] = kept
    return rows if state.ndim == 2 else rows[:, 0]


def _samples(config: IntegrationConfig) -> int:
    """The number of samples on config's grid, the initial one included."""
    if not isinstance(config, IntegrationConfig):
        raise ContractError(f"config must be an IntegrationConfig, got {config!r}")
    return config.n_steps // config.sample_every + 1


def _sample_times(config: IntegrationConfig) -> FloatArray:
    """config's sample times, uniform from 0 to exactly t_end."""
    return np.linspace(0.0, config.t_end, _samples(config))


def _full_rhs(params: ModelParams, coupling):
    """The full-system rhs on one flat row [theta, weights.ravel()],
    phase_rhs and weight_rhs / epsilon at one evaluation of the coupling.
    Each call returns a new array."""
    core = _Core(params, coupling)
    n, epsilon = core.n_nodes, core.epsilon

    def rhs(state):
        w = state[n:].reshape(n, n)  # a view: never written
        g, w0, _, _ = core.terms(state[:n])
        dw = w0 - w  # -w + w0 to the bit
        dw /= epsilon
        return np.concatenate((core.phase(w, g), dw.ravel()))
    return rhs


def integrate_full(params: ModelParams, coupling, initial: FullState,
                   config: IntegrationConfig) -> Trajectory:
    """Integrate the stiffly-scaled full system in slow time by RK4.

    Rejects dt > epsilon / 10 before taking any step; explicit RK4 on the
    fast weight relaxation is only trustworthy well inside its stability
    region.  The weights are a view of the stepped rows.
    """
    n_samples, rhs = _samples(config), _full_rhs(params, coupling)
    if not isinstance(initial, FullState):
        raise ContractError(f"initial must be a FullState, got {initial!r}")
    n = params.n_nodes
    if initial.n_nodes != n:
        raise ContractError(
            f"initial state has {initial.n_nodes} nodes, params have {n}")
    # allow dt == epsilon/10 up to rounding in the division itself
    if config.dt > params.epsilon / 10.0 * (1.0 + 1e-12):
        raise ContractError(
            f"dt={config.dt} exceeds the stability guard epsilon/10 = "
            f"{params.epsilon / 10.0}")
    rows = _integrate(rhs, np.concatenate([initial.theta,
                                           initial.weights.ravel()]),
                      config.dt, config.sample_every, n_samples,
                      "full-system", mend="raise integration.sample_every")
    return Trajectory(times=_sample_times(config),
                      thetas=wrap_phase(rows[:, :n]),
                      weights=rows[:, n:].reshape(-1, n, n))


def _exponential_stack(params: ModelParams, coupling, epsilons, theta0,
                       config: IntegrationConfig) -> FloatArray:
    """The canonical phases (samples, S, N) of the full system at each
    epsilons[r] from theta0 (N finite phases, which the caller checks) on
    its order-1 surface, stepped at config's dt h and sampled like it, in u
    = [theta, y], y = w - w0(theta): u' = L u + forcing(u), L zero on theta
    and -1/epsilon on y, the forcing [f, h1] of _Core.terms at y.  The five-stage scheme of stiff order 4 of
    Hochbruck & Ostermann (2005, SIAM J. Numer. Anal. 43:1069) takes L
    exactly, so no epsilon guard applies.  With z = h L and nodes c = (0,
    1/2, 1/2, 1, 1/2), stage i is e^(c_i z) u + h sum_j a_ij forcing(U_j)
    and the step e^z u + h sum_i b_i forcing(U_i); on theta it is a
    Runge-Kutta method of order 4.  Needs the order-1 slots; each row has
    the bits of its own one-row run."""
    core = _Core(params, coupling, 1)
    n, eps = params.n_nodes, np.asarray(epsilons, dtype=float)
    h = config.dt
    z = np.stack([np.zeros(eps.size), -h / eps], -1)  # on theta and y
    # phi_{j+1}(t) = (phi_j(t) - 1/j!) / t, phi_0 = exp, at z and z / 2 as
    # the mean over 32 points of the unit circle around each (Kassam &
    # Trefethen 2005, SIAM J. Sci. Comput. 26:1214): 1e-14 relative, also
    # at z = 0 and wherever the quotients cancel
    t = np.stack([z, z / 2])[..., None] \
        + np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
    phis = [(np.exp(t) - 1.0) / t]
    for c in (1.0, 0.5):
        phis.append((phis[-1] - c) / t)
    (p1, q1), (p2, q2), (p3, q3) = (p.mean(-1).real for p in phis)
    a52 = q2 / 2 - p3 + p2 / 4 - q3 / 2
    a54 = q2 / 4 - a52
    # (e^(c_i z), a_i1, ..., a_i,i-1) for stages 2 to 5, then the output,
    # at the state's shape: column 0 on theta's n entries, 1 on y's n * n
    table = [[None if a is None else np.repeat(a * (h if k else 1.0),
                                               [n, n * n], -1)
              for k, a in enumerate(row)] for row in [
        (np.exp(z / 2), q1 / 2), (np.exp(z / 2), q1 / 2 - q2, q2),
        (np.exp(z), p1 - 2 * p2, p2, p2),
        (np.exp(z / 2), q1 / 2 - 2 * a52 - a54, a52, a52, a54),
        (np.exp(z), p1 - 3 * p2 + 4 * p3, None, None, 4 * p3 - p2,
         4 * p2 - 8 * p3)]]

    def forcing(u):  # on a flat row or a stack of them
        _, _, f, h1 = core.terms(u[..., :n],
                                 u[..., n:].reshape(u.shape[:-1] + (n, n)))
        return np.concatenate((f, h1.reshape(f.shape[:-1] + (n * n,))), -1)

    def step(rhs, state, _):  # like rk4_step, rhs the forcing, h built in
        u, ks = state, []
        for e, *row in table:
            ks.append(rhs(u))
            u = e * state
            for a, k in zip(row, ks):
                if a is not None:
                    u += a * k
        if not math.isfinite(np.vdot(u, u)):
            _check_finite(u, "exponential")
        return u
    start = np.concatenate([np.tile(theta0, (eps.size, 1)), (
        eps[:, None, None] * core.terms(theta0)[3]).reshape(eps.size, -1)], -1)
    return wrap_phase(_integrate(forcing, start, h, config.sample_every,
                                 _samples(config), "full-system",
                                 stored=n, step=step))


def integrate_reduced(field, initial_theta, config: IntegrationConfig) -> Trajectory:
    """Integrate a phase-only reduced field from one phase vector (N,), or
    from a stack (S, N) that the field evaluates in one call, giving thetas
    (samples, S, N).  No epsilon guard applies; the reduced field carries
    no fast relaxation."""
    theta0, n_samples = np.asarray(initial_theta, dtype=float), _samples(config)
    n = field.n_nodes
    if theta0.shape[-1:] != (n,) or theta0.ndim > 2:
        raise ContractError(
            f"initial theta must have shape ({n},) or (S, {n}), got "
            f"{theta0.shape}")
    rows = _integrate(field, theta0, config.dt, config.sample_every,
                      n_samples, "reduced")
    return Trajectory(times=_sample_times(config), thetas=wrap_phase(rows))


def _cpus() -> int:
    """The CPUs a forked child may use; 1 without POSIX os.fork or with a
    second Python thread alive, whose locks a child inherits in any state."""
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1


@contextmanager
def _forked(jobs, own, what: str):
    """Call each of ``jobs`` on its own unlinked UTF-8 temporary file (bytes
    go to its buffer) in a forked child, which leaves by os._exit only,
    while this process calls ``own()``.  Reaps every child, also when
    ``own`` raises, then yields the files, rewound.  A failed child raises
    ChildProcessError naming ``what`` it did, from 1."""
    pids = []
    with ExitStack() as opened:
        files = [opened.enter_context(tempfile.TemporaryFile(
            "w+", encoding="utf-8")) for _ in jobs]
        try:
            for job, file in zip(jobs, files):
                pids.append(os.fork())
                if pids[-1] == 0:  # the child
                    try:
                        job(file)
                        file.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)
            own()
        finally:
            failed = [k for k, pid in enumerate(pids, 1) if os.waitpid(pid, 0)[1]]
        if failed:
            raise ChildProcessError(f"the children {what} {failed} of "
                                    f"{len(jobs) + 1} failed")
        for file in files:
            file.seek(0)
        yield files


def _write_table(stream, columns, parts) -> None:
    """Write a CSV header, then the rows that the ``parts`` fill column
    after column, each value "%.17g" (an integral value below 2**53 prints
    as an integer), 64 rows per write so that no string or list holds the
    whole table.  A part is an array (rows,) or (rows, k), or a pair
    (index, table) standing for table[index], each of whose table rows is
    formatted once.  Before writing, raises ContractError if the names do
    not match the parts' columns, the parts differ in row count, an index
    is not an integer inside its table, or a value is non-finite, naming
    the first (in a gathered table, else in the output) by row and column.

    The rows go in P runs of 64-row blocks, P = rows x ungathered columns
    // MIN_VALUES_PER_PART, at most the blocks and _cpus(); the runs after
    the first are formatted by _forked children and copied in order."""
    sources, bad, first, values = [], [], 0, 0
    for part in parts:
        index, table = part if isinstance(part, tuple) else (None, part)
        table = np.asarray(table, dtype=float)
        table = table[:, None] if table.ndim == 1 else table
        if index is not None:
            index = np.asarray(index)
            if index.dtype.kind not in "iu" or index.ndim != 1 \
                    or np.any((index < 0) | (index >= len(table))):
                raise ContractError(f"CSV column {first + 1}: the index must "
                                    f"hold integers in [0, {len(table)})")
        # min and max show nan and inf without a temporary array
        if table.size and not np.isfinite([table.min(), table.max()]).all():
            r, c = np.argwhere(~np.isfinite(table))[0]
            bad.append((index is None, r, first + c))
        first += table.shape[1]
        values += 0 if index is not None else table.shape[1]
        spec = ",".join(["%.17g"] * table.shape[1])
        if index is not None:  # format each row once, gather it as "%s"
            table = np.array([spec % tuple(r) for r in table.tolist()], object)
            spec = "%s"
        sources.append((index, table, spec))
    if len(columns) != first:
        raise ContractError(f"{len(columns)} CSV column names for {first} columns")
    if bad:
        plain, r, c = min(bad)
        where = "CSV row" if plain else "gathered table row"
        raise ContractError(f"non-finite value in {where} {r}, column {columns[c]}")
    n_rows = {len(t if i is None else i) for i, t, _ in sources}
    if len(n_rows) != 1:
        raise ContractError(f"the CSV parts have {sorted(n_rows)} rows")
    n, row = n_rows.pop(), ",".join(spec for *_, spec in sources) + "\n"

    def write(out, lo, hi):  # rows lo to hi, lo on a 64-row block bound
        for at in range(lo, hi, 64):
            block = np.column_stack([table[at:at + 64] if index is None else
                                     table[index[at:at + 64]]
                                     for index, table, _ in sources])
            out.write(row * len(block) % tuple(block.ravel().tolist()))
    blocks = -(-n // 64)
    n_parts = max(1, min(_cpus(), blocks, n * values // MIN_VALUES_PER_PART))
    bounds = [64 * (blocks * p // n_parts) for p in range(n_parts)] + [n]
    stream.write(",".join(columns) + "\n")
    with _forked([lambda out, lo=lo, hi=hi: write(out, lo, hi) for lo, hi in
                  zip(bounds[1:-1], bounds[2:])],
                 lambda: write(stream, 0, bounds[1]),
                 "formatting CSV parts") as files:
        for part in files:
            shutil.copyfileobj(part, stream)


def trajectory_to_csv(traj: Trajectory, stream) -> None:
    """Write a trajectory as CSV with 17 significant digits.

    Header: time, theta_1..theta_N, then a_1_1..a_N_N row-major when
    weights are present.
    """
    if traj.thetas.ndim != 2:
        raise ContractError(f"CSV needs thetas (samples, N), got {traj.thetas.shape}")
    n = traj.thetas.shape[1]
    cols = ["time"] + [f"theta_{i + 1}" for i in range(n)]
    parts = [traj.times, traj.thetas]
    if traj.weights is not None:
        cols += [f"a_{i + 1}_{j + 1}" for i in range(n) for j in range(n)]
        parts.append(traj.weights.reshape(traj.n_samples, n * n))
    _write_table(stream, cols, parts)
