"""Fixed-step integration of the full system and the reduced fields.

The full system is stiff in the weights: their linearization about the
equilibrium surface is exactly -(1/epsilon) times the identity, so RK4 is
stable for dt below roughly 2.78 * epsilon.  Its runs (simulate, attract)
enforce the much stricter dt <= epsilon / 10 as a hard error and default
to epsilon / 20, which keeps the fast transient resolved rather than merely
stable.  The convergence study's reference, ``_exponential_stack``, takes
that stiffness exactly instead, at one step size for every epsilon.

Every run steps on an ``IntegrationConfig``, a whole number of steps over
t_end that fixes the step and the sample times; its ``Trajectory`` carries it.
One loop, ``_integrate``, takes every step of either scheme; every RK4
full-system run is ``integrate_full``'s, on one flat row.  ``_write_table``
writes raw.csv in this process, the "%.17g" of every value spelled in
bulk by ``_spell``.

Phases are canonicalized only in stored snapshots.  The carried state is
left unwrapped so that stage arithmetic never crosses the branch cut.
The stage arithmetic never writes into the state it steps or into what an
rhs returned, so an rhs may hand out read-only or cached arrays.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fields import _Core, _check_field
from .model import (
    ContractError,
    FloatArray,
    FullState,
    IntegrationError,
    ModelParams,
    _floats,
    _is_int,
    _is_positive,
    wrap_phase,
)

MAX_DEFAULT_SAMPLES = 10_000
# bytes of stored history one run may allocate
MAX_HISTORY_BYTES = 2 * 1024 ** 3
# values per _spell call and slots per write of _write_table
BLOCK_VALUES = 2 ** 12


@dataclass(frozen=True)
class IntegrationConfig:
    """The grid of [0, t_end] in slow time: n_steps steps of dt = t_end /
    n_steps, sampled every sample_every (which divides n_steps) at
    ``times``, n_samples of them from 0 to exactly t_end; see ``spanning``."""

    t_end: float
    n_steps: int
    sample_every: int = 1

    def __post_init__(self):
        if not _is_positive(self.t_end):
            raise ContractError(f"t_end must be > 0, got {self.t_end!r}")
        if not (_is_int(self.n_steps)
                and 1 <= self.n_steps <= sys.float_info.max):
            raise ContractError(f"n_steps must be an integer >= 1 that a "
                                f"float can count, got {self.n_steps!r}")
        if not _is_int(self.sample_every) or self.sample_every < 1 \
                or self.n_steps % self.sample_every:
            raise ContractError(
                f"sample_every must be a positive integer dividing the "
                f"{self.n_steps} steps, got {self.sample_every!r}")
        if not self.dt > 0:
            raise ContractError(f"dt = t_end / n_steps underflows to 0 at "
                                f"t_end={self.t_end!r}, n_steps={self.n_steps}")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    @property
    def n_samples(self) -> int:
        return self.n_steps // self.sample_every + 1

    @property
    def times(self) -> FloatArray:
        return np.linspace(0.0, self.t_end, self.n_samples)

    @classmethod
    def spanning(cls, t_end: float, max_dt: float,
                 sample_every: Optional[int] = None) -> "IntegrationConfig":
        """The grid of [0, t_end] in the fewest equal steps of at most
        max_dt whose count the stride divides: n = ceil(t_end / max_dt)
        rounded up to a multiple of sample_every, or else of ceil(n /
        MAX_DEFAULT_SAMPLES), which stores 5 000 to 10 000 samples past n =
        10 000.  Raises ContractError for a t_end or max_dt not finite and
        > 0, a stride not an integer in [1, n], or n past float range."""
        if not (_is_positive(t_end) and _is_positive(max_dt)):
            raise ContractError(f"t_end and max_dt must be > 0, got "
                                f"{t_end!r} and {max_dt!r}")
        if sample_every is not None and not (_is_int(sample_every)
                                             and sample_every >= 1):
            raise ContractError(f"sample_every must be a positive integer, "
                                f"got {sample_every!r}")
        try:  # ceil(inf)
            n = math.ceil(t_end / max_dt)
        except OverflowError:
            raise ContractError(f"t_end={t_end} is more steps of max_dt="
                                f"{max_dt} than a float can count") from None
        stride = int(sample_every or -(-n // MAX_DEFAULT_SAMPLES))
        if stride > n:
            raise ContractError(f"sample_every must be at most the {n} steps "
                                f"of t_end / max_dt, got {sample_every}")
        return cls(t_end, -(-n // stride) * stride, stride)


def _check_grid(grid) -> None:
    if not isinstance(grid, IntegrationConfig):
        raise ContractError(f"the grid must be an IntegrationConfig, got {grid!r}")


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A trajectory sampled at grid.times, ``grid`` an IntegrationConfig.

    ``thetas`` has one row per sample time grid.times (phases canonical in
    [0, 2*pi)), of shape (N,), or (S, N) for a stack of S trajectories;
    ``weights`` is the matching stack of weight matrices, or None for
    phase-only trajectories.
    """

    grid: IntegrationConfig
    thetas: FloatArray
    weights: Optional[FloatArray] = None

    def __post_init__(self):
        _check_grid(self.grid)
        object.__setattr__(self, "thetas", _floats(self.thetas, "thetas"))
        if self.thetas.shape[:1] != (self.grid.n_samples,):
            raise ContractError(f"thetas must have one row per sample, "
                                f"{self.grid.n_samples}, got {self.thetas.shape}")
        if self.weights is not None:
            object.__setattr__(self, "weights",
                               _floats(self.weights, "weights"))
            if self.weights.shape != self.thetas.shape + self.thetas.shape[-1:]:
                raise ContractError("weights must have shape thetas.shape + (N,)")


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


def _integrate(rhs, state: FloatArray, grid: IntegrationConfig, what: str,
               stored: Optional[int] = None, step=None,
               mend="shorten integration.t_end") -> FloatArray:
    """Step ``state`` over ``grid``, step(rhs, state, grid.dt) at a time,
    rk4_step by default, and return the first ``stored`` columns (all by
    default) at its grid.n_samples sample times, the initial state first.

    ``state`` is one flat row (D,), giving rows (n_samples, D), or a stack
    (S, D), giving rows (n_samples, S, D); a stack of one row is stepped
    as a flat row, on which numpy is faster.
    ``what`` names the system in the error raised when a step fails, with
    the time, the step and, in a stack of more than one row, the failing
    rows.  A history over MAX_HISTORY_BYTES raises ContractError, which
    ends with ``mend``, before it is allocated.
    """
    step = rk4_step if step is None else step
    dt, substeps, n_samples = grid.dt, grid.sample_every, grid.n_samples
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
    _check_grid(config)
    rhs = _full_rhs(params, coupling)
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
                      config, "full-system", mend="raise integration.sample_every")
    return Trajectory(config, wrap_phase(rows[:, :n]),
                      rows[:, n:].reshape(-1, n, n))


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
    return wrap_phase(_integrate(forcing, start, config, "full-system",
                                 stored=n, step=step))


def integrate_reduced(field, initial_theta, config: IntegrationConfig) -> Trajectory:
    """Integrate a phase-only reduced field from one phase vector (N,), or
    from a stack (S, N) that the field evaluates in one call, giving thetas
    (samples, S, N).  No epsilon guard applies; the reduced field carries
    no fast relaxation."""
    theta0 = _floats(initial_theta, "initial theta")
    _check_grid(config)
    n = _check_field(field)
    if theta0.shape[-1:] != (n,) or theta0.ndim > 2:
        raise ContractError(
            f"initial theta must have shape ({n},) or (S, {n}), got "
            f"{theta0.shape}")
    return Trajectory(config, wrap_phase(_integrate(field, theta0, config,
                                                    "reduced")))


@functools.cache
def _tables():
    """_spell's tables, built on first use.  At index 281 + k, k in [-281,
    297]: the least double >= 10**k, and 10**k as hi + lo (hi correctly
    rounded, lo the rest rounded) with hi's Dekker halves hh and hi - hh.
    For 0000..9999, the ASCII as a little-endian word and the trailing
    zeros.  The masks keeping K digits of bytes 8-23; the words of bytes
    0-7 by (sign, kind, d0) and of bytes 24-31 by E + 400; and per P the
    byte moves that put the point after digit P."""
    hi, lo = [], []
    for k in range(-281, 298):  # 10**k = num / den exactly
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        p, q = (num / den).as_integer_ratio()
        hi.append(p / q)
        lo.append((num * q - p * den) / (den * q))
    hi, lo = np.array(hi), np.array(lo)
    least = np.where(lo > 0, np.nextafter(hi, np.inf), hi)
    hh = hi * 134217729.0  # 2**27 + 1
    hh -= hh - hi
    d = np.arange(10000)
    ascii4 = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], -1)
    ascii4 = (ascii4 + 48).astype("<u1").view("<u4")[:, 0].astype(np.uint64)
    zeros = sum((d % 10 ** i == 0).astype(np.uint8) for i in range(1, 5))
    keep = np.arange(16) < np.arange(18)[:, None] - 1
    keep = (keep * np.uint8(255)).view("<u8")
    lead = b"".join(sign + text.replace(b"d", b"%d" % d0)
                    for sign in (b"\0", b"-")
                    for text in (b"\0\0\0\0\0\0d", b"\0\0\0\0\0d.",
                                 b"0.\0\0\0\0d", b"0.0\0\0\0d",
                                 b"0.00\0\0d", b"0.000\0d")
                    for d0 in range(10))
    exp = b"".join(b"\0" * 8 if -4 <= e <= 16 else  # %g's fixed notation
                   (b"e%+03d" % e).ljust(8, b"\0") for e in range(-400, 401))
    moves = np.tile(np.arange(32), (16, 1))
    for p in range(1, 16):
        moves[p, 6:8 + p] = [*range(7, 8 + p), 32]  # 32: the point
    return (least, hi, hh, hi - hh, lo, ascii4, zeros, keep,
            np.frombuffer(lead, "<u8"), np.frombuffer(exp, "<u8"), moves)


def _spell(values):
    """The bytes of "%.17g" % v for each value in a 32-byte slot (m, 32),
    NUL where no character falls: slot[slot != 0] is the text.  Bytes 0-7
    hold the sign, "0." and zeros below 1, and d0; bytes 8-23 digits 1-16
    (trailing zeros past the integer part NUL); 24-28 the exponent; 31 is
    left for a separator.  The digits round |v| * 10**(16 - E), computed
    to 1e-14 with Dekker's exact product (numpy has no FMA).  Zero, |v|
    outside [1e-280, 1e280] and values within 1e-6 of a tie go to "%"."""
    least, hi, hh, hl, lo, ascii4, zeros, keep, lead, exp, moves = _tables()
    v = np.asarray(values, dtype=float).ravel()
    a = np.abs(v)
    slow = ~((a >= 1e-280) & (a <= 1e280))
    a[slow] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)  # one off next to 10**E
    e += (a >= least[e + 282]) * 1 - (a < least[e + 281])
    k = 297 - e  # the index of 10**(16 - E)
    hi, hh, hl, lo = hi[k], hh[k], hl[k], lo[k]
    ah = a * 134217729.0
    ah -= ah - a
    al = a - ah
    digits = a * hi
    rest = ((ah * hh - digits) + ah * hl + al * hh) + al * hl + a * lo
    whole = np.rint(rest)
    slow = np.flatnonzero(slow | (np.abs(rest - whole) > 0.5 - 1e-6))
    digits = digits.astype(np.int64) + whole.astype(np.int64)
    carry = digits == 10 ** 17  # 99999999999999999.5 and up
    digits -= carry * (9 * 10 ** 16)
    e += carry
    high, low = np.divmod(digits, 10 ** 8)
    d0, mid = np.divmod(high, 10 ** 8)
    (g1, g2), (g3, g4) = np.divmod(mid, 10000), np.divmod(low, 10000)
    kept = 17 - np.where(low, np.where(g4, zeros[g4], 4 + zeros[g3]),
                         8 + np.where(g2, zeros[g2], 4 + zeros[g1]))
    sci = (e < -4) | (e >= 17)
    # kind 0: d0 at 7; 1: d0 at 6 and the point at 7; 2 + z: "0." z zeros
    kind = np.where((e < 0) & ~sci, 1 - e, (kept > 1) & ((e == 0) | sci))
    cut = np.where(sci, kept, np.maximum(kept, e + 1))
    slots = np.empty((v.size, 4), "<u8")
    slots[:, 0] = lead[(np.signbit(v) * 6 + kind) * 10 + d0]
    slots[:, 1] = (ascii4[g1] | ascii4[g2] << 32) & keep[cut, 0]
    slots[:, 2] = (ascii4[g3] | ascii4[g4] << 32) & keep[cut, 1]
    slots[:, 3] = exp[e + 400]
    out = slots.view(np.uint8)
    inner = np.flatnonzero((e >= 1) & (e <= 15) & (kept > e + 1))
    text = np.insert(out[inner], 32, ord("."), 1)  # d0..dE move back a byte
    out[inner] = np.take_along_axis(text, moves[e[inner]], 1)
    out[slow] = np.frombuffer(b"".join((b"%.17g" % x).ljust(32, b"\0")
                                       for x in v[slow].tolist()),
                              np.uint8).reshape(-1, 32)
    return out


def _write_table(stream, columns, parts) -> None:
    """Write a CSV header, then the rows that the ``parts`` fill column
    after column, each value the bytes of "%.17g" (an integral value below
    2**53 prints as an integer), spelled by _spell.  A part is an array
    (rows,) or (rows, k), or a pair (index, table) standing for
    table[index], whose table is spelled once and its slots gathered.
    Before writing, raises ContractError if the names do not match the
    parts' columns, the parts differ in row count, an index is not an
    integer inside its table, or a value is non-finite, naming the first
    (in a gathered table, else in the output) by row and column.

    The other parts are spelled in calls of about BLOCK_VALUES values and
    written BLOCK_VALUES slots (128 kB) at a time at most, so that no array
    or string holds the whole table."""
    sources, bad, first = [], [], 0
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
        sources.append((index, table))
    if len(columns) != first:
        raise ContractError(f"{len(columns)} CSV column names for {first} columns")
    if bad:
        plain, r, c = min(bad)
        where = "CSV row" if plain else "gathered table row"
        raise ContractError(f"non-finite value in {where} {r}, column {columns[c]}")
    n_rows = {len(t if i is None else i) for i, t in sources}
    if len(n_rows) != 1:
        raise ContractError(f"the CSV parts have {sorted(n_rows)} rows")
    n, plain = n_rows.pop(), [t for i, t in sources if i is None]
    # a part is a column range of the spelled block, or a table spelled
    # once whose slots are gathered by its index
    pieces, width = [], 0
    for index, table in sources:
        if index is None:
            pieces.append(slice(width, width + table.shape[1]))
            width += table.shape[1]
        else:
            pieces.append((index, _spell(table).reshape(table.shape + (32,))))
    rows = max(1, BLOCK_VALUES // first)  # per write
    step = rows * max(1, BLOCK_VALUES // (rows * width or 1))  # per _spell
    ends = np.frombuffer(b"," * (first - 1) + b"\n", np.uint8)
    stream.write(",".join(columns) + "\n")
    for at in range(0, n, step):
        spelled = _spell(np.column_stack([t[at:at + step] for t in plain])
                         ).reshape(-1, width, 32) if plain else None
        for lo in range(at, min(at + step, n), rows):
            ours = spelled[lo - at:lo - at + rows] if plain else None
            block = ours if len(plain) == len(sources) else np.concatenate(
                [ours[:, p] if isinstance(p, slice) else
                 p[1][p[0][lo:lo + rows]] for p in pieces], 1)
            block[..., 31] = ends
            stream.write(block[block != 0].tobytes().decode("ascii"))


def trajectory_to_csv(traj: Trajectory, stream) -> None:
    """Write a trajectory as CSV with 17 significant digits.

    Header: time, theta_1..theta_N, then a_1_1..a_N_N row-major when
    weights are present.
    """
    if traj.thetas.ndim != 2:
        raise ContractError(f"CSV needs thetas (samples, N), got {traj.thetas.shape}")
    n = traj.thetas.shape[1]
    cols = ["time"] + [f"theta_{i + 1}" for i in range(n)]
    parts = [traj.grid.times, traj.thetas]
    if traj.weights is not None:
        cols += [f"a_{i + 1}_{j + 1}" for i in range(n) for j in range(n)]
        parts.append(traj.weights.reshape(-1, n * n))
    _write_table(stream, cols, parts)
