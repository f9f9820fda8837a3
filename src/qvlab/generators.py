"""Reproducible path generators, built a block of paths at a time.

Each path is a pure function of (spec, path index): the per-path RNG is a
Philox counter-based stream keyed by (seed, index), so ensembles are
identical regardless of worker count, chunking or generation order, and any
single path can be replayed in isolation with make_path(spec, i).
path_rng(seed, index) builds that stream on its own.  A block builder makes
one Philox per block and rekeys it for each row instead (_row_streams):
a Philox stream is a function of (key, counter) alone, so key (seed, index)
at counter 0 gives path_rng's stream without a new bit generator, whose
constructor would first draw OS entropy that the key then overrides.  Rows
draw strictly one after another.

generate(spec, n, start) is the one way paths are built.  It returns paths
start .. start+n-1 as the rows of one read-only (n, n_steps+1) float64
value block and one bool mark block on a shared time grid.  Each kind has
one builder that fills the block.  Brownian rows are normals drawn in place
and one cumulative sum; compound Poisson rows are filled from their sparse
jump lists; Lamperti rows are a Brownian block mapped through h^{-1}.

The Euler and jump-diffusion builder draws every row's normals (then its
jumps) into the row block and runs the recursion
x_{i+1} = ((x_i + b dt) + sigma sqrt(dt) z_i) + J_{i+1} in one of two ways.
When sigma and b are both const(c), c finite and not -0.0 (every suite and
the default config), the coefficients at a finite state are exactly c, so
each row is a running sum over the interleaved terms
[x0, b dt, sigma sqrt(dt) z_1, J_1, b dt, ...], J only for jump_diffusion:
np.cumsum along the row, a slab of at most 512 steps at a time through one
(n, 1 + 3 * 512) buffer, with the last state carried into the next slab.
add.accumulate adds strictly left to right, so every state has the bits of
the step loop.  Any other coefficients take that step loop: the block is
copied once into a step-major (n_steps+1, n) working array, each step is a
few numpy operations on contiguous columns, and the result is transposed
back into the row block.  Either way every row sees exactly the IEEE
operation sequence of a path stepped alone, so results are bit-identical to
per-path construction.

Either pass checks finiteness once per block, not once per step: with x
finite and dt > 0, a NaN or infinite coefficient makes x + b dt +
sigma sqrt(dt) z non-finite, and a sum with a non-finite term stays
non-finite, so the row is non-finite up to its last column.  A block whose
last column is not finite, or whose fast pass raised or signalled a
floating-point error, is replayed through the step loop with the per-step
coefficient check on; the replay raises the per-path error naming the seed,
path index, t and x, or warns and returns the overflowed values as a
per-path loop would.

Commands build an ensemble a block at a time, one generate call for each
span of block_rows(n_steps) consecutive indices: the suites and identity
hand each span to map_chunked as one task, and qv and simulate loop over the
spans in their own process.  block_rows sizes a block by cells, not rows: about
BLOCK_CELLS = 2^17 values (1 MB of float64), with at least CHUNK // 8 = 8
and at most CHUNK = 64 rows.  So a block's working set stops growing as
64 x n_steps: 64 rows below 2048 steps, 63 at 2048, 31 at 4096, 8 from
2^14 up.  The floor stays because below 8 rows each block's row-sized
temporaries are freed and faulted back in page by page: one-row blocks took
about 30% (2^16 steps) and 50% (2^18) more CPU than 8-row ones on a 2-core
VM.  Both Euler passes cost a fixed number of numpy calls per step or slab
whatever the row count: replaying one Euler path with make_path is a
one-row block, which only matters for one-off replays.

The split changes no value, but it does choose which failing path an Euler
error names: the replay stops at the block's earliest failing step and
names that step's first failing row, and the blocks' results are read in
index order.  So a run names the earliest failure of the first block that
fails, not of the whole ensemble; make_path(spec, i) replays the named path
either way.

Coefficients (sigma, b, sigma_of_x) and jump laws are named by config
expressions, so specs stay picklable; a plain callable is also accepted as a
coefficient.  Coefficients are called with a scalar t and an array x of the
block's current states; a scalar return is broadcast across the rows.  build
turns every expression, the functions' f and the identity's theta too, into
its object, or refuses it with a ConfigurationError naming what it builds:
theta is a Box, the NamedTuple of its corners.
"""

from __future__ import annotations

import math
import re
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigurationError, GenerationError, check_numbers
from .paths import PathEnsemble

KINDS = ("brownian", "euler_sde", "compound_poisson", "jump_diffusion", "lamperti_dirichlet")

_MASK64 = (1 << 64) - 1


def path_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based per-path stream: key = (seed, path index)."""
    key = ((seed & _MASK64) << 64) | (index & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def _row_streams(seed: int, start: int, n: int):
    """path_rng(seed, start + r) for r = 0 .. n-1: one Generator, rekeyed.

    Philox(key) stores the key as the words [index, seed]; each row resets
    the counter to 0 and empties the output buffer, so the row's stream is
    the one path_rng builds.  A yielded stream is valid until the next one.
    """
    bitgen = np.random.Philox(0)
    rng = np.random.Generator(bitgen)
    seed_word = seed & _MASK64
    for index in range(start, start + n):
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.array([index & _MASK64, seed_word], dtype=np.uint64),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


# ---------------------------------------------------------------------------
# coefficient registry

_EXPR_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z_0-9]*)\s*(?:\((.*)\))?\s*$")


def parse_expression(expr: str):
    """Parse 'name(a=1, b=2)' or 'name(1, 2)' into (name, args, kwargs)."""
    m = _EXPR_RE.match(expr)
    if not m:
        raise ConfigurationError(f"cannot parse expression {expr!r}")
    name, body = m.group(1), m.group(2)
    args, kwargs = [], {}
    if body and body.strip():
        for part in body.split(","):
            part = part.strip()
            if "=" in part:
                k, v = part.split("=", 1)
                kwargs[k.strip()] = _parse_value(v.strip())
            else:
                args.append(_parse_value(part))
    return name, args, kwargs


def _parse_value(s: str):
    try:
        return float(s)
    except ValueError:
        return s.strip("'\"")


def build(expr, registry: dict, what: str):
    """registry[name](*args, **kwargs) for expr = 'name(args)'.  A non-string,
    an unknown name, a non-finite number, or a TypeError or ValueError from
    the factory is a ConfigurationError that names `what`; a reason that
    names the factory, as Python's argument errors do, names `name()`."""
    if not isinstance(expr, str):
        raise ConfigurationError(f"{what} must be an expression, got {expr!r}")
    name, args, kwargs = parse_expression(expr)
    if name not in registry:
        raise ConfigurationError(f"unknown {what} {name!r}")
    if not all(math.isfinite(v) for v in (*args, *kwargs.values()) if isinstance(v, float)):
        raise ConfigurationError(f"bad {what} {expr!r}: arguments must be finite")
    factory = registry[name]
    try:
        return factory(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        reason = str(exc).replace(f"{factory.__qualname__}()", f"{name}()")
        raise ConfigurationError(f"bad {what} {expr!r}: {reason}") from None


class Box(NamedTuple):
    """theta = 1 on [t0, t1] x [x_lo, x_hi]; box() checks the corners."""

    t0: float
    t1: float
    x_lo: float
    x_hi: float

    def __call__(self, t, x):
        t0, t1, lo, hi = self
        t = np.asarray(t, dtype=float)
        x = np.asarray(x, dtype=float)
        return ((t >= t0) & (t <= t1) & (x >= lo) & (x <= hi)).astype(float)

    def integral_to(self, t, z):
        t0, t1, lo, hi = self
        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float)
        inside = (t >= t0) & (t <= t1)
        return np.where(inside, np.clip(z, lo, hi) - lo, 0.0)

    def hinge_integral(self, t, a, b, xt):
        """Oriented int_a^b (xt - x) theta(t, x) dx, exact for the box."""
        t0, t1, lo, hi = self
        if not (t0 <= t <= t1):
            return 0.0
        sign = 1.0
        if b < a:
            a, b, sign = b, a, -1.0
        a = max(a, lo)
        b = min(b, hi)
        if b <= a:
            return 0.0
        # int_a^b (xt - x) dx
        return sign * (xt * (b - a) - 0.5 * (b * b - a * a))


def box(t0, t1, x_lo, x_hi) -> Box:
    """The Box of float corners; ValueError unless t0 <= t1 and x_lo < x_hi."""
    theta = Box(*map(float, (t0, t1, x_lo, x_hi)))
    if theta.t0 > theta.t1:
        raise ValueError("box needs t0 <= t1")
    if not theta.x_lo < theta.x_hi:
        raise ValueError("box needs x_lo < x_hi")
    return theta


def parse_box(expr: str) -> Box:
    """The Box of 'box(t0, t1, x_lo, x_hi)', each corner given once, by
    position or by keyword; build says what it refuses."""
    return build(expr, {"box": box}, "theta")


class _Const(NamedTuple):
    """const(c): c + 0.0 * x, so a non-finite state gives NaN."""

    c: float

    def __call__(self, t, x):
        return self.c + 0.0 * np.asarray(x)


def _coef_const(c=1.0):
    return _Const(float(c))


def _coef_linear(a=0.0, b=1.0):
    a, b = float(a), float(b)
    return lambda t, x: a + b * np.asarray(x)


def _coef_step(lo=1.0, hi=2.0, at=0.0):
    # lo for x <= at, hi for x > at
    lo, hi, at = float(lo), float(hi), float(at)
    return lambda t, x: np.where(np.asarray(x) > at, hi, lo)


def _coef_abs_shift(c=0.5, floor=0.5):
    # floor + |x - c|: positive, merely Lipschitz
    c, floor = float(c), float(floor)
    return lambda t, x: floor + np.abs(np.asarray(x) - c)


_COEFFICIENTS: dict[str, Callable] = {
    "const": _coef_const,
    "linear": _coef_linear,
    "step": _coef_step,
    "abs_shift": _coef_abs_shift,
}


def make_coefficient(spec) -> Callable:
    """Resolve a coefficient: callable passthrough or registry expression."""
    if callable(spec):
        return spec
    return build(spec, _COEFFICIENTS, "coefficient")


# ---------------------------------------------------------------------------
# jump size laws


class JumpLaw(NamedTuple):
    """sample(rng) draws one jump size; mean is its expectation."""

    sample: Callable
    mean: float


def normal(mu=0.0, sd=1.0, /) -> JumpLaw:
    mu, sd = float(mu), float(sd)
    return JumpLaw(lambda rng: mu + sd * rng.standard_normal(), mu)


def uniform(a=-1.0, b=1.0, /) -> JumpLaw:
    a, b = float(a), float(b)
    return JumpLaw(lambda rng: a + (b - a) * rng.random(), 0.5 * (a + b))


def const(c=1.0, /) -> JumpLaw:
    c = float(c)
    return JumpLaw(lambda rng: c, c)


# positional-only, so a keyword, as in normal(mu=5.0, sd=0.1), is refused
_LAWS: dict[str, Callable] = {"normal": normal, "uniform": uniform, "const": const}


def make_jump_law(spec: str) -> JumpLaw:
    """The law of 'normal(mu, sd)', 'uniform(a, b)' or 'const(c)': finite
    numbers by position, defaults for those left out."""
    return build(spec, _LAWS, "jump_law")


# ---------------------------------------------------------------------------
# generator spec


class GeneratorSpec(NamedTuple):
    """Everything needed to reproduce an ensemble, including the seed."""

    kind: str = "brownian"
    n_steps: int = 4096
    horizon: float = 1.0
    x0: float = 0.0
    sigma: object = "const(1.0)"
    b: object = "const(0.0)"
    jump_rate: float = 0.0
    jump_law: object = "normal(0.0, 1.0)"
    alpha: float = 1.0
    sigma_of_x: object = "const(1.0)"
    x_grid_points: int = 10001
    seed: int = 0

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown generator kind {self.kind!r}")
        check_numbers(
            self, ints=("n_steps", "x_grid_points", "seed"), reals=("horizon", "x0", "jump_rate", "alpha")
        )
        for name in ("horizon", "x0", "jump_rate"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.n_steps < 1:
            raise ConfigurationError("n_steps must be >= 1")
        if self.x_grid_points < 2:
            raise ConfigurationError("x_grid_points must be >= 2")
        if not (self.horizon > 0):
            raise ConfigurationError("horizon must be positive")
        if self.jump_rate < 0:
            raise ConfigurationError("jump_rate must be nonnegative")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigurationError("alpha must lie in (0, 1]")
        euler = ("sigma", "b")
        coefficients = {"euler_sde": euler, "jump_diffusion": euler, "lamperti_dirichlet": ("sigma_of_x",)}
        for name in coefficients.get(self.kind, ()):
            try:
                make_coefficient(getattr(self, name))
            except ConfigurationError as exc:
                raise ConfigurationError(f"{name}: {exc}") from None
        if self.kind in ("compound_poisson", "jump_diffusion"):
            make_jump_law(self.jump_law)
            if self.kind == "compound_poisson" and self.jump_rate <= 0:
                raise ConfigurationError("compound_poisson requires jump_rate > 0")
            dt = self.horizon / self.n_steps
            if self.jump_rate * dt > 0.5:
                raise ConfigurationError(
                    f"expected jumps per grid cell = {self.jump_rate * dt:.3g} > 0.5; "
                    "use a finer grid (larger n_steps) for this jump rate"
                )

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    def grid(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt

    def mean_drift_variation(self, t):
        """E int_0^t |dA| for the model's martingale + drift split, at a time
        or an array of times, or None.

        dA/dt is drift_rate's b + rate * E[J], with b = 0 for brownian and
        compound_poisson; the Euler kinds need b = const(c), else None.
        """
        if self.kind == "lamperti_dirichlet":
            return None
        b = 0.0 if self.kind in ("brownian", "compound_poisson") else _constant_value(self.b)
        if b is None:
            return None
        comp = 0.0
        if self.kind in ("compound_poisson", "jump_diffusion"):
            comp = make_jump_law(self.jump_law).mean * self.jump_rate
        return abs(b + comp) * t

    def drift_rate(self):
        """dA/dt callback for the model's martingale + drift split, or None:
        b(t, x) for the Euler kinds, plus the compensator rate * E[J] for
        the jump kinds.  The Brownian rate is the scalar +0.0, so each drift
        cell is +0.0 at any state."""
        if self.kind == "lamperti_dirichlet":
            return None
        comp = 0.0
        if self.kind in ("compound_poisson", "jump_diffusion"):
            comp = make_jump_law(self.jump_law).mean * self.jump_rate
        if self.kind in ("brownian", "compound_poisson"):
            return lambda t, x: comp
        b = make_coefficient(self.b)
        return lambda t, x: np.asarray(b(t, x), dtype=float) + comp

    def qv_rate(self):
        """sigma(t,x)^2 callback for model [X]^c cell increments, or None."""
        if self.kind == "brownian":
            return lambda t, x: 1.0 + 0.0 * np.asarray(x)
        if self.kind in ("euler_sde", "jump_diffusion"):
            sig = make_coefficient(self.sigma)
            return lambda t, x: np.asarray(sig(t, x)) ** 2
        if self.kind == "compound_poisson":
            return lambda t, x: 0.0 * np.asarray(x)
        return None


def _constant_value(coef_spec):
    """c for a const(c) coefficient, None for any other; a malformed
    expression raises what make_coefficient raises."""
    coef = make_coefficient(coef_spec)
    return coef.c if isinstance(coef, _Const) else None


# ---------------------------------------------------------------------------
# block construction
#
# Every builder returns a (values, marks) pair of (n, n_steps + 1) blocks
# holding paths start .. start+n-1.  Row r draws from path_rng(seed, start+r)
# (through _row_streams) in the same order, and goes through the same IEEE
# operations, as a path built on its own would.


def _draw_jump_cells(spec: GeneratorSpec, law: JumpLaw, rng, index: int) -> tuple:
    """Poisson event times snapped to grid cells, one jump per cell.

    A jump in (times[c-1], times[c]] is realized at grid index c; collisions
    are resampled so the exact bookkeeping of one jump per cell holds.
    """
    n = spec.n_steps
    dt = spec.dt
    count = int(rng.poisson(spec.jump_rate * spec.horizon))
    cells: list[int] = []
    occupied = set()
    for _ in range(count):
        for _attempt in range(1000):
            u = rng.random() * spec.horizon
            c = min(max(int(math.ceil(u / dt)), 1), n)
            if c not in occupied:
                occupied.add(c)
                cells.append(c)
                break
        else:
            raise GenerationError(
                f"could not place jump without cell collision (seed={spec.seed}, path={index})"
            )
    cells.sort()
    sizes = [law.sample(rng) for _ in cells]
    return cells, sizes


def _empty_blocks(spec: GeneratorSpec, n: int) -> tuple:
    width = spec.n_steps + 1
    return np.empty((n, width)), np.zeros((n, width), dtype=bool)


def _brownian_block(spec: GeneratorSpec, n: int, start: int) -> tuple:
    values, marks = _empty_blocks(spec, n)
    for row, rng in zip(values, _row_streams(spec.seed, start, n)):
        rng.standard_normal(out=row[1:])
    body = values[:, 1:]
    body *= math.sqrt(spec.dt)
    np.cumsum(body, axis=1, out=body)
    body += spec.x0
    values[:, 0] = spec.x0
    return values, marks


def _compound_poisson_block(spec: GeneratorSpec, n: int, start: int) -> tuple:
    # each row holds its own jump-size array until the cumulative sum
    values, marks = _empty_blocks(spec, n)
    values[:] = 0.0
    law = make_jump_law(spec.jump_law)
    for r, rng in enumerate(_row_streams(spec.seed, start, n)):
        cells, sizes = _draw_jump_cells(spec, law, rng, start + r)
        values[r, cells] = sizes
        marks[r, cells] = True
    np.cumsum(values, axis=1, out=values)
    values += spec.x0
    values[:, 0] = spec.x0
    return values, marks


def _euler_block(spec: GeneratorSpec, n: int, start: int) -> tuple:
    """euler_sde and jump_diffusion: running sums for constant coefficients
    (_euler_sums), else the step-major loop (_euler_steps), each as a fast
    pass with one finiteness check; a block that fails it is replayed
    through the checked step loop from its normals, drawn again if the sums
    wrote over them (module docstring).
    """
    values, marks, events = _euler_draws(spec, n, start)
    sigma, b = _constant_value(spec.sigma), _constant_value(spec.b)
    if _summable(sigma) and _summable(b):
        if _passes(lambda: _euler_sums(spec, values, events, sigma, b), values[:, -1]):
            return values, marks
        values, marks, events = _euler_draws(spec, n, start)
    else:
        work = values.T.copy()
        if _passes(lambda: _euler_steps(spec, work, events, start, checked=False), work[-1]):
            values[...] = work.T
            return values, marks
    work = values.T.copy()
    _euler_steps(spec, work, events, start, checked=True)
    values[...] = work.T
    return values, marks


def _euler_draws(spec: GeneratorSpec, n: int, start: int) -> tuple:
    """(values, marks, events): x0 and each row's normals, its jump marks,
    and the jumps as grid index -> (rows, sizes)."""
    values, marks = _empty_blocks(spec, n)
    law = make_jump_law(spec.jump_law) if spec.kind == "jump_diffusion" else None
    events: dict[int, tuple] = {}
    for r, rng in enumerate(_row_streams(spec.seed, start, n)):
        rng.standard_normal(out=values[r, 1:])
        if law is not None:
            cells, sizes = _draw_jump_cells(spec, law, rng, start + r)
            marks[r, cells] = True
            for c, j in zip(cells, sizes):
                rows, js = events.setdefault(c, ([], []))
                rows.append(r)
                js.append(j)
    values[:, 0] = spec.x0
    return values, marks, events


def _summable(c) -> bool:
    """A constant coefficient the running sums may stand in for: finite, and
    not -0.0, since -0.0 + 0.0 * x is +0.0 for x >= 0."""
    return c is not None and math.isfinite(c) and (c != 0.0 or math.copysign(1.0, c) > 0.0)


def _passes(run, last) -> bool:
    """Run a fast pass with floating-point errors raised; True when it
    finished and the view `last` (its final states) is all finite."""
    try:
        with np.errstate(all="raise"):
            run()
        return bool(np.isfinite(last).all())
    except Exception:  # the checked replay raises what the per-path loop raises
        return False


_SLAB = 512  # steps per running-sum slab: the buffer stays (n, 1 + 3 * 512) at any n_steps


def _euler_sums(spec: GeneratorSpec, values: np.ndarray, events: dict, sigma: float, b: float) -> None:
    """The Euler recursion for constant sigma and b, in place on the rows.

    A slab of k steps is laid out as [x_i, b dt, sigma sqrt(dt) z, J, b dt,
    ...], m = 3 terms per step (2 without J), so its cumulative sum holds
    the states at every m-th column.
    """
    jumps = spec.kind == "jump_diffusion"
    m = 3 if jumps else 2
    drift = b * spec.dt
    scale = sigma * math.sqrt(spec.dt)
    buf = np.empty((values.shape[0], 1 + m * min(_SLAB, spec.n_steps)))
    buf[:, 0] = values[:, 0]
    for i in range(0, spec.n_steps, _SLAB):
        k = min(_SLAB, spec.n_steps - i)
        slab = buf[:, : 1 + m * k]
        states = values[:, i + 1 : i + 1 + k]
        slab[:, 1::m] = drift
        np.multiply(scale, states, out=slab[:, 2::m])
        if jumps:
            slab[:, 3::m] = 0.0
            for c, (rows, sizes) in events.items():
                if i < c <= i + k:
                    slab[rows, m * (c - i)] = sizes
        np.cumsum(slab, axis=1, out=slab)
        states[...] = slab[:, m::m]
        buf[:, 0] = slab[:, -1]


def _euler_steps(spec: GeneratorSpec, work: np.ndarray, events: dict, start: int, checked: bool) -> None:
    """The Euler recursion in place on the step-major block `work`.

    checked: test every step's coefficients and raise GenerationError at
    the first non-finite one, naming the first such row.
    """
    sigma = make_coefficient(spec.sigma)
    b = make_coefficient(spec.b)
    dt = spec.dt
    sqdt = math.sqrt(dt)
    times = spec.grid()
    jump_col = np.zeros(work.shape[1]) if spec.kind == "jump_diffusion" else None
    for i in range(spec.n_steps):
        t = times[i]
        x, z = work[i], work[i + 1]
        s = np.asarray(sigma(t, x), dtype=float)
        drift = np.asarray(b(t, x), dtype=float)
        if checked and not (np.isfinite(s).all() and np.isfinite(drift).all()):
            bad = np.broadcast_to(~(np.isfinite(s) & np.isfinite(drift)), x.shape)
            r = int(np.argmax(bad))
            raise GenerationError(
                f"non-finite coefficient at (seed={spec.seed}, path={start + r}, "
                f"t={float(t)!r}, x={float(x[r])!r})"
            )
        # x + drift dt + sigma sqrt(dt) z, in that order, written over z
        head = x + drift * dt
        np.multiply(s * sqdt, z, out=z)
        np.add(head, z, out=z)
        if jump_col is not None:
            ev = events.get(i + 1)
            if ev is None:
                z += jump_col
            else:
                jump_col[ev[0]] = ev[1]
                z += jump_col
                jump_col[ev[0]] = 0.0


# ---------------------------------------------------------------------------
# Lamperti-type transform generator


class MonotoneTransform(NamedTuple):
    """Tabulated strictly increasing map with interpolated inverse."""

    x_tab: np.ndarray
    h_tab: np.ndarray

    def forward(self, x):
        return np.interp(x, self.x_tab, self.h_tab)

    def inverse(self, y):
        return np.interp(y, self.h_tab, self.x_tab)


def build_transform(spec: GeneratorSpec) -> MonotoneTransform:
    """Tabulate h(x) = int_0^x sigma(y)^(-2 alpha) dy by midpoint quadrature.

    The x-range is grown until h covers +- 8 sqrt(horizon) around h(x0), so
    Brownian Y-values stay inside the inverse's tabulated range.  Midpoint
    cells never evaluate sigma at declared discontinuity points on the grid
    edges, which keeps merely-measurable sigma usable.
    """
    sig = make_coefficient(spec.sigma_of_x)
    power = -2.0 * spec.alpha
    span = 8.0 * math.sqrt(spec.horizon)
    radius = max(1.0, span)
    for _ in range(40):
        x_tab = np.linspace(spec.x0 - radius, spec.x0 + radius, spec.x_grid_points)
        mid = 0.5 * (x_tab[:-1] + x_tab[1:])
        dens = np.asarray(sig(0.0, mid), dtype=float) ** power
        if not np.all(np.isfinite(dens)) or np.any(dens <= 0):
            raise GenerationError("sigma_of_x^(-2 alpha) must be positive and finite")
        steps = dens * np.diff(x_tab)
        h_tab = np.concatenate([[0.0], np.cumsum(steps)])
        if not np.all(np.diff(h_tab) > 0):
            raise GenerationError("h tabulation is not strictly increasing")
        # normalize to the canonical h(x) = int_0^x (when 0 is in range)
        h_tab = h_tab - float(np.interp(0.0, x_tab, h_tab))
        h0 = float(np.interp(spec.x0, x_tab, h_tab))
        if h_tab[-1] - h0 >= span and h0 - h_tab[0] >= span:
            return MonotoneTransform(x_tab=x_tab, h_tab=h_tab)
        radius *= 2.0
    raise GenerationError(
        "could not size the h tabulation range (h may be bounded: sigma^(-2 alpha) "
        "has integrable tails on the simulated range)"
    )


def _lamperti_block(spec: GeneratorSpec, n: int, start: int) -> tuple:
    """X = h^{-1}(Y) for Y Brownian from h(x0)."""
    transform = build_transform(spec)
    y0 = float(transform.forward(spec.x0))
    y, marks = _brownian_block(spec._replace(kind="brownian", x0=y0), n, start)
    return transform.inverse(y), marks


# ---------------------------------------------------------------------------
# public entry points

_BUILDERS = {
    "brownian": _brownian_block,
    "euler_sde": _euler_block,
    "compound_poisson": _compound_poisson_block,
    "jump_diffusion": _euler_block,
    "lamperti_dirichlet": _lamperti_block,
}

CHUNK = 64  # the most rows in a block; the fewest are CHUNK // 8
BLOCK_CELLS = 2**17  # value cells in a block: 1 MB of float64


def generate(spec: GeneratorSpec, n_paths: int, start: int = 0) -> PathEnsemble:
    """Paths start .. start+n_paths-1 as the rows of one read-only block.

    A pure function of (spec, path index): any split of an index range into
    generate calls yields the same paths.
    """
    spec.validate()
    if n_paths < 1:
        raise ConfigurationError("n_paths must be >= 1")
    values, marks = _BUILDERS[spec.kind](spec, n_paths, start)
    return PathEnsemble(times=spec.grid(), values=values, marks=marks)


def make_path(spec: GeneratorSpec, index: int) -> PathEnsemble:
    """Path `index` of the ensemble built on its own, as a one-row ensemble;
    replay-exact."""
    return generate(spec, 1, start=index)


def block_rows(n_steps: int) -> int:
    """Rows in a block of paths, the span one generate call of a command
    builds: BLOCK_CELLS // (n_steps + 1), between CHUNK // 8 and CHUNK.

    64 below 2048 steps, 63 at 2048, 31 at 4096 and 8 from 2^14 steps up.
    The split depends on n_steps alone, never on the worker count, and it
    changes no bits, since each path is a pure function of (seed, index)
    and every reduction runs per row.
    """
    return max(CHUNK // 8, min(CHUNK, BLOCK_CELLS // (n_steps + 1)))
