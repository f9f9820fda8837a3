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
start .. start+n-1 as row views of one read-only (n, n_steps+1) float64
value block and one bool mark block on a shared time grid.  Each kind has
one builder that fills the block.  Brownian rows are normals drawn in place
and one cumulative sum; compound Poisson rows are filled from their sparse
jump lists; Lamperti rows are a Brownian block mapped through h^{-1}.

The Euler and jump-diffusion builder draws every row's normals (then its
jumps) into the row block, copies the block once into a step-major
(n_steps+1, n) working array, and runs a single time loop whose steps are
numpy operations on contiguous columns; the result is transposed back into
the row block.  Every row sees exactly the IEEE operation sequence of a path
stepped alone, so results are bit-identical to per-path construction.  The
loop checks finiteness once per block, not once per step: with x finite and
dt > 0, a NaN or infinite coefficient makes x + b dt + sigma sqrt(dt) z
non-finite, and a sum with a non-finite term stays non-finite, so the row
is non-finite up to its last column.  A block whose last column is not
finite, or whose fast pass raised or signalled a floating-point error, is
replayed through the same loop with the per-step coefficient check on; the
replay raises the per-path error naming the seed, path index, t and x, or
warns and returns the overflowed values as a per-path loop would.

Chunked callers use iter_blocks, which calls generate for at most CHUNK (64)
consecutive indices at a time, so a chunk task holds one block of at most
64 rows and reads it as a block; its row SamplePath views are built only
when asked for.  The time loop costs a fixed number of numpy calls per step
whatever the row count: replaying one Euler path with make_path is a one-row
block, several times slower than a scalar loop would be, which only matters
for one-off replays.

Coefficient callbacks (sigma, b, sigma_of_x) are selected by name from a
small registry so that specs stay picklable and expressible in config files;
plain Python callables are also accepted for library use.  They are called
with a scalar t and an array x of the block's current states; a scalar
return is broadcast across the rows.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ._parallel import CHUNK
from .errors import ConfigurationError, GenerationError
from .paths import PathEnsemble, SamplePath

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


def _coef_const(c=1.0):
    c = float(c)
    return lambda t, x: c + 0.0 * np.asarray(x)


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
    name, args, kwargs = parse_expression(spec)
    if name not in _COEFFICIENTS:
        raise ConfigurationError(f"unknown coefficient {name!r}")
    return _COEFFICIENTS[name](*args, **kwargs)


# ---------------------------------------------------------------------------
# jump size laws


@dataclass(frozen=True)
class JumpLaw:
    name: str
    params: tuple

    def sample(self, rng: np.random.Generator) -> float:
        if self.name == "normal":
            mu, sd = self.params
            return mu + sd * rng.standard_normal()
        if self.name == "uniform":
            a, b = self.params
            return a + (b - a) * rng.random()
        if self.name == "const":
            return self.params[0]
        raise ConfigurationError(f"unknown jump law {self.name!r}")

    @property
    def mean(self) -> float:
        if self.name == "normal":
            return self.params[0]
        if self.name == "uniform":
            return 0.5 * (self.params[0] + self.params[1])
        if self.name == "const":
            return self.params[0]
        raise ConfigurationError(f"unknown jump law {self.name!r}")


def make_jump_law(spec) -> JumpLaw:
    if isinstance(spec, JumpLaw):
        return spec
    name, args, kwargs = parse_expression(spec)
    defaults = {"normal": (0.0, 1.0), "uniform": (-1.0, 1.0), "const": (1.0,)}
    if name not in defaults:
        raise ConfigurationError(f"unknown jump law {name!r}")
    vals = list(defaults[name])
    for i, a in enumerate(args):
        vals[i] = float(a)
    return JumpLaw(name=name, params=tuple(float(v) for v in vals))


# ---------------------------------------------------------------------------
# generator spec


@dataclass(frozen=True)
class GeneratorSpec:
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
    meta: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.kind not in KINDS:
            raise ConfigurationError(f"unknown generator kind {self.kind!r}")
        if self.n_steps < 1:
            raise ConfigurationError("n_steps must be >= 1")
        if not (self.horizon > 0):
            raise ConfigurationError("horizon must be positive")
        if self.jump_rate < 0:
            raise ConfigurationError("jump_rate must be nonnegative")
        if not (0.0 < self.alpha <= 1.0):
            raise ConfigurationError("alpha must lie in (0, 1]")
        if self.kind in ("compound_poisson", "jump_diffusion"):
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

    def mean_drift_variation(self, t: float):
        """E int_0^t |dA| for the model's martingale + drift split, or None.

        brownian: A = 0.  compound_poisson: A is the compensator rate*E[J]*s.
        euler/jump_diffusion: only available for constant b.
        """
        if self.kind == "brownian":
            return 0.0
        if self.kind == "compound_poisson":
            return abs(make_jump_law(self.jump_law).mean) * self.jump_rate * t
        if self.kind in ("euler_sde", "jump_diffusion"):
            b_const = _constant_value(self.b)
            if b_const is None:
                return None
            total = abs(b_const) * t
            if self.kind == "jump_diffusion":
                total += abs(make_jump_law(self.jump_law).mean) * self.jump_rate * t
            return total
        return None

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
    if callable(coef_spec):
        return None
    name, args, kwargs = parse_expression(coef_spec)
    if name != "const":
        return None
    if args:
        return float(args[0])
    return float(kwargs.get("c", 1.0))


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
    """euler_sde and jump_diffusion: one step-major time loop over the rows.

    Each row's normals are drawn into the row itself, then (jump_diffusion
    only) its Poisson stream.  The block is copied once into an
    (n_steps+1, n) working array, where step i reads row i as the states
    and overwrites row i+1, the normals, with the new states; jump_diffusion
    adds the jump column on every step, 0.0 off the jump cells, as the
    per-path recursion does.  The fast pass runs with floating-point errors
    raised and without the per-step coefficient check; one look at the last
    states decides for the whole block, since a non-finite coefficient
    leaves its row non-finite from that step on (module docstring).  If the
    last states are not all finite or the pass raised, the block is replayed
    from its normals with the check on: the replay raises the per-path error
    and warnings, or returns the values of a block that only overflowed.
    """
    values, marks = _empty_blocks(spec, n)
    law = make_jump_law(spec.jump_law) if spec.kind == "jump_diffusion" else None
    events: dict[int, tuple] = {}  # grid index -> (rows, sizes)
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
    work = values.T.copy()
    try:
        with np.errstate(all="raise"):
            _euler_steps(spec, work, events, start, checked=False)
        finite = bool(np.isfinite(work[-1]).all())
    except Exception:  # the checked replay raises what the per-path loop raises
        finite = False
    if not finite:
        np.copyto(work, values.T)
        _euler_steps(spec, work, events, start, checked=True)
    values[...] = work.T
    return values, marks


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


@dataclass(frozen=True)
class MonotoneTransform:
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


@dataclass(frozen=True)
class LampertiResult:
    x: PathEnsemble
    y: PathEnsemble
    transform: MonotoneTransform


def _lamperti_blocks(spec: GeneratorSpec, n: int, start: int, transform: MonotoneTransform) -> tuple:
    """(X values, Y values, marks): Y Brownian from h(x0), X = h^{-1}(Y)."""
    y0 = float(transform.forward(spec.x0))
    y, marks = _brownian_block(replace(spec, kind="brownian", x0=y0), n, start)
    return transform.inverse(y), y, marks


def _lamperti_block(spec: GeneratorSpec, n: int, start: int) -> tuple:
    x, _, marks = _lamperti_blocks(spec, n, start, build_transform(spec))
    return x, marks


def gen_lamperti_dirichlet(spec: GeneratorSpec, n_paths: int) -> LampertiResult:
    """Simulate Y as Brownian motion and return both Y and X = h^{-1}(Y)."""
    spec.validate()
    transform = build_transform(spec)
    x, y, marks = _lamperti_blocks(spec, n_paths, 0, transform)
    return LampertiResult(
        x=PathEnsemble(times=spec.grid(), values=x, marks=marks),
        y=PathEnsemble(times=spec.grid(), values=y, marks=marks),
        transform=transform,
    )


# ---------------------------------------------------------------------------
# public entry points

_BUILDERS = {
    "brownian": _brownian_block,
    "euler_sde": _euler_block,
    "compound_poisson": _compound_poisson_block,
    "jump_diffusion": _euler_block,
    "lamperti_dirichlet": _lamperti_block,
}


def generate(spec: GeneratorSpec, n_paths: int, start: int = 0) -> PathEnsemble:
    """Paths start .. start+n_paths-1 as row views of one read-only block.

    A pure function of (spec, path index): any split of an index range into
    generate calls yields the same paths.
    """
    spec.validate()
    if n_paths < 1:
        raise ConfigurationError("n_paths must be >= 1")
    values, marks = _BUILDERS[spec.kind](spec, n_paths, start)
    return PathEnsemble(times=spec.grid(), values=values, marks=marks)


def make_path(spec: GeneratorSpec, index: int) -> SamplePath:
    """Build path `index` of the ensemble on its own; replay-exact."""
    return generate(spec, 1, start=index)[0]


def iter_blocks(spec: GeneratorSpec, lo: int, hi: int):
    """Ensembles of paths lo .. hi-1 in index order, at most CHUNK rows each."""
    for b in range(lo, hi, CHUNK):
        yield generate(spec, min(b + CHUNK, hi) - b, start=b)
