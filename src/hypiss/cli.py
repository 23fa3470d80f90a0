"""File-driven command-line front end for design, analysis, and simulation.

Four subcommands cover the workflow: ``synth`` designs a saturated boundary
gain for the plant in a JSON config and writes the certificate, ``grid``
sweeps the design over (mu, alpha) weight grids into a feasibility map CSV,
``simulate`` runs the closed loop and writes trajectory CSVs, and
``verify`` recomputes every certified inequality for a stored certificate.
A command reads its whole config before it makes the output directory, so
a config error writes nothing.  Every command then ends in `_finish`: it
writes a JSON run report with a config digest, a status and a manifest of
the files made, also when a design is infeasible, the solver fails or a
simulation blows up, and returns the exit code of that status from
`_EXIT_CODES`: 0 on success, 2 for an infeasible design or a failed
verification, 1 for a solver failure, a grid whose every cell failed, a
certificate whose margins could not be computed, or a blow-up.  Any other
error exits 1.  CSV output is deterministic: rerunning a command with the
same config yields byte-identical files.  Every output is a new file
(`_write`): a link at its path is not written through, a read-only file
there is replaced, since only the directory's permission counts, the umask
sets the mode, and nothing is fsynced.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import control, lmi, pde, sdp
from .control import (
    InfeasibleError,
    Plant,
    RowSolve,
    SynthesisCertificate,
    SynthesisError,
    iss_coefficients,
    synthesize,
    verify_analysis,
    wellposedness_certificate,
)
from .linalg import ConvergenceError, DiagMatrix, Matrix, SymMatrix, invert_diag
from .pde import BlowUpError, Grid, SignalSpec, SimConfig, simulate

_DEFAULT_OUT = "out"


class ConfigError(ValueError):
    """Malformed config or certificate; the message names the bad path."""


@contextlib.contextmanager
def _as_config_error(path: str):
    """A ValueError raised inside becomes a ConfigError that names path; a
    ConfigError passes through as it is."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# config parsing


def _section(cfg: dict, name: str) -> dict:
    if name not in cfg:
        raise ConfigError(f"{name}: missing section")
    if not isinstance(cfg[name], dict):
        raise ConfigError(f"{name}: expected an object")
    return cfg[name]


def _get(d: dict, path: str, key: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}: missing")
    return d[key]


def _number(d: dict, path: str, key: str, positive: bool = False,
            default=None) -> float:
    if key not in d and default is not None:
        return float(default)
    v = _get(d, path, key)
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{path}.{key}: expected a number")
    v = float(v)
    if positive and not (v > 0.0 and math.isfinite(v)):
        raise ConfigError(f"{path}.{key}: must be positive and finite")
    if not math.isfinite(v):
        raise ConfigError(f"{path}.{key}: must be finite")
    return v


def _integer(d: dict, path: str, key: str, minimum: int) -> int:
    v = _get(d, path, key)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path}.{key}: expected an integer")
    if v < minimum:
        raise ConfigError(f"{path}.{key}: must be at least {minimum}")
    return v


def _array(d: dict, path: str, key: str, ndim: int) -> np.ndarray:
    """A nonempty numeric array of `ndim` dimensions.  A NaN or infinite
    entry, which JSON parsing lets through, is a ConfigError."""
    v = _get(d, path, key)
    try:
        arr = np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}.{key}: expected a numeric array") from None
    if arr.ndim != ndim or arr.size == 0:
        raise ConfigError(f"{path}.{key}: expected a nonempty {ndim}-D array")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path}.{key}: entries must be finite")
    return arr


def _load_json(path: str) -> tuple[dict, str]:
    """A JSON file whose top level is an object, a config or a certificate,
    and the SHA-256 digest of its bytes."""
    try:
        raw = Path(path).read_bytes()
    except OSError as e:
        raise ConfigError(f"{path}: {e.strerror or e}") from None
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e.msg} at line {e.lineno})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return data, hashlib.sha256(raw).hexdigest()


def _build_plant(cfg: dict) -> Plant:
    block = _section(cfg, "plant")
    speeds = _array(block, "plant", "lambda", 1)
    with _as_config_error("plant"):
        return Plant(
            speeds=DiagMatrix(speeds),
            reflection=Matrix(_array(block, "plant", "H", 2)),
            input_map=Matrix(_array(block, "plant", "B", 2)),
            disturbance_map=Matrix(_array(block, "plant", "N", 2)),
            u_max=_array(block, "plant", "u_max", 1),
        )


def _design(cfg: dict, weight) -> tuple:
    """The design weights mu and alpha, each read by `weight`
    (`_scalar_weight` or `_grid_weight`), and the slack eps."""
    design = _section(cfg, "design")
    return (weight(design, "mu"), weight(design, "alpha"),
            _number(design, "design", "epsilon", positive=True, default=lmi.DEFAULT_EPS))


def _scalar_weight(design: dict, key: str) -> float:
    if isinstance(design.get(key), dict):
        raise ConfigError(f"design.{key}: expected a scalar, got a grid")
    return _number(design, "design", key, positive=True)


def _grid_weight(design: dict, key: str) -> np.ndarray:
    v = _get(design, "design", key)
    if not isinstance(v, dict):
        raise ConfigError(f"design.{key}: expected a grid {{min, max, count}}")
    lo = _number(v, f"design.{key}", "min", positive=True)
    hi = _number(v, f"design.{key}", "max", positive=True)
    count = _integer(v, f"design.{key}", "count", 1)
    if count > 1 and hi <= lo:
        raise ConfigError(f"design.{key}.max: must exceed min")
    grid = np.linspace(lo, hi, count)
    if np.any(np.diff(grid) <= 0.0):
        raise ConfigError(f"design.{key}: {count} points from min to max repeat a value")
    return grid


def _signal(parent: dict, key: str) -> SignalSpec | None:
    """The signal in parent[key], None when it is missing or null."""
    block = parent.get(key)
    if block is None:
        return None
    path = f"simulation.{key}"
    if not isinstance(block, dict):
        raise ConfigError(f"{path}: expected a signal object")
    kind = _get(block, path, "kind")
    with _as_config_error(path):
        if kind == pde.ZERO:
            return SignalSpec.zero(_integer(block, path, "components", 1))
        if kind == pde.SINUSOIDAL_PRODUCT:
            phases = _get(block, path, "phases")
            if not isinstance(phases, list):
                raise ConfigError(f"{path}.phases: expected a list")
            return SignalSpec.sinusoidal_product(
                _number(block, path, "amplitude"), phases)
        if kind == pde.COSINE_PROFILE:
            return SignalSpec.cosine_profile(
                _number(block, path, "amplitude"),
                _array(block, path, "frequencies", 1))
        if kind == pde.TABULATED:
            spec = SignalSpec.tabulated(_array(block, path, "grid", 1),
                                        _array(block, path, "values", 2))
            if spec.sample_grid[0] > 0.0 or spec.sample_grid[-1] < 1.0:
                raise ConfigError(f"{path}: tabulated grid must cover [0, 1]")
            return spec
    raise ConfigError(f"{path}.kind: unknown signal kind {kind!r}")


def _build_sim_config(cfg: dict, plant: Plant, keep_snapshots: bool) -> SimConfig:
    """The simulation section; a disturbance must have the plant's q
    components and an initial state its n."""
    block = _section(cfg, "simulation")
    stride = block.get("snapshot_stride")
    if stride is not None:
        stride = _integer(block, "simulation", "snapshot_stride", 1)
    with _as_config_error("simulation"):
        sim_cfg = SimConfig(
            grid=Grid(_integer(block, "simulation", "M", 8)),
            t_final=_number(block, "simulation", "t_final", positive=True),
            cfl=_number(block, "simulation", "cfl", positive=True, default=0.9),
            disturbance=_signal(block, "disturbance"),
            initial=_signal(block, "initial"),
            snapshot_stride=stride,
            keep_snapshots=keep_snapshots,
        )
    for key, count in (("disturbance", plant.q), ("initial", plant.n)):
        spec = getattr(sim_cfg, key)
        if spec is not None and spec.components != count:
            raise ConfigError(f"simulation.{key}: expected {count} components "
                              f"for this plant, got {spec.components}")
    return sim_cfg


def _output_settings(cfg: dict, out_override: str | None) -> tuple[Path, dict]:
    block = cfg.get("output", {})
    if not isinstance(block, dict):
        raise ConfigError("output: expected an object")
    directory = out_override or block.get("directory", _DEFAULT_OUT)
    if not isinstance(directory, str) or not directory:
        raise ConfigError("output.directory: expected a nonempty string")
    toggles = {key: block.get(key, default) for key, default in
               (("norms", True), ("controls", True), ("snapshots", False))}
    for key, value in toggles.items():
        if not isinstance(value, bool):
            raise ConfigError(f"output.{key}: expected true or false")
    return Path(directory), toggles


# ---------------------------------------------------------------------------
# serialization


# A float cell is its "%.17g" text: 17 significant digits, which read back to
# the same double.  `_slots` makes that text for a block of cells at a
# time, and `%` for a grid's few rows, which cost less than `_slots`' fixed
# cost; no cell this module writes holds a comma, quote or newline.
_FLOAT = "%.17g"
# bytes of one cell's slot: the longest %.17g text, 24 bytes as in
# -2.2250738585072014e-308, and the separator after it
_SLOT = 25
# cells formatted at a time, the state values alone in a snapshot block: a
# block's slots fill 100 kB and each of its arrays of one 8-byte number per
# cell 32 kB.  `_slots` costs about 90 us a call plus, per value, 154 ns at
# 1024 values a call, 110 at 2048, 88 at 4096 and 120 at 8192, where its
# temporaries leave the cache (2 cores, one BLAS thread)
_BLOCK_CELLS = 4096

_U64 = np.uint64
_LOW32 = _U64(0xFFFF_FFFF)
# 5**q << _GUARD for q = 0..20, as 32-bit limbs: the guard bits keep every
# shift in `_digits` within 1..63
_GUARD = 12
_POW5 = [5 ** q << _GUARD for q in range(21)]
_POW5_HI = np.array([p >> 32 for p in _POW5], dtype=np.uint64)
_POW5_LO = np.array([p & 0xFFFF_FFFF for p in _POW5], dtype=np.uint64)
# the ASCII digits of 0000..9999, four bytes each, read as one uint32 so a
# gather copies them whole; the bytes keep their order on any host.  Each
# group is two of the pairs 00..99
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint8).reshape(100, 2)
_GROUPS = np.concatenate(np.broadcast_arrays(_PAIRS[:, None], _PAIRS[None, :]),
                         axis=2).view(np.uint32).ravel()
# the trailing zeros of each group's four digits
_TRAILING = np.cumprod(_GROUPS.view(np.uint8).reshape(-1, 4)[:, ::-1] == ord("0"),
                       axis=1).sum(axis=1).astype(np.uint8)


def _slot_tables() -> tuple[np.ndarray, ...]:
    """The slot layouts of `_slots`, one row per code (k, tz, sign,
    newline): k in -4..16 is the decimal exponent, tz in 0..17 the trailing
    zeros of the 17 digits (17 for a zero), sign 1 for a negative value and
    newline 1 for the last cell of a row.  A slot holds the digits with 4
    leading zeros, z_0..z_20, twice: at column j + 1 (`left`) and at
    column j + 2 (`right`).  The text takes the integer digits from `left`
    and the fraction digits from `right`, which leaves column 6 + k for the
    point; `const` holds the point, the sign and the separator, and `keep`
    marks the bytes of the text and its separator."""
    k, tz, sign, newline, col = np.ix_(*(np.arange(lo, hi, dtype=np.int8) for lo, hi in
                                         ((-4, 17), (0, 18), (0, 2), (0, 2), (0, _SLOT))))
    point = 6 + k
    first = 5 + np.minimum(k, 0)        # the leading digit, or the 0 of 0.000ddd
    # the last digit kept: %g drops trailing zeros, and the point with them
    last = np.where(tz < 16 - k, 22 - tz, point - 1)
    left = (col >= first) & (col < point) & (col <= last)
    right = (col > point) & (col <= last)
    const = np.select([col == last + 1, col == point, (sign == 1) & (col == first - 1)],
                      [np.where(newline == 1, np.uint8(ord("\n")), np.uint8(ord(","))),
                       np.uint8(ord(".")), np.uint8(ord("-"))], np.uint8(0))
    keep = (col >= first - sign) & (col <= last + 1)
    shape = (21, 18, 2, 2, _SLOT)
    return tuple(np.broadcast_to(t, shape).reshape(-1, _SLOT).astype(dtype)
                 for t, dtype in ((left, np.uint8), (right, np.uint8),
                                  (const, np.uint8), (keep, bool)))


_LEFT, _RIGHT, _CONST, _KEEP = _slot_tables()


def _digits(m: np.ndarray, e: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round(m 2**e 10**(16 - k)), ties to even, for mantissas m < 2**53,
    as uint64: the 17 significant digits of x = m 2**e when k is its
    decimal exponent.

    With q = 16 - k in 0..20, x 10**q = m 5**q 2**(e + q).  The product
    P = m (5**q << _GUARD) < 2**53 2**59 is formed exactly from 32-bit
    limbs, none of whose partial sums reaches 2**64, as hi 2**64 + lo; the
    digits are P >> r with r = _GUARD - e - q, rounded half to even on the
    exact remainder lo mod 2**r.  For x 10**q in [1e15, 1e18), as it is
    when k is off by at most one, r lies in 5..61, so neither shift
    reaches the word size, and P >> r < 2**60 has no bit of hi past the
    word."""
    q = 16 - k
    r = (_GUARD - e - q).astype(np.uint64)
    ph, pl = np.take(_POW5_HI, q), np.take(_POW5_LO, q)
    mh, ml = m >> _U64(32), m & _LOW32
    t0 = ml * pl
    t1 = ml * ph + mh * pl + (t0 >> _U64(32))
    hi = mh * ph + (t1 >> _U64(32))
    lo = ((t1 & _LOW32) << _U64(32)) | (t0 & _LOW32)
    n = (hi << (_U64(64) - r)) | (lo >> r)
    # up when the remainder passes half, or equals it and n is odd
    rem = lo & ((_U64(1) << r) - _U64(1))
    return n + (rem + (n & _U64(1)) > _U64(1) << (r - _U64(1)))


def _slots(table: np.ndarray, newline: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """The cells of a 2-D float table in slots, as (text, keep) of shape
    table.shape + (_SLOT,): each cell's "%.17g" text and a comma after it,
    or a newline after the last cell of a row when `newline`; `keep` marks
    those bytes, so text[keep] is the table's CSV lines.

    For a finite x with |x| in [1e-4, 1e17), or a zero, %.17g prints the
    17 significant digits of x in positional form, with trailing zeros
    dropped.  The digits come from `_digits` at the decimal exponent k =
    floor(log10|x|), corrected by one where the digits fall outside
    [1e16, 1e17): where log10 rounded across a power of ten, or where
    rounding to 17 digits carries into the next one.  The tables of
    `_slot_tables` lay the digits out.  Every other value (a subnormal, an
    infinity, a NaN, or |x| below 1e-4 or from 1e17 up) is formatted by %
    into its slot."""
    values = np.ascontiguousarray(table, dtype=np.float64).reshape(-1)
    mag = np.abs(values)
    zero = mag == 0.0
    exact = ((mag >= 1e-4) & (mag < 1e17)) | zero
    x = np.where(exact & ~zero, mag, 1.0)
    bits = x.view(np.uint64)
    m = (bits & _U64((1 << 52) - 1)) | _U64(1 << 52)
    e = (bits >> _U64(52)).astype(np.int64) - 1075
    k = np.clip(np.floor(np.log10(x)).astype(np.int64), -4, 16)
    n = _digits(m, e, k)
    off = (n >= _U64(10 ** 17)) | (n < _U64(10 ** 16))
    if off.any():
        k[off] += np.where(n[off] >= _U64(10 ** 17), 1, -1)
        n[off] = _digits(m[off], e[off], k[off])
    n[zero] = 0
    k[zero] = 0

    lead, low = np.divmod(n, _U64(10 ** 16))
    groups = np.empty((4, values.size), dtype=np.intp)
    for j, part in enumerate(np.divmod(low, _U64(10 ** 8))):
        groups[2 * j], groups[2 * j + 1] = np.divmod(part, _U64(10 ** 4))
    tz = np.take(_TRAILING, groups[3])
    for j in (2, 1, 0):
        tz += (tz == 4 * (3 - j)) * np.take(_TRAILING, groups[j])
    tz += (tz == 16) & (lead == 0)
    code = (((k + 4) * 18 + tz) * 2 + np.signbit(values)) * 2
    if newline:
        code[table.shape[1] - 1::table.shape[1]] += 1

    # z_j at column j + 2 of `right` and j + 1 of `left`, one buffer apart
    digits = np.full(values.size * _SLOT + 1, ord("0"), dtype=np.uint8)
    right = digits[:-1].reshape(-1, _SLOT)
    right[:, 6] += lead.astype(np.uint8)
    right[:, 7:23] = np.take(_GROUPS, groups.T).view(np.uint8)
    text = np.take(_LEFT, code, axis=0)
    text *= digits[1:].reshape(-1, _SLOT)
    text += np.take(_RIGHT, code, axis=0) * right
    text += np.take(_CONST, code, axis=0)
    keep = np.take(_KEEP, code, axis=0)
    rest = np.flatnonzero(~exact)
    if rest.size:
        cells = [(_FLOAT % v + ",\n"[c & 1]).encode()
                 for v, c in zip(values[rest].tolist(), code[rest].tolist())]
        text[rest] = np.frombuffer(b"".join(c.ljust(_SLOT) for c in cells),
                                   dtype=np.uint8).reshape(-1, _SLOT)
        keep[rest] = np.arange(_SLOT) < np.array([len(c) for c in cells])[:, None]
    shape = (*table.shape, _SLOT)
    return text.reshape(shape), keep.reshape(shape)


def _rows_per_block(cells: int) -> int:
    """How many rows of `cells` cells fill one block (at least one)."""
    return max(1, _BLOCK_CELLS // cells)


def _float_blocks(table: np.ndarray):
    """The CSV lines of a 2-D float table, as bytes, one block of rows at a
    time."""
    step = _rows_per_block(table.shape[1])
    for first in range(0, len(table), step):
        text, keep = _slots(table[first:first + step])
        yield text[keep]


def _snapshot_blocks(times: np.ndarray, snapshots: np.ndarray, centers: np.ndarray):
    """The lines of snapshots.csv, (t, z, x_1..x_n) per record and cell
    center, as bytes, one block of rows at a time.  t and z are formatted
    once per run, and each block formats only its state values, at most
    `_BLOCK_CELLS` of them: a block is a run of whole records, or, when one
    record has more rows than a block holds, a run of one record's cells.
    A block's rows are laid out in one (text, keep) buffer per run, of
    (records a block, cells a block, n + 2, _SLOT), whose z column is
    written once when every block holds whole records."""
    records, n, cells = snapshots.shape
    t_slots = _slots(times[:, None], newline=False)
    z_slots = _slots(centers[:, None], newline=False)
    rows = _rows_per_block(n)
    group, width = max(1, rows // cells), min(cells, rows)
    buffers = [np.empty((group, width, n + 2, _SLOT), dtype=dtype) for dtype in (np.uint8, bool)]
    if width == cells:
        for buf, z in zip(buffers, z_slots):
            buf[:, :, 1] = z[:, 0]
    for first in range(0, records, group):
        part = snapshots[first:first + group]
        for lo in range(0, cells, width):
            x = part[:, :, lo:lo + width].transpose(0, 2, 1)
            text, keep = (buf[:len(x), :x.shape[1]] for buf in buffers)
            for buf, t, z, s in zip((text, keep), t_slots, z_slots,
                                    _slots(x.reshape(-1, n))):
                buf[:, :, 0] = t[first:first + len(x)]
                if width < cells:
                    buf[:, :, 1] = z[lo:lo + width, 0]
                buf[:, :, 2:] = s.reshape(x.shape + (_SLOT,))
            yield text[keep]


def _feasibility_blocks(rows):
    """The lines of feasibility.csv, as one block of bytes, from rows (mu,
    alpha, status, c, gamma), where c and gamma are None for a cell with no
    design and their cells are left empty."""
    yield "".join(f"{_FLOAT},{_FLOAT},%s,%s,%s\n" % (mu, alpha, status,
                  "" if c is None else _FLOAT % c, "" if gamma is None else _FLOAT % gamma)
                  for mu, alpha, status, c, gamma in rows).encode()


def _write(path: Path, chunks) -> None:
    """Write the byte `chunks`, each as it comes, to a new file at `path`,
    unlinking what is there: ext4 flushes a file truncated in place at close()."""
    path.unlink(missing_ok=True)
    with path.open("xb") as fh:
        fh.writelines(chunks)


def _write_csv(path: Path, header: list[str], blocks) -> None:
    """Write a CSV file: the header, then each of `blocks`, whole lines as bytes, as it comes."""
    _write(path, itertools.chain([(",".join(header) + "\n").encode()], blocks))


def _certificate_payload(cert: SynthesisCertificate) -> dict:
    return {
        "mu": cert.mu,
        "alpha": cert.alpha,
        "epsilon": cert.eps,
        "peak": cert.peak,
        "gamma": cert.gamma,
        "omega": cert.omega,
        "kappa": cert.kappa,
        "gain": cert.gain.array.tolist(),
        "lyap_inv": cert.lyap_inv.diagonal.tolist(),
        "sector_inv": cert.sector_inv.diagonal.tolist(),
        "gain_scaled": cert.gain_scaled.array.tolist(),
        "coupling": cert.coupling.array.tolist(),
        "margins": dict(cert.margins),
    }


def _load_certificate(path: str, plant: Plant) -> tuple[SynthesisCertificate, str]:
    """The certificate stored at `path`, checked against the plant's
    dimensions, and the SHA-256 digest of the file's bytes.  Its margins
    are empty and its solution None: verify recomputes the margins, and the
    solver's outcome is not part of the design.  A genuine certificate's
    coupling is exactly symmetric, so one that is not is refused rather
    than symmetrized."""
    data, digest = _load_json(path)
    coupling = _array(data, "certificate", "coupling", 2)
    if not np.array_equal(coupling, coupling.T):
        raise ConfigError("certificate.coupling: expected a symmetric matrix")
    with _as_config_error("certificate"):
        cert = SynthesisCertificate(
            mu=_number(data, "certificate", "mu", positive=True),
            alpha=_number(data, "certificate", "alpha", positive=True),
            peak=_number(data, "certificate", "peak", positive=True),
            eps=_number(data, "certificate", "epsilon", positive=True,
                        default=lmi.DEFAULT_EPS),
            gain=Matrix(_array(data, "certificate", "gain", 2)),
            lyap_inv=DiagMatrix(_array(data, "certificate", "lyap_inv", 1)),
            sector_inv=DiagMatrix(_array(data, "certificate", "sector_inv", 1)),
            gain_scaled=Matrix(_array(data, "certificate", "gain_scaled", 2)),
            coupling=SymMatrix(coupling),
            gamma=_number(data, "certificate", "gamma", positive=True),
            omega=_number(data, "certificate", "omega", positive=True),
            kappa=_number(data, "certificate", "kappa", positive=True),
            margins={}, solution=None, row=None)
    n, m = plant.n, plant.m
    if cert.gain.array.shape != (m, n):
        raise ConfigError(f"certificate.gain: expected shape {(m, n)} for this plant")
    if cert.lyap_inv.dim != n or cert.coupling.array.shape != (n, n):
        raise ConfigError("certificate: weight dimensions do not match the plant")
    if cert.sector_inv.dim != m or cert.gain_scaled.array.shape != (m, n):
        raise ConfigError("certificate: sector/gain dimensions do not match the plant")
    if np.any(cert.lyap_inv.diagonal <= 0.0) or np.any(cert.sector_inv.diagonal <= 0.0):
        raise ConfigError("certificate: diagonal weights must be positive")
    return cert, digest


def _solver_trace(row: RowSolve | None, solution: sdp.Solution | None) -> dict:
    """What synth's and simulate's reports record of a design's solves: the
    row's margin s, the Newton steps of the row and of the cell solve, and
    the cell's final duality gap; None where there was no solve."""
    return {"row_margin": row and row.s,
            "newton_steps": row and {"row": row.steps,
                                     "cell": solution and solution.newton_steps},
            "duality_gap": solution and solution.gap}


_EXIT_CODES = {"feasible": 0, "completed": 0, "pass": 0,
               "infeasible": 2, "fail": 2, "failed": 1, "blew_up": 1}


def _finish(out_dir: Path, command: str, digest: str, status: str, timing: float,
            manifest=(), certificate: dict | None = None, margins=None, **fields) -> int:
    """Write `<command>_report.json`, with `fields` as the command's own
    entries, and return the exit code of `status`.  The report is strict
    JSON: a NaN or an infinity in it raises ValueError."""
    path = out_dir / f"{command}_report.json"
    report = {"command": command, "config_digest": digest, "status": status,
              "certificate": certificate, "margins": dict(margins or {}),
              "timing_seconds": timing, "manifest": sorted([*manifest, path.name]),
              **fields}
    _write(path, [json.dumps(report, indent=2, sort_keys=True, allow_nan=False).encode(), b"\n"])
    return _EXIT_CODES[status]


def _uncertified(e: SynthesisError, out_dir: Path, command: str, digest: str,
                 timing: float, mu: float, alpha: float, **fields) -> int:
    """Report a design that synthesize did not certify, with mu, alpha, the
    solver trace and the error's reason.  An InfeasibleError, past the
    decay bound or from its row, is "infeasible"; any other error is
    "failed"."""
    infeasible = isinstance(e, InfeasibleError)
    print(f"infeasible at mu={mu:g}, alpha={alpha:g} ({e})" if infeasible
          else f"solver error: {e}", file=sys.stderr)
    return _finish(out_dir, command, digest, "infeasible" if infeasible else "failed", timing,
                   mu=mu, alpha=alpha, reason=str(e), **_solver_trace(e.row, e.solution),
                   **fields)


# ---------------------------------------------------------------------------
# commands


def cmd_synth(config_path: str, out_override: str | None) -> int:
    """Design the gain at the config's (mu, alpha) and write certificate.json
    and synth_report.json, or only the report when the design is not
    certified (`_uncertified`)."""
    cfg, digest = _load_json(config_path)
    plant = _build_plant(cfg)
    mu, alpha, eps = _design(cfg, _scalar_weight)
    out_dir, _ = _output_settings(cfg, out_override)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    try:
        cert = synthesize(plant, mu, alpha, eps=eps)
    except SynthesisError as e:
        return _uncertified(e, out_dir, "synth", digest,
                            time.perf_counter() - started, mu, alpha)
    timing = time.perf_counter() - started

    cert_path = out_dir / "certificate.json"
    payload = _certificate_payload(cert)
    _write(cert_path, [json.dumps(payload, indent=2, sort_keys=True).encode(), b"\n"])
    print(f"feasible: peak={cert.peak:.6g} gamma={cert.gamma:.6g} "
          f"omega={cert.omega:g} kappa={cert.kappa:.6g}")
    print(f"wrote {cert_path}")
    return _finish(out_dir, "synth", digest, "feasible", timing, [cert_path.name],
                   certificate=payload, margins=cert.margins,
                   **_solver_trace(cert.row, cert.solution))


def cmd_grid(config_path: str, out_override: str | None) -> int:
    cfg, digest = _load_json(config_path)
    plant = _build_plant(cfg)
    mu_grid, alpha_grid, eps = _design(cfg, _grid_weight)
    out_dir, _ = _output_settings(cfg, out_override)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    fmap = control.grid_search(plant, mu_grid, alpha_grid, eps=eps)
    timing = time.perf_counter() - started

    rows = []
    extra = {"cells": dict.fromkeys(("feasible", "infeasible", "failed"), 0),
             "failed_cells": [], "infeasible_cells": [], "newton_steps": [],
             "rows": [{"mu": r.mu, "s": r.s, "s_minus_gap": r.bound, "newton_steps": r.steps,
                       "verdict": r.verdict} for r in fmap.rows]}
    for c in fmap.cells:
        at = {"mu": c.mu, "alpha": c.alpha}
        rows.append((c.mu, c.alpha, c.status, c.peak, c.gamma))
        extra["cells"][c.status] += 1
        if c.status != "feasible":
            extra[f"{c.status}_cells"].append({**at, "reason": c.reason})
        extra["newton_steps"].append({**at, "steps": c.solution and c.solution.newton_steps})
    csv_path = out_dir / "feasibility.csv"
    _write_csv(csv_path, ["mu", "alpha", "status", "c", "gamma"],
               _feasibility_blocks(rows))
    best = fmap.best
    print(f"wrote {csv_path} ({len(rows)} cells, "
          f"{extra['cells']['feasible']} feasible)")
    if best is None:
        print("no feasible cell", file=sys.stderr)
        # a grid whose every cell failed says so, not "infeasible"
        status = "infeasible" if extra["cells"]["infeasible"] else "failed"
    else:
        extra.update(certificate=_certificate_payload(best), margins=best.margins,
                     best={"mu": best.mu, "alpha": best.alpha,
                           "gamma": best.gamma, "peak": best.peak})
        print(f"best: mu={best.mu:g} alpha={best.alpha:g} gamma={best.gamma:.6g}")
        status = "feasible"
    return _finish(out_dir, "grid", digest, status, timing, [csv_path.name], **extra)


def cmd_simulate(config_path: str, out_override: str | None,
                 gain_source: str) -> int:
    """Run the closed loop under the --gain source: "zero", a certificate
    file, or "auto", the design at the config's weights.  The report names
    the source, and the digest of a certificate file's bytes."""
    cfg, digest = _load_json(config_path)
    plant = _build_plant(cfg)
    out_dir, toggles = _output_settings(cfg, out_override)
    sim_cfg = _build_sim_config(cfg, plant, keep_snapshots=toggles["snapshots"])
    source = {"gain_source": gain_source}
    cert = None
    if gain_source not in ("auto", "zero"):
        cert, source["certificate_digest"] = _load_certificate(gain_source, plant)
    if gain_source == "auto":
        mu, alpha, eps = _design(cfg, _scalar_weight)
    out_dir.mkdir(parents=True, exist_ok=True)

    if gain_source == "auto":
        started = time.perf_counter()
        try:
            cert = synthesize(plant, mu, alpha, eps=eps)
        except SynthesisError as e:
            return _uncertified(e, out_dir, "simulate", digest,
                                time.perf_counter() - started, mu, alpha, **source)
    gain = Matrix(np.zeros((plant.m, plant.n))) if cert is None else cert.gain
    lyap = None if cert is None else invert_diag(cert.lyap_inv)

    started = time.perf_counter()
    try:
        traj = simulate(plant, gain, sim_cfg,
                        lyapunov=None if cert is None else (lyap, cert.mu))
    except BlowUpError as e:
        print(f"simulation blew up at t = {e.time:.6g}", file=sys.stderr)
        return _finish(out_dir, "simulate", digest, "blew_up",
                       time.perf_counter() - started, blowup_time=e.time, **source)
    timing = time.perf_counter() - started

    if cert is not None:
        params = pde.iss_bound_params(lyap, cert.mu, cert.alpha,
                                      float(traj.l2_norms[0]))
        energy = pde.disturbance_energy(sim_cfg.disturbance, traj.times,
                                        sim_cfg.grid)
        rhs = np.array([pde.iss_rhs(t, params, e)
                        for t, e in zip(traj.times, energy)])
        lyap_col = traj.lyapunov_values
    else:
        rhs = lyap_col = np.full(traj.times.size, np.nan)

    # (toggle, header, blocks); the blocks are made as they are written, so
    # a file toggled off formats nothing
    m = traj.control_traces.shape[1]
    manifest: list[str] = []
    for toggle, header, blocks in (
            ("norms", ["t", "l2_norm", "iss_rhs", "lyapunov"],
             _float_blocks(np.column_stack((traj.times, traj.l2_norms, rhs, lyap_col)))),
            ("controls", ["t"] + [f"u_{i + 1}" for i in range(m)],
             _float_blocks(np.column_stack((traj.times, traj.control_traces)))),
            ("snapshots", ["t", "z"] + [f"x_{i + 1}" for i in range(plant.n)],
             _snapshot_blocks(traj.times, traj.snapshots, sim_cfg.grid.centers))):
        if toggles[toggle]:
            manifest.append(f"{toggle}.csv")
            _write_csv(out_dir / manifest[-1], header, blocks)

    # the last state is finite, but its squared norm may overflow
    final_norm = float(traj.l2_norms[-1])
    print(f"simulated to t={sim_cfg.t_final:g} "
          f"({traj.times.size} records, final norm {final_norm:.6g})")
    for name in manifest:
        print(f"wrote {out_dir / name}")
    return _finish(out_dir, "simulate", digest, "completed", timing, manifest,
                   **source, records=int(traj.times.size),
                   final_l2_norm=final_norm if math.isfinite(final_norm) else None,
                   steps=traj.steps, dt=traj.dt, stride=traj.stride,
                   step_us=1e6 * timing / traj.steps if traj.steps else None,
                   # saturate returns the limit itself, so == finds it
                   saturated_record_fraction=float(np.mean(np.any(
                       np.abs(traj.control_traces) == plant.u_max, axis=1))))


def cmd_verify(config_path: str, out_override: str | None,
               cert_path: str | None, tolerance: float) -> int:
    if not cert_path or cert_path in ("auto", "zero"):
        raise ConfigError("--gain: verify needs a certificate file path")
    cfg, digest = _load_json(config_path)
    plant = _build_plant(cfg)
    design = _section(cfg, "design") if "design" in cfg else {}
    delta = _number(design, "design", "delta", positive=True, default=0.01)
    cert, cert_digest = _load_certificate(cert_path, plant)
    out_dir, _ = _output_settings(cfg, out_override)
    out_dir.mkdir(parents=True, exist_ok=True)

    started = time.perf_counter()
    source = {"tolerance": tolerance, "certificate_path": cert_path,
              "certificate_digest": cert_digest}
    # the design-side inequalities at the stored point, the analysis-side
    # ones for the stored gain at the same point, and the well-posedness
    # slacks; no solver is called
    try:
        synthesis = control.synthesis_margins(plant, cert)
        analysis = verify_analysis(plant, cert)
        wp = wellposedness_certificate(plant, cert.gain, delta=delta)
    except ConvergenceError as e:
        reason = f"margins could not be computed: {type(e).__name__}: {e}"
        print(f"verify error: {reason}", file=sys.stderr)
        return _finish(out_dir, "verify", digest, "failed",
                       time.perf_counter() - started, reason=reason, **source)
    margins = {f"{family}.{label}": value
               for family, values in (("synthesis", synthesis),
                                      ("analysis", analysis),
                                      ("wellposedness", wp.slacks))
               for label, value in values.items()}
    coeffs = iss_coefficients(invert_diag(cert.lyap_inv), cert.mu, cert.alpha)
    margins["certificate.iss_consistency"] = -max(
        abs(coeffs.omega - cert.omega), abs(coeffs.kappa - cert.kappa),
        abs(coeffs.gamma - cert.gamma))
    timing = time.perf_counter() - started

    # iss_consistency is minus the drift of the stored coefficients, -0.0
    # when they are exact; it is the worst margin only when it is nonzero
    worst_label = min((k for k, v in margins.items()
                       if v != 0.0 or k != "certificate.iss_consistency"),
                      key=margins.get)
    status = "pass" if all(v >= tolerance for v in margins.values()) else "fail"
    print(f"verify: {status.upper()} (worst margin {margins[worst_label]:.3e} "
          f"at {worst_label}, tolerance {tolerance:g})")
    return _finish(out_dir, "verify", digest, status, timing, margins=margins, **source,
                   wellposedness={"tau": wp.tau, "mu_wp": wp.mu_wp, "rho": wp.rho},
                   iss={"omega": coeffs.omega, "kappa": coeffs.kappa,
                        "gamma": coeffs.gamma})


# ---------------------------------------------------------------------------
# seeded example configs


_EXAMPLE_PLANT = {
    "lambda": [1.0, math.sqrt(2.0)],
    "H": [[0.25, 0.0], [-1.0, 0.25]],
    "B": [[1.0, 0.0], [0.0, 1.0]],
    "N": [[1.0, 0.0], [0.0, 1.0]],
    "u_max": [0.3, 0.3],
}

_EXAMPLE_DESIGN = {
    "plant": _EXAMPLE_PLANT,
    "design": {"mu": 1.0, "alpha": 0.5, "epsilon": 1e-6, "delta": 0.01},
    "simulation": {
        "M": 400,
        "cfl": 0.9,
        "t_final": 25.0,
        "disturbance": {"kind": "sinusoidal_product", "amplitude": 5.0,
                        "phases": ["sin", "cos"]},
        "initial": {"kind": "cosine_profile", "amplitude": 10.0,
                    "frequencies": [2.0, 1.0]},
    },
    "output": {"directory": "out", "norms": True, "controls": True,
               "snapshots": False},
}

_EXAMPLE_GRID = {
    "plant": _EXAMPLE_PLANT,
    "design": {
        "mu": {"min": 0.25, "max": 2.0, "count": 8},
        "alpha": {"min": 0.1, "max": 1.5, "count": 8},
        "epsilon": 1e-6,
    },
    "output": {"directory": "out"},
}


def _seed_configs(directory: Path) -> None:
    for path, payload in ((directory / "example_design.json", _EXAMPLE_DESIGN),
                          (directory / "example_gridsearch.json", _EXAMPLE_GRID)):
        _write(path, [json.dumps(payload, indent=2).encode(), b"\n"])
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# entry point


def _finite_float(text: str) -> float:
    """An option's number; anything that is not a finite float is a usage
    error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; each parse makes a
    fresh namespace from the defaults, so nothing carries between calls."""
    parser = argparse.ArgumentParser(
        prog="hypiss",
        description="Design, verify, and simulate saturated boundary "
                    "feedback for 1-D hyperbolic transport systems.")
    parser.add_argument("--seed-configs", action="store_true",
                        help="write the bundled example configs into the "
                             "current directory and exit")
    sub = parser.add_subparsers(dest="command")
    for name, text in (("synth", "design a gain and write its certificate"),
                       ("grid", "sweep the design over (mu, alpha) grids"),
                       ("simulate", "run the closed loop and write CSVs"),
                       ("verify", "recheck a stored certificate")):
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", required=True,
                         help="path to a JSON experiment config")
        cmd.add_argument("--out", default=None,
                         help="output directory (overrides the config)")
        if name == "simulate":
            cmd.add_argument("--gain", default="auto",
                             help="gain source: certificate path, 'zero', "
                                  "or 'auto' to design one (default)")
        if name == "verify":
            cmd.add_argument("--gain", default=None,
                             help="path to the certificate to verify")
            cmd.add_argument("--tolerance", type=_finite_float, default=0.0,
                             help="smallest acceptable margin (default 0)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors; fold that into the operational
        # error code and keep 0 for --help
        return 0 if e.code in (0, None) else 1

    try:
        if args.seed_configs:
            _seed_configs(Path.cwd())
            return 0
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        if args.command == "synth":
            return cmd_synth(args.config, args.out)
        if args.command == "grid":
            return cmd_grid(args.config, args.out)
        if args.command == "simulate":
            return cmd_simulate(args.config, args.out, args.gain)
        return cmd_verify(args.config, args.out, args.gain, args.tolerance)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # keep the exit contract: never a raw traceback
        print(f"error: {e}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
