"""Command-line driver wiring families, criteria, operators and
reconstruction into reproducible experiments.

Subcommands: ``family`` (emit node CSV), ``genfn`` (grid dump of the
generating function and weight), ``check`` (criteria verdict with JSON
report), ``interp`` (reconstruction run), ``kadets`` (perturbation sweep),
``counterexample`` (critical-magnitude quotient growth), and
``alpha-scaling`` (weight-exponent scaling across scaled perturbations).

Exit codes: 0 pass/success, 1 fail, 2 inconclusive, 64 usage error,
65 data error.  Every run is deterministic given its flags, including
seeds; reports embed the full configuration.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import shutil
import stat
import sys
import tempfile

import numpy as np

from . import nodes as _nodes
from .genfn import (Exponents, OverflowReported, _linear_fit,
                    build_generating_function, fit_weight_exponent)
from .criteria import (IntervalFamily, QuadratureStepError, Thresholds,
                       TrustRadiusError, continuous_ap, default_x_max,
                       full_verdict, select_subsequence)
from .hilbert import DiscreteHilbertOperator, probe_norm
from .interp import GridSpec, load_samples, reconstruct

SCHEMA_VERSION = 2

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class UsageError(ValueError):
    pass


# Estimated peak memory per window node and per grid row, rounded up from
# the peak RSS growth of ``check`` from K = 2^12 to 2^17 (about 800 bytes a
# node, weight grid included) and of ``genfn`` from 2e4 to 1e6 grid rows
# (about 57 bytes a row).
_NODE_BYTES = 1024
_ROW_BYTES = 64


def _memory_fits(count, item_bytes: int, what: str, flag: str) -> None:
    """Refuse, before anything is allocated, a request for ``count`` items
    whose estimated memory exceeds the machine's physical memory."""
    most = (os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
            // item_bytes)
    if count > most:
        raise UsageError(
            f"{flag} is too large: at about {item_bytes} bytes per {what}, "
            f"physical memory holds at most {most} {what}s")


def _make_family(spec: _nodes.FamilySpec, K: int) -> _nodes.NodeSequence:
    """make_family behind the --K size guard."""
    _memory_fits(2 * K + 1, _NODE_BYTES, "window node", f"--K {K}")
    return _nodes.make_family(spec, K)


def _parse_grid(text: str) -> GridSpec:
    """GridSpec.parse behind the --grid size guard."""
    grid = GridSpec.parse(text)
    _memory_fits(grid.count(), _ROW_BYTES, "grid row", f"--grid {text}")
    return grid


def _number(text: str, flag: str, kind=float):
    """``kind(text)``; a usage error naming ``flag`` if it does not parse."""
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"{flag}: {text!r} is not a valid "
                         f"{kind.__name__}") from None


def _numbers(text: str, flag: str) -> list[float]:
    """The floats of a comma-list flag."""
    return [_number(t, flag) for t in text.split(",")]


def _check_lengths(flag: str, *lengths) -> None:
    """Refuse lengths that are not positive and finite."""
    for x in lengths:
        if not 0.0 < x < float("inf"):
            raise UsageError(f"{flag}: a length must be positive and "
                             f"finite, got {x:g}")


@contextlib.contextmanager
def _reach_of(flag: str | None):
    """Prefix a trust-radius refusal with ``flag``, which set the reach."""
    try:
        yield
    except TrustRadiusError as exc:
        if not flag:
            raise
        raise UsageError(f"{flag}: {exc}") from None


def _parse_family(text: str) -> _nodes.FamilySpec:
    """Family spec grammar: kind[:d[:key=value ...]], e.g. signed:0.25."""
    parts = text.split(":")
    kind = parts[0]
    d = 0.0
    kwargs = {}
    for part in parts[1:]:
        if "=" in part:
            key, val = part.split("=", 1)
            if key == "delta0":
                kwargs["delta0"] = _number(val, "--family")
            elif key == "seed":
                kwargs["seed"] = _number(val, "--family", int)
            else:
                raise UsageError(f"--family: unknown option {key!r}")
        else:
            d = _number(part, "--family")
    return _family_spec("--family", kind, d, **kwargs)


def _family_spec(flag: str, kind: str, d: float = 0.0,
                 **kwargs) -> _nodes.FamilySpec:
    """A FamilySpec whose rejection is a usage error naming ``flag``."""
    try:
        return _nodes.FamilySpec(kind, d, **kwargs)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from exc


def _check_p(p: float) -> Exponents:
    if not 1.0 < p < float("inf"):
        raise UsageError(f"--p {p:g}: complete interpolating sequences "
                         "exist only for 1 < p < inf")
    return Exponents(p)


def _load_sequence(args) -> _nodes.NodeSequence:
    if getattr(args, "nodes", None):
        return _nodes.load_nodes(args.nodes)
    if getattr(args, "family", None):
        spec = _parse_family(args.family)
        return _make_family(spec, args.K)
    raise UsageError("provide --nodes FILE or --family SPEC")


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _write_json(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True,
                      default=_json_default) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


_CSV_BLOCK = 1 << 12  # rows per run of :func:`_csv_text`

# The tables of _csv_text, as uint32 words of 4 ASCII bytes: the digits
# of 0000..9999; at 48 (i + 24) + j + 24, the mask keeping bytes i to
# j - 1, each clipped to 0..4; the sign, the point and the separators.
# Then the trailing zeros of 0000..9999, and 10^0..10^20, exact.
_DIGITS = np.indices((10,) * 4, np.uint8).reshape(4, -1)
_WORDS = (_DIGITS.T + ord("0")).copy().view(np.uint32).ravel()
_ENDS = np.clip(np.arange(-24, 24), 0, 4)
_KEEP = (255 * ((_ENDS[:, None, None] <= np.arange(4))
                & (np.arange(4) < _ENDS[:, None]))).astype(
                    np.uint8).view(np.uint32).ravel()
_MINUS, _POINT, _COMMA, _CRLF = np.frombuffer(
    b"-\0\0\0.\0\0\0,\0\0\0\r\n\0\0", np.uint32)
_TZ = ((_DIGITS[3] == 0) * (1 + (_DIGITS[2] == 0) * (
    1 + (_DIGITS[1] == 0) * (1 + (_DIGITS[0] == 0))))).astype(np.int8)
_F10 = np.cumprod(np.full(21, 10.0)) / 10.0


def _write_csv(path: str | None, header, cols) -> None:
    """Write whole float columns as CSV: :func:`_stream_csv` with the
    columns as its one block."""
    _stream_csv(path, header, [cols])


def _split(a):
    """Veltkamp's split of ``a`` into two 26-bit halves."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


def _csv_text(cols) -> str:
    """``csv.writer``'s text for rows given as equal-length float64
    columns, each value's ``repr``: see :func:`_stream_csv`."""
    v = np.stack(cols, axis=1).ravel()
    a = np.abs(v)
    mant, ex = np.frexp(a)
    fixed = (a >= 1e-4) & (a < 2.0 ** 53) & (mant != 0.5)
    a = np.where(fixed, a, 1.5)
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    t = _F10[s]
    p = a * t
    (ah, al), (th, tl) = _split(a), _split(t)
    err = ((ah * th - p) + ah * tl + al * th) + al * tl
    n = np.rint(err)
    D, r = p.astype(np.int64) + n.astype(np.int64), err - n
    H = np.ldexp(t, np.where(fixed, ex, 1) - 54)
    above = np.ceil(r + H) - 1.0  # B - D
    B = D + above.astype(np.int64)
    count = above - np.floor(r - H)  # B - A
    b10, b100 = B - B // 10 * 10, B - B // 100 * 100
    r10 = D - D // 10 * 10
    d10 = r10 + r  # from the multiple of 10 below
    ten, hundred = b10 < count, b100 < count
    C = np.where(hundred, B - b100,
                 np.where(ten, D - r10 + 10 * (d10 > 5.0), D))
    doubt = ((D < 10 ** 16) | (D >= 10 ** 17)
             | ~hundred & np.where(ten, d10 == 5.0, np.abs(r) == 0.5))
    plain = fixed & ~doubt
    C = np.where(plain, C, 0)  # ±0.0, and the values that take repr
    s = np.where(plain, s, 16)
    # A value's text is its sign, C's digits from 10^s up, a point and
    # those below, in a field as wide as the run's widest value; the bytes
    # not printed are NUL, deleted once for the whole run.  First C's
    # 4-digit words, units first, and its count of trailing zeros.
    top = max(int(s.max()), 16)  # the highest weight printed: C < 10^17
    words, tz, low = [], np.zeros(C.shape, np.int8), np.ones(C.shape, bool)
    for _ in range(top // 4 + 1):
        q = C // 10000
        words.append(C - q * 10000)
        tz += _TZ.take(words[-1]) * low
        low &= words[-1] == 0
        C = q
    # the mask of each word is at its index less 196 j: the integer part
    # keeps 10^s up to 10^16 (or just 10^s), the fraction 10^(s-1) down to
    # its last nonzero digit
    whole = (27 - np.maximum(s, 16)) * 48 + 28 - s
    frac = (28 - s) * 48 + 28 - np.minimum(tz, s - 1)
    parts = ([np.where(np.signbit(v), _MINUS, 0)]
             + [_WORDS.take(words[j]) & _KEEP.take(whole + 196 * j)
                for j in range(top // 4, int(s.min()) // 4 - 1, -1)]
             + [_POINT]
             + [_WORDS.take(words[j]) & _KEEP.take(frac + 196 * j)
                for j in range((int(s.max()) - 1) // 4, -1, -1)])
    odd = np.flatnonzero(np.where(fixed, doubt, v != 0.0))
    reprs = np.array([repr(x) for x in v[odd].tolist()], dtype=bytes)
    width = max(len(parts), -(-reprs.itemsize // 4))
    field = np.zeros((v.size, width + 1), np.uint32)
    for c, part in enumerate(parts):
        field[:, c] = part
    field[odd, :width] = reprs.astype(f"S{4 * width}").view(
        np.uint32).reshape(odd.size, width)
    rows = field.reshape(len(cols[0]), len(cols), width + 1)
    rows[:, :, -1] = _COMMA
    rows[:, -1, -1] = _CRLF
    text = rows.view(np.uint8).ravel()
    return np.compress(text != 0, text).tobytes().decode("ascii")


def _stream_csv(path: str | None, header, blocks) -> None:
    """Write CSV rows to ``path``, or to standard output when it is empty:
    the shortest round-trip ``repr`` of each value, comma-separated, CRLF
    line ends (``csv.writer``'s bytes).

    ``blocks`` yields blocks of rows, each a list of float columns, and is
    consumed as the rows are written, so a caller can evaluate its rows
    block by block.  Within a block the rows go out in runs of
    ``_CSV_BLOCK``, each formatted from whole columns by
    :func:`_csv_text`, so the text held at once does not grow with the
    number of rows.  ``repr`` writes the shortest decimal that rounds back
    to ``v``, the nearest if several, found here exactly.  Where ``1e-4 <=
    |v| < 2^53`` and the mantissa is no power of two, ``repr`` writes fixed
    notation and the rounding interval is symmetric.  With ``s = 16 -
    floor(log10 |v|)``, ``10^s`` is exact and Dekker's two-product makes
    ``|v| 10^s = D + r`` exact, ``D`` an integer of 17 digits; the
    half-width ``H = 10^s ulp / 2 < 12`` and ``r -+ H`` are exact too.  Of
    the fewer than 24 integers inside, ``repr``'s digits are the one
    multiple of 100 if there is one, else the multiple of 10 nearest ``D +
    r`` if one is inside, else ``D`` (an end of the interval that is an
    integer ends in 5, so it decides nothing).  A tie between the two
    nearest candidates, a ``D`` not of 17 digits, and every value outside
    that range but ``±0.0`` (NaN, infinities, subnormals, tiny and huge
    values, powers of two) take ``repr`` itself, value by value.

    The output is atomic.  The rows are staged in a new file beside a
    regular (or new) ``path`` and moved onto it by ``os.replace``; any
    other target, standard output included, gets a copy of an anonymous
    temporary file.  Either happens only once ``blocks`` is exhausted, so
    a run that raises, in ``blocks`` too, or is interrupted writes nothing
    and leaves no file or truncated CSV.
    """
    fh, staged = _staging_file(path)
    try:
        with fh:
            fh.write(",".join(header) + "\r\n")
            for cols in blocks:
                for c0 in range(0, len(cols[0]), _CSV_BLOCK):
                    fh.write(_csv_text([c[c0:c0 + _CSV_BLOCK] for c in cols]))
            if staged is None:
                fh.seek(0)
                if not path:
                    shutil.copyfileobj(fh, sys.stdout)
                else:
                    with open(path, "w", newline="",
                              encoding="utf-8") as out:
                        shutil.copyfileobj(fh, out)
        if staged is not None:
            os.chmod(staged, _new_file_mode(path))
            os.replace(staged, path)
    except BaseException:
        if staged is not None:
            with contextlib.suppress(OSError):
                os.unlink(staged)
        raise


def _staging_file(path: str | None):
    """(file, name): a new file beside ``path`` when ``path`` is a
    regular file or does not exist and its directory takes one, else an
    anonymous temporary file (name None).  That one is copied to ``path``
    at the end, so opening ``path`` fails as late, and with the same
    error, as an unstaged write would."""
    if path and (not os.path.lexists(path) or (
            os.path.isfile(path) and not os.path.islink(path))):
        base = os.path.basename(path)
        try:
            fd, name = tempfile.mkstemp(
                prefix=f".{base}.", suffix=".part",
                dir=os.path.dirname(path) or ".")
        except OSError:
            pass
        else:
            return open(fd, "w", newline="", encoding="utf-8"), name
    return tempfile.TemporaryFile("w+", newline="", encoding="utf-8"), None


def _new_file_mode(path: str) -> int:
    """The permission bits that ``open(path, "w")`` leaves: the existing
    file's, or for a new file 0o666 less the umask."""
    if os.path.exists(path):
        return stat.S_IMODE(os.stat(path).st_mode)
    umask = os.umask(0o022)
    os.umask(umask)
    return 0o666 & ~umask


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_family(args) -> int:
    spec = _parse_family(args.family)
    seq = _make_family(spec, args.K)
    _nodes.save_nodes(seq, args.output)
    return EXIT_PASS


def _cmd_genfn(args) -> int:
    grid = _parse_grid(args.grid)
    seq = _load_sequence(args)
    gf = build_generating_function(seq)
    x = grid.points()

    def rows():
        c0 = 0
        for S, F in gf.value_weight_blocks(x):
            yield [x[c0:c0 + S.size], S.real, S.imag, F]
            c0 += S.size

    with _reach_of(f"--grid {args.grid}"):
        _stream_csv(args.output, ["x", "re_S", "im_S", "F"], rows())
    return EXIT_PASS


def _verdict_payload(args, seq, rep) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": {
            "command": "check",
            "family": getattr(args, "family", None),
            "nodes": getattr(args, "nodes", None),
            "p": args.p,
            "K": getattr(args, "K", None),
            "xmax": args.xmax,
            "seed": args.seed,
            "thresholds": vars(Thresholds()),
            "node_count": len(seq),
        },
        "report": dataclasses.asdict(rep),
    }


def _cmd_check(args) -> int:
    p = _check_p(args.p)
    if args.xmax is not None:
        _check_lengths("--xmax", args.xmax)
    seq = _load_sequence(args)
    if args.xmax is None:
        _default_xmax(seq.half_width, f"--nodes {args.nodes}", "--xmax")
    gf = build_generating_function(seq)
    with _reach_of(args.xmax and f"--xmax {args.xmax:g}"):
        rep = full_verdict(seq, p, gf=gf, x_max=args.xmax)
    payload = _verdict_payload(args, seq, rep)
    if args.with_operator_probe:
        # keep the anchors, each within 1 of 4j, inside the trust radius
        # of the far-tail series: 4 j_max + 1 <= (K+1)/4
        j_max = min(256, seq.half_width // 16,
                    np.floor((gf.trust_radius - 1.0) / 4.0))
        sel = select_subsequence(seq, r=1.0, j_max=j_max)
        eps = gf.separation / 10.0
        op = DiscreteHilbertOperator(sel.anchors, sel.anchors + 1j * eps)
        logw = gf.node_derivative_logabs(sel.node_indices)
        w = np.exp(p.p * (logw - np.max(logw)))
        probe = probe_norm(op, w, p, trials=args.probe_trials,
                           seed=args.seed)
        payload["operator_probe"] = {
            "anchor_count": len(sel.anchors),
            "eps": eps,
            "lower_bound": probe.lower_bound,
        }
    _write_json(payload, args.json)
    return {"PASS": EXIT_PASS, "FAIL": EXIT_FAIL}.get(rep.verdict,
                                                      EXIT_INCONCLUSIVE)


def _cmd_interp(args) -> int:
    grid = _parse_grid(args.grid)
    seq = _load_sequence(args)
    gf = build_generating_function(seq)
    samples = load_samples(args.samples)
    try:
        rec = reconstruct(gf, samples, grid)
    except TrustRadiusError as exc:
        # reconstruct refuses a far sample before it evaluates: that
        # refusal, if any, names --samples, and any other --grid
        with _reach_of(f"--samples {args.samples}"):
            gf.node_derivatives(samples.indices)
        raise UsageError(f"--grid {args.grid}: {exc}") from None
    _write_csv(args.output, ["x", "re_f", "im_f"],
               [rec.grid, rec.values.real, rec.values.imag])
    return EXIT_PASS


def _cmd_kadets(args) -> int:
    p = _check_p(args.p)
    boundary = 1.0 / (2.0 * p.p_max)
    d_values = sorted(_numbers(args.d_values, "--d-values"))
    if any(d < 0.0 for d in d_values):
        raise UsageError("--d-values: magnitudes are not negative; the "
                         "sign comes from --orientations")
    orientations = args.orientations.split(",")
    if args.xmax is not None:
        _check_lengths("--xmax", args.xmax)
    signs = {"outward": 1.0, "inward": -1.0}
    if not set(orientations) <= signs.keys():
        raise UsageError("--orientations: the choices are outward,inward")
    # every family is checked before any verdict runs
    specs = {o: [_family_spec("--d-values", "signed", signs[o] * d)
                 for d in d_values]
             for o in orientations}
    rows = []
    for orient in orientations:
        seen_fail = False
        for d, spec in zip(d_values, specs[orient]):
            with _reach_of(args.xmax and f"--xmax {args.xmax:g}"):
                rep = full_verdict(_make_family(spec, args.K), p,
                                   x_max=args.xmax)
            verdict = rep.verdict
            if verdict == "FAIL":
                seen_fail = True
            elif seen_fail and verdict == "PASS":
                # verdicts may not recover once lost along the sweep
                verdict = "INCONCLUSIVE"
            rows.append({"orientation": orient, "d": d, "verdict": verdict,
                         "ap_sup": rep.ap_sup,
                         "growth_slope": rep.growth_slope,
                         "growth_r2": rep.growth_r2,
                         "ring_ratio": rep.ring_ratio})
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {"command": "kadets", "p": args.p, "K": args.K,
                   "d_values": d_values, "orientations": orientations,
                   "xmax": args.xmax, "boundary": boundary},
        "rows": rows,
    }
    _write_json(payload, args.json)
    return EXIT_PASS


# where counterexample's weight-exponent fit starts; it ends at K/10
_FIT_FROM = 32.0


def _cmd_counterexample(args) -> int:
    p = _check_p(args.p)
    d_crit = 1.0 / (2.0 * p.p_max)
    if args.K / 10 <= _FIT_FROM:
        raise UsageError(
            f"--K {args.K} is too small: the weight-exponent fit runs from "
            f"x = {_FIT_FROM:g} to K/10, so the window needs --K "
            f"{int(10 * _FIT_FROM) + 1} or more")
    # by default 2^5 up to full_verdict's x_max
    top = int(np.log2(default_x_max(args.K)))
    X_values = sorted(_numbers(args.x_values, "--x-values")
                      if args.x_values
                      else [float(2 ** m) for m in range(5, top + 1)])
    _check_lengths("--x-values", *X_values)
    mant, expo = np.frexp(X_values)  # X = 2^(expo - 1) when mant is 1/2
    if np.any(mant != 0.5):
        raise UsageError(f"--x-values: {X_values[np.argmax(mant != 0.5)]:g} "
                         "is not a power of two, an interval sweep length")
    x_max = X_values[-1]
    if x_max <= _FIT_FROM:
        raise UsageError(
            f"--x-values: the largest length must exceed {_FIT_FROM:g}, "
            f"where the weight-exponent fit starts; got {x_max:g}")
    results = {}
    for orient, sign in (("outward", 1.0), ("inward", -1.0)):
        spec = _nodes.FamilySpec("signed", sign * d_crit)
        seq = _make_family(spec, args.K)
        gf = build_generating_function(seq)
        fit = fit_weight_exponent(gf, _FIT_FROM,
                                  min(4096.0, x_max, args.K / 10))
        quad = gf.separation / 8.0
        fam = IntervalFamily(x_max=x_max, m_min=int(expo[0] - 1),
                             m_max=int(expo[-1] - 1))
        with _reach_of("--x-values"):
            ap = continuous_ap(gf, p, fam, quad)
        # origin-anchored quotients at the requested lengths
        t = np.log1p(np.asarray(X_values)) ** (p.p - 1.0)
        q = ap.level_max[expo - expo[0]]
        slope, _, r2 = _linear_fit(t, q)
        results[orient] = {
            "d": sign * d_crit,
            "weight_exponent": fit.slope,
            "quotients": [{"X": X, "quotient": float(qq)}
                          for X, qq in zip(X_values, q)],
            "slope_vs_logp": slope,
            "r2": r2,
            "ring_ratio": ap.ring_ratio,
        }
    growing = max(results, key=lambda o: results[o]["slope_vs_logp"])
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {"command": "counterexample", "p": args.p, "K": args.K,
                   "X_values": X_values, "critical_d": d_crit},
        "growing_orientation": growing,
        "orientations": results,
    }
    _write_json(payload, args.json)
    return EXIT_PASS


def _cmd_alpha_scaling(args) -> int:
    spec = _parse_family(args.family)
    alphas = _numbers(args.alphas, "--alphas")
    if not 1.0 <= args.fit_min < args.fit_max <= args.K / 10:
        raise UsageError(
            f"--fit-min {args.fit_min:g} and --fit-max {args.fit_max:g} "
            f"must satisfy 1 <= --fit-min < --fit-max <= K/10 = "
            f"{args.K / 10:g}")
    # every scaled family is checked before any fit runs
    scaled_specs = [
        _family_spec("--alphas", "integer") if alpha == 0.0 else
        _family_spec("--alphas", spec.kind, alpha * spec.d,
                     delta0=alpha * spec.delta0, seed=spec.seed)
        for alpha in alphas
    ]
    base = _make_family(spec, args.K)
    gf0 = build_generating_function(base)
    base_fit = fit_weight_exponent(gf0, args.fit_min, args.fit_max)
    rows = []
    for alpha, scaled in zip(alphas, scaled_specs):
        seq = _make_family(scaled, args.K)
        gf = build_generating_function(seq)
        fit = fit_weight_exponent(gf, args.fit_min, args.fit_max)
        rows.append({
            "alpha": alpha,
            "exponent": fit.slope,
            "expected": alpha * base_fit.slope,
            "r2": fit.r2,
        })
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {"command": "alpha-scaling", "family": args.family,
                   "K": args.K, "alphas": alphas,
                   "fit_range": [args.fit_min, args.fit_max]},
        "base_exponent": base_fit.slope,
        "rows": rows,
    }
    _write_json(payload, args.json)
    return EXIT_PASS


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="pwinterp",
                     description="complete-interpolating-sequence toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_source(sp, with_K=True):
        sp.add_argument("--nodes", help="node CSV (header k,re,im)")
        sp.add_argument("--family", help="family spec kind[:d[:key=val]]")
        if with_K:
            sp.add_argument("--K", type=int, default=1 << 15,
                            help="window half-size for generated families")

    sp = sub.add_parser("family", help="emit a generated family as CSV")
    sp.add_argument("--family", required=True)
    sp.add_argument("--K", type=int, required=True)
    sp.add_argument("-o", "--output", required=True)
    sp.set_defaults(func=_cmd_family)

    sp = sub.add_parser("genfn", help="dump S and F over a grid as CSV")
    add_source(sp)
    sp.add_argument("--grid", required=True, help="xmin:xmax:step")
    sp.add_argument("-o", "--out", "--output", dest="output", default=None)
    sp.set_defaults(func=_cmd_genfn)

    sp = sub.add_parser("check", help="criteria verdict (exit 0/1/2)")
    add_source(sp)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--xmax", type=float, default=None)
    sp.add_argument("--json", default=None, help="write the JSON report here")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--with-operator-probe", action="store_true")
    sp.add_argument("--probe-trials", type=int, default=16)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("interp", help="reconstruct from samples")
    add_source(sp)
    sp.add_argument("--samples", required=True, help="CSV k,re_a,im_a")
    sp.add_argument("--grid", required=True, help="xmin:xmax:step")
    sp.add_argument("-o", "--out", "--output", dest="output", default=None)
    sp.set_defaults(func=_cmd_interp)

    sp = sub.add_parser("kadets", help="perturbation-magnitude sweep")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--K", type=int, default=1 << 15)
    sp.add_argument("--d-values", default="0.05,0.1,0.2,0.25")
    sp.add_argument("--orientations", default="outward,inward")
    sp.add_argument("--xmax", type=float, default=None)
    sp.add_argument("--json", default=None)
    sp.set_defaults(func=_cmd_kadets)

    sp = sub.add_parser("counterexample",
                        help="critical-magnitude quotient growth")
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--K", type=int, default=1 << 15)
    sp.add_argument("--x-values", default=None,
                    help="comma list; default 2^5..2^13, or up to K/4")
    sp.add_argument("--json", default=None)
    sp.set_defaults(func=_cmd_counterexample)

    sp = sub.add_parser("alpha-scaling",
                        help="weight-exponent scaling across alpha*delta")
    sp.add_argument("--family", required=True)
    sp.add_argument("--K", type=int, default=1 << 15)
    sp.add_argument("--alphas", default="0.25,0.5,1")
    sp.add_argument("--fit-min", type=float, default=32.0)
    sp.add_argument("--fit-max", type=float, default=2048.0)
    sp.add_argument("--json", default=None)
    sp.set_defaults(func=_cmd_alpha_scaling)

    return parser


def _join_grid_flags(argv):
    """Fold ``--grid -10:10:0.01`` into ``--grid=...`` so the leading dash
    of a negative bound is not read as an option."""
    out = []
    for token in argv:
        if out and out[-1] == "--grid":
            out[-1] = f"--grid={token}"
        else:
            out.append(token)
    return out


def _default_xmax(K, flag: str, remedy: str) -> float:
    """``default_x_max(K)``, refused as a usage error naming ``flag``."""
    try:
        return default_x_max(K)
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}: give {remedy}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_grid_flags(argv))
    try:
        # integer flag floors
        for flag, low in (("K", 1), ("seed", 0), ("probe-trials", 0)):
            value = getattr(args, flag.replace("-", "_"), low)
            if value < low:
                raise UsageError(f"--{flag} {value}: must be at least {low}")
        # a generated window too small for the sweep's default --xmax
        if getattr(args, "xmax", 0) is None and not getattr(
                args, "nodes", None):
            _default_xmax(args.K, f"--K {args.K}", "--K 64 or more, or --xmax")
        return args.func(args)
    except (UsageError, TrustRadiusError, QuadratureStepError) as exc:
        sys.stderr.write(f"pwinterp: error: {exc}\n")
        return EXIT_USAGE
    except (ValueError, KeyError, OSError, OverflowReported) as exc:
        sys.stderr.write(f"pwinterp: data error: {exc}\n")
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
