"""The four benchmark workloads: seeded inputs, job lists and oracles.

Each workload is a fixed list of jobs that one client runs back to back
(a closed loop).  Inputs are generated here from the workload seed before
any timing starts, so the library only ever receives finished node
sequences, samples, anchors or CLI arguments.  Every job has an oracle;
oracles run after the timed passes and after peak memory is read, so their
own cost and memory never reach the end-to-end metrics.

Importing this module imports pwinterp with numpy and scipy; the worker
times that import as part of set-up.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import pwinterp as pw
from pwinterp import cli
from pwinterp.nodes import NodeSequence

K_REAL = 1 << 15      # window half-size of the real-node workloads
K_OFFAXIS = 4096      # window half-size of the complex-node workload
P = 2.0               # integrability exponent of every verdict
CRITICAL_D = 1.0 / (2.0 * max(P, P / (P - 1.0)))   # 1/(2 max(p, q)) = 1/4
GENFN_GRID = "-4000:4000:0.01"
GENFN_FAMILY = "signed:0.2"   # the CLI spelling of GENFN_SPEC
GENFN_SPEC = pw.FamilySpec("signed", 0.2)
GENFN_CHECKED_ROWS = 1000


@dataclass
class Job:
    """One unit of closed-loop work and the oracle for its output.

    ``check`` returns None when the output is right and a one-line reason
    when it is not.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    jobs: list[Job]
    cleanup: Callable[[], None] = lambda: None


def _expect_verdict(allowed):
    def check(rep):
        if rep.verdict not in allowed:
            return f"verdict {rep.verdict}, expected one of {sorted(allowed)}"
        return None
    return check


def _finite_report(rep):
    if rep.verdict not in ("PASS", "FAIL", "INCONCLUSIVE"):
        return f"unknown verdict {rep.verdict!r}"
    fields = (rep.separation, rep.carleson_sup, rep.ap_sup,
              rep.growth_slope, rep.growth_r2, rep.ring_ratio)
    if not all(np.isfinite(fields)):
        return f"non-finite report fields {fields}"
    return None


# ---------------------------------------------------------------------------
# verdict-sweep


def verdict_sweep(seed: int, workdir: str, K: int = K_REAL) -> Workload:
    """full_verdict at p = 2 on eight real generated families.

    Subcritical families must PASS and the signed families at the critical
    magnitude 1/(2 max(p, q)) must FAIL; the random family has no known
    answer and must only finish with a finite report.
    """
    passing = {"PASS"}
    cases = [
        (pw.FamilySpec("signed", 0.1), _expect_verdict(passing)),
        (pw.FamilySpec("signed", -0.1), _expect_verdict(passing)),
        (pw.FamilySpec("signed", CRITICAL_D), _expect_verdict({"FAIL"})),
        (pw.FamilySpec("signed", -CRITICAL_D), _expect_verdict({"FAIL"})),
        (pw.FamilySpec("integer"), _expect_verdict(passing)),
        (pw.FamilySpec("constant_shift", 0.2), _expect_verdict(passing)),
        (pw.FamilySpec("alternating", 0.2), _expect_verdict(passing)),
        (pw.FamilySpec("random", 0.35, seed=seed), _finite_report),
    ]
    jobs = []
    for spec, check in cases:
        seq = pw.make_family(spec, K)
        jobs.append(Job(f"verdict {spec.tag()}",
                        lambda seq=seq: pw.full_verdict(seq, P), check))
    return Workload(jobs)


# ---------------------------------------------------------------------------
# reconstruct


def _sinc_series(ks, a, x):
    """sum_k a_k sinc(x - k), the band-limited function with samples a_k
    on the integers, evaluated in blocks to keep memory small."""
    out = np.zeros(x.size)
    for c0 in range(0, ks.size, 16):
        kk, aa = ks[c0:c0 + 16], a[c0:c0 + 16]
        out += (aa[:, None] * np.sinc(x[None, :] - kk[:, None])).sum(axis=0)
    return out


def reconstruct(seed: int, workdir: str, K: int = K_REAL,
                n_samples: int = 200, k_span: int = 150) -> Workload:
    """Generating function plus reconstruction of seeded random samples
    on a grid of step 0.01, on the integer lattice and on signed:0.2."""
    rng = np.random.default_rng(seed)
    ks = np.sort(rng.choice(np.arange(-k_span, k_span + 1), n_samples,
                            replace=False))
    a = rng.standard_normal(n_samples)
    samples = pw.SampleSet(ks, a)
    grid = pw.GridSpec(-k_span - 10.0, k_span + 10.0, 0.01)
    # standard-normal samples keep f of order 1; the series error of the
    # lattice at K = 2^15 is about 1e-9
    tol_sinc = 1e-6

    def lattice_check(rec):
        if not np.all(np.abs(rec.values.imag) <= tol_sinc):
            return "imaginary part on a real lattice"
        err = float(np.max(np.abs(rec.values.real
                                  - _sinc_series(ks, a, rec.grid))))
        if not err <= tol_sinc:
            return f"sinc-series error {err:.3e} > {tol_sinc:.3e}"
        return None

    signed_seq = pw.make_family(pw.FamilySpec("signed", 0.2), K)
    data = dict(zip(ks.tolist(), a.tolist()))

    def interpolation_check(rec):
        # grid points that sit on a node (up to rounding of the grid) must
        # reproduce the data there: a_k on support nodes, 0 elsewhere
        pos = signed_seq.positions.real
        i = np.clip(np.searchsorted(pos, rec.grid), 1, pos.size - 1)
        near = np.where(np.abs(pos[i] - rec.grid) < np.abs(pos[i - 1]
                                                          - rec.grid),
                        i, i - 1)
        on_node = np.abs(pos[near] - rec.grid) < 1e-9
        hit_k = signed_seq.indices[near[on_node]]
        if not set(data) <= set(hit_k.tolist()):
            return "a support node has no grid point on it"
        expect = np.array([data.get(int(k), 0.0) for k in hit_k])
        err = float(np.max(np.abs(rec.values[on_node] - expect)))
        if not err <= 1e-8:
            return f"interpolation identity error {err:.3e} > 1e-8"
        return None

    jobs = []
    for seq, check in ((pw.integer_lattice(K), lattice_check),
                       (signed_seq, interpolation_check)):
        def run(seq=seq):
            gf = pw.build_generating_function(seq)
            return pw.reconstruct(gf, samples, grid)
        jobs.append(Job(f"reconstruct {seq.tag}", run, check))
    return Workload(jobs)


# ---------------------------------------------------------------------------
# offaxis


def offaxis(seed: int, workdir: str, K: int = K_OFFAXIS,
            j_max: int = 16) -> Workload:
    """Verdicts on two non-real windows and probe points on 2 j_max + 1
    anchors of the seeded one.

    Both windows have |lambda_k - k| <= 0.2 < 1/4, so by Kadets' theorem
    they are complete interpolating: FAIL is wrong, INCONCLUSIVE allowed.
    """
    rng = np.random.default_rng(seed)
    k = np.arange(-K, K + 1)
    windows = [
        NodeSequence(k, k + 0.1j * (-1.0) ** k, tag="alternating 0.1i"),
        NodeSequence(k, k + 1j * rng.uniform(-0.2, 0.2, k.size),
                     tag="random 0.2i"),
    ]
    not_fail = _expect_verdict({"PASS", "INCONCLUSIVE"})
    jobs = [Job(f"verdict {seq.tag}", lambda seq=seq: pw.full_verdict(seq, P),
                not_fail) for seq in windows]
    seq = windows[1]
    sel = pw.select_subsequence(seq, r=1.0, j_max=j_max)

    def probes():
        gf = pw.build_generating_function(seq)
        return gf, pw.select_probe_points(gf, sel)

    def probe_check(out):
        gf, res = out
        if res.probes.size != sel.anchors.size:
            return f"{res.probes.size} probes for {sel.anchors.size} anchors"
        target = np.abs(gf.node_derivatives(sel.node_indices))
        mod = np.abs(gf.value(res.probes)) / res.eps
        resid = float(np.max(np.abs(mod - target) / target))
        # the 48 bisection rounds leave rounding error only
        if not resid <= 1e-9:
            return f"probe modulus residual {resid:.3e} > 1e-9"
        return None

    jobs.append(Job(f"probe points on {sel.anchors.size} anchors", probes,
                    probe_check))
    return Workload(jobs)


# ---------------------------------------------------------------------------
# genfn-dump


def genfn_dump(seed: int, workdir: str, K: int = K_REAL,
               grid: str = GENFN_GRID) -> Workload:
    """In-process ``pwinterp genfn`` writing the grid dump to a file.

    The oracle checks the row count and that a seeded subset of rows equals,
    bit for bit, S and F computed through the library.
    """
    argv = ["genfn", "--family", GENFN_FAMILY, "--K", str(K), "--grid", grid]
    x = pw.GridSpec.parse(grid).points()
    rows = np.sort(np.random.default_rng(seed).choice(
        x.size, min(GENFN_CHECKED_ROWS, x.size), replace=False))
    written = []
    expected = {}

    def run():
        path = os.path.join(workdir, f"genfn-{seed}-{len(written)}.csv")
        written.append(path)
        return cli.main(argv + ["-o", path]), path

    def expect():
        if not expected:
            seq = pw.make_family(GENFN_SPEC, K)
            gf = pw.build_generating_function(seq)
            S = gf.value(x)
            F = gf.weight(x)
            expected["rows"] = np.column_stack(
                [x[rows], S.real[rows], S.imag[rows], F[rows]])
        return expected["rows"]

    def check(out):
        code, path = out
        if code != 0:
            return f"exit code {code}"
        got = np.empty((rows.size, 4))
        want = set(rows.tolist())
        n_checked = n_rows = 0
        with open(path, encoding="utf-8") as fh:
            if fh.readline().rstrip("\r\n") != "x,re_S,im_S,F":
                return "bad CSV header"
            for n_rows, line in enumerate(fh, 1):
                if n_rows - 1 in want:
                    got[n_checked] = [float(t) for t in line.split(",")]
                    n_checked += 1
        if n_rows != x.size:
            return f"{n_rows} rows, expected {x.size}"
        ref = expect()
        bad = np.any(got.view(np.uint64) != ref.view(np.uint64), axis=1)
        if np.any(bad):
            return (f"{int(np.count_nonzero(bad))} checked rows differ, "
                    f"first at x = {float(ref[np.argmax(bad), 0])!r}")
        return None

    def cleanup():
        for path in written:
            if os.path.exists(path):
                os.remove(path)

    return Workload([Job("cli genfn " + GENFN_FAMILY, run, check)], cleanup)


WORKLOADS = {
    "verdict-sweep": verdict_sweep,
    "reconstruct": reconstruct,
    "offaxis": offaxis,
    "genfn-dump": genfn_dump,
}


# sizes at which warm_up runs each workload
WARM_UP_SIZES = {
    "verdict-sweep": dict(K=128),
    "reconstruct": dict(K=128, n_samples=3, k_span=3),
    "offaxis": dict(K=128, j_max=1),
    "genfn-dump": dict(K=128, grid="-4:4:0.01"),
}


def warm_up(name: str, workdir: str) -> None:
    """Run the named workload once at a tiny size, so lazy first-call work
    is paid during set-up and not by the first timed job."""
    small = WORKLOADS[name](0, workdir, **WARM_UP_SIZES[name])
    try:
        for job in small.jobs:
            job.run()
    finally:
        small.cleanup()
