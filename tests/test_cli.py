import contextlib
import csv
import functools
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pwinterp import cli
from pwinterp.cli import main
from pwinterp.hilbert import DiscreteHilbertOperator


def run_cli(args):
    return main(list(args))


# shortest round-trip reprs of every length, signed zero and non-finite
_ADVERSARIAL = np.array([5e-324, -0.0, 1e16, 9999999999999998.0, 1e-4,
                         9.999999999999999e-05, np.nan, np.inf, -np.inf,
                         1 / 3])


def _csv_writer_rows(fh, header, cols):
    """The ``csv.writer`` output that ``cli._write_csv`` reproduces."""
    writer = csv.writer(fh)
    writer.writerow(header)
    for row in zip(*cols):
        writer.writerow([repr(float(v)) for v in row])


class TestCsvOutput:
    @pytest.fixture
    def cols(self, monkeypatch):
        # blocks of 3 rows: several full blocks and a partial one
        monkeypatch.setattr(cli, "_CSV_BLOCK", 3)
        v = _ADVERSARIAL
        return [v, v[::-1].copy(), -v, np.roll(v, 3)]

    def test_file_bytes_match_csv_writer(self, tmp_path, cols):
        header = ["x", "re_S", "im_S", "F"]
        cli._write_csv(str(tmp_path / "new.csv"), header, cols)
        with open(tmp_path / "old.csv", "w", newline="",
                  encoding="utf-8") as fh:
            _csv_writer_rows(fh, header, cols)
        new = (tmp_path / "new.csv").read_bytes()
        assert new == (tmp_path / "old.csv").read_bytes()
        assert new.count(b"\r\n") == 11

    def test_stdout_matches_csv_writer(self, capsys, cols):
        header = ["x", "re_f", "im_f"]
        cli._write_csv(None, header, cols[:3])
        new = capsys.readouterr().out
        _csv_writer_rows(sys.stdout, header, cols[:3])
        assert new == capsys.readouterr().out


def _repr_rows(cols):
    """Each value's ``repr``, comma-separated, CRLF line ends."""
    return "".join(",".join(map(repr, row)) + "\r\n"
                   for row in zip(*(c.tolist() for c in cols)))


@functools.cache
def _formatter_cases():
    """About 1.5 million float64 values, by the way ``repr`` writes them."""
    rng = np.random.default_rng(24)
    # random mantissas under every exponent, signs mixed
    bits = ((rng.integers(0, 2, (2048, 200), dtype=np.uint64) << 63)
            | (np.arange(2048, dtype=np.uint64)[:, None] << 52)
            | rng.integers(0, 1 << 52, (2048, 200), dtype=np.uint64))
    grids = [x0 + h * np.arange(50_000) for x0, h in
             [(-4000.0, 0.01), (0.1, 0.001), (-1.0, 1e-4), (-30.0, 0.1),
              (1e12, 0.5), (0.0, 0.0625)]]
    u = rng.uniform(-1000.0, 1000.0, 100_000)
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    edges = np.concatenate([10.0 ** np.arange(-5, 18), [
        2.0 ** 53, 5e-324, np.finfo(float).tiny, 1e308]])
    near = np.concatenate([np.nextafter(twos, 0.0), twos,
                           np.nextafter(twos, np.inf)])
    for _ in range(3):
        edges = np.concatenate([np.nextafter(edges, 0.0), edges,
                                np.nextafter(edges, np.inf)])
    return {
        "bit patterns": bits.view(float).ravel(),
        "grid decimals": np.concatenate(grids),
        "rounded decimals": np.concatenate([np.round(u, k)
                                            for k in (0, 1, 3, 6, 9)]),
        "integers": np.concatenate([
            rng.integers(0, 1 << 53, 100_000).astype(float),
            np.arange(-5000.0, 5000.0)]),
        "lognormal": rng.lognormal(0.0, 12.0, 200_000)
        * rng.choice([-1.0, 1.0], 200_000),
        "powers of two": np.concatenate([near, -near]),
        "range edges": np.concatenate([edges, -edges]),
        "specials": np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
                              5e-324, -5e-324, 2.2e-308, 1e-310,
                              np.finfo(float).max]),
    }


class TestCsvFormatter:
    """``_stream_csv`` formats whole columns with numpy; the text must be
    ``repr``'s, value for value."""

    @pytest.mark.parametrize("case", list(_formatter_cases()))
    def test_matches_repr(self, case, tmp_path):
        v = _formatter_cases()[case]
        v = np.concatenate([v, np.zeros(-v.size % 4)])
        cols = list(v.reshape(-1, 4).T)
        cli._write_csv(str(tmp_path / "v.csv"), ["a", "b", "c", "d"], cols)
        got = (tmp_path / "v.csv").read_bytes().decode("ascii")
        want = "a,b,c,d\r\n" + _repr_rows(cols)
        if got != want:
            bad = [(g, w) for g, w in zip(got.split("\r\n"),
                                          want.split("\r\n")) if g != w]
            pytest.fail(f"{len(bad)} rows differ from repr, first {bad[0]}")

    def test_covers_a_million_values(self):
        assert sum(v.size for v in _formatter_cases().values()) >= 10 ** 6

    @settings(max_examples=300, deadline=None, derandomize=True,
              database=None)
    @given(values=st.lists(st.floats(), min_size=1, max_size=60),
           width=st.integers(1, 4))
    def test_any_floats(self, values, width):
        v = np.array(values[:len(values) // width * width] or values[:1]
                     * width)
        cols = list(v.reshape(-1, width).T)
        assert cli._csv_text(cols) == _repr_rows(cols)


class TestFamilyCommand:
    def test_emits_node_csv(self, tmp_path):
        out = tmp_path / "nodes.csv"
        code = run_cli(["family", "--family", "signed:0.25", "--K", "100",
                        "-o", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "k,re,im"
        assert len(rows) == 202  # header + 2K + 1

    def test_family_grammar_with_options(self, tmp_path):
        out = tmp_path / "nodes.csv"
        code = run_cli(["family", "--family", "signed:0.2:delta0=0.2",
                        "--K", "10", "-o", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = {int(r["k"]): float(r["re"])
                    for r in csv.DictReader(fh)}
        assert rows[0] == pytest.approx(0.2)

    def test_bad_kind_is_usage_error(self, tmp_path):
        code = run_cli(["family", "--family", "sined:0.2", "--K", "10",
                        "-o", str(tmp_path / "x.csv")])
        assert code == 64


class TestGenfnCommand:
    def test_lattice_weight_range(self, tmp_path):
        out = tmp_path / "genfn.csv"
        code = run_cli(["genfn", "--family", "integer", "--K", "4096",
                        "--grid", "-10:10:0.01", "-o", str(out)])
        assert code == 0
        with open(out) as fh:
            F = np.array([float(r["F"]) for r in csv.DictReader(fh)])
        assert F.min() >= 2 / np.pi - 0.01
        assert F.max() <= 1.0 + 0.01

    def test_header_schema(self, tmp_path):
        out = tmp_path / "genfn.csv"
        run_cli(["genfn", "--family", "integer", "--K", "512",
                 "--grid", "-2:2:0.5", "-o", str(out)])
        assert out.read_text().splitlines()[0] == "x,re_S,im_S,F"

    def test_overflow_is_data_error(self, tmp_path, capsys):
        nodes = tmp_path / "lat64.csv"
        run_cli(["family", "--family", "integer", "--K", "64",
                 "-o", str(nodes)])
        code = run_cli(["genfn", "--nodes", str(nodes),
                        "--grid", "10000:10001:0.5",
                        "-o", str(tmp_path / "g.csv")])
        assert code == 65
        err = capsys.readouterr().err
        assert err.startswith("pwinterp: data error: product magnitude")
        assert err.count("\n") == 1

    def test_grid_near_the_window_edge(self, tmp_path):
        # K = 20 leaves no point 24 slots from the window edge: the fine
        # grid runs pointwise, as the coarse one does, and both agree
        rows = []
        for step in ("0.1", "0.01"):
            out = tmp_path / f"g{step}.csv"
            code = run_cli(["genfn", "--family", "integer", "--K", "20",
                            "--grid", f"-3:3:{step}", "-o", str(out)])
            assert code == 0
            rows.append(np.loadtxt(out, delimiter=",", skiprows=1))
        coarse, fine = rows[0], rows[1][::10]
        np.testing.assert_allclose(fine[:, 0], coarse[:, 0], rtol=0,
                                   atol=1e-15)
        np.testing.assert_allclose(fine[:, 1:3], coarse[:, 1:3], rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(fine[:, 3], coarse[:, 3], rtol=1e-12)

    @pytest.mark.parametrize("grid", ["1:0:0.1", "nan:1:0.1", "0:1:inf"])
    def test_reversed_or_non_finite_grid_is_data_error(self, grid, tmp_path,
                                                      capsys):
        out = tmp_path / "g.csv"
        code = run_cli(["genfn", "--family", "integer", "--K", "512",
                        "--grid", grid, "-o", str(out)])
        assert code == 65
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "finite x_min < x_max" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["genfn", "interp"])
    def test_grid_beyond_memory_is_usage_error(self, command, tmp_path,
                                               capsys, monkeypatch):
        import pwinterp.nodes
        from pwinterp.interp import GridSpec

        def no_array(*args, **kwargs):
            raise AssertionError("refusal must come before any array")
        monkeypatch.setattr(pwinterp.nodes, "make_family", no_array)
        monkeypatch.setattr(GridSpec, "points", no_array)
        extra = (["--samples", str(tmp_path / "absent.csv")]
                 if command == "interp" else [])
        code = run_cli([command, "--family", "integer", "--K", "512",
                        "--grid", "0:1e15:1e-6", *extra,
                        "-o", str(tmp_path / "g.csv")])
        assert code == 64
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--grid 0:1e15:1e-6" in err


def _write_nodes(path, k, pos):
    from pwinterp import NodeSequence, save_nodes
    save_nodes(NodeSequence(k, pos), str(path))
    return ["--nodes", str(path)]


def _window_args(tmp_path, name):
    """CLI arguments for the windows of the routing cases."""
    if name == "complex":  # the K = 128 window k + 0.1i(-1)^k
        k = np.arange(-128, 129)
        return _write_nodes(tmp_path / "c.csv", k, k + 0.1j * (-1.0) ** k)
    if name == "loaded":  # the K = 256 lattice with a node at 1/2
        k = np.arange(-256, 257).astype(complex)
        return _write_nodes(tmp_path / "l.csv", np.arange(-256, 258),
                            np.insert(k, 257, 0.5))
    family, K = name.split("/")
    return ["--family", family, "--K", K]


# (window, grid) for every way ``value`` and ``weight`` route the grid
_GENFN_ROUTES = {
    # a real bulk window: 60001 rows, three blocks and a partial one
    "bulk": ("signed:0.2/4096", "-300:300:0.01"),
    # S = +-0.0 on every integer
    "exact hits": ("integer/4096", "-1000:1000:0.0625"),
    # no cell 24 slots inside the window: pointwise
    "near the window edge": ("integer/20", "-3:3:0.01"),
    # S pointwise, F on the bulk kernel
    "complex window": ("complex", "-30:30:0.1"),
    # not a perturbed lattice: pointwise
    "loaded window": ("loaded", "-50:50:0.005"),
    "fewer than 256 points": ("signed:0.2/4096", "0:2.5:0.01"),
    # F from the grid kernel, S from the point kernel
    "dyadic midpoint grid": ("signed:0.2/4096", "-199.5:199.5:1"),
    "dyadic grid of 51200 rows": ("signed:0.2/4096",
                                  "-99.998046875:99.998046875:0.00390625"),
}


class TestGenfnStreaming:
    """``genfn`` writes its rows block by block; the bytes are those of
    ``_write_csv`` on ``value`` and ``weight`` of the whole grid, and a run
    that fails writes nothing."""

    @staticmethod
    def _reference(tmp_path, args, grid):
        from pwinterp import (GridSpec, build_generating_function,
                              load_nodes, make_family)
        if args[0] == "--nodes":
            seq = load_nodes(args[1])
        else:
            seq = make_family(cli._parse_family(args[1]), int(args[3]))
        gf = build_generating_function(seq)
        x = GridSpec.parse(grid).points()
        S = gf.value(x)
        path = tmp_path / "reference.csv"
        cli._write_csv(str(path), ["x", "re_S", "im_S", "F"],
                       [x, S.real, S.imag, gf.weight(x)])
        return path.read_bytes()

    @pytest.mark.parametrize("route", list(_GENFN_ROUTES))
    def test_bytes_match_whole_grid_csv(self, route, tmp_path, capsys):
        window, grid = _GENFN_ROUTES[route]
        args = _window_args(tmp_path, window)
        want = self._reference(tmp_path, args, grid)
        out = tmp_path / "g.csv"
        assert run_cli(["genfn", *args, "--grid", grid, "-o", str(out)]) == 0
        assert out.read_bytes() == want
        capsys.readouterr()
        assert run_cli(["genfn", *args, "--grid", grid]) == 0
        assert capsys.readouterr().out.encode("utf-8") == want

    @pytest.mark.parametrize("case", ["overflow", "non-finite grid",
                                      "trust radius"])
    def test_failed_run_writes_nothing(self, case, tmp_path, capsys):
        if case == "overflow":
            k = np.arange(-64, 65)
            args = [*_write_nodes(tmp_path / "n.csv", k, k + 0j),
                    "--grid", "10000:10001:0.5"]
        else:
            grid = "nan:1:0.1" if case == "non-finite grid" else "-50:50:0.5"
            args = ["--family", "integer", "--K", "128", "--grid", grid]
        before = set(tmp_path.iterdir())
        code = run_cli(["genfn", *args, "-o", str(tmp_path / "g.csv")])
        assert code == (64 if case == "trust radius" else 65)
        assert set(tmp_path.iterdir()) == before
        capsys.readouterr()
        assert run_cli(["genfn", *args]) == code
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1

    def test_failed_run_keeps_an_existing_file(self, tmp_path):
        out = tmp_path / "g.csv"
        out.write_text("old\n")
        out.chmod(0o640)
        code = run_cli(["genfn", "--family", "integer", "--K", "128",
                        "--grid", "-50:50:0.5", "-o", str(out)])
        assert code == 64 and out.read_text() == "old\n"
        assert run_cli(["genfn", "--family", "integer", "--K", "128",
                        "--grid", "-5:5:0.5", "-o", str(out)]) == 0
        assert out.read_text().startswith("x,re_S,im_S,F")
        assert out.stat().st_mode & 0o777 == 0o640
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv"]

    def test_new_file_mode_follows_umask(self, tmp_path):
        plain = tmp_path / "plain"
        open(plain, "w").close()
        out = tmp_path / "g.csv"
        cli._write_csv(str(out), ["x"], [np.arange(3.0)])
        assert out.stat().st_mode == plain.stat().st_mode

    def test_interrupted_rows_leave_no_file(self, tmp_path):
        def rows():
            yield [np.arange(3.0)]
            raise KeyboardInterrupt
        with pytest.raises(KeyboardInterrupt):
            cli._stream_csv(str(tmp_path / "g.csv"), ["x"], rows())
        assert list(tmp_path.iterdir()) == []

    def test_device_target_is_written_through(self):
        import os
        import stat
        cli._write_csv(os.devnull, ["x"], [np.arange(3.0)])
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_unwritable_target_fails_as_it_opens(self, tmp_path, capsys):
        # the message names the target, and evaluation errors come first
        out = tmp_path / "absent" / "g.csv"
        for grid, code in (("-5:5:0.5", 65), ("-50:50:0.5", 64)):
            assert run_cli(["genfn", "--family", "integer", "--K", "128",
                            "--grid", grid, "-o", str(out)]) == code
        err = capsys.readouterr().err.splitlines()
        assert err[0] == ("pwinterp: data error: [Errno 2] No such file or "
                          f"directory: '{out}'")
        assert "trust radius" in err[1]

    def test_dump_peak_memory(self, tmp_path):
        # the genfn-dump grid, 800k rows at K = 2^15: no array the size of
        # the grid but x itself (6.1 MiB); the far moments' transforms set
        # the peak.  Evaluating S and F whole reached 54.7 MiB.
        import tracemalloc
        out = str(tmp_path / "g.csv")
        assert run_cli(["genfn", "--family", "signed:0.2", "--K", "128",
                        "--grid", "-4:4:0.01", "-o", out]) == 0
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            code = run_cli(["genfn", "--family", "signed:0.2",
                            "--K", "32768", "--grid", "-4000:4000:0.01",
                            "-o", out])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 28 << 20


@pytest.mark.parametrize("command", ["genfn", "interp"])
class TestGridTrustRadius:
    """The K = 128 lattice's tail holds for |x| <= (K+1)/4 = 32.25; past
    it |S| / |sin(pi x)/pi| jumps from 1 to about 3.6e3."""

    def _run(self, command, grid, tmp_path):
        extra = []
        if command == "interp":
            samples = tmp_path / "s.csv"
            samples.write_text("k,re_a,im_a\n3,1.0,0.0\n")
            extra = ["--samples", str(samples)]
        return run_cli([command, "--family", "integer", "--K", "128",
                        "--grid", grid, *extra,
                        "-o", str(tmp_path / "g.csv")])

    def test_past_radius_is_usage_error(self, command, tmp_path, capsys):
        code = self._run(command, "-50:50:0.5", tmp_path)
        assert code == 64
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("pwinterp: error: --grid -50:50:0.5: ")
        assert "trust radius (K+1)/4 = 32.25" in err
        assert not (tmp_path / "g.csv").exists()

    def test_inside_radius_succeeds(self, command, tmp_path):
        code = self._run(command, "-30:30:0.5", tmp_path)
        assert code == 0
        assert len((tmp_path / "g.csv").read_text().splitlines()) == 122


class TestCheckCommand:
    def test_lattice_passes_exit_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(["check", "--family", "integer", "--K", "2048",
                        "--xmax", "512", "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 2
        # schema 2 dropped the half window's Carleson sum
        assert "carleson_half" not in payload["report"]
        assert payload["report"]["verdict"] == "PASS"
        assert payload["config"]["p"] == 2.0

    def test_subcritical_shift_passes(self, tmp_path):
        code = run_cli(["check", "--family", "constant_shift:0.2",
                        "--K", "2048", "--xmax", "512",
                        "--json", str(tmp_path / "r.json")])
        assert code == 0

    def test_critical_signed_fails_exit_one(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(["check", "--family", "signed:-0.25", "--K", "16384",
                        "--xmax", "2048", "--json", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["report"]["verdict"] == "FAIL"
        assert payload["report"]["failed_checks"]

    def test_rejects_p_one(self, tmp_path):
        code = run_cli(["check", "--family", "integer", "--K", "512",
                        "--p", "1.0", "--json", str(tmp_path / "r.json")])
        assert code == 64

    def test_missing_nodes_file_is_data_error(self, tmp_path):
        code = run_cli(["check", "--nodes", str(tmp_path / "absent.csv"),
                        "--json", str(tmp_path / "r.json")])
        assert code == 65

    def test_xmax_beyond_trust_radius_is_usage_error(self, tmp_path, capsys,
                                                     monkeypatch):
        import pwinterp.criteria

        def no_evaluation(*args, **kwargs):
            raise AssertionError("refusal must come before any evaluation")
        monkeypatch.setattr(pwinterp.criteria, "carleson_sum", no_evaluation)
        code = run_cli(["check", "--family", "integer", "--K", "256",
                        "--xmax", "128", "--json", str(tmp_path / "r.json")])
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("pwinterp: error: --xmax 128: ")
        assert "trust radius (K+1)/4 = 64.25" in err
        assert not (tmp_path / "r.json").exists()

    def test_small_loaded_window_is_usage_error(self, tmp_path, capsys,
                                                monkeypatch):
        # a loaded window too small for the sweep's default --xmax is
        # refused naming --xmax before any generating function is built
        from pwinterp import integer_lattice, save_nodes

        def no_build(*args, **kwargs):
            raise AssertionError("refusal must come before any build")
        monkeypatch.setattr(cli, "build_generating_function", no_build)
        nodes = tmp_path / "small.csv"
        save_nodes(integer_lattice(10), str(nodes))
        code = run_cli(["check", "--nodes", str(nodes),
                        "--json", str(tmp_path / "r.json")])
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith(f"pwinterp: error: --nodes {nodes}: ")
        assert "K = 10" in err and "give --xmax" in err
        assert err.count("\n") == 1
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", ["check", "family"])
    def test_window_beyond_memory_is_usage_error(self, command, tmp_path,
                                                 capsys, monkeypatch):
        import pwinterp.nodes

        def no_nodes(*args, **kwargs):
            raise AssertionError("refusal must come before any node array")
        monkeypatch.setattr(pwinterp.nodes, "make_family", no_nodes)
        out = ["-o", str(tmp_path / "n.csv")] if command == "family" else []
        code = run_cli([command, "--family", "signed:0.2",
                        "--K", str(1 << 40), *out])
        assert code == 64
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"--K {1 << 40}" in err

    def test_loaded_window_gets_trust_radius_refusal(self, tmp_path, capsys,
                                                     monkeypatch):
        # a loaded window carries the tail of its own continuation, so it
        # is refused past (K+1)/4 exactly as the generated family is
        import pwinterp.criteria

        nodes = tmp_path / "lat.csv"
        run_cli(["family", "--family", "integer", "--K", "256",
                 "-o", str(nodes)])

        def no_evaluation(*args, **kwargs):
            raise AssertionError("refusal must come before any evaluation")
        monkeypatch.setattr(pwinterp.criteria, "carleson_sum", no_evaluation)
        errs = []
        for source in (["--family", "integer", "--K", "256"],
                       ["--nodes", str(nodes)]):
            capsys.readouterr()
            code = run_cli(["check", *source, "--xmax", "128",
                            "--json", str(tmp_path / "r.json")])
            assert code == 64
            errs.append(capsys.readouterr().err)
        assert "trust radius (K+1)/4 = 64.25" in errs[1]
        assert errs[0] == errs[1]
        assert not (tmp_path / "r.json").exists()

    def test_operator_probe_appended(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(["check", "--family", "integer", "--K", "2048",
                        "--xmax", "512", "--with-operator-probe",
                        "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["operator_probe"]["lower_bound"] > 0

    @pytest.mark.parametrize("family", ["alternating:0.3",
                                        "constant_shift:0.5"])
    def test_operator_probe_anchors_inside_trust_radius(self, family,
                                                         tmp_path,
                                                         monkeypatch):
        # at K = 4096 the far-tail series holds for |x| <= 1024.25; each
        # anchor lies within 1 of 4j, so |j| <= 255 keeps them all inside
        anchors = []

        def recorded(sources, targets):
            anchors.append(np.asarray(sources))
            return DiscreteHilbertOperator(sources, targets)
        monkeypatch.setattr(cli, "DiscreteHilbertOperator", recorded)
        out = tmp_path / "report.json"
        code = run_cli(["check", "--family", family, "--K", "4096",
                        "--with-operator-probe", "--json", str(out)])
        assert code == 0
        probe = json.loads(out.read_text())["operator_probe"]
        assert probe["anchor_count"] == 511
        assert np.max(np.abs(anchors[0])) <= 4097 / 4
        assert probe["lower_bound"] < 1e3


class TestInterpCommand:
    def test_matches_sinc(self, tmp_path):
        samples = tmp_path / "unit3.csv"
        samples.write_text("k,re_a,im_a\n3,1.0,0.0\n")
        out = tmp_path / "rec.csv"
        code = run_cli(["interp", "--family", "integer", "--K", "32768",
                        "--samples", str(samples), "--grid", "-8:8:0.01",
                        "-o", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = [(float(r["x"]), float(r["re_f"]))
                    for r in csv.DictReader(fh)]
        x = np.array([r[0] for r in rows])
        f = np.array([r[1] for r in rows])
        assert np.max(np.abs(f - np.sinc(x - 3))) <= 1e-3

    def test_sample_past_trust_radius_is_usage_error(self, tmp_path, capsys):
        # S'(40) of the K = 128 lattice lies past (K+1)/4 = 32.25
        samples = tmp_path / "s.csv"
        samples.write_text("k,re_a,im_a\n3,1.0,0.0\n40,1.0,0.0\n")
        out = tmp_path / "rec.csv"
        code = run_cli(["interp", "--family", "integer", "--K", "128",
                        "--samples", str(samples), "--grid", "-30:30:0.5",
                        "-o", str(out)])
        assert code == 64
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "node 40 at |lambda| = 40" in err
        assert err.startswith(f"pwinterp: error: --samples {samples}: ")
        assert not out.exists()


class TestSweepCommands:
    def test_kadets_small_sweep(self, tmp_path):
        out = tmp_path / "kadets.json"
        code = run_cli(["kadets", "--p", "2", "--K", "16384",
                        "--d-values", "0.1,0.25",
                        "--orientations", "outward", "--xmax", "2048",
                        "--json", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        verdicts = {r["d"]: r["verdict"] for r in rows}
        assert verdicts[0.1] == "PASS"
        assert verdicts[0.25] == "FAIL"

    @pytest.mark.parametrize("command,flag", [
        ("kadets --K 512 --d-values 0.1 --xmax 256", "--xmax 256"),
        ("counterexample --K 4096 --x-values 64,2048", "--x-values"),
    ])
    def test_reach_past_trust_radius_names_the_flag(self, command, flag,
                                                    capsys):
        assert run_cli(command.split()) == 64
        err = capsys.readouterr().err
        assert err.startswith(f"pwinterp: error: {flag}: ")
        assert "lies past the trust radius" in err and err.count("\n") == 1

    def test_counterexample_orientation_report(self, tmp_path):
        out = tmp_path / "ce.json"
        code = run_cli(["counterexample", "--p", "2", "--K", "16384",
                        "--x-values", "32,64,128,256,512,1024,2048",
                        "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        grow = payload["growing_orientation"]
        assert payload["orientations"][grow]["slope_vs_logp"] > 0
        # exponent labels carry opposite signs across orientations
        e_out = payload["orientations"]["outward"]["weight_exponent"]
        e_in = payload["orientations"]["inward"]["weight_exponent"]
        assert e_out == pytest.approx(-0.5, abs=0.05)
        assert e_in == pytest.approx(0.5, abs=0.05)

    def test_counterexample_default_lengths_follow_the_window(self,
                                                              tmp_path):
        # K = 4096: the trust radius 1024.25 ends the default 2^5..2^13
        # at 2^10, where 2^13 would run the sweep past the window
        out = tmp_path / "ce.json"
        code = run_cli(["counterexample", "--p", "2", "--K", "4096",
                        "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["X_values"] == [2.0 ** m
                                                 for m in range(5, 11)]

    @pytest.mark.parametrize("x_values,words", [
        ("0.01,64,128,256", "0.01 is not a power of two"),
        ("0.0078125,64,128,256", "level m = -7"),
        ("64,2048", "past the trust radius"),
    ])
    def test_counterexample_lengths_out_of_range_are_usage_errors(
            self, x_values, words, capsys):
        code = run_cli(["counterexample", "--K", "4096",
                        "--x-values", x_values])
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("pwinterp: error: ") and words in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("K", ["256", "320"])
    def test_counterexample_window_too_small_for_the_fit(self, K, capsys,
                                                         monkeypatch):
        # the weight-exponent fit runs from x = 32 to K/10
        import pwinterp.nodes

        def no_window(*args, **kwargs):
            raise AssertionError("refusal must come before any window")
        monkeypatch.setattr(pwinterp.nodes, "make_family", no_window)
        code = run_cli(["counterexample", "--p", "2", "--K", K])
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith(f"pwinterp: error: --K {K} is too small")
        assert "--K 321 or more" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("x_values", ["16,32", "32"])
    def test_counterexample_lengths_within_the_fit_start(
            self, x_values, capsys, monkeypatch):
        # the fit needs lengths past x = 32, where it starts
        import pwinterp.nodes

        def no_window(*args, **kwargs):
            raise AssertionError("refusal must come before any window")
        monkeypatch.setattr(pwinterp.nodes, "make_family", no_window)
        code = run_cli(["counterexample", "--K", "4096",
                        "--x-values", x_values])
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("pwinterp: error: --x-values")
        assert "must exceed 32" in err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_counterexample_smallest_window_runs(self, tmp_path):
        out = tmp_path / "ce.json"
        assert run_cli(["counterexample", "--p", "2", "--K", "321",
                        "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["X_values"] == [32.0, 64.0]

    def test_alpha_scaling_table(self, tmp_path):
        out = tmp_path / "alpha.json"
        code = run_cli(["alpha-scaling", "--family", "signed:0.2",
                        "--K", "32768", "--alphas", "0.5,1",
                        "--json", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        for row in rows:
            assert row["exponent"] == pytest.approx(row["expected"],
                                                    abs=0.1)

    @pytest.mark.parametrize("family", ["signed:0.5", "alternating:0.3"])
    def test_alpha_scaling_collapsed_family_is_usage_error(self, family):
        # alpha = 2 scales both families past their separation bound
        code = run_cli(["alpha-scaling", "--family", family,
                        "--K", "32768", "--alphas", "1,2"])
        assert code == 64


class TestBadFlagValues:
    """A flag whose value does not parse, or is out of its range, is a
    usage error, refused on one line before any window is built."""

    @pytest.fixture(autouse=True)
    def no_window(self, monkeypatch):
        import pwinterp.criteria
        import pwinterp.nodes

        def no_evaluation(*args, **kwargs):
            raise AssertionError("refusal must come before any evaluation")
        monkeypatch.setattr(pwinterp.criteria, "carleson_sum", no_evaluation)
        monkeypatch.setattr(pwinterp.nodes, "make_family", no_evaluation)

    def _refused(self, command, flag, capsys):
        code = run_cli(command.split())
        err = capsys.readouterr().err
        assert code == 64, err
        assert err.startswith("pwinterp: error: ") and flag in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("command,flag", [
        ("check --family signed:0.2 --K 256 --xmax 0", "--xmax"),
        ("check --family integer --K 256 --xmax -1", "--xmax"),
        ("check --family integer --K 256 --xmax nan", "--xmax"),
        ("kadets --K 512 --d-values 0.1 --xmax 0", "--xmax"),
        ("counterexample --K 4096 --x-values 0,64,128", "--x-values"),
        ("counterexample --K 4096 --x-values=-8,64,128", "--x-values"),
        ("counterexample --K 4096 --x-values nan,64,128", "--x-values"),
    ])
    def test_length_not_positive_and_finite(self, command, flag, capsys):
        self._refused(command, flag, capsys)

    @pytest.mark.parametrize("command,flag", [
        ("kadets --K 512 --d-values abc", "--d-values"),
        ("check --family signed:abc --K 256", "--family"),
        ("check --family random:0.3:seed=x --K 256", "--family"),
        ("alpha-scaling --family signed:0.2 --alphas x", "--alphas"),
        ("counterexample --K 4096 --x-values 64,y", "--x-values"),
    ])
    def test_number_that_does_not_parse(self, command, flag, capsys):
        self._refused(command, flag, capsys)

    @pytest.mark.parametrize("d_values", ["1.0", "nan", "0.1,1.0", "-0.1"])
    def test_kadets_magnitude_out_of_range(self, d_values, capsys):
        self._refused(f"kadets --K 512 --d-values {d_values}", "", capsys)

    @pytest.mark.parametrize("command,flag", [
        ("check --family integer --K 0", "--K"),
        ("family --family integer --K -3 -o n.csv", "--K"),
        ("kadets --K 0", "--K"),
        ("alpha-scaling --family integer --K -1", "--K"),
        ("check --family integer --K 256 --seed -1 --with-operator-probe",
         "--seed"),
        ("check --family integer --K 256 --with-operator-probe "
         "--probe-trials -1", "--probe-trials"),
        ("family --family random:0.3:seed=-1 --K 64 -o n.csv", "--family"),
        ("alpha-scaling --family integer --K 4096", "--fit-max"),
        ("alpha-scaling --family signed:0.2 --K 4096 --fit-min nan",
         "--fit-min"),
        ("alpha-scaling --family integer --K 4096 --fit-min 8 --fit-max 4",
         "--fit-min"),
        # a window too small for the sweep's default --xmax
        ("check --family integer --K 10", "--K"),
        ("kadets --K 63", "--K"),
        # each length of the sweep is a power of two
        ("counterexample --K 4096 --x-values 64,96,4096", "--x-values"),
        ("counterexample --K 4096 --x-values 64,128,5000", "--x-values"),
    ])
    def test_value_out_of_range(self, command, flag, capsys):
        self._refused(command, flag, capsys)


# Each subcommand's grammar: flag -> (valid values, bad values).  The bad
# ones are zero, negative, NaN, infinite and unparsable numbers, reversed
# or empty grids, lengths past the trust radius, families that do not
# exist and windows too small or too large.
_BAD = ["0", "-1", "nan", "inf", "-inf", "x", ""]
_FAMILIES = (["integer", "signed:0.2", "signed:-0.25", "alternating:0.1",
              "random:0.3:seed=3"],
             ["signed:0.7", "integer:0.1", "bogus", "random:0.3:seed=-1",
              "signed:0.2:delta0=2", "signed:0.2:foo=1", "signed:nan", ":"])
_K = (["128", "321"], ["0", "-5", "1.5", "x", "10", "1000000000000"])
_GRIDS = (["-5:5:0.5", "-30:30:0.25"],
          ["-40:40:0.5", "5:-5:0.5", "-5:5:0", "-5:5:-1", "nan:1:0.1",
           "0:inf:1", "1:2", "a:b:c", "-5:5:1e-12"])
_P = (["2", "1.5"], ["1", "0.5", *_BAD])
_GRAMMAR = {
    "family": {"--family": _FAMILIES, "--K": _K},
    "genfn": {"--family": _FAMILIES, "--K": _K, "--grid": _GRIDS},
    "interp": {"--family": _FAMILIES, "--K": _K, "--grid": _GRIDS,
               "--samples": (["3"], ["40", "bad", "absent"])},
    "check": {"--family": _FAMILIES, "--K": _K, "--p": _P,
              "--xmax": (["32"], ["1e6", *_BAD]),
              "--seed": (["5"], ["-1", "x"]),
              "--with-operator-probe": ([None], []),
              "--probe-trials": (["2"], ["-1", "x"])},
    "kadets": {"--K": _K, "--p": _P, "--xmax": (["32"], ["1e6", *_BAD]),
               "--d-values": (["0.1", "0.1,0.25"],
                              ["-0.1", "1.0", "0.1,,0.2", *_BAD]),
               "--orientations": (["inward", "outward,inward"],
                                  ["sideways", ""])},
    "counterexample": {"--K": (["321"], _K[1]), "--p": _P,
                       "--x-values": (["64", "32,64"],
                                      ["0.01,64", "16,32", "64,2048",
                                       "nan,64", "-8,64", "x"])},
    "alpha-scaling": {"--family": _FAMILIES, "--K": _K,
                      "--alphas": (["0.5,1"], ["2", "-1", *_BAD]),
                      "--fit-min": (["2"], ["32", "1", *_BAD]),
                      "--fit-max": (["12"], ["2048", "1", *_BAD])},
}
# given in every argv: required, or with a default that is refused (the fit
# range) or slow (a window of K = 2^15)
_ALWAYS = {"--family", "--K", "--grid", "--samples", "--fit-min",
           "--fit-max"}
_SAMPLES = {"3": "k,re_a,im_a\n3,1.0,0.0\n",
            "40": "k,re_a,im_a\n40,1.0,0.0\n", "bad": "k,re_a\n3,x\n"}


@st.composite
def _argv(draw):
    """A subcommand's argv in which at most two flags may be bad."""
    command = draw(st.sampled_from(sorted(_GRAMMAR)))
    grammar = _GRAMMAR[command]
    wild = draw(st.sets(st.sampled_from(sorted(grammar)), max_size=2))
    argv = [command]
    for flag, (valid, bad) in grammar.items():
        if flag not in _ALWAYS and not draw(st.booleans()):
            continue
        value = draw(st.sampled_from(valid + bad if flag in wild else valid))
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv=_argv())
def test_generated_argv_keeps_the_exit_contract(argv):
    """Every argv exits 0, 1 (a FAIL verdict only), 2, 64 or 65; a refusal
    writes one stderr line, no traceback and no file."""
    with tempfile.TemporaryDirectory() as tmp:
        if "--samples" in argv:
            i = argv.index("--samples") + 1
            path = os.path.join(tmp, argv[i])
            if argv[i] in _SAMPLES:
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(_SAMPLES[argv[i]])
            argv[i] = path
        inputs = set(os.listdir(tmp))
        out = os.path.join(tmp, "out")
        out_flag = "-o" if argv[0] in ("family", "genfn", "interp") else "--json"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            try:
                code = main(argv + [out_flag, out])
            except SystemExit as exc:  # argparse's refusal
                code = exc.code
        assert code in (0, 1, 2, 64, 65), (argv, err.getvalue())
        if code in (64, 65):
            assert err.getvalue().count("\n") == 1, (argv, err.getvalue())
            assert "Traceback" not in err.getvalue()
            assert set(os.listdir(tmp)) == inputs, argv
        elif argv[0] == "check":
            with open(out, encoding="utf-8") as fh:
                verdict = json.load(fh)["report"]["verdict"]
            assert code == {"PASS": 0, "FAIL": 1}.get(verdict, 2), argv
        else:
            assert code == 0 and os.path.exists(out), (argv, code)


class TestDeterminism:
    def test_check_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            run_cli(["check", "--family", "random:0.3:seed=7", "--K", "2048",
                     "--xmax", "512", "--seed", "5", "--json", str(path)])
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_family_csv_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run_cli(["family", "--family", "random:0.4:seed=11",
                     "--K", "500", "-o", str(path)])
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]

    def test_library_runs_on_numpy_alone(self):
        # a fresh interpreter: importing pwinterp and running a verdict
        # loads no scipy module
        code = ("import sys, pwinterp, pwinterp.cli\n"
                "code = pwinterp.cli.main(['check', '--family', 'integer',"
                " '--K', '256'])\n"
                "print(sorted(m for m in sys.modules"
                " if m.split('.')[0] == 'scipy'))\n"
                "sys.exit(code)")
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_console_entry_point(self, tmp_path):
        # the installed script form must agree with in-process runs
        out = tmp_path / "nodes.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "pwinterp.cli", "family", "--family",
             "signed:0.25", "--K", "50", "-o", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert out.read_text().splitlines()[0] == "k,re,im"
