import ast
from pathlib import Path

import numpy as np
import pytest

import dispwave
from dispwave import (
    Field,
    Grid,
    NonFiniteFieldError,
    dealias,
    differentiate,
    helmholtz_inverse,
    hs_norm,
)
from dispwave.spectral import irfft, rfft

from conftest import band_limited_field, band_mask


class TestGrid:
    def test_basic_geometry(self):
        g = Grid(20.0, 256)
        assert g.spacing * g.n_points == pytest.approx(40.0, abs=0.0)
        assert g.x[0] == -20.0
        assert np.all(np.diff(g.x) > 0)
        assert g.x[128] == 0.0

    @pytest.mark.parametrize("n", [15, 14, 0, 17])
    def test_rejects_bad_sizes(self, n):
        with pytest.raises(ValueError):
            Grid(10.0, n)

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            Grid(-1.0, 64)


class TestField:
    def test_rejects_nonfinite_with_index(self, grid_small):
        vals = np.zeros(grid_small.n_points)
        vals[17] = np.nan
        with pytest.raises(NonFiniteFieldError, match="index 17"):
            Field(grid_small, vals)

    def test_values_are_immutable(self, grid_small):
        f = Field(grid_small, np.ones(grid_small.n_points))
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    def test_spectrum_round_trips(self, grid_small):
        f = band_limited_field(grid_small, seed=1)
        back = np.fft.irfft(f.spectrum, n=grid_small.n_points)
        assert np.max(np.abs(back - f.values)) < 1e-12 * np.max(np.abs(f.values))


class TestDifferentiate:
    def test_sine_eigenfunction(self, grid_small):
        L = grid_small.half_width
        f = Field(grid_small, np.sin(np.pi * grid_small.x / L))
        d = differentiate(f, 1)
        exact = (np.pi / L) * np.cos(np.pi * grid_small.x / L)
        assert np.max(np.abs(d.values - exact)) <= 1e-10

    def test_constant_derivative_is_zero(self, grid_small):
        d = differentiate(Field(grid_small, np.ones(grid_small.n_points)), 1)
        assert np.max(np.abs(d.values)) <= 1e-14

    def test_gaussian_second_derivative(self):
        g = Grid(20.0, 512)
        f = Field(g, np.exp(-g.x**2))
        exact = (4.0 * g.x**2 - 2.0) * np.exp(-g.x**2)
        assert np.max(np.abs(differentiate(f, 2).values - exact)) <= 1e-8

    def test_spectral_accuracy_under_refinement(self):
        # error collapses by orders of magnitude from N=128 to N=256
        errs = {}
        for n in (128, 256):
            g = Grid(20.0, n)
            f = Field(g, np.exp(-g.x**2))
            exact = (4.0 * g.x**2 - 2.0) * np.exp(-g.x**2)
            errs[n] = np.max(np.abs(differentiate(f, 2).values - exact))
        assert errs[128] / max(errs[256], 1e-300) >= 1e3 or errs[256] < 1e-13

    def test_rejects_order_and_nonfinite(self, grid_small):
        f = band_limited_field(grid_small, seed=2)
        with pytest.raises(ValueError):
            differentiate(f, 4)

    def test_odd_order_zeroes_nyquist(self, grid_small):
        spec = np.zeros(grid_small.n_points // 2 + 1, dtype=complex)
        spec[-1] = 1.0
        f = Field(grid_small, np.fft.irfft(spec, n=grid_small.n_points))
        assert np.max(np.abs(differentiate(f, 1).values)) == 0.0


class TestHelmholtzInverse:
    def test_single_mode_eigenvalue(self, grid_small):
        k0 = np.pi / grid_small.half_width
        f = Field(grid_small, np.cos(k0 * grid_small.x))
        out = helmholtz_inverse(f)
        assert np.max(np.abs(out.values - f.values / (1.0 + k0**2))) <= 1e-12

    def test_zero_maps_to_zero(self, grid_small):
        out = helmholtz_inverse(Field(grid_small, np.zeros(grid_small.n_points)))
        assert np.all(out.values == 0.0)

    def test_operator_round_trip(self, grid_small):
        for seed in range(5):
            f = band_limited_field(grid_small, seed=seed)
            conv = helmholtz_inverse(f)
            back = conv.values - differentiate(conv, 2).values
            assert np.max(np.abs(back - f.values)) <= 1e-10 * np.max(np.abs(f.values))

    def test_linearity(self, grid_small):
        f = band_limited_field(grid_small, seed=11)
        g = band_limited_field(grid_small, seed=12)
        combo = Field(grid_small, 1.7 * f.values - 0.4 * g.values)
        direct = helmholtz_inverse(combo).values
        split = 1.7 * helmholtz_inverse(f).values - 0.4 * helmholtz_inverse(g).values
        assert np.max(np.abs(direct - split)) <= 1e-13

    def test_commutes_with_derivative(self, grid_small):
        f = band_limited_field(grid_small, seed=13)
        a = differentiate(helmholtz_inverse(f), 1).values
        b = helmholtz_inverse(differentiate(f, 1)).values
        assert np.max(np.abs(a - b)) <= 1e-10


class TestDealias:
    def test_low_mode_untouched(self, grid_small):
        spec = np.zeros(grid_small.n_points // 2 + 1, dtype=complex)
        spec[1] = 3.0 - 2.0j
        assert np.array_equal(dealias(spec, grid_small), spec)

    def test_nyquist_zeroed(self, grid_small):
        spec = np.zeros(grid_small.n_points // 2 + 1, dtype=complex)
        spec[-1] = 1.0
        assert np.all(dealias(spec, grid_small) == 0.0)

    def test_idempotent(self, grid_small):
        rng = np.random.default_rng(3)
        spec = rng.normal(size=grid_small.n_points // 2 + 1) \
            + 1j * rng.normal(size=grid_small.n_points // 2 + 1)
        once = dealias(spec, grid_small)
        assert np.array_equal(dealias(once, grid_small), once)

    def test_cutoff_position(self, grid_small):
        n = grid_small.n_points
        keep = band_mask(grid_small)
        assert keep[n // 3] and not keep[n // 3 + 1]

    @pytest.mark.parametrize("n", [48, 256])
    def test_kept_products_alias_onto_dropped_modes(self, n):
        # modes j1, j2 <= top multiply into j1 + j2, seen on the grid as
        # j1 + j2 - N when above N/2; that must lie below -top
        top = Grid(20.0, n).band - 1
        assert 2 * top - n < -top

    @pytest.mark.parametrize("n", [48, 64])  # 3 divides 48
    def test_rows_cut_from_band(self, n):
        grid = Grid(20.0, n)
        rng = np.random.default_rng(5)
        rows = rng.normal(size=(2, n // 2 + 1)) + 1j * rng.normal(size=(2, n // 2 + 1))
        cut = dealias(rows, grid)
        assert cut.dtype == rows.dtype
        assert np.array_equal(cut[:, :grid.band], rows[:, :grid.band])
        assert not np.any(cut[:, grid.band:])
        assert np.array_equal(cut, [dealias(row, grid) for row in rows])
        assert np.array_equal(dealias(cut, grid), cut)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_matches_the_band_mask(self, grid_small, dtype):
        rng = np.random.default_rng(7)
        spec = rng.normal(size=grid_small.n_points // 2 + 1).astype(dtype)
        spec[-1] = np.nan  # zeroed as the mask's 0.0
        ref = np.where(band_mask(grid_small), spec, 0.0)
        cut = dealias(spec, grid_small)
        assert cut.dtype == ref.dtype and cut.tobytes() == ref.tobytes()
        assert not np.shares_memory(cut, spec)

    def test_rejects_wrong_length(self, grid_small):
        with pytest.raises(ValueError, match="real-FFT spectrum of length 129"):
            dealias(np.zeros((2, 128)), grid_small)


class TestHsNorm:
    def test_zero_field(self, grid_small):
        assert hs_norm(Field(grid_small, np.zeros(grid_small.n_points)), 2.0) == 0.0

    def test_constant_field(self, grid_small):
        f = Field(grid_small, np.ones(grid_small.n_points))
        for s in (0.0, 1.0, 2.5):
            assert hs_norm(f, s) == pytest.approx(np.sqrt(2 * grid_small.half_width), rel=1e-13)

    def test_single_mode_by_hand(self, grid_small):
        L = grid_small.half_width
        f = Field(grid_small, np.sin(np.pi * grid_small.x / L))
        expected = np.sqrt(L * (1.0 + (np.pi / L) ** 2))
        assert hs_norm(f, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_s0_matches_trapezoid_l2(self, grid_small):
        for seed in range(3):
            f = band_limited_field(grid_small, seed=seed)
            l2 = np.sqrt(grid_small.spacing * np.sum(f.values**2))
            assert hs_norm(f, 0.0) == pytest.approx(l2, rel=1e-10)

    def test_rejects_negative_exponent(self, grid_small):
        f = band_limited_field(grid_small, seed=4)
        with pytest.raises(ValueError):
            hs_norm(f, -0.5)


class TestTransforms:
    """dispwave's rfft/irfft call pocketfft's gufuncs; numpy.fft's are the reference."""

    @pytest.mark.parametrize("n", [16, 17, 1024, 1025])
    @pytest.mark.parametrize("rows", [(), (2,)])
    def test_match_numpy_fft(self, n, rows):
        # an odd n needs the odd gufunc: the even one would read 17 points as 16
        values = np.random.default_rng(n).normal(size=rows + (n,))
        spectrum = np.fft.rfft(values)
        assert np.array_equal(rfft(values), spectrum)
        assert np.array_equal(irfft(spectrum, n=n), np.fft.irfft(spectrum, n=n))
        assert np.array_equal(irfft(spectrum), np.fft.irfft(spectrum))

    @pytest.mark.parametrize("n", [48, 1024])
    @pytest.mark.parametrize("rows", [(), (2,)])
    def test_band_input_is_zero_padded(self, n, rows):
        # SpectralRhs.values and the Riccati bracket pass the band's modes with n = N
        band = Grid(6.0, n).band
        values = np.random.default_rng(n).normal(size=rows + (n,))
        band_hat = np.fft.rfft(values)[..., :band]
        assert np.array_equal(irfft(band_hat, n=n), np.fft.irfft(band_hat, n=n))

    @pytest.mark.parametrize("n", [64, 65])
    def test_out_is_filled_and_returned(self, n):
        values = np.random.default_rng(n).normal(size=(2, n))
        spectrum = np.empty((2, n // 2 + 1), dtype=complex)
        assert rfft(values, out=spectrum) is spectrum
        assert np.array_equal(spectrum, np.fft.rfft(values))
        back = np.empty((2, n))
        assert irfft(spectrum, n=n, out=back) is back
        assert np.array_equal(back, np.fft.irfft(spectrum, n=n))

    def test_non_contiguous_input(self):
        values = np.random.default_rng(5).normal(size=(1024, 2)).T
        spectrum = np.fft.rfft(values.T, axis=0).T
        assert not values.flags.c_contiguous and not spectrum.flags.c_contiguous
        assert np.array_equal(rfft(values), np.fft.rfft(values))
        assert np.array_equal(irfft(spectrum, n=1024), np.fft.irfft(spectrum, n=1024))


def test_no_module_tunes_the_process_allocator():
    # importing a library must leave the allocator of the process that imports it
    # alone: no dispwave module loads a C library or calls mallopt
    package = Path(dispwave.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert modules
    for module in modules:
        tree = ast.parse(module.read_text(), str(module))
        imported = {alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import) for alias in node.names}
        imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                     if isinstance(node, ast.ImportFrom) and node.module}
        names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert "ctypes" not in imported, module.name
        assert "mallopt" not in names, module.name
