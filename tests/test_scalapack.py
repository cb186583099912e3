"""ScaLAPACK baseline: distributed LU, inversion, traffic behaviour."""

import time

import numpy as np
import pytest

from repro.linalg import SingularMatrixError, verify
from repro.mpi import MPIError
from repro.scalapack import ScaLAPACKInverter, scalapack_invert

from conftest import random_invertible


class TestPDGETRF:
    @pytest.mark.parametrize("n, p, b", [(16, 2, 4), (40, 4, 8), (33, 3, 5), (50, 8, 4)])
    def test_factors_reconstruct(self, rng, n, p, b):
        a = random_invertible(rng, n)
        f = ScaLAPACKInverter(nprocs=p, block=b).lu(a)
        assert verify.lu_residual(a, f.lower, f.upper, f.perm) < 1e-10

    def test_matches_numpy_lu_up_to_pivoting(self, rng):
        """Full partial pivoting => same pivot sequence as LAPACK for a
        generic matrix, hence identical factors."""
        from repro.linalg import lu_decompose

        a = random_invertible(rng, 24)
        f = ScaLAPACKInverter(nprocs=3, block=4).lu(a)
        ref = lu_decompose(a)
        assert np.array_equal(f.perm, ref.perm)
        assert np.allclose(f.lower, ref.lower())
        assert np.allclose(f.upper, ref.upper())

    def test_single_process(self, rng):
        a = random_invertible(rng, 20)
        f = ScaLAPACKInverter(nprocs=1, block=6).lu(a)
        assert verify.lu_residual(a, f.lower, f.upper, f.perm) < 1e-10

    def test_singular_detected(self):
        a = np.ones((12, 12))
        with pytest.raises(MPIError):
            ScaLAPACKInverter(nprocs=2, block=4).lu(a)

    def test_singular_fails_fast_with_original_error(self):
        """The rank that finds the zero pivot aborts the world; its peer,
        blocked waiting for the pivot row, fails within the abort poll
        instead of the full receive timeout."""
        start = time.monotonic()
        with pytest.raises(MPIError) as info:
            ScaLAPACKInverter(nprocs=2, block=4, timeout=60).lu(np.ones((12, 12)))
        assert time.monotonic() - start < 5.0
        assert isinstance(info.value.__cause__, SingularMatrixError)


class TestPDGETRI:
    @pytest.mark.parametrize("n, p, b", [(24, 2, 4), (40, 4, 8), (37, 5, 3)])
    def test_inverse_correct(self, rng, n, p, b):
        a = random_invertible(rng, n)
        res = scalapack_invert(a, nprocs=p, block=b)
        assert res.residual(a) < 1e-9

    def test_matches_numpy(self, rng):
        a = random_invertible(rng, 30)
        res = scalapack_invert(a, nprocs=4, block=4)
        assert np.allclose(res.inverse, np.linalg.inv(a), atol=1e-9)

    def test_block_larger_than_matrix(self, rng):
        a = random_invertible(rng, 10)
        res = scalapack_invert(a, nprocs=2, block=64)
        assert res.residual(a) < 1e-10

    def test_non_square_rejected(self, rng):
        with pytest.raises(ValueError):
            ScaLAPACKInverter().invert(rng.standard_normal((3, 5)))

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            ScaLAPACKInverter(nprocs=0)
        with pytest.raises(ValueError):
            ScaLAPACKInverter(block=0)


class TestTrafficBehaviour:
    def test_traffic_grows_with_process_count(self, rng):
        """Tables 1-2: ScaLAPACK's communication is O(m0 n^2) — the mechanism
        behind Figure 8's crossover."""
        a = random_invertible(rng, 64)
        t = [
            scalapack_invert(a, nprocs=p, block=8).traffic.bytes_sent
            for p in (2, 4, 8)
        ]
        assert t[0] < t[1] < t[2]

    def test_traffic_order_of_magnitude(self, rng):
        """Total traffic should be within small factors of m0 * n^2 * 8."""
        n, p = 64, 4
        a = random_invertible(rng, n)
        res = scalapack_invert(a, nprocs=p, block=8)
        model = p * n * n * 8
        assert model / 4 < res.traffic.bytes_sent < model * 4

    def test_agrees_with_pipeline(self, rng):
        from repro import InversionConfig, invert

        a = random_invertible(rng, 48)
        ours = invert(a, InversionConfig(nb=12, m0=4))
        scala = scalapack_invert(a, nprocs=4, block=8)
        assert np.allclose(ours.inverse, scala.inverse, atol=1e-8)
