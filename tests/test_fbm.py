"""Path generators: law, determinism, and cross-generator agreement."""

import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import oracles
from fracwick import (
    CovarianceMatrix,
    HurstParameter,
    SeedSpec,
    SingularCovarianceError,
    TimeGrid,
    covariance_grid,
    empirical_covariance,
    ensemble_values,
)
from fracwick import fbm, rng
from fracwick.fbm import _circulant_fgn, circulant_eigenvalues, fgn_autocovariance
from fracwick.mc import sample_stderr
from fracwick.rng import standard_normal_rows

GENERATORS = ["cholesky", "circulant", "hosking"]


class TestCovariance:
    def test_frozen_values(self):
        h = HurstParameter(0.75)
        assert covariance_grid(np.array([2.0]), h)[0, 0] == pytest.approx(2.8284271247461903, rel=1e-15)
        grid = covariance_grid(np.array([0.5, 1.0]), h)
        want = np.array([[0.35355339059327373, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(grid, want, rtol=1e-15)

    @given(s=st.floats(0.0, 10.0), t=st.floats(0.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_reduces_to_min_at_half(self, s, t):
        got = covariance_grid(np.array([s, t]), HurstParameter(0.5))[0, 1]
        assert got == pytest.approx(min(s, t), abs=1e-12), (
            f"H=1/2 covariance({s},{t}) = {got}, want min = {min(s, t)}"
        )

    @given(
        h=st.floats(0.55, 0.95),
        c=st.floats(0.1, 4.0),
        pts=st.lists(st.floats(0.01, 5.0), min_size=1, max_size=6, unique=True),
    )
    @settings(max_examples=100, deadline=None)
    def test_scaling_self_similarity(self, h, c, pts):
        hp = HurstParameter(h)
        p = np.sort(np.array(pts))
        base = covariance_grid(p, hp)
        scaled = covariance_grid(c * p, hp)
        np.testing.assert_allclose(
            scaled,
            c ** (2.0 * h) * base,
            rtol=1e-10,
            err_msg=f"scaling law broken at h={h}, c={c}",
        )

    def test_symmetry_and_positive_semidefiniteness(self):
        pts = np.array([0.1, 0.35, 0.7, 1.0, 1.9])
        for h in (0.55, 0.7, 0.9):
            m = covariance_grid(pts, HurstParameter(h))
            np.testing.assert_allclose(m, m.T, rtol=1e-15)
            eig = np.linalg.eigvalsh(m)
            assert eig[0] > -1e-12 * eig[-1], f"negative eigenvalue {eig[0]} at H={h}"

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            covariance_grid(np.array([-1.0, 1.0]), HurstParameter(0.7))

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.3, 1.5])
    def test_hurst_range_enforced(self, bad):
        with pytest.raises(ValueError):
            HurstParameter(bad)

    def test_long_memory_flag(self):
        assert HurstParameter(0.51).is_long_memory
        assert not HurstParameter(0.5 - 1e-9).is_long_memory


class TestCovarianceMatrix:
    def test_cholesky_reconstructs_covariance(self):
        grid = TimeGrid(np.array([0.0, 0.2, 0.5, 0.55, 1.0]))
        cov = CovarianceMatrix(grid, HurstParameter(0.8))
        chol = cov.cholesky()
        np.testing.assert_allclose(chol @ chol.T, cov.matrix, rtol=0, atol=1e-12)
        assert cov.jitter_used == 0.0

    def test_factor_is_cached(self):
        cov = CovarianceMatrix(TimeGrid.uniform(8, 1.0), HurstParameter(0.7))
        assert cov.cholesky() is cov.cholesky()

    def test_singular_beyond_jitter_schedule_raises(self):
        cov = CovarianceMatrix(TimeGrid.uniform(2, 1.0), HurstParameter(0.7))
        # A matrix with eigenvalue -1 stays indefinite under every jitter in
        # the schedule (max 1e-8 * diag), so the factorization must give up.
        cov.matrix = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(SingularCovarianceError, match="positive definite"):
            cov.cholesky()


class TestNoiseMachinery:
    def test_fgn_autocovariance_frozen(self):
        gamma = fgn_autocovariance(3, HurstParameter(0.75))
        assert gamma[0] == 1.0
        # 0.5 (2^{1.5} - 2) at lag 1 for H = 0.75
        assert gamma[1] == pytest.approx(0.41421356237309515, rel=1e-15)
        assert gamma[2] == pytest.approx(
            0.5 * (3.0**1.5 - 2.0 * 2.0**1.5 + 1.0), rel=1e-14
        )

    def test_fgn_autocovariance_positive_for_long_memory(self):
        gamma = fgn_autocovariance(64, HurstParameter(0.7))
        assert np.all(gamma > 0.0), "H > 1/2 increments are positively correlated"

    @pytest.mark.parametrize("h", [0.55, 0.7, 0.9])
    def test_circulant_eigenvalues_nonnegative_mean_one(self, h):
        lam = circulant_eigenvalues(64, HurstParameter(h))
        assert np.all(lam >= 0.0)
        # trace identity: the eigenvalue mean equals gamma(0) = 1
        assert lam.mean() == pytest.approx(1.0, rel=1e-12)

    def test_circulant_eigenvalues_iid_case(self):
        lam = circulant_eigenvalues(16, HurstParameter(0.5))
        np.testing.assert_allclose(lam, 1.0, rtol=1e-12)

    @pytest.mark.parametrize("h", [0.3, 0.55, 0.7, 0.9])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 257])
    def test_half_spectrum_transform_matches_full_spectrum(self, n, h):
        lam = circulant_eigenvalues(n, HurstParameter(h))
        z = np.random.default_rng(n).standard_normal((7, 2 * n))
        want = oracles.circulant_fgn_full_spectrum(lam, z)
        # the transform overwrites the normals it reads
        got = _circulant_fgn(lam, z, np.empty((7, n + 1), dtype=complex))
        assert got.shape == (7, n)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)


class TestStreamContract:
    # (master_seed, stream, k) -> bits of the first k draws. These pin the
    # seeding scheme: any change to how a stream is keyed shows up here.
    PINNED = {
        (0, 0): ["-0x1.9ae74b83aae1ap-1", "0x1.d47fef345b692p-2", "-0x1.421baf67f49b4p-2", "0x1.73f208abd15b5p-1"],
        (2**63 + 12345, 7): ["-0x1.3616d64b84c80p-4", "-0x1.60207bb393996p-3", "0x1.38d9fc2e4b039p-3", "0x1.90f70412fc71fp-6"],
    }

    @pytest.mark.parametrize("key", sorted(PINNED))
    def test_stream_draws_are_pinned(self, key):
        draws = SeedSpec(*key).generator().standard_normal(4)
        assert [float(x).hex() for x in draws] == self.PINNED[key]

    def test_cholesky_row_is_factor_times_its_stream(self):
        grid = TimeGrid(np.array([0.0, 0.1, 0.35, 0.4, 0.8, 1.0]))
        h = HurstParameter(0.7)
        chol = CovarianceMatrix(grid, h).cholesky()
        vals = oracles.ensemble_matrix("cholesky", grid, h, 9, 6)
        for i in range(6):
            z = SeedSpec(9, i).generator().standard_normal(grid.n_intervals)
            assert vals[i, 0] == 0.0
            np.testing.assert_allclose(vals[i, 1:], chol @ z, rtol=1e-12, atol=0.0)


class TestBlockStreams:
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 + 12345, 2**64 - 1]

    @pytest.mark.parametrize("master_seed", SEEDS)
    @pytest.mark.parametrize("first", [0, 2**32 - 300])
    def test_keys_equal_seed_sequence_state(self, master_seed, first):
        keys = rng._stream_keys(master_seed, first, 300)
        want = [
            np.random.SeedSequence(entropy=master_seed, spawn_key=(first + j,)).generate_state(2, np.uint64)
            for j in range(300)
        ]
        assert keys.dtype == np.uint64
        np.testing.assert_array_equal(keys, want)

    def test_two_word_stream_index_rejected(self):
        rng._stream_keys(3, 2**32 - 1, 1)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            rng._stream_keys(3, 2**32 - 1, 2)
        with pytest.raises(ValueError, match="2\\*\\*32"):
            standard_normal_rows(3, 2**32, np.empty((1, 4)))

    @pytest.mark.parametrize("master_seed, first", [(0, 0), (2**64 - 1, 13), (2**32, 2**32 - 5)])
    def test_rows_equal_fresh_generators(self, master_seed, first):
        out = standard_normal_rows(master_seed, first, np.empty((5, 37)))
        for j in range(5):
            want = SeedSpec(master_seed, first + j).generator().standard_normal(37)
            assert out[j].tobytes() == want.tobytes()

    def test_concurrent_blocks_match_sequential(self):
        # a generator shared between calls would interleave streams
        blocks = [(first, np.empty((200, 64))) for first in range(0, 1600, 200)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(standard_normal_rows, 7, first, b) for first, b in blocks]
                for f in futures:
                    f.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        sequential = standard_normal_rows(7, 0, np.empty((1600, 64)))
        assert np.concatenate([b for _, b in blocks]).tobytes() == sequential.tobytes()


class TestGenerators:
    @pytest.mark.parametrize("method", GENERATORS)
    def test_same_seed_is_byte_identical(self, method):
        grid = TimeGrid.uniform(32, 1.0)
        h = HurstParameter(0.7)
        a = oracles.ensemble_matrix(method, grid, h, 11, 3)
        b = oracles.ensemble_matrix(method, grid, h, 11, 3)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("method", GENERATORS)
    def test_streams_differ(self, method):
        vals = oracles.ensemble_matrix(method, TimeGrid.uniform(16, 1.0), HurstParameter(0.7), 11, 2)
        assert not np.array_equal(vals[0], vals[1])

    @pytest.mark.parametrize("method", GENERATORS)
    def test_paths_start_at_zero(self, method):
        vals = oracles.ensemble_matrix(method, TimeGrid.uniform(8, 1.0), HurstParameter(0.6), 0, 3)
        assert np.all(vals[:, 0] == 0.0)

    @pytest.mark.parametrize("method", GENERATORS)
    def test_ensemble_matches_per_stream_paths(self, method):
        # Row i depends on stream i alone, so a prefix of a larger ensemble
        # is the smaller ensemble. Circulant and hosking transform row by
        # row, bit for bit; the cholesky product may accumulate in an order
        # the BLAS picks from the row count, so it is held to rounding.
        grid = TimeGrid.uniform(16, 1.0)
        h = HurstParameter(0.75)
        eight = oracles.ensemble_matrix(method, grid, h, 5, 8)
        four = oracles.ensemble_matrix(method, grid, h, 5, 4)
        if method == "cholesky":
            np.testing.assert_allclose(eight[:4], four, rtol=1e-12, atol=1e-15)
        else:
            assert eight[:4].tobytes() == four.tobytes()

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown generator"):
            oracles.ensemble_matrix("fft", TimeGrid.uniform(4, 1.0), HurstParameter(0.7), 0, 1)

    @pytest.mark.parametrize("method", ["circulant", "hosking"])
    def test_uniform_grid_required(self, method):
        grid = TimeGrid(np.array([0.0, 0.4, 1.0]))
        with pytest.raises(ValueError, match="uniform"):
            oracles.ensemble_matrix(method, grid, HurstParameter(0.7), 0, 1)

    def test_cholesky_accepts_irregular_grid(self):
        grid = TimeGrid(np.array([0.0, 0.4, 0.45, 1.0]))
        vals = oracles.ensemble_matrix("cholesky", grid, HurstParameter(0.7), 0, 1)
        assert vals.shape == (1, 4)

    @pytest.mark.parametrize("method", GENERATORS)
    def test_brownian_increments_are_standard_normal(self, method):
        # At H = 1/2 the increments over a uniform grid are iid N(0, dt).
        grid = TimeGrid.uniform(64, 1.0)
        vals = oracles.ensemble_matrix(method, grid, HurstParameter(0.5), 202, 200)
        incs = np.diff(vals, axis=1).ravel() / np.sqrt(1.0 / 64.0)
        _, p = stats.kstest(incs, "norm")
        assert p > 0.01, f"{method} H=1/2 increments fail KS: p = {p:.4f}"

    @pytest.mark.parametrize(
        "pair", [("cholesky", "circulant"), ("cholesky", "hosking")]
    )
    def test_cross_generator_terminal_law(self, pair):
        grid = TimeGrid.uniform(32, 1.0)
        h = HurstParameter(0.8)
        x = oracles.ensemble_matrix(pair[0], grid, h, 31, 400)[:, -1]
        y = oracles.ensemble_matrix(pair[1], grid, h, 32, 400)[:, -1]
        p = oracles.energy_permutation_pvalue(x, y, n_perm=199, seed=1)
        assert p > 0.01, f"{pair} terminal-value energy test: p = {p:.4f}"


class TestRowBlocks:
    GRID_N = 255
    BLOCK = fbm._BLOCK_CELLS // (GRID_N + 1)

    @pytest.fixture(scope="class")
    def larger(self):
        grid = TimeGrid.uniform(self.GRID_N, 1.0)
        h = HurstParameter(0.7)
        n_paths = 3 * self.BLOCK + 20
        return {m: oracles.ensemble_matrix(m, grid, h, 4, n_paths) for m in ("circulant", "hosking")}

    @pytest.mark.parametrize("method", ["circulant", "hosking"])
    @pytest.mark.parametrize("n_paths", [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    def test_ensemble_is_prefix_of_larger_bitwise(self, larger, method, n_paths):
        assert self.BLOCK > 1
        grid = TimeGrid.uniform(self.GRID_N, 1.0)
        vals = oracles.ensemble_matrix(method, grid, HurstParameter(0.7), 4, n_paths)
        assert vals.shape == (n_paths, self.GRID_N + 1)
        assert vals.tobytes() == larger[method][:n_paths].tobytes()

    def test_peak_memory_is_one_block_of_buffers(self, monkeypatch):
        # 512 paths of 4097 nodes are 16 MiB; with a consumer that keeps
        # W_T, the sampler holds one worker's 15-row buffers and its FFT
        # temporaries, about 3.6 MiB
        monkeypatch.setenv("FRACWICK_THREADS", "1")
        grid = TimeGrid.uniform(4096, 1.0)
        tracemalloc.start()
        try:
            ensemble_values("circulant", grid, HurstParameter(0.7), 0, 512, keep=lambda lo, b: b[:, -1].copy())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        paths = 512 * 4097 * 8
        assert peak < paths / 4, f"peak {peak / 2**20:.1f} MiB for {paths / 2**20:.1f} MiB of paths"


class TestBlockCore:
    # grid_n 256 puts block_rows(257) = 255 rows in a block, so 600 paths
    # make blocks of 255, 255 and 90 rows
    GRID_N = 256
    N_PATHS = 600

    @pytest.mark.parametrize("method", GENERATORS)
    def test_bit_identical_across_thread_counts(self, monkeypatch, method):
        grid = TimeGrid.uniform(self.GRID_N, 1.0)
        runs = {}
        for threads in ("1", "2", "4"):
            monkeypatch.setenv("FRACWICK_THREADS", threads)
            runs[threads] = oracles.ensemble_matrix(method, grid, HurstParameter(0.7), 3, self.N_PATHS).tobytes()
        assert runs["1"] == runs["2"] == runs["4"]

    @pytest.mark.parametrize("method", GENERATORS)
    def test_consumer_gets_the_blocks_in_row_order(self, monkeypatch, method):
        monkeypatch.setenv("FRACWICK_THREADS", "4")
        grid = TimeGrid.uniform(self.GRID_N, 1.0)
        h = HurstParameter(0.7)
        kept = ensemble_values(method, grid, h, 3, self.N_PATHS, keep=lambda lo, b: (lo, b.copy()))
        assert [(lo, b.shape) for lo, b in kept] == [(0, (255, 257)), (255, (255, 257)), (510, (90, 257))]
        # the same rows drawn as one block; the cholesky product may
        # accumulate in an order the BLAS picks from the row count
        joined = np.concatenate([b for _, b in kept])
        whole = oracles.ensemble_matrix(method, grid, h, 3, self.N_PATHS, min_rows=self.N_PATHS)
        if method == "cholesky":
            np.testing.assert_allclose(joined, whole, rtol=1e-12, atol=1e-15)
        else:
            assert joined.tobytes() == whole.tobytes()


@pytest.mark.parametrize("h", [0.3, 0.55, 0.7, 0.9])
@pytest.mark.parametrize("n", [1, 2, 16, 64, 256])
def test_hosking_rows_are_cholesky_rows_on_the_same_streams(n, h):
    # The Durbin-Levinson recursion factors the Toeplitz fGn covariance,
    # so dt^H times the cumulative sum of its factor is the lower-triangular
    # factor of the path covariance, which is unique: on the same n normals
    # per stream, both samplers give the same rows up to rounding.
    grid = TimeGrid.uniform(n, 1.0)
    hp = HurstParameter(h)
    hosking = oracles.ensemble_matrix("hosking", grid, hp, 13, 8)
    cholesky = oracles.ensemble_matrix("cholesky", grid, hp, 13, 8)
    assert np.max(np.abs(hosking - cholesky)) <= 1e-10 * np.max(np.abs(cholesky))


class TestEmpiricalCovariance:
    def test_covariance_of_the_given_columns(self):
        grid = TimeGrid.uniform(4, 1.0)
        vals = oracles.ensemble_matrix("circulant", grid, HurstParameter(0.7), 0, 16)
        cov, stderr = empirical_covariance(vals[:, 1:])
        assert cov.shape == (4, 4) and stderr.shape == (4, 4)

    def test_matches_plain_mean_of_products(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=(30, 3))
        cov, _ = empirical_covariance(v)
        np.testing.assert_allclose(cov, v.T @ v / 30.0, rtol=1e-14)

    @given(seed=st.integers(0, 10_000), m=st.integers(3, 40), n=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_jackknife_reduces_to_delete_one(self, seed, m, n):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(m, n))
        _, stderr = empirical_covariance(v)
        for i in range(n):
            for j in range(n):
                products = v[:, i] * v[:, j]
                want = oracles.jackknife_delete_one(products)
                assert stderr[i, j] == pytest.approx(want, rel=1e-10, abs=1e-15), (
                    f"jackknife mismatch at entry ({i},{j}): "
                    f"{stderr[i, j]} vs delete-one {want}"
                )
                assert sample_stderr(products) == pytest.approx(want, rel=1e-10, abs=1e-15)

    def test_strided_columns_give_the_strided_entries(self):
        # generate --plots keeps only the columns its heatmap shows
        rng = np.random.default_rng(7)
        v = rng.normal(size=(50, 10))
        cov, stderr = empirical_covariance(v)
        cov3, stderr3 = empirical_covariance(v[:, ::3])
        assert cov3.shape == (4, 4)
        np.testing.assert_allclose(cov3, cov[::3, ::3], rtol=1e-13)
        np.testing.assert_allclose(stderr3, stderr[::3, ::3], rtol=1e-12)

    def test_single_path_rejected(self):
        with pytest.raises(ValueError):
            empirical_covariance(np.zeros((1, 5)))
