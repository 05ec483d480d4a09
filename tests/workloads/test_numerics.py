"""Numeric correctness of the workload kernels against numpy.

The workloads are scaled-down but *real* kernels: the FFT must be an
FFT, the LU an LU, Black–Scholes a Black–Scholes.  Checking them against
reference implementations guards against a reproduction that's
deterministic only because it computes nothing meaningful.
"""

import math

import pytest

np = pytest.importorskip("numpy")

from repro.core.control.controller import InstantCheckControl
from repro.sim.program import Runner
from repro.sim.scheduler import RoundRobinScheduler
from repro.workloads import Blackscholes, Fft, Lu, Radix


def run_once(program, seed=0):
    runner = Runner(program, control=InstantCheckControl(),
                    scheduler=RoundRobinScheduler())
    runner.run(seed)
    return runner


def heap_array(runner, site, n):
    block = next(b for b in runner.allocator.live_blocks() if b.site == site)
    return np.array([runner.memory.load(block.base + i) for i in range(n)])


def test_fft_matches_numpy():
    program = Fft(n_workers=4, log2_n=6)
    runner = run_once(program)
    n = program.n
    signal = np.array([math.sin(0.1 * i) + 0.25 * (i % 5) for i in range(n)])
    reference = np.fft.fft(signal) / n  # the workload normalizes by n
    re = heap_array(runner, "fft.c:re", n)
    im = heap_array(runner, "fft.c:im", n)
    np.testing.assert_allclose(re, reference.real, atol=1e-9)
    np.testing.assert_allclose(im, reference.imag, atol=1e-9)


def test_lu_factors_reconstruct_matrix():
    program = Lu(n_workers=4, n=16, block=4)
    runner = run_once(program)
    n = program.n
    # Rebuild the input matrix the way setup() does.
    a = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            a[i, j] = 1.0 + ((i * 31 + j * 17) % 13) * 0.25
            if i == j:
                a[i, j] += 4.0 * n
    factored = heap_array(runner, "lu.c:matrix", n * n).reshape(n, n)
    lower = np.tril(factored, -1) + np.eye(n)
    upper = np.triu(factored)
    np.testing.assert_allclose(lower @ upper, a, rtol=1e-9)
    # And match what partial pivoting would compute: with no multiplier
    # above 1 in magnitude it swaps no rows (P = I), and LU factors are
    # unique, so L and U are exactly the pivoted reference's.
    assert np.abs(lower).max() <= 1.0


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def test_blackscholes_against_closed_form():
    program = Blackscholes(n_workers=4, n_options=16, passes=3)
    runner = run_once(program)
    prices = heap_array(runner, "bs.c:prices", 16)
    t = 0.5 + 0.1 * (program.passes - 1)  # the last pass's maturity
    rate, vol = 0.02, 0.3
    for i in range(16):
        spot = 90.0 + (i * 7) % 40
        strike = 95.0 + (i * 3) % 30
        d1 = ((math.log(spot / strike) + (rate + vol**2 / 2) * t)
              / (vol * math.sqrt(t)))
        d2 = d1 - vol * math.sqrt(t)
        reference = (spot * normal_cdf(d1)
                     - strike * math.exp(-rate * t) * normal_cdf(d2))
        assert prices[i] == pytest.approx(reference, rel=1e-9)
    # Prices are sane: nonnegative, below spot.
    assert (prices >= 0).all()


def test_radix_output_is_sorted_permutation():
    program = Radix(n_workers=4, n_keys=48)
    runner = run_once(program)
    arrays = {}
    for block in runner.allocator.live_blocks():
        if block.site in ("radix.c:keys", "radix.c:scratch"):
            arrays[block.site] = [runner.memory.load(a)
                                  for a in block.addresses()]
    sorted_arrays = [a for a in arrays.values() if a == sorted(a)]
    assert sorted_arrays, "no array ended globally sorted"
    # And the sorted array is a permutation of the input keys.
    from repro.workloads.common import LocalRng

    rng = LocalRng(42)
    original = sorted(rng.next_int(1 << 12) for _ in range(48))
    assert sorted_arrays[0] == original
