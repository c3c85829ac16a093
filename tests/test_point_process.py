import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from sprinkled_nls.errors import ConfigError
from sprinkled_nls import rng
from sprinkled_nls.point_process import (RAMP, AtomicMeasure, PoissonBatch,
                                         SmoothedIndicator,
                                         bernoulli_laplace_functional,
                                         empirical_laplace_functional,
                                         fixed_count_laplace_functional,
                                         load_atoms_json,
                                         poisson_laplace_functional,
                                         sample_bernoulli_crystal, sample_comb,
                                         sample_fixed_count, sample_poisson,
                                         save_atoms_csv, save_atoms_json)
from sprinkled_nls.rng import substream_seed
from sprinkled_nls import studies
from sprinkled_nls.studies import poisson_sweep

# frozen closed forms exp(-int (1 - e^-phi)) for smoothed indicators of [0, 1]
# at heights 1/2, 1, 2 (50-digit arithmetic, ramp 0.05)
POISSON_LF = {0.5: 0.67361132387599199, 1.0: 0.52871672872201869,
              2.0: 0.41553092249423335}
# frozen (1 + I/10)^10 for the height-2 indicator on a length-10 window
FIXED_LF_N10 = 0.39884696750647242


def test_atomic_measure_validation():
    for window, positions, masses in (
            ((1.0, -1.0), [0.0], [1.0]),
            ((-1.0, 1.0), [2.0], [1.0]),
            ((-1.0, 1.0), [0.0], [-1.0]),
            ((-1.0, 1.0), [np.nan], [1.0]),
            ((-1.0, 1.0), [0.0], [np.inf]),
            ((-1.0, 1.0), [0.0], [np.nan]),
            ((-np.inf, 1.0), [0.0], [1.0]),
            ((-1.0, np.nan), [], [])):
        with pytest.raises(ValueError):
            AtomicMeasure(window, np.array(positions), np.array(masses))


# every entry point that takes a window, called on window w
WINDOW_ENTRY_POINTS = {
    "AtomicMeasure": lambda w: AtomicMeasure(w, np.empty(0), np.empty(0)),
    "PoissonBatch": lambda w: PoissonBatch(w, [], [0]),
    "sample_poisson": lambda w: sample_poisson(w, 1.0, 0),
    "sample_bernoulli_crystal": lambda w: sample_bernoulli_crystal(w, 1.0,
                                                                   0.5, 0),
    "sample_fixed_count": lambda w: sample_fixed_count(w, 3, 0),
    "sample_comb": sample_comb,
    "fixed_count_laplace_functional": lambda w: fixed_count_laplace_functional(
        SmoothedIndicator(0.0, 1.0), w, 1),
}


@pytest.mark.parametrize("window", [
    (-np.inf, 2.0), (-1.0, np.inf), (np.nan, 2.0), (-1.0, np.nan),
    (2.0, -1.0), (1.0, 1.0), (-1.0, 1e300), (-1e300, 2.0),
    (-1.0, 2.0**52 + 2.0**30), (-2.0**52 - 2.0**30, 2.0)])
@pytest.mark.parametrize("entry", sorted(WINDOW_ENTRY_POINTS))
def test_window_rule_everywhere(entry, window):
    """One rule, -2^52 <= lo < hi <= 2^52, raised as ConfigError by every
    entry point that takes a window; (-1, 2) itself passes everywhere."""
    WINDOW_ENTRY_POINTS[entry]((-1.0, 2.0))
    with pytest.raises(ConfigError, match="2\\*\\*52"):
        WINDOW_ENTRY_POINTS[entry](window)


def test_atomic_measure_sorts_atoms():
    mu = AtomicMeasure((-2.0, 2.0), np.array([1.0, -1.0, 0.0]),
                       np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(mu.positions, [-1.0, 0.0, 1.0])
    np.testing.assert_array_equal(mu.masses, [2.0, 3.0, 1.0])
    assert mu.count == 3
    assert np.sum(mu.masses) == 6.0


def test_empty_measure_allowed():
    mu = AtomicMeasure((-1.0, 1.0), np.array([]), np.array([]))
    assert mu.count == 0
    assert np.sum(mu.masses) == 0.0


def test_sample_poisson_deterministic():
    a = sample_poisson((-32.0, 32.0), 1.0, 7)
    b = sample_poisson((-32.0, 32.0), 1.0, 7)
    np.testing.assert_array_equal(a.positions, b.positions)
    assert a.count == 67  # frozen draw for this seed; mean is 64
    assert np.all(a.masses == 1.0)
    assert np.all((a.positions >= -32.0) & (a.positions <= 32.0))


def test_sample_poisson_rejects_bad_args():
    for window, intensity in (((1.0, -1.0), 1.0), ((-1.0, 1.0), 0.0),
                              ((-1.0, 1.0), np.inf), ((-1.0, 1.0), np.nan),
                              ((-np.inf, 1.0), 1.0), ((-1.0, np.nan), 1.0),
                              # mean counts numpy cannot draw; the last is inf
                              ((-1.0, 1.0), 1e300), ((-1e300, 1e300), 1.0),
                              ((-1e300, 1e300), 1e300)):
        with pytest.raises(ConfigError):
            sample_poisson(window, intensity, 0)


def test_sample_comb_hits_integers():
    mu = sample_comb((-3.0, 3.0))
    np.testing.assert_array_equal(mu.positions, [-3, -2, -1, 0, 1, 2, 3])
    assert np.all(mu.masses == 1.0)


def test_bernoulli_crystal_full_probability_is_comb():
    mu = sample_bernoulli_crystal((-4.0, 4.0), 0.5, 1.0, seed=0)
    np.testing.assert_allclose(mu.positions, 0.5 * np.arange(-8, 9))


@pytest.mark.parametrize("spacing", [0.0, -1.0, float("nan"), float("inf"),
                                     1e-310, 1e-300])
def test_lattice_spacing_rule(spacing):
    """Both lattice users reject a spacing that is not positive and finite,
    or whose site count is past the size ceiling, with a ValueError."""
    with pytest.raises(ValueError, match="spacing"):
        sample_bernoulli_crystal((-32.0, 32.0), spacing, 0.5, seed=0)
    with pytest.raises(ValueError, match="spacing"):
        bernoulli_laplace_functional(SmoothedIndicator(0.0, 1.0), spacing,
                                     0.5)


@pytest.mark.parametrize("prob", [0.0, -0.5, 1.5, float("nan")])
def test_lattice_prob_rule(prob):
    """Both lattice users reject an occupation probability outside (0, 1]
    with a ValueError."""
    with pytest.raises(ValueError, match="prob"):
        sample_bernoulli_crystal((-4.0, 4.0), 1.0, prob, seed=0)
    with pytest.raises(ValueError, match="prob"):
        bernoulli_laplace_functional(SmoothedIndicator(0.0, 1.0), 1.0, prob)


def _site_count(lo: Fraction, hi: Fraction, spacing: Fraction) -> int:
    """The exact number of multiples of spacing in [lo, hi]."""
    return math.floor(hi / spacing) - math.ceil(lo / spacing) + 1


@pytest.mark.parametrize("num, den", [(1, 10), (1, 100), (1, 1000), (3, 10),
                                      (7, 10), (1, 20)])
def test_lattice_sites_stay_in_window(num, den, monkeypatch):
    """On windows whose edges are multiples of 0.1 in [-10, 10], every
    lattice site lies in the closed window and the site count is the exact
    decimal count, so a site on an edge is kept and none falls outside by
    rounding (spacing 0.1 on (-10, 0.3) once put its top site at
    0.30000000000000004).  Both lattice users are checked: the crystal's
    atoms, and the sites the Laplace functional evaluates phi at, which must
    be the crystal's atoms on phi's support and as many as the rational
    support holds."""
    spacing, exact = num / den, Fraction(num, den)
    evaluated, evaluate = [], SmoothedIndicator.__call__

    def record(phi, x):
        evaluated.append(x)
        return evaluate(phi, x)

    monkeypatch.setattr(SmoothedIndicator, "__call__", record)
    half_ramp = Fraction(1, 40)
    for i in range(-100, 101, 3):
        for j in range(i + 1, 101, 3):
            a, b = i / 10, j / 10
            lo, hi = Fraction(i, 10), Fraction(j, 10)
            count = _site_count(lo, hi, exact)
            atoms = sample_bernoulli_crystal((a, b), spacing, 1.0, seed=0)
            assert atoms.count == count, (a, b)
            assert ((a <= atoms.positions) & (atoms.positions <= b)).all()
            # phi on [a, b], and inset by RAMP/2 so that its support is the
            # window itself up to rounding
            phis = [(SmoothedIndicator(a, b),
                     _site_count(lo - half_ramp, hi + half_ramp, exact))]
            if j - i > 1:
                phis.append((SmoothedIndicator(a + RAMP / 2, b - RAMP / 2),
                             count))
            for phi, n_sites in phis:
                bernoulli_laplace_functional(phi, spacing, 1.0)
                [sites] = evaluated
                evaluated.clear()
                np.testing.assert_array_equal(sites, sample_bernoulli_crystal(
                    phi.support, spacing, 1.0, seed=0).positions)
                assert sites.size == n_sites, (a, b)


def test_bernoulli_crystal_thins():
    mu = sample_bernoulli_crystal((-50.0, 50.0), 1.0, 0.25, seed=3)
    assert 0 < mu.count < 101
    assert set(mu.positions).issubset(set(float(k) for k in range(-50, 51)))


def test_fixed_count_exact_and_empty():
    mu = sample_fixed_count((-5.0, 5.0), 12, seed=4)
    assert mu.count == 12
    assert sample_fixed_count((-5.0, 5.0), 0, seed=4).count == 0
    with pytest.raises(ValueError):
        sample_fixed_count((-5.0, 5.0), -1, seed=4)


def test_smoothed_indicator_shape():
    phi = SmoothedIndicator(0.0, 1.0, height=2.0)
    lo, hi = phi.support
    assert (lo, hi) == (-0.025, 1.025)
    assert phi(np.array([0.5]))[0] == 2.0
    # zero on and just outside both support edges, and far outside
    outside = np.array([-1e6, -1.0, lo - 1e-9, np.nextafter(lo, -np.inf), lo,
                        hi, np.nextafter(hi, np.inf), hi + 1e-9, 5.0, 1e6])
    assert phi(outside).tolist() == [0.0] * outside.size
    # edge midpoints sit halfway up the ramp
    assert phi(np.array([0.0]))[0] == pytest.approx(1.0, rel=1e-14)
    val, _ = quad(lambda x: phi(np.array([x]))[0], lo, hi,
                  points=(lo, 0.025, 0.975, hi), limit=200)
    assert val == pytest.approx(2.0, rel=1e-12)  # exact area height*(b-a)


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-2.5, 4.25)])
@pytest.mark.parametrize("height", [1e-3, 0.5, 1.0, 2.0, 8.0])
def test_escape_integral_matches_quadrature(a, b, height):
    """The closed-form escape integral int (1 - e^-phi) dx agrees with
    adaptive quadrature split at the four kinks."""
    phi = SmoothedIndicator(a, b, height)
    lo, hi = phi.support
    val, _ = quad(lambda x: -np.expm1(-phi(x)), lo, hi,
                  points=(lo, a + RAMP / 2, b - RAMP / 2, hi),
                  epsabs=0.0, epsrel=1e-13, limit=200)
    assert phi.escape == pytest.approx(val, rel=1e-12)


def test_smoothed_indicator_validation():
    with pytest.raises(ValueError):
        SmoothedIndicator(1.0, 0.0)
    with pytest.raises(ValueError):
        SmoothedIndicator(0.0, 1.0, height=-1.0)
    with pytest.raises(ValueError):
        SmoothedIndicator(0.0, 0.01)  # narrower than the ramp


@pytest.mark.parametrize("height", [0.5, 1.0, 2.0])
def test_poisson_laplace_functional_frozen(height):
    phi = SmoothedIndicator(0.0, 1.0, height=height)
    assert poisson_laplace_functional(phi) == POISSON_LF[height]


def test_bernoulli_laplace_functional_small_product():
    """Five lattice sites hit the support; the product is checked by hand."""
    phi = SmoothedIndicator(0.0, 1.0, height=2.0)
    got = bernoulli_laplace_functional(phi, 0.25, 0.25)
    edge = 1.0 + 0.25 * (np.exp(-1.0) - 1.0)
    middle = 1.0 + 0.25 * (np.exp(-2.0) - 1.0)
    assert got == pytest.approx(edge**2 * middle**3, rel=1e-14)


def test_fixed_count_laplace_functional_frozen():
    phi = SmoothedIndicator(0.0, 1.0, height=2.0)
    got = fixed_count_laplace_functional(phi, (-1.0, 9.0), 10)
    assert got == FIXED_LF_N10


def test_fixed_count_requires_support_inside_window():
    """The fixed-count functional refuses a test function sticking out of
    the window, and a count below one."""
    phi = SmoothedIndicator(0.0, 1.0)
    with pytest.raises(ValueError):
        fixed_count_laplace_functional(phi, (0.5, 9.0), 10)
    for n in (0, -3):
        with pytest.raises(ValueError, match="n >= 1"):
            fixed_count_laplace_functional(phi, (-1.0, 9.0), n)


def test_laplace_ladders_approach_poisson():
    """Both non-Poisson families converge to the Poisson value."""
    phi = SmoothedIndicator(0.0, 1.0, height=2.0)
    target = poisson_laplace_functional(phi)
    bern = [abs(bernoulli_laplace_functional(phi, p, p) - target)
            for p in (0.25, 0.0625, 0.015625)]
    assert bern[0] > bern[1] > bern[2]
    fixed = [abs(fixed_count_laplace_functional(phi, (-1.0, w - 1.0), w) - target)
             for w in (10, 100, 1000)]
    assert fixed[0] > fixed[1] > fixed[2]


def test_empirical_laplace_functional_matches_closed_form():
    phi = SmoothedIndicator(0.0, 1.0, height=2.0)
    (mean,), (se,) = empirical_laplace_functional(
        poisson_sweep((-1.0, 2.0), 1.0, 99, 2000), [phi])
    assert se < 0.02
    assert abs(mean - poisson_laplace_functional(phi)) <= 3 * se


def test_empirical_laplace_functional_reproducible():
    phis = [SmoothedIndicator(0.0, 1.0), SmoothedIndicator(0.5, 1.5)]
    a = empirical_laplace_functional(poisson_sweep((0.0, 2.0), 1.0, 5, 64), phis)
    b = empirical_laplace_functional(list(poisson_sweep((0.0, 2.0), 1.0, 5, 64)),
                                     phis)
    np.testing.assert_array_equal(a, b)
    assert a[0].shape == a[1].shape == (2,)
    with pytest.raises(ValueError):
        empirical_laplace_functional(poisson_sweep((0.0, 2.0), 1.0, 5, 1), phis)


def test_empirical_laplace_functional_equals_per_sample_sums():
    """Summing phi per sample over a whole batch gives the per-measure
    exp(-m . phi(y)) of every sample bit for bit, empty samples (exp(0) = 1)
    included, also when one ends a batch."""
    phis = [SmoothedIndicator(0.0, 1.0, height=h) for h in (0.5, 2.0)]
    window, seed, n = (0.2, 0.5), 12, 2 * studies.SWEEP_CHUNK + 5
    batches = list(poisson_sweep(window, 1.0, seed, n))
    assert any(b.offsets[-2] == b.offsets[-1] for b in batches)
    got = empirical_laplace_functional(batches, phis)
    vals = np.array([[np.exp(-float(np.dot(mu.masses, phi(mu.positions))))
                      for phi in phis]
                     for mu in (sample_poisson(window, 1.0,
                                               substream_seed(seed, i))
                                for i in range(n))])
    np.testing.assert_array_equal(got[0], vals.mean(axis=0))
    np.testing.assert_array_equal(
        got[1], vals.std(axis=0, ddof=1) / np.sqrt(n))


def _assert_same_measure(mu, ref):
    assert mu.window == ref.window
    np.testing.assert_array_equal(mu.positions, ref.positions)
    np.testing.assert_array_equal(mu.masses, ref.masses)


def _swept_against_substreams(window, intensity, seed, n):
    """The sweep's samples, each checked against the one-seed draw of its
    substream (seed, i), bit for bit."""
    batches = list(poisson_sweep(window, intensity, seed, n))
    assert [len(b) for b in batches] == \
        [studies.SWEEP_CHUNK] * (n // studies.SWEEP_CHUNK) \
        + [n % studies.SWEEP_CHUNK] * bool(n % studies.SWEEP_CHUNK)
    swept = [b.measure(j) for b in batches for j in range(len(b))]
    for i, mu in enumerate(swept):
        _assert_same_measure(
            mu, sample_poisson(window, intensity, substream_seed(seed, i)))
    return swept


def test_poisson_sweep_draws_substream_per_sample():
    """Sample i is the Poisson measure of substream (seed, i), bit for bit,
    on both sides of a chunk boundary and of a seed-block boundary."""
    for n in (studies.SWEEP_CHUNK + 3,
              studies.SEED_BLOCK + studies.SWEEP_CHUNK + 3):
        swept = _swept_against_substreams((-4.0, 6.0), 2.0, 17, n)
        assert all(mu.count for mu in swept)


def test_poisson_sweep_tiny_window_mostly_empty():
    """In a window of mean count 0.05 most samples are empty; the offsets
    still place each rare atom in its own sample."""
    swept = _swept_against_substreams((0.0, 0.05), 1.0, 5,
                                      studies.SWEEP_CHUNK + 3)
    assert 0 < sum(mu.count > 0 for mu in swept) < len(swept) // 4


def test_sample_poisson_list_form_rows_equal_single_calls():
    """Row j of the list form is the one-seed call on seeds[j], whether the
    seed is an int or a derived substream seed, and an empty list is an
    empty batch."""
    window = (-2.0, 3.0)
    for seeds in ([5, 0, 2**70 + 1], rng.substream_seeds(8, 510, 515)):
        batch = sample_poisson(window, 1.5, seeds)
        assert isinstance(batch, PoissonBatch) and len(batch) == len(seeds)
        for j, seed in enumerate(seeds):
            _assert_same_measure(batch.measure(j),
                                 sample_poisson(window, 1.5, seed))
    assert len(sample_poisson(window, 1.5, [])) == 0
    with pytest.raises(ConfigError):
        sample_poisson((0.0, 1.0), 1e300, [0, 1])


def test_poisson_batch_validation():
    ok = PoissonBatch((0.0, 2.0), [0.5, 1.5, 0.2], [0, 2, 2, 3])
    assert len(ok) == 3 and ok.measure(1).count == 0
    np.testing.assert_array_equal(ok.measure(2).positions, [0.2])
    for positions, offsets in (([0.5, 2.5], [0, 2]),      # outside window
                               ([np.nan], [0, 1]),        # not finite
                               ([1.5, 0.5], [0, 2]),      # unsorted sample
                               ([0.5], [0, 2]),           # offsets past end
                               ([0.5, 1.0], [0, 2, 1]),   # offsets fall
                               ([0.5], [1, 1])):          # not from 0
        with pytest.raises(ValueError):
            PoissonBatch((0.0, 2.0), positions, offsets)
    with pytest.raises(ValueError):
        PoissonBatch((2.0, 0.0), [], [0])


def test_poisson_sweep_is_lazy(monkeypatch):
    """A billion-sample sweep draws one chunk per sample_poisson call, only
    when its reader asks for that chunk, and derives its seeds a SEED_BLOCK
    at a time, never a block ahead of its reader.  The counting stubs stop
    an eager sweep after a few calls instead of letting it run on."""
    chunk, block = studies.SWEEP_CHUNK, studies.SEED_BLOCK
    n_read = block // chunk + 2  # two chunks into the second block
    drawn, lanes = [], []
    derive = rng.substream_seeds

    def counted(*args):
        drawn.append(args)
        assert len(drawn) <= n_read, "the sweep draws ahead of its reader"
        return sample_poisson(*args)

    def counted_seeds(master, start, stop):
        lanes.append(stop - start)
        assert sum(lanes) <= n_read * chunk + block, \
            "the sweep derives seeds ahead of its reader"
        return derive(master, start, stop)

    monkeypatch.setattr(studies, "sample_poisson", counted)
    monkeypatch.setattr(rng, "substream_seeds", counted_seeds)
    sweep = poisson_sweep((0.0, 1.0), 1.0, 3, 10**9)
    for k in range(n_read):
        batch = next(sweep)
        assert len(drawn) == k + 1 and len(batch) == chunk
        assert 0 <= sum(lanes) - (k + 1) * chunk < block
        if k in (0, 1, block // chunk):
            ref = sample_poisson((0.0, 1.0), 1.0, substream_seed(3, k * chunk))
            _assert_same_measure(batch.measure(0), ref)
    assert lanes[0] <= block


def test_atoms_json_round_trip(tmp_path):
    mu = sample_poisson((-8.0, 8.0), 1.0, 21)
    path = tmp_path / "atoms.json"
    save_atoms_json(mu, path)
    back = load_atoms_json(path)
    assert back.window == mu.window
    np.testing.assert_array_equal(back.positions, mu.positions)
    np.testing.assert_array_equal(back.masses, mu.masses)


def test_atoms_csv_layout(tmp_path):
    mu = AtomicMeasure((-1.0, 1.0), np.array([-0.5, 0.25]),
                       np.array([1.0, 2.0]))
    path = tmp_path / "atoms.csv"
    save_atoms_csv(mu, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "position,mass"
    assert len(lines) == 3
    assert float(lines[1].split(",")[0]) == -0.5


def test_atoms_json_is_valid_json(tmp_path):
    mu = sample_fixed_count((-2.0, 2.0), 3, seed=1)
    path = tmp_path / "atoms.json"
    save_atoms_json(mu, path)
    doc = json.loads(path.read_text())
    assert doc["window"] == [-2.0, 2.0]
    assert len(doc["atoms"]) == 3
    assert all(len(pair) == 2 for pair in doc["atoms"])
