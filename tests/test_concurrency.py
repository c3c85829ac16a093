import pytest

from sprinkled_nls.concurrency import ENV_VAR, parallel_map, thread_count
from sprinkled_nls.rng import generator, substream_seed


def test_thread_count_default(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert thread_count() == 0


def test_thread_count_reads_env(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "4")
    assert thread_count() == 4


@pytest.mark.parametrize("raw", ["four", "1.5", "-2"])
def test_thread_count_rejects_bad_values(monkeypatch, raw):
    monkeypatch.setenv(ENV_VAR, raw)
    with pytest.raises(ValueError):
        thread_count()


def test_parallel_map_sequential(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert parallel_map(lambda v: v * v, range(7)) == [v * v for v in range(7)]


def test_parallel_map_preserves_order(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "8")
    out = parallel_map(lambda v: -v, list(range(50)))
    assert out == [-v for v in range(50)]


def test_parallel_map_bitwise_reproducible(monkeypatch):
    """Per-item substreams make results independent of the worker count."""

    def draw(i):
        return generator(substream_seed(123, i)).normal(size=3).tolist()

    monkeypatch.delenv(ENV_VAR, raising=False)
    seq = parallel_map(draw, range(12))
    monkeypatch.setenv(ENV_VAR, "6")
    par = parallel_map(draw, range(12))
    assert seq == par
