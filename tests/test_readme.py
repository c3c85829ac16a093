import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quickstart_runs(tmp_path, monkeypatch):
    """The README's python blocks run as written, in order, in one namespace
    (the second block reuses the first block's field and measure)."""
    blocks = re.findall(r"```python\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 2
    monkeypatch.chdir(tmp_path)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert (tmp_path / "eps.json").is_file()


# independent oracles stay at the top level for cross-checks
ORACLES = {"oracle_evolve", "poisson_laplace_functional",
           "bernoulli_laplace_functional", "fixed_count_laplace_functional"}


def test_top_level_names_are_documented():
    """Every top-level export is in README or is an oracle, and nothing
    public sits at the top level outside __all__."""
    import types

    import sprinkled_nls

    text = README.read_text(encoding="utf-8")
    undocumented = [name for name in sprinkled_nls.__all__
                    if name not in ORACLES
                    and not re.search(rf"\b{name}\b", text)]
    assert undocumented == []
    public = {name for name, obj in vars(sprinkled_nls).items()
              if not name.startswith("_")
              and not isinstance(obj, types.ModuleType)}
    assert public == set(sprinkled_nls.__all__)
