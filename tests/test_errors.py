import pytest

from sprinkled_nls.errors import (MAX_ENTRIES, MAX_STEPS, ConfigError,
                                  checked_size)


@pytest.mark.parametrize("ceiling", [MAX_STEPS, MAX_ENTRIES])
def test_checked_size_is_one_closed_range(ceiling):
    """Sizes 0 ... ceiling pass as ints; anything else, NaN and inf
    included, raises ConfigError naming the size, its value and the
    ceiling."""
    assert checked_size("cells", ceiling, ceiling) == ceiling
    assert checked_size("cells", 0, ceiling) == 0
    assert type(checked_size("cells", float(ceiling), ceiling)) is int
    for n, shown in ((ceiling + 1, str(ceiling + 1)), (-1, "-1"),
                     (float("nan"), "nan"), (float("inf"), "inf")):
        with pytest.raises(ConfigError, match=rf"^cells is {shown}, outside "
                           rf"the size ceiling \[0, {ceiling}\]$"):
            checked_size("cells", n, ceiling)
