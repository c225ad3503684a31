import re
from pathlib import Path

import pytest

from selbergkit import cli, quadrature, suites


@pytest.mark.parametrize("suite, calls", [("an-aflt", 10), ("an-alt", 5)])
def test_chain_norm_computed_once_per_shape(monkeypatch, suite, calls):
    # an-aflt: 8 numerators and one normalising integral per (ks, gamma)
    # shape; an-alt: 4 numerators and one shared normalising integral
    seen = []
    real = quadrature.an_selberg_lhs

    def counting(*args, **kwargs):
        seen.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(quadrature, "an_selberg_lhs", counting)
    suites._chain_norm.cache_clear()
    cfg = {"seed": 7}
    gen, _ = suites.SUITES[suite]
    for params in gen(cfg):
        assert suites.run_case(suite, params, cfg).passed
    assert len(seen) == calls


def test_size_at_cap_is_used_as_given():
    gen, _ = suites.SUITES["skew-sum"]
    ids = {c["case_id"] for c in gen({"max_size": 2})}
    assert "skew-(2)-(1,1)-2-2" in ids
    assert not any("(3)" in i or "(2,1)" in i for i in ids)
    with pytest.raises(ValueError, match="--max-size 4"):
        gen({"max_size": 4})


def test_every_verify_setting_is_read():
    # a key a --config may set, other than jobs, that no suite reads would
    # be a setting that is parsed and then ignored
    src = Path(suites.__file__).read_text()
    read = set(re.findall(r'cfg\.get\("(\w+)"', src))
    assert set(cli.VERIFY_KEYS) - {"jobs"} <= read
