"""The README's library examples run, and its list of public names is ``eccbounds.__all__``."""

import re
from pathlib import Path

import eccbounds

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def test_python_blocks_run_and_public_names_resolve():
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.S | re.M)
    assert blocks
    namespace: dict = {}
    for block in blocks:  # in order, sharing one namespace, as a reader would run them
        exec(compile(block, "README.md", "exec"), namespace)
    missing = [name for name in eccbounds.__all__ if not hasattr(eccbounds, name)]
    assert missing == []
    assert len(set(eccbounds.__all__)) == len(eccbounds.__all__)


def test_public_api_list_equals_all():
    listing = re.search(r"The public API is `eccbounds.__all__`, these (\d+) names:\n\n(.*?)\n\n", README, re.S)
    assert listing
    names = re.findall(r"`(\w+)`", listing.group(2))
    assert sorted(names) == sorted(eccbounds.__all__)
    assert int(listing.group(1)) == len(eccbounds.__all__)
