"""The README's documented library use and config keys, run as written."""

import contextlib
import io
import json
import re
from pathlib import Path

from ojaboot import harness

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def block_after(heading: str, lang: str) -> str:
    """The first fenced `lang` block after the line that starts with heading."""
    match = re.search(rf"^{re.escape(heading)}.*?^```{lang}\n(.*?)^```", README,
                      re.MULTILINE | re.DOTALL)
    assert match, f"no ```{lang} block after {heading!r} in README.md"
    return match.group(1)


def test_typical_library_use_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block_after("Typical library use", "python"), "README.md", "exec"), {})
    assert 0.0 <= float(out.getvalue()) <= 1.0


def test_config_keys_block_is_a_valid_config_with_the_echoed_keys():
    raw = json.loads(block_after("Config file keys", "json"))
    config = harness.config_from_dict(raw)
    assert set(raw) == set(config.echo())
