"""Every fenced ``python`` block of README.md runs as written.

The blocks run in order, in one namespace, as a reader would paste them,
so that a name the README uses and the package no longer has fails here.
"""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    """``(first line, source)`` of each fenced ``python`` block."""
    return [(text.count("\n", 0, m.start(1)) + 1, m.group(1))
            for m in re.finditer(r"^```python\n(.*?)^```", text,
                                 re.MULTILINE | re.DOTALL)]


def test_python_blocks_run():
    blocks = python_blocks(README.read_text())
    assert blocks
    namespace = {"__name__": "readme"}
    for line, source in blocks:
        # padded so that a traceback names the README's own line
        exec(compile("\n" * (line - 1) + source, str(README), "exec"),
             namespace)
