"""The CI workflow names only test targets and benchmark workloads that exist.

The workflow runs only on the hosted runners, so a renamed test file, test
class or workload would break it there and nowhere else. This reads
``.github/workflows/tests.yml`` as text: every pytest path and node id it
names must resolve in the checkout, and every ``bench/run.py --workload``
must be a workload ``BENCHMARK.json`` declares.
"""

import ast
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = (ROOT / ".github" / "workflows" / "tests.yml").read_text()


def pytest_targets(text):
    """The path arguments (``a/b.py`` or ``a/b.py::Node``) of every
    ``pytest`` command in ``text``."""
    targets = []
    for line in text.splitlines():
        _, found, args = line.partition("pytest ")
        if found:
            targets += [a for a in args.split()
                        if re.fullmatch(r"[\w./-]+\.py(::\w+)*", a)]
    return targets


def defines(path, names):
    """Whether ``path`` defines the nested classes and functions
    ``names``, outermost first."""
    body = ast.parse(path.read_text()).body
    for name in names:
        node = next((n for n in body if getattr(n, "name", None) == name),
                    None)
        if node is None:
            return False
        body = getattr(node, "body", [])
    return True


def test_pytest_targets_exist():
    targets = pytest_targets(WORKFLOW)
    assert "bench/test_smoke.py" in targets
    assert "tests/test_workers.py::TestSameBytes" in targets
    for target in targets:
        path, *names = target.split("::")
        assert (ROOT / path).is_file(), target
        assert defines(ROOT / path, names), target
    # a renamed test class would be refused
    assert not defines(ROOT / "tests/test_workers.py", ["TestSameBits"])


def test_workloads_declared():
    declared = {w["name"] for w in
                json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    named = re.findall(r"bench/run\.py\s.*?--workload[ =](\S+)", WORKFLOW)
    assert named
    assert set(named) <= declared

