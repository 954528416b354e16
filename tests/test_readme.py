"""The README's quick tour runs as written, so a renamed or removed name
cannot leave it stale; its shape comments are checked too."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_tour_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```\n",
                        README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    tour = {}
    exec(compile(blocks[0], str(README), "exec"), tour)
    assert capsys.readouterr().out.startswith("NonpairwiseCertified (")
    assert tour["velocities"].shape == (tour["config"].n_samples, 5)
    assert tour["rows"].shape == (60 * 51, 5)
