"""One short run of the bench's tq-n5 workload: its checks pass and its failed
share stays where the program's known T-Q fault puts it.

The bench rejects a change whose failed share grows, so a kernel change that
spoils one more solve should fail here first.  The bench files are only run,
never changed.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# solves of one tq-n5 round that the ill-conditioned collocation fit spoils
TQ_N5_FAILED = 26


def test_tq_n5_smoke_run():
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "tq-n5",
                           "--seed", "0", "--seconds", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] == 384
    assert result["failed"] <= TQ_N5_FAILED, proc.stderr
