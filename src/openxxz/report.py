"""Check records, verification reports, and their serialized forms."""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import asdict, dataclass, field


@dataclass(frozen=True)
class CheckRecord:
    suite: str
    case: str
    residual: float
    tolerance: float
    passed: bool
    seed: int
    n_sites: int
    params_digest: str
    elapsed_ms: float = 0.0
    # "<Type>: <message>" of the exception that made a guarded check fail
    error: str = ""


@dataclass
class VerificationReport:
    records: list = field(default_factory=list)

    def add(self, record: CheckRecord):
        self.records.append(record)

    def extend(self, records):
        self.records.extend(records)

    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def summary(self):
        """Per-suite (total, passed, worst residual ratio) triples."""
        return {suite: row[:3] for suite, row in self.suite_rows().items()}

    def suite_rows(self):
        """Per-suite (total, passed, worst residual ratio, worst case).

        The worst case is the first record in case order that reaches the
        worst ratio; a suite whose ratios are all 0 names its first case.
        """
        out = {}
        for r in self.sorted_records():
            total, passed, worst, case = out.get(r.suite, (0, 0, 0.0, r.case))
            ratio = r.residual / r.tolerance if r.tolerance > 0 else 0.0
            if ratio > worst:
                worst, case = ratio, r.case
            out[r.suite] = (total + 1, passed + int(r.passed), worst, case)
        return out

    def sorted_records(self):
        return sorted(self.records, key=lambda r: (r.suite, r.case))

    # -- serialization -------------------------------------------------------

    def to_jsonl(self, include_timings: bool = False) -> str:
        """One JSON object per record; byte-stable for a fixed seed.

        Timings vary run to run, so they are zeroed unless explicitly
        requested; every other field is deterministic.
        """
        lines = []
        for r in self.sorted_records():
            d = asdict(r)
            if not include_timings:
                d["elapsed_ms"] = 0.0
            lines.append(json.dumps(d, sort_keys=True, ensure_ascii=True))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "VerificationReport":
        report = cls()
        for line in text.strip().splitlines():
            if line:
                report.add(CheckRecord(**json.loads(line)))
        return report

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "total", "passed", "failed", "worst_residual_ratio"])
        for suite, (total, passed, worst) in sorted(self.summary().items()):
            writer.writerow([suite, total, passed, total - passed, f"{worst:.6e}"])
        return buf.getvalue()

    def emit(self, out_path, fmt: str = "json", include_timings: bool = False):
        from pathlib import Path

        path = Path(out_path)
        if fmt == "json":
            path.write_text(self.to_jsonl(include_timings))
        elif fmt == "csv":
            path.write_text(self.to_csv())
        else:
            raise ValueError(f"unknown format {fmt!r}")
        return path


def params_digest(params) -> str:
    """Stable short digest of a parameter set for the report metadata."""
    def c2l(z):
        return [float(complex(z).real), float(complex(z).imag)]

    payload = {
        "N": params.N,
        "eta": c2l(params.eta),
        "xi": [c2l(x) for x in params.xi],
        "minus": [c2l(params.boundary_minus.sigma), c2l(params.boundary_minus.kappa),
                  c2l(params.boundary_minus.tau)],
        "plus": [c2l(params.boundary_plus.sigma), c2l(params.boundary_plus.kappa),
                 c2l(params.boundary_plus.tau)],
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
