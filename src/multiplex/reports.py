"""Check reports: every axiom checker returns one of these, not a bare bool.

A report lists the locations where a condition fails (first 16 recorded,
all counted), which is what actually makes sign errors debuggable.
"""

from __future__ import annotations

MAX_RECORDED = 16


class Report:
    __slots__ = ("subject", "checked", "failure_count", "failures")

    def __init__(self, subject: str):
        self.subject = subject
        self.checked = 0
        self.failure_count = 0
        self.failures: list[tuple] = []

    def tick(self, n: int = 1):
        self.checked += n

    def fail(self, location, detail: str = ""):
        self.failure_count += 1
        if len(self.failures) < MAX_RECORDED:
            self.failures.append((location, detail))

    @property
    def ok(self) -> bool:
        return self.failure_count == 0

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "checked": self.checked,
            "failure_count": self.failure_count,
            "failures": [{"location": list(loc) if isinstance(loc, tuple) else loc,
                          "detail": det} for loc, det in self.failures],
        }

    def __str__(self):
        if self.ok:
            return f"{self.subject}: ok ({self.checked} conditions)"
        n = self.failure_count  # a condition may fail at several places
        lines = [f"{self.subject}: FAILED ({n} failure{'' if n == 1 else 's'}"
                 f" in {self.checked} conditions)"]
        for loc, det in self.failures:
            lines.append(f"  at {loc}: {det}" if det else f"  at {loc}")
        if self.failure_count > len(self.failures):
            lines.append(f"  ... {self.failure_count - len(self.failures)} more")
        return "\n".join(lines)

    def raise_if_failed(self):
        if not self.ok:
            raise ValueError(str(self))
